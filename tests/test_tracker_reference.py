"""The array-native tracker against a scalar reference.

``ScalarTracker`` is the per-pair, per-branch tracker that the array code
replaced (scalar ``iou``, one ``px_to_bev`` per detection, one ``bev_to_px``
per branch, the whole history filtered on every deactivation), kept here as
the reference. The array code does the same float operations, so on seeded
crowd scenes both must give equal outputs and equal events, score floats
included.
"""

import numpy as np
import pytest

from bevtrack.boxes import PixelBox, iou, ltwh
from bevtrack.config import RunConfig
from bevtrack.errors import OutOfDomain
from bevtrack.experiments import default_camera
from bevtrack.forecast import Forecast, forecast, predicted_box, preprocess
from bevtrack.homography import Homography
from bevtrack.linearized import linearize
from bevtrack.simulator import AgentSpec, Occluder, Scenario, build_scene_model, generate
from bevtrack.tracker import (
    BranchTable,
    Detection,
    SceneModel,
    Track,
    Tracker,
    assign,
    build_cost_matrix,
    frame_geometry,
)

# -- the scalar reference ----------------------------------------------------------


def scalar_branch_boxes(track, scene, frame):
    """(branch_index, point, predicted box or None) for each of the track's branches."""
    out = []
    for bi, pt in enumerate(track.forecast.points(frame)):
        rel = pt if scene.ego is None else pt - scene.ego.offset(frame)
        try:
            pb = predicted_box(track.last_box, rel, scene.lh)
        except OutOfDomain:
            pb = None
        out.append((bi, pt, pb))
    return out


def scalar_cost_matrix(tracks, detections, config, scene, frame):
    n, m = len(tracks), len(detections)
    scores = np.zeros((n, m))
    best_branch = np.full((n, m), -1, dtype=int)
    for i, tr in enumerate(tracks):
        branches = scalar_branch_boxes(tr, scene, frame)
        for j, det in enumerate(detections):
            if tr.last_appearance is not None and det.appearance is not None:
                app = float(tr.last_appearance @ det.appearance)
                if app < config.tau_app:
                    continue
            best = 0.0
            best_bi = -1
            for bi, pt, pb in branches:
                d_iou = iou(pb, det.box) if pb is not None else 0.0
                if d_iou < config.tau_iou:
                    continue
                d_l2 = float(np.linalg.norm(pt - det.bev))
                s = d_iou + max(config.tau_l2 - d_l2, 0.0)
                if s > best:
                    best = s
                    best_bi = bi
            scores[i, j] = best
            best_branch[i, j] = best_bi
    return scores, best_branch


def _event(frame, track_id=None, detection_index=None, score=None, branch_id=None, reason=""):
    return {
        "frame": frame,
        "track_id": track_id,
        "detection_index": detection_index,
        "score": score,
        "branch_id": branch_id,
        "reason": reason,
    }


class ScalarTracker(Tracker):
    def _deactivate(self, track, frame):
        history = [(f, d.bev) for f, d in track.history if d.bev is not None]
        track.forecast = forecast(preprocess(history, self.config, self.scene.fps),
                                  self.config, self.scene.fps)
        track.source_binding = None

    def scalar_base_association(self, active, detections):
        matches = {}
        if self.config.ingest_ids:
            by_source = {t.source_binding: t for t in active if t.source_binding is not None}
            for j, det in enumerate(detections):
                tr = by_source.get(det.source_id)
                if tr is not None and tr.id not in matches:
                    matches[tr.id] = j
            return matches
        cands = []
        for tr in active:
            for j, det in enumerate(detections):
                ov = iou(tr.last_box, det.box)
                if ov >= self.config.base_iou:
                    cands.append((-ov, tr.id, j))
        cands.sort()
        used_dets = set()
        for _, tid, j in cands:
            if tid in matches or j in used_dets:
                continue
            matches[tid] = j
            used_dets.add(j)
        return matches

    def step(self, detections, frame):
        events = []
        cfg = self.config
        ego = self.scene.ego
        for det in detections:
            det.bev = self.scene.lh.px_to_bev(np.array(det.box.bottom_center))
            if ego is not None:
                det.bev = det.bev + ego.offset(frame)
        active = sorted((t for t in self.tracks.values() if t.active), key=lambda t: t.id)
        matches = self.scalar_base_association(active, detections)
        matched_dets = set(matches.values())
        for tr in active:
            if tr.id in matches:
                j = matches[tr.id]
                self._activate(tr, detections[j], frame)
                events.append(_event(frame, tr.id, j, reason="active"))
            elif cfg.forecast_enabled:
                self._deactivate(tr, frame)
                events.append(_event(frame, tr.id, reason="inactive"))
            else:
                del self.tracks[tr.id]
                events.append(_event(frame, tr.id, reason="terminated"))
        inactive = sorted((t for t in self.tracks.values() if not t.active), key=lambda t: t.id)
        survivors = []
        for tr in inactive:
            if frame > tr.forecast.end_frame:
                del self.tracks[tr.id]
                events.append(_event(frame, tr.id, reason="removed_dead"))
                continue
            if frame - tr.last_frame > cfg.tau_max * self.scene.fps:
                del self.tracks[tr.id]
                events.append(_event(frame, tr.id, reason="removed_expired"))
            else:
                survivors.append(tr)
        free_dets = [j for j in range(len(detections)) if j not in matched_dets]
        if survivors and free_dets:
            dets = [detections[j] for j in free_dets]
            scores, best_branch = scalar_cost_matrix(survivors, dets, cfg, self.scene, frame)
            for i, jj in assign(scores):
                tr = survivors[i]
                j = free_dets[jj]
                events.append(
                    _event(
                        frame,
                        tr.id,
                        j,
                        score=float(scores[i, jj]),
                        branch_id=int(best_branch[i, jj]),
                        reason="reassociated",
                    )
                )
                self._activate(tr, detections[j], frame)
                matched_dets.add(j)
        for j, det in enumerate(detections):
            if j in matched_dets:
                continue
            tid = self.next_id
            self.next_id += 1
            self.tracks[tid] = Track(
                id=tid, history=[(frame, det)], last_appearance=det.appearance,
                source_binding=det.source_id,
            )
            events.append(_event(frame, tid, j, reason="new"))
        outputs = [
            (frame, t.id, t.last_box)
            for t in sorted(self.tracks.values(), key=lambda t: t.id)
            if t.active and t.last_frame == frame
        ]
        return outputs, events


# -- seeded crowd scenes -------------------------------------------------------------


def crowd(seed, n_walkers=24, n_walls=3, duration=5.0, pan=False):
    """Walkers on random legs inside the camera's view, some passing behind walls."""
    rng = np.random.default_rng(seed)
    walls = []
    for k in range(n_walls):
        cx = (-3.0 if k % 2 == 0 else 3.0) + rng.uniform(-1.0, 1.0)
        cy = 9.0 + 7.0 * (k + 0.5) / n_walls
        walls.append(Occluder(cx - 1.8, cx + 1.8, cy, cy + 0.3, 3.3))
    agents = []
    for a in range(n_walkers):
        pts = [rng.uniform([-6.0, 6.0], [6.0, 20.0])]
        for _ in range(4):
            pts.append(np.clip(pts[-1] + rng.uniform(-5.0, 5.0, 2), [-6.0, 6.0], [6.0, 20.0]))
        agents.append(
            AgentSpec(
                id=a + 1,
                waypoints=tuple(tuple(map(float, p)) for p in pts),
                speed=float(rng.uniform(0.8, 1.6)),
                appearance_seed=int(rng.integers(0, 2**31 - 1)),
            )
        )
    fps = 20.0
    n_frames = int(round(duration * fps))
    return Scenario(
        camera=default_camera(),
        ground_extent=40.0,
        agents=tuple(agents),
        occluders=tuple(walls),
        fps=fps,
        duration=duration,
        detection_noise=0.5,
        appearance_noise=0.05,
        seed=seed,
        camera_path=tuple([(0.01, 0.0)] * (n_frames - 1)) if pan else None,
        cloud_points=200,
    )


def upstream_ids(sim):
    """Agent id, plus 1000 for every gap the agent came back from (a forgetful upstream)."""
    out, last, gaps = {}, {}, {}
    for d in sorted(sim.detections, key=lambda d: (d.agent_id, d.frame)):
        if d.agent_id in last and d.frame > last[d.agent_id] + 1:
            gaps[d.agent_id] = gaps.get(d.agent_id, 0) + 1
        last[d.agent_id] = d.frame
        out[(d.frame, d.agent_id)] = d.agent_id + 1000 * gaps.get(d.agent_id, 0)
    return out


def detections(sim, appearance, ingest):
    ids = upstream_ids(sim) if ingest else {}
    by_frame = {}
    for d in sim.detections:
        by_frame.setdefault(d.frame, []).append(
            Detection(
                frame=d.frame,
                box=d.box,
                appearance=d.appearance if appearance else None,
                source_id=ids.get((d.frame, d.agent_id)),
            )
        )
    return by_frame


def run(tracker_cls, sim, cfg, appearance, ingest, ego):
    lh = linearize(sim.homography, (1920, 1080), cfg.max_spacing)
    scene = build_scene_model(sim.scenario, lh)
    scene.ego = sim.ego if ego else None
    by_frame = detections(sim, appearance, ingest)
    tracker = tracker_cls(scene, cfg)
    outputs, events = tracker.run(by_frame, range(sim.scenario.n_frames))
    bev = [d.bev for f in sorted(by_frame) for d in by_frame[f]]
    return outputs, events, bev


# name -> (config, appearance, ingest ids, ego, seeds); the two motion models
# run on two seeds, the gate and input variations on one.
CASES = {
    "kalman_cv": (RunConfig(), True, False, False, (3, 4)),
    "fan": (RunConfig(motion="fan", k=3), True, False, False, (3, 4)),
    "fan_no_iou_gate": (RunConfig(motion="fan", k=3, tau_iou=0.0), True, False, False, (3,)),
    "ingest_ids": (RunConfig(ingest_ids=True), True, True, False, (3,)),
    "no_appearance": (RunConfig(motion="fan", k=3), False, False, False, (3,)),
    "ego": (RunConfig(motion="fan", k=3), True, False, True, (3,)),
    # short patience: forecasts end (removed_dead) or expire inside the scene
    "short_fan": (RunConfig(motion="fan", k=3, tau_max=2.0), True, False, False, (3,)),
    "short_cv": (RunConfig(tau_max=2.0, dt=0.3), True, False, False, (3,)),
}


@pytest.fixture(scope="module")
def crowd_sims():
    sims = {}

    def get(seed, pan):
        if (seed, pan) not in sims:
            sims[seed, pan] = generate(crowd(seed, pan=pan))
        return sims[seed, pan]

    return get


class TestStepMatchesScalarReference:
    @pytest.mark.parametrize(
        "case,seed", [(c, seed) for c in sorted(CASES) for seed in CASES[c][4]]
    )
    def test_outputs_and_events_equal(self, crowd_sims, case, seed):
        cfg, appearance, ingest, ego, _ = CASES[case]
        sim = crowd_sims(seed, ego)
        want = run(ScalarTracker, sim, cfg, appearance, ingest, ego)
        got = run(Tracker, sim, cfg, appearance, ingest, ego)
        assert got[0] == want[0]
        assert got[1] == want[1]  # score floats included
        assert all(np.array_equal(g, w) for g, w in zip(got[2], want[2]))
        # the scenes exercise what the array code replaced
        reasons = {e["reason"] for e in want[1]}
        assert {"inactive", "reassociated"} <= reasons


# -- the cost matrix on random instances ---------------------------------------------


def random_instance(rng, n_tracks=5, n_dets=7, k=3, dim=16):
    """Inactive tracks with k branches near random detections: (scene, tracks, detections)."""
    scene = SceneModel(lh=linearize(Homography(np.eye(3)), (200, 200), max_spacing=1e9), fps=10.0)

    def app():
        a = rng.uniform(0.1, 1.0, dim)
        return a / np.linalg.norm(a)

    dets = []
    for _ in range(n_dets):
        u, v, w, h = rng.uniform(40, 160), rng.uniform(40, 160), rng.uniform(8, 16), rng.uniform(16, 32)
        d = Detection(frame=1, box=PixelBox(u - w / 2.0, v - h, w, h), appearance=app())
        d.bev = np.array([u, v]) + rng.normal(0.0, 1.0, 2)
        dets.append(d)
    tracks = []
    for t in range(n_tracks):
        near = dets[rng.integers(n_dets)].bev
        pts = near + rng.normal(0.0, 3.0, (k, 2))
        fc = Forecast(origin=np.zeros(2), velocities=pts, created_frame=0, end_frame=1, fps=1.0)
        box = PixelBox(0.0, 0.0, rng.uniform(8, 16), rng.uniform(16, 32))
        last = Detection(frame=0, box=box, appearance=app(), bev=np.zeros(2))
        tracks.append(
            Track(id=t + 1, history=[(0, last)], last_appearance=last.appearance, forecast=fc)
        )
    return scene, tracks, dets


def geometry(tracks, dets, scene):
    return frame_geometry(BranchTable.of(tracks, fps=1.0), ltwh([d.box for d in dets]), scene, 1)


class TestCostMatrixMatchesScalarReference:
    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scene, tracks, dets = random_instance(rng)
            # The gate sits exactly on one pair's similarity, so a product that
            # rounds differently from the 1-D one flips that pair.
            tau_app = float(tracks[0].last_appearance @ dets[0].appearance)
            cfg = RunConfig(tau_app=tau_app, tau_iou=float(rng.choice([0.0, 0.2])))
            want = scalar_cost_matrix(tracks, dets, cfg, scene, 1)
            got = build_cost_matrix(tracks, dets, cfg, geometry(tracks, dets, scene))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_ties_go_to_the_first_branch(self):
        scene, tracks, dets = random_instance(np.random.default_rng(1), n_tracks=1, k=3)
        tracks[0].forecast.velocities[:] = dets[0].bev  # three identical branches
        cfg = RunConfig(tau_app=-1.0)
        scores, branch = build_cost_matrix(tracks, dets[:1], cfg, geometry(tracks, dets[:1], scene))
        assert scores[0, 0] > 0 and branch[0, 0] == 0


class TestBranchTableLifecycle:
    @pytest.mark.parametrize("case", ["fan", "short_fan", "kalman_cv"])
    def test_rows_are_the_inactive_tracks_branches(self, crowd_sims, case):
        # After every step the table holds k rows, branches 0..k-1, for each
        # inactive track and none for active or removed ones.
        cfg, appearance, ingest, ego, seeds = CASES[case]
        sim = crowd_sims(seeds[0], ego)
        lh = linearize(sim.homography, (1920, 1080), cfg.max_spacing)
        tracker = Tracker(build_scene_model(sim.scenario, lh), cfg)
        by_frame = detections(sim, appearance, ingest)
        k = len(cfg.fan_angles) if cfg.motion == "fan" else 1
        seen = set()
        for f in range(sim.scenario.n_frames):
            _, events = tracker.step(by_frame.get(f, []), f)
            seen.update(e["reason"] for e in events)
            inactive = sorted(t.id for t in tracker.tracks.values() if not t.active)
            order = np.lexsort((tracker.branches.branch, tracker.branches.owner))
            assert tracker.branches.owner[order].tolist() == np.repeat(inactive, k).tolist()
            assert tracker.branches.branch[order].tolist() == list(range(k)) * len(inactive)
        # Rows leave on re-association, and with short_fan's 2 s patience on removal too.
        assert {"inactive", "reassociated"} <= seen
        assert ("removed_dead" in seen) == (case == "short_fan")
