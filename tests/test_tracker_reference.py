"""The array-native tracker against a scalar reference.

``ScalarTracker`` is the per-track, per-pair, per-branch tracker that the
array code replaced (one ``RefTrack`` record per track, scalar ``iou``, one
``px_to_bev`` per detection, one ``bev_to_px`` per branch, the whole history
filtered on every deactivation), kept here as the reference. It reads each
frame's DetectionTable as per-row ``Row`` records. The array code does the same float operations, so on seeded crowd
scenes both must give equal outputs and equal events, score floats included.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

import bevtrack.tracker as tracker_module
from bevtrack.boxes import PixelBox, iou, iou_matrix
from bevtrack.config import RunConfig
from bevtrack.egomotion import EgomotionTrack
from bevtrack.errors import OutOfDomain
from bevtrack.experiments import default_camera
from bevtrack.forecast import forecast, predicted_box, preprocess
from bevtrack.homography import Homography
from bevtrack.simulator import (
    AgentSpec,
    Occluder,
    Scenario,
    build_scene_model,
    generate,
    true_homography,
)
from bevtrack.tracker import (
    DetectionTable,
    SceneModel,
    Tracker,
    TrackTable,
    appearance_gate,
    assign,
    build_cost_matrix,
)
from test_tracker import (
    Inactive,
    det_at,
    make_scene,
    ring_matches,
    scored,
    small_config,
    table,
    table_of,
)

# -- the scalar reference ----------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One detection as the scalar reference reads it."""

    frame: int
    box: PixelBox
    appearance: Optional[np.ndarray]  # None: no descriptor
    source_id: Optional[int]  # None: no upstream id


@dataclass
class RefTrack:
    """A track as the scalar reference keeps it."""

    id: int
    feet: list  # [(frame, (u, v) pixel bottom-centre)], one per matched frame
    last_box: PixelBox
    last_appearance: Optional[np.ndarray]  # None: the last detection had none
    forecast: Optional[tuple] = None  # (origin, velocities, created, end); None while active
    source_binding: Optional[int] = None  # upstream id of the last match, kept while inactive

    @property
    def active(self) -> bool:
        return self.forecast is None

    @property
    def last_frame(self) -> int:
        return self.feet[-1][0]


def rows_of(table):
    """The table's rows as Row records (none for an empty frame), holding its boxes."""
    if not len(table):
        return []
    app = table.appearance
    app = [None] * len(table) if app is None else [None if np.isnan(a).all() else a for a in app]
    sources = [None] * len(table) if table.source_id is None else table.source_id.tolist()
    sources = [None if s is None or s < 0 else s for s in sources]
    return list(map(Row, table.frame.tolist(), table.boxes(), app, sources))


def scalar_branch_boxes(track, scene, frame):
    """(branch_index, point, predicted box or None) for each of the track's branches."""
    out = []
    origin, velocities, created, _ = track.forecast
    for bi, pt in enumerate(origin + ((frame - created) / scene.fps) * velocities):
        rel = pt if scene.ego is None else pt - scene.ego.offset(frame)
        try:
            pb = predicted_box(track.last_box, rel, scene.homography)
        except OutOfDomain:
            pb = None
        out.append((bi, pt, pb))
    return out


def scalar_cost_matrix(tracks, detections, points, config, scene, frame):
    """Scores against detections whose bottom-centres lift to the given BEV points."""
    n, m = len(tracks), len(detections)
    scores = np.zeros((n, m))
    best_branch = np.full((n, m), -1, dtype=int)
    for i, tr in enumerate(tracks):
        branches = scalar_branch_boxes(tr, scene, frame)
        for j, (det, p) in enumerate(zip(detections, points)):
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
                d_l2 = float(np.linalg.norm(pt - p))
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


class ScalarTracker:
    """Lifts every detection as it comes and keeps each track's BEV points,
    ``points[track id]``, beside the track's pixel feet."""

    def __init__(self, scene, config):
        self.scene, self.config = scene, config
        self.tracks, self.next_id, self.points = {}, 1, {}

    def run(self, by_frame, frames):
        outputs, events = [], []
        for f in frames:
            out, ev = self.step(by_frame.get(f, []), f)
            outputs.extend(out)
            events.extend(ev)
        return outputs, events

    def _keep(self, track, det, point, frame):
        track.feet.append((frame, det.box.bottom_center))
        track.last_box, track.last_appearance = det.box, det.appearance
        track.forecast, track.source_binding = None, det.source_id
        self.points.setdefault(track.id, []).append((frame, point))

    def _deactivate(self, track, frame):
        frames, points = zip(*self.points[track.id])
        state = preprocess(frames, points, self.config, self.scene.fps)
        (origin,), (velocities,), (end,) = forecast([state], self.config, self.scene.fps)
        track.forecast = origin, velocities, state[2], int(end)

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

    def step(self, table, frame):
        detections = rows_of(table)
        events = []
        cfg = self.config
        ego = self.scene.ego
        bev = []
        for det in detections:
            p = self.scene.homography.px_to_bev(np.array(det.box.bottom_center))
            bev.append(p if ego is None else p + ego.offset(frame))
        active = sorted((t for t in self.tracks.values() if t.active), key=lambda t: t.id)
        matches = self.scalar_base_association(active, detections)
        matched_dets = set(matches.values())
        for tr in active:
            if tr.id in matches:
                j = matches[tr.id]
                self._keep(tr, detections[j], bev[j], frame)
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
            if frame > tr.forecast[3]:
                del self.tracks[tr.id]
                events.append(_event(frame, tr.id, reason="removed_dead"))
            else:
                survivors.append(tr)
        free_dets = [j for j in range(len(detections)) if j not in matched_dets]
        if cfg.ingest_ids:  # an upstream id an inactive track holds brings it back
            for j in list(free_dets):
                source = detections[j].source_id
                for tr in survivors:
                    if source is not None and tr.source_binding == source:
                        events.append(_event(frame, tr.id, j, reason="reassociated"))
                        self._keep(tr, detections[j], bev[j], frame)
                        matched_dets.add(j)
                        free_dets.remove(j)
                        survivors.remove(tr)
                        break
        if survivors and free_dets:
            dets, pts = [detections[j] for j in free_dets], [bev[j] for j in free_dets]
            scores, best_branch = scalar_cost_matrix(survivors, dets, pts, cfg, self.scene, frame)
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
                self._keep(tr, detections[j], bev[j], frame)
                matched_dets.add(j)
        for j, det in enumerate(detections):
            if j in matched_dets:
                continue
            tid = self.next_id
            self.next_id += 1
            self.tracks[tid] = RefTrack(id=tid, feet=[], last_box=det.box, last_appearance=None)
            self._keep(self.tracks[tid], det, bev[j], frame)
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


def upstream_ids(sim, bridge):
    """Each row's agent id, plus 1000 for every gap of more than bridge frames the
    agent came back from: an upstream that keeps ids through gaps of at most
    bridge frames."""
    t = sim.table
    frames, agents = t.frame.tolist(), t.agent_id.tolist()
    out, last, gaps = [0] * len(t), {}, {}
    for j in sorted(range(len(t)), key=lambda j: (agents[j], frames[j])):
        a, f = agents[j], frames[j]
        if a in last and f > last[a] + 1 + bridge:
            gaps[a] = gaps.get(a, 0) + 1
        last[a] = f
        out[j] = a + 1000 * gaps.get(a, 0)
    return out


def detections(sim, appearance, ingest):
    """{frame: DetectionTable} of the simulated detections, with their descriptors
    or none, and with upstream ids (see upstream_ids) or none."""
    t = sim.table
    ids = None if ingest is None else upstream_ids(sim, ingest)
    app = t.appearance if appearance else None
    return DetectionTable(t.frame, t.box, app, ids).by_frame()


def run(tracker_cls, sim, cfg, appearance, ingest, ego):
    scene = build_scene_model(sim.scenario, sim.homography)
    scene.ego = sim.ego if ego else None
    by_frame = detections(sim, appearance, ingest)
    tracker = tracker_cls(scene, cfg)
    outputs, events = tracker.run(by_frame, range(sim.scenario.n_frames))
    return outputs, events, tracker


# name -> (config, appearance, upstream ids (None, or the gaps in frames they
# bridge), ego, seeds); the two motion models run on two seeds, the gate and
# input variations on one.
CASES = {
    "kalman_cv": (RunConfig(), True, None, False, (3, 4)),
    "fan": (RunConfig(motion="fan", k=3), True, None, False, (3, 4)),
    "fan_no_iou_gate": (RunConfig(motion="fan", k=3, tau_iou=0.0), True, None, False, (3,)),
    "ingest_ids": (RunConfig(ingest_ids=True), True, 0, False, (3,)),
    # the upstream keeps its ids through gaps of up to 10 frames
    "ingest_bridged": (RunConfig(ingest_ids=True), True, 10, False, (3, 4)),
    "no_appearance": (RunConfig(motion="fan", k=3), False, None, False, (3,)),
    "ego": (RunConfig(motion="fan", k=3), True, None, True, (3,)),
    # short horizons: forecasts end (removed_dead) inside the scene; short_cv's
    # 7 steps of 6 frames cover 42 frames, past its 2 s at 20 fps
    "short_fan": (RunConfig(motion="fan", k=3, tau_max=2.0), True, None, False, (3,)),
    "short_cv": (RunConfig(tau_max=2.0, dt=0.3), True, None, False, (3,)),
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
        # and every track still held at the end keeps the tail of the reference's
        # feet, which holds them from the last one at or before its filter grid's
        # start, and they lift to the reference's BEV points
        ref, tracker = want[2], got[2]
        assert tracker.tracks.id.tolist() == sorted(ref.tracks)
        c = tracker.tracks.frames.shape[1]
        for i, (tid, track) in enumerate(sorted(ref.tracks.items())):
            first = track.last_frame - tracker.window_span
            start = max([k for k, (f, _) in enumerate(track.feet) if f <= first], default=0)
            assert start >= len(track.feet) - c
            kept, points = ring_matches(tracker.tracks, i), ref.points[tid][-c:]
            assert list(zip(kept[0].tolist(), map(tuple, kept[1].tolist()))) == track.feet[-c:]
            assert kept[0].tolist() == [f for f, _ in points]
            lifted = tracker.scene.px_to_world(kept[1], kept[0])
            assert np.array_equal(lifted, [p for _, p in points])
        # the scenes exercise what the array code replaced
        reasons = {e["reason"] for e in want[1]}
        assert {"inactive", "reassociated"} <= reasons
        # and a bridging upstream brings tracks back by their kept ids
        by_binding = [e for e in want[1] if e["reason"] == "reassociated" and e["score"] is None]
        assert bool(by_binding) == bool(ingest)


def random_scenario(rng):
    """A few walkers on random legs, one wall; 3 s at 10 fps."""
    agents = []
    for a in range(int(rng.integers(3, 7))):
        legs = tuple(map(tuple, rng.uniform([-5.0, 7.0], [5.0, 16.0], size=(3, 2)).tolist()))
        speed = float(rng.uniform(0.8, 1.6))
        agents.append(AgentSpec(a + 1, legs, speed, appearance_seed=int(rng.integers(2**31))))
    x = float(rng.uniform(-2.0, 2.0))
    wall = Occluder(x - 1.5, x + 1.5, 10.0, 10.3, 3.3)
    return Scenario(default_camera(), 40.0, tuple(agents), (wall,), fps=10.0, duration=3.0,
                    detection_noise=0.5, appearance_noise=0.05, seed=int(rng.integers(2**31)),
                    cloud_points=50)


def gapped_table(seed):
    """(sim, table): per-frame slices of one table of a random_scenario, some frames
    dropped, some rows without a descriptor (a row of NaN) or an upstream id (-1)."""
    rng = np.random.default_rng(seed)
    sim = generate(random_scenario(rng))
    t = sim.table
    n_frames = sim.scenario.n_frames
    keep = ~np.isin(t.frame, rng.choice(n_frames, size=n_frames // 4, replace=False))
    appearance = np.where(rng.random((len(t), 1)) < 0.2, np.nan, t.appearance)
    source = np.where(rng.random(len(t)) < 0.2, -1, t.agent_id)
    return sim, DetectionTable(t.frame[keep], t.box[keep], appearance[keep], source[keep])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ingest", [False, True])
def test_gapped_table_matches_the_reference(seed, ingest):
    sim, table = gapped_table(seed)
    n_frames = sim.scenario.n_frames
    by_frame = table.by_frame()
    cfg = RunConfig(ingest_ids=ingest)
    runs = [tracker_cls(build_scene_model(sim.scenario, sim.homography), cfg).run(by_frame, range(n_frames))
            for tracker_cls in (ScalarTracker, Tracker)]
    assert runs[1] == runs[0]
    assert len(runs[0][0]) > 0 and set(range(n_frames)) - set(by_frame)
    assert np.isnan(table.appearance).all(axis=1).any() and (table.source_id < 0).any()


# -- the numpy scorer that build_cost_matrix replaced -------------------------------


def frame_geometry(tracks, rows, det_boxes, scene, frame):
    """(points (n, K, 2), overlap (n, K, M)): the BEV points of the forecast branches
    of the inactive tracks at rows, in that order, at frame, and the IoU of each
    branch's predicted box with each of M detections' (M, 4) boxes.

    A branch's predicted box is its track's last box moved so its bottom-centre
    sits on the pixel of the branch's point; a point with no pixel preimage has
    NaN box coordinates, which overlap nothing.
    """
    last = tracks.frames[rows, (tracks.seen[rows] - 1) % tracks.frames.shape[1]]
    vel = tracks.velocity[rows]
    pts = tracks.origin[rows, None] + ((frame - last) / scene.fps)[:, None, None] * vel
    px, _ = scene.world_to_px(pts.reshape(-1, 2), frame)
    size = np.broadcast_to(tracks.box[rows, None, 2:], vel.shape)
    corner = px.reshape(vel.shape) - size / (2.0, 1.0)  # u - w / 2, v - h
    boxes = np.concatenate([corner, size], axis=2)
    return pts, iou_matrix(boxes, det_boxes)


def dense_cost_matrix(points, det_points, overlap, gate, config):
    """(scores, best_branch), each (n, m): every pair's score against detections at
    det_points (m, 2), from frame_geometry's points and overlap; 0 and -1 where the
    (n, m) gate fails or the best branch is not above 0.
    """
    # Stacked (1, 2) @ (2, 1) products round like np.linalg.norm of one pair.
    diff = points[:, :, None, :] - det_points
    d_l2 = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    s = np.where(overlap >= config.tau_iou, overlap + np.maximum(config.tau_l2 - d_l2, 0.0), 0.0)
    best = s.max(axis=1)
    ok = (best > 0.0) & gate
    return np.where(ok, best, 0.0), np.where(ok, s.argmax(axis=1), -1)


def random_scoring_step(rng, homography):
    """(rows, cand, gate, tracks, dets, scene, frame, config): a scoring step on the map.

    K is 1 or 3 and tau_iou 0 or 0.2. Branches may leave the map (behind the
    camera: no pixel preimage), hold NaN or repeat another branch exactly; the
    camera may move; the gate may be sparse. Most detections sit near a branch's pixel.
    """
    k, frame = int(rng.choice([1, 3])), int(rng.integers(20, 60))
    config = RunConfig(tau_iou=float(rng.choice([0.0, 0.2])), tau_l2=float(rng.choice([2.5, 6.0])))
    moving = rng.random() < 0.4
    ego = EgomotionTrack.from_deltas(rng.normal(0.0, 0.05, (frame, 2))) if moving else None
    scene = SceneModel(homography, fps=float(rng.choice([10.0, 12.5, 20.0])), ego=ego)
    n, c = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    tracks = TrackTable.empty().extend(range(1, n + 1))
    tracks.frames, tracks.seen = rng.integers(0, frame, (n, c)), rng.integers(1, 3 * c + 1, n)
    tracks.box[:, 2:] = rng.uniform([20.0, 50.0], [120.0, 300.0], (n, 2))
    tracks.origin = rng.uniform([-6.0, -4.0], [6.0, 20.0], (n, 2))
    tracks.velocity = rng.normal(0.0, 1.5, (n, k, 2))
    for r in range(n):
        if k > 1 and rng.random() < 0.3:  # an exact tie
            tracks.velocity[r, rng.integers(1, k)] = tracks.velocity[r, 0]
        if rng.random() < 0.15:  # a NaN branch point
            tracks.velocity[r, rng.integers(k), rng.integers(2)] = np.nan
    rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    last = tracks.frames[rows, (tracks.seen[rows] - 1) % c]
    steps = ((frame - last) / scene.fps)[:, None, None]
    px, valid = scene.world_to_px((tracks.origin[rows, None] + steps * tracks.velocity[rows])
                                  .reshape(-1, 2), frame)
    m, boxes = int(rng.integers(1, 8)), []
    for _ in range(m):
        w, h = rng.uniform([20.0, 50.0], [120.0, 300.0])
        u, v = rng.uniform([0.0, 200.0], [1920.0, 1080.0])
        if valid.any() and rng.random() < 0.8:  # near a branch's pixel
            u, v = px[rng.choice(np.flatnonzero(valid))] + rng.normal(0.0, 8.0, 2)
        boxes.append((u - w / 2.0, v - h, w, h))
    dets = DetectionTable([frame] * m, boxes)
    cand = rng.permutation(m)[: int(rng.integers(1, m + 1))]
    gate = rng.random((len(rows), len(cand))) < rng.choice([0.3, 0.7, 1.0])
    return rows, cand, gate, tracks, dets, scene, frame, config


class TestScorerMatchesTheNumpyScorer:
    def test_random_scoring_steps_bit_for_bit(self):
        rng = np.random.default_rng(37)
        homography = true_homography(default_camera())
        seen = dict.fromkeys(["k1", "k3", "tau_iou 0", "tau_iou 0.2", "no preimage", "nan point",
                              "nan zeroes a pair", "tie", "egomotion", "sparse gate", "won"], 0)
        for _ in range(1200):
            step = random_scoring_step(rng, homography)
            rows, cand, gate, tracks, dets, scene, frame, config = step
            points, overlap = frame_geometry(tracks, rows, dets.box[cand], scene, frame)
            det_points = scene.px_to_world(dets.foot[cand], frame)
            want = dense_cost_matrix(points, det_points, overlap, gate, config)
            got = scored(*step)
            assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
            assert np.array_equal(got[1], want[1])
            # what the cases cover
            k, won = points.shape[1], want[0] > 0
            ok = scene.world_to_px(points.reshape(-1, 2), frame)[1].reshape(points.shape[:2])
            nan = np.isnan(points).any(axis=2)  # (n, K)
            seen["k1" if k == 1 else "k3"] += 1
            seen[f"tau_iou {config.tau_iou:g}"] += 1
            seen["no preimage"] += bool((~ok & ~nan).any())
            seen["nan point"] += bool(nan.any())
            # at tau_iou 0 a NaN branch scores NaN, which zeroes a pair another branch overlaps
            other = ((overlap > 0) & ~nan[:, :, None]).any(axis=1)
            seen["nan zeroes a pair"] += bool(config.tau_iou == 0 and
                                              (nan.any(axis=1)[:, None] & other & gate).any())
            # a winning track with two equal branches
            tied = (points[:, :, None] == points[:, None]).all(axis=3).sum(axis=(1, 2)) > k
            seen["tie"] += bool((tied[:, None] & won).any())
            seen["egomotion"] += scene.ego is not None
            seen["sparse gate"] += bool(not gate.all())
            seen["won"] += bool(won.any())
        assert min(seen.values()) >= 20, seen

    def test_an_empty_gate_scores_nothing(self):
        rows, cand, gate, *rest = random_scoring_step(np.random.default_rng(0),
                                                      make_scene(size=2000).homography)
        assert build_cost_matrix(rows, cand, np.zeros_like(gate), *rest) == []


# -- the scorer against the scalar reference ------------------------------------------


def random_instance(rng, n_tracks=5, n_dets=7, k=3, dim=16):
    """Inactive tracks with k branches near random detections.

    Returns (scene, tracks, the detections' DetectionTable, their (M, 2) BEV points).
    """
    scene = SceneModel(Homography(np.eye(3)), fps=1.0)

    def app():
        a = rng.uniform(0.1, 1.0, dim)
        return a / np.linalg.norm(a)

    boxes, descriptors = [], []
    for _ in range(n_dets):
        u, v, w, h = rng.uniform(40, 160), rng.uniform(40, 160), rng.uniform(8, 16), rng.uniform(16, 32)
        boxes.append((u - w / 2.0, v - h, w, h))
        descriptors.append(app())
    dets = DetectionTable([1] * n_dets, boxes, descriptors)
    points = scene.px_to_world(dets.foot, 1)  # the identity map: the bottom-centres
    tracks = []
    for t in range(n_tracks):
        near = points[rng.integers(n_dets)]
        pts = near + rng.normal(0.0, 3.0, (k, 2))
        fc = np.zeros(2), pts, 0, 1  # at 1 fps, on frame 1 the branches sit at pts
        box = PixelBox(0.0, 0.0, rng.uniform(8, 16), rng.uniform(16, 32))
        tracks.append(RefTrack(t + 1, [(0, np.zeros(2))], box, last_appearance=app(), forecast=fc))
    return scene, tracks, dets, points


def cost_matrix(tracks, dets, cfg, scene):
    """build_cost_matrix, dense, for the RefTracks (in id order) and dets at frame 1."""
    held = table_of([Inactive(t.id, t.last_box, t.last_appearance, *t.forecast, scene.fps)
                     for t in tracks])
    gate = appearance_gate(held.appearance, dets.appearance, cfg.tau_app)
    return scored(np.arange(len(tracks)), np.arange(len(dets)), gate, held, dets, scene, 1, cfg)


class TestCostMatrixMatchesScalarReference:
    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scene, tracks, dets, points = random_instance(rng)
            # The gate sits exactly on one pair's similarity, so a product that
            # rounds differently from the 1-D one flips that pair.
            tau_app = float(tracks[0].last_appearance @ dets.appearance[0])
            cfg = RunConfig(tau_app=tau_app, tau_iou=float(rng.choice([0.0, 0.2])))
            want = scalar_cost_matrix(tracks, rows_of(dets), points, cfg, scene, 1)
            got = cost_matrix(tracks, dets, cfg, scene)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_ties_go_to_the_first_branch(self):
        scene, tracks, dets, points = random_instance(np.random.default_rng(1), n_tracks=1, k=3)
        tracks[0].forecast[1][:] = points[0]  # three identical branches
        first = dets.rows(slice(0, 1))
        scores, branch = cost_matrix(tracks, first, RunConfig(tau_app=-1.0), scene)
        assert scores[0, 0] > 0 and branch[0, 0] == 0


# -- re-association over appearance-gated candidate pairs ------------------------------


class DenseTracker(Tracker):
    """The tracker that mapped and scored every (inactive survivor, free detection)
    pair before the appearance gate, in numpy, and assigned over all of them."""

    def _advance_inactive(self, dets, free, frame, events, took, dead):
        cfg, t = self.config, self.tracks
        gone = (t.end < frame) > t.active
        if not free and not gone.any():
            return
        held = ~t.active
        dead += gone.nonzero()[0].tolist()
        events += [tracker_module._event(frame, tid, reason="removed_dead")
                   for tid in t.id[gone].tolist()]

        def reassociate(r, j, score=None, branch=None):
            events.append(tracker_module._event(frame, int(t.id[r]), j, score, branch,
                                                reason="reassociated"))
            took.append((r, j))
            gone[r] = True

        if cfg.ingest_ids and free and dets.source_id is not None:
            rows = (held & ~gone).nonzero()[0].tolist()
            bound = {s: r for s, r in zip(t.source[rows].tolist(), rows) if s >= 0}
            sources = dets.source_id[free].tolist()
            for j, s in zip(free, sources):
                if s in bound:
                    reassociate(bound[s], j)
            left = [k for k, s in enumerate(sources) if s not in bound]
            free = [free[k] for k in left]
        survivors = (held & ~gone).nonzero()[0]
        if len(survivors) and free:
            free_bev = self.scene.px_to_world(dets.foot[free], frame)
            points, overlap = frame_geometry(t, survivors, dets.box[free], self.scene, frame)
            app = np.zeros((len(free), 0)) if dets.appearance is None else dets.appearance[free]
            gate = appearance_gate(t.appearance[survivors], app, self.config.tau_app)
            scores, best_branch = dense_cost_matrix(points, free_bev, overlap, gate, self.config)
            for i, jj in assign(scores):
                reassociate(survivors[i], free[jj], float(scores[i, jj]), int(best_branch[i, jj]))


def described(table, descriptors):
    """The table with unit descriptors as simulated ("unit"), some rows of NaN ("nan",
    as gapped_table has them), or none ("absent")."""
    app = {"unit": np.where(np.isnan(table.appearance), 1.0 / math.sqrt(table.appearance.shape[1]),
                            table.appearance),
           "nan": table.appearance, "absent": None}[descriptors]
    return DetectionTable(table.frame, table.box, app, table.source_id)


@pytest.mark.parametrize("tau_app", [0.8, 0.97])
@pytest.mark.parametrize("descriptors", ["unit", "nan", "absent"])
@pytest.mark.parametrize("seed", range(6))
def test_candidate_pairs_match_the_dense_reference(seed, descriptors, tau_app, monkeypatch):
    # Geometry and scores only for the pairs that pass the appearance gate: the same
    # events as scoring every pair in numpy and assigning over all of them.
    sim, table = gapped_table(seed)
    by_frame = described(table, descriptors).by_frame()
    cfg = RunConfig(motion="fan", k=3, tau_app=tau_app)
    n_frames = sim.scenario.n_frames
    want = DenseTracker(build_scene_model(sim.scenario, sim.homography), cfg).run(by_frame, range(n_frames))
    gated, mapped = [], []  # per gate call: the survivors; per scoring step: the tracks mapped

    def gate(track_appearance, *args):
        gated.append(len(track_appearance))
        mapped.append(0)
        return appearance_gate(track_appearance, *args)

    def scorer(rows, *args):
        mapped[-1] = len(rows)
        return build_cost_matrix(rows, *args)

    monkeypatch.setattr(tracker_module, "appearance_gate", gate)
    monkeypatch.setattr(tracker_module, "build_cost_matrix", scorer)
    got = Tracker(build_scene_model(sim.scenario, sim.homography), cfg).run(by_frame, range(n_frames))
    assert got == want
    assert any(e["reason"] == "reassociated" for e in want[1])
    # unit descriptors leave some tracks unmapped; without descriptors every pair passes
    if descriptors == "unit":
        assert any(0 < k < n for k, n in zip(mapped, gated))
    if descriptors == "absent":
        assert mapped == gated


def test_two_tracks_winning_one_detection_match_the_dense_reference(monkeypatch):
    # two walkers 6 px apart, both missed at frame 5; at frame 6 one detection between
    # their forecasts, which both overlap: assign breaks the contest as over every pair
    calls = []
    monkeypatch.setattr(tracker_module, "assign", lambda s: calls.append(s) or assign(s))
    frames = [(f, table(det_at(f, 50.0 + f, 100.0), det_at(f, 56.0 + f, 100.0)))
              for f in range(5)] + [(5, []), (6, table(det_at(6, 59.0, 100.0)))]
    events = []
    for tracker_cls in (DenseTracker, Tracker):
        del calls[:]
        tk = tracker_cls(make_scene(fps=10.0), small_config())
        events.append([e for f, dets in frames for e in tk.step(dets, f)[1]])
    assert events[1] == events[0]
    assert len(calls) == 1 and (calls[0] > 0).sum(axis=0).tolist() == [2]
    assert [e["reason"] for e in events[1] if e["frame"] == 6] == ["reassociated"]


# -- base association on both sides of FEW_PAIRS ---------------------------------------


def grid_boxes(rng, k):
    """(k, 4) boxes on a small integer grid, so exact IoU ties and touching edges are common."""
    return np.column_stack([rng.integers(0, 8, (k, 2)), rng.integers(1, 5, (k, 2))]).astype(float)


def base_association_instance(rng, n, m):
    """(tracker, active rows, detections, the active tracks as RefTracks): n active tracks
    among up to two inactive ones, and m detections, with duplicate detection boxes, two
    tracks on one box and detections on track boxes."""
    inactive = int(rng.integers(0, 3))
    ids = np.sort(rng.choice(np.arange(1, 4 * (n + inactive) + 1), n + inactive, replace=False))
    active = np.zeros(n + inactive, bool)
    active[rng.choice(n + inactive, n, replace=False)] = True
    boxes, det_boxes = grid_boxes(rng, n + inactive), grid_boxes(rng, m)
    for copies, source in ((boxes, boxes), (det_boxes, det_boxes), (det_boxes, boxes)):
        for _ in range(int(rng.integers(0, 3))):
            copies[rng.integers(len(copies))] = source[rng.integers(len(source))]
    tk = Tracker(SceneModel(None, fps=10.0))
    tk.tracks = TrackTable.empty().extend(ids)
    tk.tracks.active, tk.tracks.box = active, boxes
    rows = active.nonzero()[0]
    refs = [RefTrack(int(ids[r]), [], PixelBox(*boxes[r]), None) for r in rows]
    return tk, rows, DetectionTable(np.zeros(m, int), det_boxes), refs


@pytest.mark.parametrize("seed", range(4))
def test_base_association_matches_the_reference_around_the_cutoff(seed, monkeypatch):
    # Tables of 1 to FEW_PAIRS + 10 pairs: at most FEW_PAIRS go through scalar IoU and
    # never reach iou_matrix, more through iou_matrix. base_iou is 0 (touching and
    # disjoint pairs qualify at IoU 0), 0.5, or exactly one pair's IoU.
    rng = np.random.default_rng(seed)
    calls = []
    monkeypatch.setattr(tracker_module, "iou_matrix",
                        lambda a, b: calls.append(1) or iou_matrix(a, b))
    for pairs in range(1, tracker_module.FEW_PAIRS + 11):
        n = int(rng.choice([d for d in range(1, pairs + 1) if pairs % d == 0]))
        tk, rows, dets, refs = base_association_instance(rng, n, pairs // n)
        ious = [iou(r.last_box, d.box) for r in refs for d in rows_of(dets)]
        at_one_pair = float(rng.choice([x for x in ious if x > 0] or [0.5]))
        for base_iou in (0.0, 0.5, at_one_pair):
            tk.config = RunConfig(base_iou=base_iou)
            del calls[:]
            got = tk._base_association(rows, dets)
            want = ScalarTracker(None, tk.config).scalar_base_association(refs, rows_of(dets))
            assert {refs[i].id: j for i, j in got.items()} == want, (seed, pairs, base_iou)
            assert len(calls) == (pairs > tracker_module.FEW_PAIRS)


class TestForecastColumns:
    @pytest.mark.parametrize("case", ["fan", "short_fan", "kalman_cv"])
    def test_inactive_tracks_hold_k_branches_until_their_end(self, crowd_sims, case):
        # After every step each track has k velocity rows, and each inactive one a forecast
        # that ends the forecast's span after its last match, at or after this frame.
        cfg, appearance, ingest, ego, seeds = CASES[case]
        sim = crowd_sims(seeds[0], ego)
        tracker = Tracker(build_scene_model(sim.scenario, sim.homography), cfg)
        by_frame = detections(sim, appearance, ingest)
        k = len(cfg.fan_angles) if cfg.motion == "fan" else 1
        span = math.ceil(cfg.tau_max / cfg.dt) * max(1, round(cfg.dt * tracker.scene.fps))
        seen = set()
        for f in range(sim.scenario.n_frames):
            _, events = tracker.step(by_frame.get(f, []), f)
            seen.update(e["reason"] for e in events)
            t = tracker.tracks
            inactive = (~t.active).nonzero()[0]
            assert t.velocity.shape == (len(t), k, 2)
            last = t.frames[inactive, (t.seen[inactive] - 1) % t.frames.shape[1]]
            assert (t.end[inactive] == last + span).all() and (t.end[inactive] >= f).all()
        # Tracks leave the inactive rows on re-association, and with short_fan's 2 s
        # patience on removal too.
        assert {"inactive", "reassociated"} <= seen
        assert ("removed_dead" in seen) == (case == "short_fan")


class TestTrackOrder:
    @pytest.mark.parametrize("case", ["short_fan", "short_cv"])
    def test_ids_ascend_after_every_step(self, crowd_sims, case):
        # step lists the active tracks and the outputs in the track table's
        # row order, which is id order only if no track is ever re-inserted: ids
        # are issued increasing, and removal and re-association keep the rest in place.
        cfg, appearance, ingest, ego, seeds = CASES[case]
        sim = crowd_sims(seeds[0], ego)
        tracker = Tracker(build_scene_model(sim.scenario, sim.homography), cfg)
        by_frame = detections(sim, appearance, ingest)
        seen = set()
        for f in range(sim.scenario.n_frames):
            outputs, events = tracker.step(by_frame.get(f, []), f)
            seen.update(e["reason"] for e in events)
            ids = tracker.tracks.id.tolist()
            assert ids == sorted(set(ids))
            assert [tid for _, tid, _ in outputs] == sorted(tid for _, tid, _ in outputs)
        # short_fan's and short_cv's forecasts end inside the scene (removed_dead)
        assert {"reassociated", "new", "removed_dead"} <= seen


# -- metamorphic relations: what must not change ------------------------------------


def partition(outputs):
    """The tracks' (frame, box) rows, as a set of sets: blind to the ids."""
    rows = {}
    for f, tid, box in outputs:
        rows.setdefault(tid, set()).add((f, box))
    return {frozenset(r) for r in rows.values()}


def metamorphic_input(source, crowd_sims):
    """(scene factory, {frame: DetectionTable}, config, n_frames) of one source: a
    crowd case, a whole random_scenario table, or a gapped one (with upstream ids
    in ingestion mode)."""
    kind, name, seed = source
    if kind == "crowd":
        cfg, appearance, ingest, ego, _ = CASES[name]
        sim = crowd_sims(seed, ego)
        by_frame = detections(sim, appearance, ingest)
    else:
        ego, cfg = False, RunConfig(ingest_ids=name == "ingest")
        if kind == "random":
            sim = generate(random_scenario(np.random.default_rng(seed)))
            by_frame = sim.table.by_frame()
        else:
            sim, table = gapped_table(seed)
            by_frame = table.by_frame()

    def scene(shift=0):
        """The scene model; a moving camera's track starts shift frames late."""
        s = build_scene_model(sim.scenario, sim.homography)
        s.ego = None
        if ego:
            s.ego = EgomotionTrack(np.concatenate([np.zeros((shift, 2)), sim.ego.offsets]))
        return s

    return scene, by_frame, cfg, sim.scenario.n_frames


METAMORPHIC_SOURCES = [
    *[("crowd", c, 3) for c in sorted(CASES)],
    *[("random", mode, seed) for mode in ("plain", "ingest") for seed in range(6)],
    *[("gapped", mode, seed) for mode in ("plain", "ingest") for seed in range(6)],
]
METAMORPHIC_IDS = ["-".join(map(str, s)) for s in METAMORPHIC_SOURCES]


@pytest.mark.parametrize("source", METAMORPHIC_SOURCES, ids=METAMORPHIC_IDS)
def test_shuffling_rows_within_frames_keeps_the_partition(crowd_sims, source):
    # Ids and detection indices may change with the row order; which rows
    # share a track may not.
    scene, by_frame, cfg, n_frames = metamorphic_input(source, crowd_sims)
    want, _ = Tracker(scene(), cfg).run(by_frame, range(n_frames))
    rng = np.random.default_rng(7)
    for _ in range(2):
        shuffled = {f: t.rows(rng.permutation(len(t))) for f, t in by_frame.items()}
        got, _ = Tracker(scene(), cfg).run(shuffled, range(n_frames))
        assert partition(got) == partition(want)
    assert len(want) == sum(map(len, by_frame.values()))  # every row is in a track


GAPPED_INGEST = [s for s in METAMORPHIC_SOURCES if s[:2] == ("gapped", "ingest")]


@pytest.mark.parametrize("source", GAPPED_INGEST, ids=lambda s: "-".join(map(str, s)))
def test_renaming_upstream_ids_keeps_outputs_and_events(crowd_sims, source):
    # An upstream id only binds a detection to a track: a random one-to-one map of
    # the ids >= 0, which reorders them, changes no output and no event.
    scene, by_frame, cfg, n_frames = metamorphic_input(source, crowd_sims)
    want = Tracker(scene(), cfg).run(by_frame, range(n_frames))
    ids = np.unique(np.concatenate([t.source_id for t in by_frame.values()]))
    ids = ids[ids >= 0]
    new = np.random.default_rng(7).choice(10**12, size=len(ids), replace=False)

    def renamed(t):
        source = t.source_id.copy()
        bound = source >= 0
        source[bound] = new[np.searchsorted(ids, source[bound])]
        return DetectionTable(t.frame, t.box, t.appearance, source)

    got = Tracker(scene(), cfg).run({f: renamed(t) for f, t in by_frame.items()},
                                    range(n_frames))
    assert got == want
    # tracks came back by id, which scores nothing
    assert any(e["reason"] == "reassociated" and e["score"] is None for e in want[1])


@pytest.mark.parametrize("source", METAMORPHIC_SOURCES, ids=METAMORPHIC_IDS)
def test_shifting_every_frame_shifts_outputs_and_events(crowd_sims, source):
    scene, by_frame, cfg, n_frames = metamorphic_input(source, crowd_sims)
    want = Tracker(scene(), cfg).run(by_frame, range(n_frames))
    for shift in (1000, 123457):
        moved = {
            f + shift: DetectionTable(t.frame + shift, t.box, t.appearance, t.source_id)
            for f, t in by_frame.items()
        }
        outputs, events = Tracker(scene(shift), cfg).run(moved, range(shift, shift + n_frames))
        assert [(f - shift, tid, box) for f, tid, box in outputs] == want[0]
        assert [{**e, "frame": e["frame"] - shift} for e in events] == want[1]


@pytest.mark.parametrize("source", METAMORPHIC_SOURCES, ids=METAMORPHIC_IDS)
def test_translating_the_camera_and_every_agent_keeps_the_partition(crowd_sims, source):
    # The camera and every agent move by one ground vector at frame 1 (the world
    # frame is the camera's at frame 0), so the images and the detections stay the
    # same. Lifted points and forecasts all move by the vector, which rounds the
    # scores' last bits differently: the partition is what must not change.
    scene, by_frame, cfg, n_frames = metamorphic_input(source, crowd_sims)
    want, _ = Tracker(scene(), cfg).run(by_frame, range(n_frames))
    moved = {f + 1: DetectionTable(t.frame + 1, t.box, t.appearance, t.source_id)
             for f, t in by_frame.items()}
    rng = np.random.default_rng(METAMORPHIC_SOURCES.index(source))
    for vector in (rng.uniform(-20.0, 20.0, 2), rng.uniform(-2000.0, 2000.0, 2)):
        translated = scene()
        path = np.zeros((n_frames, 2)) if translated.ego is None else translated.ego.offsets
        translated.ego = EgomotionTrack(np.concatenate([np.zeros((1, 2)), path + vector]))
        got, _ = Tracker(translated, cfg).run(moved, range(1, n_frames + 1))
        assert partition([(f - 1, tid, box) for f, tid, box in got]) == partition(want)
