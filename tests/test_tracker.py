import itertools
import math

import numpy as np
import pytest

from bevtrack.boxes import PixelBox, iou, ltwh
from bevtrack.config import RunConfig
from bevtrack.egomotion import EgomotionTrack
from bevtrack.errors import NonMonotonicFrame
from bevtrack.forecast import Forecast, forecast, preprocess
from bevtrack.homography import Homography
from bevtrack.linearized import linearize
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


def make_scene(fps=10.0, size=200):
    """Identity-homography scene: BEV coordinates equal pixel coordinates."""
    lh = linearize(Homography(np.eye(3)), (size, size), max_spacing=1e9)
    return SceneModel(lh=lh, fps=fps)


def box_at(u, v, w=12.0, h=24.0):
    """Box whose bottom-center sits at pixel (u, v)."""
    return PixelBox(u - w / 2.0, v - h, w, h)


def det_at(frame, u, v, w=12.0, h=24.0, app=None, source=None):
    return Detection(frame=frame, box=box_at(u, v, w, h), appearance=app, source_id=source)


def table_of(tracks):
    """The tracks' branch table at their forecasts' frame rate."""
    return BranchTable.of(tracks, tracks[0].forecast.fps)


def cost_matrix(tracks, detections, config, scene, frame):
    """build_cost_matrix on the frame's geometry for these tracks and detections."""
    g = frame_geometry(table_of(tracks), ltwh([d.box for d in detections]), scene, frame)
    return build_cost_matrix(tracks, detections, config, g)


def unit(*v):
    a = np.asarray(v, dtype=float)
    return a / np.linalg.norm(a)


def inactive_track(tid, u, v, branch_pts, app=None, created=0, w=12.0, h=24.0):
    """A track whose forecast sits at the given branch points one frame after created."""
    d = Detection(
        frame=created, box=box_at(u, v, w, h), appearance=app, bev=np.array([u, v], float)
    )
    # At 1 fps one frame is one second, so points(created + 1) is exactly branch_pts.
    fc = Forecast(
        origin=np.zeros(2),
        velocities=np.array(branch_pts, dtype=float),
        created_frame=created,
        end_frame=created + 1,
        fps=1.0,
    )
    return Track(
        id=tid,
        history=[(created, d)],
        last_appearance=app,
        forecast=fc,
    )


def test_geometry_from_top_level_names():
    # frame_geometry and BranchTable build the geometry that build_cost_matrix
    # takes; everything here comes from the package namespace.
    import bevtrack as bt

    lh = bt.linearize(bt.Homography(np.eye(3)), (200, 200), max_spacing=1e9)
    scene = bt.SceneModel(lh=lh, fps=1.0)
    # seen at (50, 100) on frame 0, forecast at 1 m/s along x; a detection at (51, 100) on frame 1
    seen = bt.Detection(0, bt.PixelBox(44.0, 76.0, 12.0, 24.0), bev=np.array([50.0, 100.0]))
    fc = bt.Forecast(np.array([50.0, 100.0]), np.array([[1.0, 0.0]]), 0, end_frame=5, fps=1.0)
    track = bt.Track(id=1, history=[(0, seen)], last_appearance=None, forecast=fc)
    dets = [bt.Detection(1, bt.PixelBox(45.0, 76.0, 12.0, 24.0), bev=np.array([51.0, 100.0]))]
    config = bt.RunConfig()
    table = bt.BranchTable.of([track], fps=1.0)
    geometry = bt.frame_geometry(table, bt.ltwh([d.box for d in dets]), scene, 1)
    assert geometry.points.tolist() == [[51.0, 100.0]] and geometry.overlap.tolist() == [[1.0]]
    scores, branch = bt.build_cost_matrix([track], dets, config, geometry)
    assert scores.tolist() == [[1.0 + config.tau_l2]] and branch.tolist() == [[0]]
    assert {"BranchTable", "frame_geometry"} <= set(bt.__all__)
    assert "prune_forecasts" not in bt.__all__


class TestDetectionValidation:
    def test_appearance_must_be_unit(self):
        with pytest.raises(ValueError):
            det_at(0, 50, 100, app=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("app", [np.full(4, np.nan), np.array([1.0, np.nan])])
    def test_nan_appearance_rejected(self, app):
        with pytest.raises(ValueError, match="unit length"):
            det_at(0, 50, 100, app=app)

    def test_appearance_optional(self):
        d = det_at(0, 50, 100, app=None)
        assert d.appearance is None


class TestSceneModel:
    def moving(self, lh, offset):
        ego = EgomotionTrack(np.array([[0.0, 0.0], offset]))
        return SceneModel(lh=lh, fps=10.0, ego=ego)

    def test_ego_offset_added(self, lh):
        # The map is camera-relative; the scene adds the camera's offset.
        p = np.array([[800.0, 900.0]])
        scene = self.moving(lh, [1.5, -2.0])
        assert np.array_equal(scene.px_to_world(p, 0), lh.px_to_bev(p))
        moved = scene.px_to_world(p, 1)
        assert np.allclose(moved - lh.px_to_bev(p), [1.5, -2.0])

    def test_ego_offset_subtracted(self, lh):
        p = np.array([[1.0, 12.0]])
        scene = self.moving(lh, [2.0, 1.0])
        px_world, valid = scene.world_to_px(p + np.array([2.0, 1.0]), 1)
        assert valid.all()
        assert np.allclose(px_world, lh.bev_to_px(p), atol=1e-9)
        assert all(map(np.array_equal, scene.world_to_px(p, 0), lh.try_bev_to_px(p)))

    def test_validation(self):
        for fps in (0.0, -10.0, math.nan):
            with pytest.raises(ValueError, match="fps must be positive"):
                SceneModel(lh=None, fps=fps)


class TestCostMatrix:
    def test_perfect_match_score(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 52, 100)
        det.bev = np.array([52.0, 100.0])
        scores, branch = cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        # identical predicted and detected boxes: IoU 1; L2 0: bonus tau_l2
        assert scores[0, 0] == pytest.approx(1.0 + 2.5, abs=1e-12)
        assert branch[0, 0] == 0

    def test_partial_overlap_score(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 56, 100)  # 4 px to the right of the branch point
        det.bev = np.array([56.0, 100.0])
        scores, _ = cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        # 12x24 boxes offset 4 px: IoU (8*24)/(2*288-192) = 0.5; L2 = 4 > tau_l2
        assert scores[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_iou_gate_blocks_low_overlap(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 63, 100)  # 11 px offset: IoU (1*24)/(552) < tau_iou
        det.bev = np.array([63.0, 100.0])
        scores, branch = cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        assert scores[0, 0] == 0.0
        assert branch[0, 0] == -1

    def test_distance_only_score_when_iou_gate_disabled(self):
        scene = make_scene()
        cfg = RunConfig(tau_l2=20.0, tau_iou=0.0)
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 70, 100)  # disjoint boxes, BEV distance 18
        det.bev = np.array([70.0, 100.0])
        scores, branch = cost_matrix([tr], [det], cfg, scene, frame=1)
        assert scores[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert branch[0, 0] == 0

    def test_appearance_gate(self):
        scene = make_scene()
        a, b = unit(1, 0, 0), unit(0, 1, 0)  # cosine 0 < tau_app
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)], app=a)
        det = det_at(1, 52, 100, app=b)
        det.bev = np.array([52.0, 100.0])
        scores, _ = cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        assert scores[0, 0] == 0.0
        # same geometry with an agreeing descriptor passes
        det2 = det_at(1, 52, 100, app=a)
        det2.bev = np.array([52.0, 100.0])
        scores2, _ = cost_matrix([tr], [det2], RunConfig(), scene, frame=1)
        assert scores2[0, 0] == pytest.approx(3.5, abs=1e-12)

    def test_missing_appearance_skips_gate(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)], app=unit(1, 0, 0))
        det = det_at(1, 52, 100, app=None)
        det.bev = np.array([52.0, 100.0])
        scores, _ = cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        assert scores[0, 0] == pytest.approx(3.5, abs=1e-12)

    def test_best_branch_selected(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(57.0, 100.0), (52.0, 100.0)])
        det = det_at(1, 52, 100)
        det.bev = np.array([52.0, 100.0])
        scores, branch = cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        assert branch[0, 0] == 1  # the exact branch wins
        assert scores[0, 0] == pytest.approx(3.5, abs=1e-12)

    def test_matches_direct_formula_on_random_instances(self, rng):
        scene = make_scene()
        cfg = RunConfig()
        for _ in range(25):
            bp = rng.uniform(40, 160, 2)
            tr = inactive_track(1, *rng.uniform(40, 160, 2), [tuple(bp)])
            du, dv = rng.uniform(40, 160, 2)
            det = det_at(1, du, dv)
            det.bev = np.array([du, dv])
            scores, _ = cost_matrix([tr], [det], cfg, scene, frame=1)
            pb = box_at(bp[0], bp[1])
            d_iou = iou(pb, det.box)
            d_l2 = float(np.hypot(bp[0] - du, bp[1] - dv))
            want = d_iou + max(cfg.tau_l2 - d_l2, 0.0) if d_iou >= cfg.tau_iou else 0.0
            assert scores[0, 0] == pytest.approx(want, abs=1e-12)


def brute_max_total(scores):
    """Exhaustive maximum assignment total (zeros allowed, exact fsum)."""
    k = max(scores.shape)
    pad = np.zeros((k, k))
    pad[: scores.shape[0], : scores.shape[1]] = scores
    best = -1.0
    for perm in itertools.permutations(range(k)):
        tot = math.fsum(pad[i, p] for i, p in enumerate(perm))
        best = max(best, tot)
    return best


class TestAssign:
    def test_empty(self):
        assert assign(np.zeros((0, 0))) == []
        assert assign(np.zeros((2, 0))) == []

    def test_zero_scores_are_forbidden(self):
        assert assign(np.zeros((3, 3))) == []

    def test_simple_swap(self):
        # Greedy would take the 0.9 and strand the second row; optimal swaps.
        s = np.array([[0.9, 0.8], [0.85, 0.0]])
        assert assign(s) == [(0, 1), (1, 0)]

    def test_matches_brute_force_on_random_matrices(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n, m = rng.integers(1, 5, 2)
            s = rng.integers(0, 64, (n, m)) / 16.0  # dyadic: exact sums
            s[rng.random((n, m)) < 0.3] = 0.0
            pairs = assign(s)
            got = math.fsum(s[r, c] for r, c in pairs)
            assert got == brute_max_total(s)
            assert all(s[r, c] > 0 for r, c in pairs)
            assert pairs == sorted(pairs)

    def test_rectangular(self):
        s = np.array([[0.0, 3.0, 1.0]])
        assert assign(s) == [(0, 1)]


class TestDeactivateReadsTheWindowTail:
    """_deactivate filters only the history from the last observation at or
    before the grid's first point on; that must equal the whole history."""

    def check(self, frames, cfg, fps, rng):
        history = [(int(f), rng.uniform(-10.0, 10.0, 2)) for f in frames]
        tk = Tracker(make_scene(fps=fps), cfg)
        dets = [(f, Detection(frame=f, box=box_at(50, 100), bev=p)) for f, p in history]
        tr = Track(id=1, history=dets, last_appearance=None)
        tk._deactivate(tr, history[-1][0] + 1)
        want = forecast(preprocess(history, cfg, fps), cfg, fps)
        assert np.array_equal(tr.forecast.origin, want.origin)
        assert np.array_equal(tr.forecast.velocities, want.velocities)
        assert (tr.forecast.created_frame, tr.forecast.end_frame) == (
            want.created_frame, want.end_frame
        )
        first = frames[-1] - cfg.dt * fps * (cfg.obs_len - 1)
        return frames[0] > first, frames[0] < first and first not in frames

    def test_straddling_gap_and_short_history(self):
        rng = np.random.default_rng(3)
        cfg = RunConfig(obs_len=8, dt=0.5)  # at 10 fps the grid starts 35 frames back
        # observations at 20 and 50 straddle the first grid point, frame 45
        assert self.check([0, 10, 20, 50, 60, 70, 80], cfg, 10.0, rng) == (False, True)
        assert self.check([50, 60, 70, 80], cfg, 10.0, rng) == (True, False)  # shorter
        assert self.check([30, 45, 80], cfg, 10.0, rng) == (False, False)  # one at 45

    def test_random_gapped_histories(self):
        rng = np.random.default_rng(4)
        short = straddled = 0
        for _ in range(300):
            cfg = RunConfig(obs_len=int(rng.integers(1, 10)), dt=float(rng.choice([0.1, 0.3, 0.5])))
            frames = np.cumsum(rng.integers(1, 12, int(rng.integers(1, 30))))
            s, g = self.check(frames, cfg, float(rng.choice([10.0, 20.0, 30.0])), rng)
            short, straddled = short + s, straddled + g
        assert short > 30 and straddled > 30


def small_config(**kw):
    return RunConfig(tau_max=2.0, dt=0.3, **kw)


def walker_dets(frame, x0=50.0, v=1.0, y=100.0, app=None):
    return [det_at(frame, x0 + v * frame, y, app=app)]


class TestTrackerLifecycle:
    def test_new_tracks_and_outputs_sorted(self):
        tk = Tracker(make_scene(), small_config())
        outputs, events = tk.step([det_at(0, 50, 100), det_at(0, 120, 100)], 0)
        assert [tid for _, tid, _ in outputs] == [1, 2]
        assert [e["reason"] for e in events] == ["new", "new"]
        assert events[0]["detection_index"] == 0 and events[1]["detection_index"] == 1

    def test_detection_bev_filled_in(self):
        tk = Tracker(make_scene(), small_config())
        d = det_at(0, 50, 100)
        tk.step([d], 0)
        assert np.allclose(d.bev, [50.0, 100.0])  # identity homography

    def test_active_continuation_keeps_id(self):
        tk = Tracker(make_scene(), small_config())
        for f in range(4):
            outputs, events = tk.step(walker_dets(f), f)
        assert [tid for _, tid, _ in outputs] == [1]
        assert events[0]["reason"] == "active"

    def test_base_association_prefers_higher_overlap(self):
        tk = Tracker(make_scene(), small_config())
        tk.step([det_at(0, 50, 100), det_at(0, 80, 100)], 0)
        # det 0 overlaps track 1 fully; det 1 nudged from track 2
        _, events = tk.step([det_at(1, 50, 100), det_at(1, 82, 100)], 1)
        by_tid = {e["track_id"]: e for e in events if e["reason"] == "active"}
        assert by_tid[1]["detection_index"] == 0
        assert by_tid[2]["detection_index"] == 1

    def test_miss_goes_inactive_then_reassociates_same_id(self):
        tk = Tracker(make_scene(fps=10.0), small_config())
        for f in range(5):
            tk.step(walker_dets(f), f)
        _, ev5 = tk.step([], 5)
        assert [e["reason"] for e in ev5] == ["inactive"]
        assert not tk.tracks[1].active
        for f in (6, 7, 8):
            tk.step([], f)
        # walker reappears where constant velocity predicts: exact score
        outputs, ev9 = tk.step(walker_dets(9), 9)
        re = [e for e in ev9 if e["reason"] == "reassociated"]
        assert len(re) == 1
        assert re[0]["track_id"] == 1
        assert re[0]["detection_index"] == 0
        assert re[0]["branch_id"] == 0
        assert re[0]["score"] == pytest.approx(3.5, abs=1e-9)
        assert [tid for _, tid, _ in outputs] == [1]
        assert tk.tracks[1].active

    def test_forecast_disabled_terminates_on_miss(self):
        tk = Tracker(make_scene(), small_config(forecast_enabled=False))
        tk.step(walker_dets(0), 0)
        _, events = tk.step([], 1)
        assert [e["reason"] for e in events] == ["terminated"]
        assert tk.tracks == {}
        _, events = tk.step(walker_dets(2), 2)
        assert events[0]["track_id"] == 2  # ids are never reissued

    def test_expiry_after_patience(self):
        # patience tau_max * fps = 20 frames; the forecast grid covers 21, so
        # a 21-frame gap expires the track while its forecast is still alive.
        tk = Tracker(make_scene(fps=10.0), small_config())
        for f in range(5):
            tk.step(walker_dets(f), f)
        tk.step([], 5)
        outputs, events = tk.step(walker_dets(25), 25)
        reasons = [e["reason"] for e in events]
        assert "removed_expired" in reasons
        assert events[-1]["reason"] == "new" and events[-1]["track_id"] == 2

    def test_dead_forecast_removal(self):
        # a 22-frame gap outruns the 21-frame forecast: removed as dead
        tk = Tracker(make_scene(fps=10.0), small_config())
        for f in range(5):
            tk.step(walker_dets(f), f)
        tk.step([], 5)
        _, events = tk.step(walker_dets(26), 26)
        reasons = [e["reason"] for e in events]
        assert "removed_dead" in reasons and "removed_expired" not in reasons

    def test_removals_interleave_in_id_order(self):
        # track 1 expires and track 2 is dead in the same frame: one loop in
        # id order logs track 1 first
        tk = Tracker(make_scene(fps=10.0), small_config())
        expired = inactive_track(1, 52, 100, [(0.0, 0.0)])  # 25 frames unseen > 20
        expired.forecast.end_frame = 50
        dead = inactive_track(2, 80, 100, [(0.0, 0.0)], created=10)  # forecast ended at 11
        tk.tracks = {1: expired, 2: dead}
        tk.branches = table_of([expired, dead])
        tk.next_id = 3
        _, events = tk.step([], 25)
        assert [(e["track_id"], e["reason"]) for e in events] == [
            (1, "removed_expired"),
            (2, "removed_dead"),
        ]

    def test_removal_reason_precedence(self):
        # At frame 25 every track is past its 20-frame patience; track 1's
        # forecast has also ended: dead wins over expired.
        tk = Tracker(make_scene(fps=10.0), small_config())
        tracks = [inactive_track(tid, 52, 100, [(0.0, 0.0)]) for tid in (1, 2, 3)]
        tracks[1].forecast.end_frame = tracks[2].forecast.end_frame = 50
        tk.tracks = {tr.id: tr for tr in tracks}
        tk.branches = table_of(tracks)
        tk.next_id = 4
        _, events = tk.step([], 25)
        assert [(e["track_id"], e["reason"]) for e in events] == [
            (1, "removed_dead"),
            (2, "removed_expired"),
            (3, "removed_expired"),
        ]

    def test_non_monotonic_frame_rejected(self):
        tk = Tracker(make_scene(), small_config())
        tk.step(walker_dets(5), 5)
        with pytest.raises(NonMonotonicFrame):
            tk.step(walker_dets(5), 5)
        with pytest.raises(NonMonotonicFrame):
            tk.step(walker_dets(4), 4)

    def test_outputs_only_tracks_seen_this_frame(self):
        tk = Tracker(make_scene(), small_config())
        tk.step([det_at(0, 50, 100), det_at(0, 120, 100)], 0)
        outputs, _ = tk.step([det_at(1, 50, 100)], 1)
        assert [tid for _, tid, _ in outputs] == [1]


class TestIngestMode:
    def test_binding_overrides_geometry(self):
        tk = Tracker(make_scene(), small_config(ingest_ids=True))
        tk.step([det_at(0, 50, 100, source=7)], 0)
        # the upstream id jumps across the image; the binding keeps the track
        outputs, events = tk.step([det_at(1, 150, 100, source=7)], 1)
        assert [tid for _, tid, _ in outputs] == [1]
        assert events[0]["reason"] == "active"

    def test_new_upstream_id_founds_new_track(self):
        tk = Tracker(make_scene(), small_config(ingest_ids=True))
        tk.step([det_at(0, 50, 100, source=7)], 0)
        _, events = tk.step([det_at(1, 150, 100, source=8)], 1)
        reasons = {e["reason"] for e in events}
        assert "inactive" in reasons and "new" in reasons
        assert {t.id for t in tk.tracks.values()} == {1, 2}

    def test_reassociation_rebinds_upstream_id(self):
        tk = Tracker(make_scene(fps=10.0), small_config(ingest_ids=True))
        for f in range(5):
            tk.step([det_at(f, 50.0 + f, 100, source=7)], f)
        tk.step([], 5)
        # the upstream tracker reappears under a fresh id where the forecast is
        _, events = tk.step([det_at(9, 59, 100, source=11)], 9)
        assert [e["reason"] for e in events] == ["reassociated"]
        assert tk.tracks[1].source_binding == 11
        _, events = tk.step([det_at(10, 60, 100, source=11)], 10)
        assert events[0]["reason"] == "active" and events[0]["track_id"] == 1
