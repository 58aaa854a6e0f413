import itertools
import math

import numpy as np
import pytest

from bevtrack.boxes import PixelBox, iou
from bevtrack.config import RunConfig
from bevtrack.errors import NonMonotonicFrame
from bevtrack.forecast import Forecast
from bevtrack.homography import Homography
from bevtrack.linearized import linearize
from bevtrack.tracker import (
    Detection,
    SceneModel,
    Track,
    Tracker,
    assign,
    build_cost_matrix,
    prune_forecasts,
)


def make_scene(fps=10.0, size=200, mask=None, cell=1.0, origin=(0.0, 0.0)):
    """Identity-homography scene: BEV coordinates equal pixel coordinates."""
    lh = linearize(Homography(np.eye(3)), (size, size), max_spacing=1e9)
    if mask is None:
        mask = np.ones((size, size), dtype=bool)
    return SceneModel(
        mask=mask, cell_size=cell, origin=np.asarray(origin, float), lh=lh, fps=fps
    )


def box_at(u, v, w=12.0, h=24.0):
    """Box whose bottom-center sits at pixel (u, v)."""
    return PixelBox(u - w / 2.0, v - h, w, h)


def det_at(frame, u, v, w=12.0, h=24.0, app=None, source=None):
    return Detection(frame=frame, box=box_at(u, v, w, h), appearance=app, source_id=source)


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
        inactive_since=created + 1,
    )


class TestDetectionValidation:
    def test_appearance_must_be_unit(self):
        with pytest.raises(ValueError):
            det_at(0, 50, 100, app=np.array([1.0, 1.0]))

    def test_appearance_optional(self):
        d = det_at(0, 50, 100, app=None)
        assert d.appearance is None


class TestSceneModel:
    def test_contains_respects_origin_and_cell(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 1] = True  # covers bev x in [12,14), y in [24,26)
        s = SceneModel(
            mask=mask,
            cell_size=2.0,
            origin=np.array([10.0, 20.0]),
            lh=None,
            fps=10.0,
        )
        assert s.contains(np.array([13.0, 25.0]))
        assert not s.contains(np.array([13.0, 23.0]))
        assert not s.contains(np.array([11.0, 25.0]))
        assert not s.contains(np.array([9.0, 25.0]))  # outside the grid
        assert not s.contains(np.array([200.0, 200.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneModel(mask=np.zeros((0, 3), dtype=bool), cell_size=1.0, origin=np.zeros(2), lh=None, fps=10.0)
        with pytest.raises(ValueError):
            SceneModel(mask=np.ones((2, 2), dtype=bool), cell_size=0.0, origin=np.zeros(2), lh=None, fps=10.0)


class TestCostMatrix:
    def test_perfect_match_score(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 52, 100)
        det.bev = np.array([52.0, 100.0])
        scores, branch = build_cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        # identical predicted and detected boxes: IoU 1; L2 0: bonus tau_l2
        assert scores[0, 0] == pytest.approx(1.0 + 2.5, abs=1e-12)
        assert branch[0, 0] == 0

    def test_partial_overlap_score(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 56, 100)  # 4 px to the right of the branch point
        det.bev = np.array([56.0, 100.0])
        scores, _ = build_cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        # 12x24 boxes offset 4 px: IoU (8*24)/(2*288-192) = 0.5; L2 = 4 > tau_l2
        assert scores[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_iou_gate_blocks_low_overlap(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 63, 100)  # 11 px offset: IoU (1*24)/(552) < tau_iou
        det.bev = np.array([63.0, 100.0])
        scores, branch = build_cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        assert scores[0, 0] == 0.0
        assert branch[0, 0] == -1

    def test_distance_only_score_when_iou_gate_disabled(self):
        scene = make_scene()
        cfg = RunConfig(tau_l2=20.0, tau_iou=0.0)
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 70, 100)  # disjoint boxes, BEV distance 18
        det.bev = np.array([70.0, 100.0])
        scores, branch = build_cost_matrix([tr], [det], cfg, scene, frame=1)
        assert scores[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert branch[0, 0] == 0

    def test_appearance_gate(self):
        scene = make_scene()
        a, b = unit(1, 0, 0), unit(0, 1, 0)  # cosine 0 < tau_app
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)], app=a)
        det = det_at(1, 52, 100, app=b)
        det.bev = np.array([52.0, 100.0])
        scores, _ = build_cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        assert scores[0, 0] == 0.0
        # same geometry with an agreeing descriptor passes
        det2 = det_at(1, 52, 100, app=a)
        det2.bev = np.array([52.0, 100.0])
        scores2, _ = build_cost_matrix([tr], [det2], RunConfig(), scene, frame=1)
        assert scores2[0, 0] == pytest.approx(3.5, abs=1e-12)

    def test_missing_appearance_skips_gate(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)], app=unit(1, 0, 0))
        det = det_at(1, 52, 100, app=None)
        det.bev = np.array([52.0, 100.0])
        scores, _ = build_cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        assert scores[0, 0] == pytest.approx(3.5, abs=1e-12)

    def test_best_branch_selected(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(57.0, 100.0), (52.0, 100.0)])
        det = det_at(1, 52, 100)
        det.bev = np.array([52.0, 100.0])
        scores, branch = build_cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        assert branch[0, 0] == 1  # the exact branch wins
        assert scores[0, 0] == pytest.approx(3.5, abs=1e-12)

    def test_pruned_branch_not_scored(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0), (57.0, 100.0)])
        tr.forecast.alive[0] = False  # the exact branch was pruned
        det = det_at(1, 52, 100)
        det.bev = np.array([52.0, 100.0])
        scores, branch = build_cost_matrix([tr], [det], RunConfig(), scene, frame=1)
        assert branch[0, 0] == 1
        assert scores[0, 0] == pytest.approx(iou(box_at(57, 100), det.box), abs=1e-12)

    def test_matches_direct_formula_on_random_instances(self, rng):
        scene = make_scene()
        cfg = RunConfig()
        for _ in range(25):
            bp = rng.uniform(40, 160, 2)
            tr = inactive_track(1, *rng.uniform(40, 160, 2), [tuple(bp)])
            du, dv = rng.uniform(40, 160, 2)
            det = det_at(1, du, dv)
            det.bev = np.array([du, dv])
            scores, _ = build_cost_matrix([tr], [det], cfg, scene, frame=1)
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


class TestPruneForecasts:
    def make_track(self, n_points=30, at=(52.0, 100.0)):
        fc = Forecast(
            origin=at, velocities=np.zeros((1, 2)), created_frame=0, end_frame=n_points, fps=10.0
        )
        d = Detection(frame=0, box=box_at(*at), appearance=None, bev=np.array(at))
        return Track(id=1, history=[(0, d)], last_appearance=None, forecast=fc, inactive_since=1)

    def test_visible_streak_kills_after_limit(self):
        scene = make_scene(fps=10.0)
        cfg = RunConfig(tau_vis=0.5, tau_max=6.0)  # limit: 5 consecutive calls
        tr = self.make_track()
        for i in range(5):
            prune_forecasts(tr, scene, [], frame=1, config=cfg)
            assert tr.forecast.alive[0], f"died too early at call {i + 1}"
        prune_forecasts(tr, scene, [], frame=1, config=cfg)
        assert not tr.forecast.alive[0]

    def test_covering_detection_resets_streak(self):
        scene = make_scene(fps=10.0)
        cfg = RunConfig(tau_vis=0.5, tau_max=6.0)
        tr = self.make_track()
        cover = det_at(1, 52, 103)  # closer (bottom 103 > 100), heavy overlap
        for _ in range(4):
            prune_forecasts(tr, scene, [], frame=1, config=cfg)
        assert tr.forecast.visible_streak[0] == 4
        prune_forecasts(tr, scene, [cover], frame=1, config=cfg)
        assert tr.forecast.visible_streak[0] == 0
        for _ in range(5):
            prune_forecasts(tr, scene, [], frame=1, config=cfg)
        assert tr.forecast.alive[0]

    def test_farther_detection_does_not_cover(self):
        scene = make_scene(fps=10.0)
        cfg = RunConfig(tau_vis=0.5, tau_max=6.0)
        tr = self.make_track()
        behind = det_at(1, 52, 97)  # bottom 97 < 100: farther than the forecast
        prune_forecasts(tr, scene, [behind], frame=1, config=cfg)
        assert tr.forecast.visible_streak[0] == 1

    def test_masked_out_cell_is_not_visible(self):
        mask = np.zeros((200, 200), dtype=bool)
        scene = make_scene(fps=10.0, mask=mask)
        cfg = RunConfig(tau_vis=0.5, tau_max=6.0)
        tr = self.make_track()
        for _ in range(10):
            prune_forecasts(tr, scene, [], frame=1, config=cfg)
        assert tr.forecast.alive[0]
        assert tr.forecast.visible_streak[0] == 0


def small_config(**kw):
    return RunConfig(tau_max=2.0, tau_vis=1.0, dt=0.3, **kw)


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

    def test_pruned_when_lingering_in_freespace(self):
        # visible limit tau_vis * fps = 10 consecutive frames
        tk = Tracker(make_scene(fps=10.0), small_config())
        for f in range(5):
            tk.step(walker_dets(f), f)
        tk.step([], 5)
        for f in range(6, 15):
            _, events = tk.step([], f)
            assert all(e["reason"] != "removed_pruned" for e in events)
        _, events = tk.step([], 15)
        assert [e["reason"] for e in events] == ["removed_pruned"]
        assert tk.tracks == {}

    def test_occluded_forecast_survives_lingering(self):
        # same timeline, but the forecast region is not visible freespace
        tk = Tracker(make_scene(fps=10.0, mask=np.zeros((200, 200), dtype=bool)), small_config())
        for f in range(5):
            tk.step(walker_dets(f), f)
        tk.step([], 5)
        for f in range(6, 16):
            _, events = tk.step([], f)
            assert all(e["reason"] != "removed_pruned" for e in events)
        assert 1 in tk.tracks

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
