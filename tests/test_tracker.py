import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest

from bevtrack.boxes import PixelBox, iou, ltwh
from bevtrack.config import RunConfig
from bevtrack.egomotion import EgomotionTrack
from bevtrack.errors import NonMonotonicFrame, ParseError
from bevtrack.experiments import (
    crossing_scenario,
    pixel_baseline_config,
    pixel_baseline_scene,
    sim_detections_by_frame,
)
from bevtrack.forecast import forecast, preprocess
from bevtrack.homography import Homography
from bevtrack.simulator import build_scene_model, generate
import bevtrack.tracker as tracker_module
from bevtrack.tracker import (
    DetectionTable,
    SceneModel,
    Tracker,
    TrackTable,
    appearance_gate,
    assign,
    build_cost_matrix,
)


def make_scene(fps=10.0, size=200):
    """Identity-homography scene: BEV coordinates equal pixel coordinates."""
    return SceneModel(Homography(np.eye(3)), fps)


def box_at(u, v, w=12.0, h=24.0):
    """Box whose bottom-center sits at pixel (u, v)."""
    return PixelBox(u - w / 2.0, v - h, w, h)


def det_at(frame, u, v, w=12.0, h=24.0, app=None, source=None):
    """A detection row: (frame, box, descriptor or None, source id or None)."""
    return frame, box_at(u, v, w, h), app, source


def table(*rows):
    """The DetectionTable of detection rows."""
    frame, box, app, source = zip(*rows)
    dims = [len(a) for a in app if a is not None]
    appearance = [np.full(dims[0], np.nan) if a is None else a for a in app] if dims else None
    source = [-1 if s is None else s for s in source]
    return DetectionTable(frame, ltwh(box), appearance, source)


@dataclass
class Inactive:
    """An inactive track as a test states it: its last box and descriptor, and its forecast
    columns, in a scene of fps frames per second."""

    id: int
    last_box: PixelBox
    last_appearance: Optional[np.ndarray]  # None: no descriptor
    origin: np.ndarray  # (2,) BEV point at frame last
    velocity: np.ndarray  # (K, 2) m/s
    last: int  # the last matched frame
    end: int  # the last frame the forecast covers
    fps: float


def table_of(tracks):
    """A TrackTable of these inactive tracks (of one branch count), in id order, each
    matched once, at its last frame."""
    tracks = sorted(tracks, key=lambda tr: tr.id)
    t = TrackTable.empty().extend([tr.id for tr in tracks])
    t.active[:] = False
    t.box, t.appearance = ltwh([tr.last_box for tr in tracks]), descriptors(tracks)
    for held, tr in zip(t.matches, tracks):
        held.append((tr.last, *tr.last_box.bottom_center))
    t.origin = np.array([tr.origin for tr in tracks])
    t.velocity = np.array([tr.velocity for tr in tracks])
    t.end = np.array([tr.end for tr in tracks])
    return t


def descriptors(tracks):
    """(n, D) descriptors of the tracks, NaN for none; (n, 0) when none has one."""
    dims = [len(t.last_appearance) for t in tracks if t.last_appearance is not None]
    if not dims:
        return np.zeros((len(tracks), 0))
    return np.array([np.full(dims[0], np.nan) if t.last_appearance is None else t.last_appearance
                     for t in tracks])


def scored(rows, cand, gate, tracks, dets, scene, frame, config):
    """build_cost_matrix as (n, m) scores and best branches, 0 and -1 where none is returned."""
    scores, branch = np.zeros(gate.shape), np.full(gate.shape, -1)
    for i, j, score, b in build_cost_matrix(rows, cand, gate, tracks, dets, scene, frame, config):
        scores[i, j], branch[i, j] = score, b
    return scores, branch


def cost_matrix(tracks, detections, config, scene, frame):
    """scored() for these tracks (in id order) and detections, over every pair that
    passes the appearance gate."""
    t = table_of(tracks)
    scene = replace(scene, fps=tracks[0].fps)  # the forecasts' frame rate
    app = detections.appearance
    app = np.zeros((len(detections), 0)) if app is None else app
    gate = appearance_gate(t.appearance, app, config.tau_app)
    return scored(np.arange(len(t)), np.arange(len(detections)), gate, t, detections, scene,
                  frame, config)


def hold(tk, tracks):
    """Make these inactive tracks the tracker's only ones."""
    tk.tracks = table_of(tracks)
    tk.next_id = int(tk.tracks.id[-1]) + 1


def row(tk, tid):
    """The track's row in the tracker's table."""
    (r,) = np.flatnonzero(tk.tracks.id == tid)
    return r


def matches(tk, tid):
    """The matches the track holds, oldest first, as [(frame, [u, v])]."""
    return [(f, [u, v]) for f, u, v in tk.tracks.matches[row(tk, tid)]]


def end_frame(tk, tid):
    """The last frame the track's forecast covers."""
    return int(tk.tracks.end[row(tk, tid)])


def unit(*v):
    a = np.asarray(v, dtype=float)
    return a / np.linalg.norm(a)


def inactive_track(tid, u, v, branch_pts, app=None, created=0, w=12.0, h=24.0):
    """A track whose forecast sits at the given branch points one frame after created."""
    # At 1 fps one frame is one second, so at frame created + 1 the branches sit at branch_pts.
    pts = np.array(branch_pts, dtype=float)
    return Inactive(tid, box_at(u, v, w, h), app, np.zeros(2), pts, created, created + 1, 1.0)


def test_geometry_from_top_level_names():
    # A TrackTable's forecast columns and a DetectionTable are what build_cost_matrix
    # scores; everything here comes from the package namespace.
    import bevtrack as bt

    scene = bt.SceneModel(bt.Homography(np.eye(3)), fps=1.0)
    # seen in a 12 x 24 box at (50, 100) on frame 0, forecast at 1 m/s along x;
    # a detection at (51, 100) on frame 1
    dets = bt.DetectionTable([1], [[45.0, 76.0, 12.0, 24.0]])
    config = bt.RunConfig()
    tracks = bt.TrackTable.empty().extend([1])
    tracks.box[0] = (44.0, 76.0, 12.0, 24.0)
    tracks.matches[0].append((0, 50.0, 100.0))  # matched once, at frame 0
    tracks.origin[0], tracks.velocity, tracks.end[0] = (50.0, 100.0), np.array([[[1.0, 0.0]]]), 5
    gate = np.ones((1, 1), bool)
    won = bt.build_cost_matrix([0], [0], gate, tracks, dets, scene, 1, config)
    assert won == [(0, 0, 1.0 + config.tau_l2, 0)]  # IoU 1, at distance 0
    assert {"DetectionTable", "TrackTable", "build_cost_matrix"} <= set(bt.__all__)
    assert "frame_geometry" not in bt.__all__ and not hasattr(tracker_module, "frame_geometry")
    assert "prune_forecasts" not in bt.__all__ and not hasattr(bt, "Detection")
    assert not hasattr(bt, "Track") and not hasattr(bt, "BranchTable")
    assert not hasattr(bt, "Forecast") and "forecast_span" in bt.__all__


BOXES = np.tile([10.0, 20.0, 12.0, 24.0], (3, 1))  # three valid rows


class TestDetectionTable:
    def table(self, appearance=None, box=None, frame=(0, 0, 1), **kw):
        box = box if box is not None else [ltwh([box_at(50.0 + 30 * j, 100)])[0] for j in range(3)]
        return DetectionTable(frame=frame, box=box, appearance=appearance, **kw)

    def test_non_unit_descriptor_names_its_row(self):
        app = [unit(1, 0), unit(0, 1), [1.0, 1.0]]
        with pytest.raises(ValueError, match=r"^row 2: appearance descriptor must be unit length$"):
            self.table(app)

    @pytest.mark.parametrize("row", [[1.0, np.nan], [np.inf, 0.0]])
    def test_partly_non_finite_descriptor_rejected(self, row):
        with pytest.raises(ValueError, match=r"^row 1: appearance descriptor"):
            self.table([unit(1, 0), row, unit(0, 1)])

    def test_row_of_nan_skips_the_appearance_gate(self):
        # The track's descriptor disagrees with row 0's; row 1 has none.
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)], app=unit(0, 1))
        box = ltwh([box_at(52, 100)] * 2)
        dets = DetectionTable([1, 1], box, [unit(1, 0), [np.nan, np.nan]])
        scores, _ = cost_matrix([tr], dets, RunConfig(), make_scene(), 1)
        assert scores[0, 0] == 0.0 and scores[0, 1] == pytest.approx(3.5, abs=1e-12)
        # so does a track whose last detection had none
        tr.last_appearance = dets.appearance[1]
        scores, _ = cost_matrix([tr], dets, RunConfig(), make_scene(), 1)
        assert scores[0].tolist() == pytest.approx([3.5, 3.5], abs=1e-12)

    def test_non_positive_box_names_its_row(self):
        box = [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, np.nan, 1.0]]
        with pytest.raises(ValueError, match=r"^row 1: box width and height must be positive$"):
            self.table(box=box)

    def test_columns_of_other_lengths_rejected(self):
        with pytest.raises(ValueError, match="need 3 rows in every column"):
            self.table(source_id=[1, 2])
        with pytest.raises(ValueError, match="need 3 rows in every column"):
            self.table(box=np.ones((3, 5)))

    def test_checked_columns_are_read_only_views(self):
        box = np.array([ltwh([box_at(50.0 + 30 * j, 100)])[0] for j in range(3)])
        t = self.table([unit(1, 0)] * 3, box=box, source_id=[4, -1, 5], agent_id=[1, 2, 3])
        for column in (t.frame, t.box, t.appearance, t.source_id, t.agent_id, t.foot):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        box[0, 0] = 7.0  # the caller's array stays writable
        assert t.source_id.tolist() == [4, -1, 5]

    # A NaN or -inf width or height is refused as non-positive.
    @pytest.mark.parametrize("field, value", [(0, np.nan), (0, np.inf), (0, -np.inf),
                                              (1, np.nan), (1, np.inf), (1, -np.inf),
                                              (2, np.inf), (3, np.inf)])
    def test_non_finite_box_value_names_its_row(self, field, value):
        box = BOXES.copy()
        box[2, field] = value
        with pytest.raises(ValueError, match=r"^row 2: box values and edges must be finite$"):
            self.table(box=box)

    @pytest.mark.parametrize("edge", [0, 1])
    def test_box_edge_beyond_the_floats_names_its_row(self, edge):
        # left + width (or top + height) overflows to inf although every value is finite
        box = BOXES.copy()
        box[1, edge] = box[1, edge + 2] = 1e308
        with pytest.raises(ValueError, match=r"^row 1: box values and edges must be finite$"):
            self.table(box=box)

    @pytest.mark.parametrize("name", ["frame", "source_id", "agent_id"])
    @pytest.mark.parametrize("value", [1.5, np.nan, np.inf])
    def test_non_integer_frame_or_id_names_its_row(self, name, value):
        with pytest.raises(ValueError, match=rf"^row 1: {name} must be an integer$"):
            self.table(**{name: [0.0, value, 1.0]})

    @pytest.mark.parametrize("name", ["frame", "source_id", "agent_id"])
    @pytest.mark.parametrize("value", [2**53 + 1, 2**53 + 2, -(2**53) - 1, 2**63 - 1, 2**64, 1e300])
    def test_frame_or_id_beyond_2_to_the_53_names_its_row(self, name, value):
        # A float skips integers beyond 2**53, and forecasts read frames as floats;
        # 2**53 + 1 is refused too, though it reads as 2**53 in a float.
        with pytest.raises(ValueError, match=rf"^row 1: {name} must be at most 2\*\*53 in size$"):
            self.table(**{name: [0, value, 1]})

    def test_frames_up_to_2_to_the_53_forecast(self):
        t = DetectionTable([2**53, -(2**53), 0], BOXES, source_id=[2**53, -1, 5])
        assert t.frame.tolist() == [2**53, -(2**53), 0] and t.source_id[0] == 2**53
        # the last three frames a float tells apart, then a miss: the track goes inactive
        tk = Tracker(make_scene(), small_config())
        for f in range(2**53 - 2, 2**53 + 1):
            tk.step(DetectionTable([f], [[44.0, 76.0, 12.0, 24.0]]), f)
        _, events = tk.step([], 2**53 + 1)
        assert [e["reason"] for e in events] == ["inactive"]
        assert tk.tracks.end[0] == 2**53 + 7 * 3

    def test_boxes_come_from_the_columns_alone(self):
        # no caller hands a table PixelBoxes that disagree with its box and confidence
        # columns: the tracker outputs, and boxes() reads, the columns' own
        with pytest.raises(TypeError, match="pixel_boxes"):
            DetectionTable([0], [[0.0, 0.0, 10.0, 10.0]], pixel_boxes=(PixelBox(500, 500, 5, 5),))
        t = DetectionTable([0], [[0.0, 0.0, 10.0, 10.0]], confidence=[0.3])
        assert t.boxes() == (PixelBox(0.0, 0.0, 10.0, 10.0, 0.3),)
        tk = Tracker(make_scene(), small_config())
        outputs, _ = tk.step(t, 0)
        assert [box for *_, box in outputs] == [PixelBox(0.0, 0.0, 10.0, 10.0, 0.3)]
        assert tk.tracks.box[0].tolist() == [0.0, 0.0, 10.0, 10.0]
        # a table's parts share the boxes it built once
        parts = t.by_frame()[0], t.rows([0]), t.rows(slice(None))
        assert all(part.boxes()[0] is t.boxes()[0] for part in parts)

    def test_integral_floats_are_integers(self):
        t = DetectionTable([0.0, 3.0, -1.0], BOXES, source_id=[4.0, -1.0, 5.0], agent_id=[1.0] * 3)
        assert t.frame.tolist() == [0, 3, -1] and t.source_id.tolist() == [4, -1, 5]
        assert t.frame.dtype == t.source_id.dtype == t.agent_id.dtype == np.int64


class TestSceneModel:
    def moving(self, h, offset):
        ego = EgomotionTrack(np.array([[0.0, 0.0], offset]))
        return SceneModel(h, fps=10.0, ego=ego)

    def test_ego_offset_added(self, true_h):
        # The map is camera-relative; the scene adds the camera's offset.
        p = np.array([[800.0, 900.0]])
        scene = self.moving(true_h, [1.5, -2.0])
        assert np.array_equal(scene.px_to_world(p, 0), true_h.px_to_bev(p))
        moved = scene.px_to_world(p, 1)
        assert np.allclose(moved - true_h.px_to_bev(p), [1.5, -2.0])

    def test_ego_offset_subtracted(self, true_h):
        p = np.array([[1.0, 12.0]])
        scene = self.moving(true_h, [2.0, 1.0])
        px_world, valid = scene.world_to_px(p + np.array([2.0, 1.0]), 1)
        assert valid.all()
        assert np.allclose(px_world, true_h.bev_to_px(p), atol=1e-9)
        assert all(map(np.array_equal, scene.world_to_px(p, 0), true_h.try_bev_to_px(p)))

    def test_validation(self):
        for fps in (0.0, -10.0, math.nan):
            with pytest.raises(ValueError, match="fps must be positive"):
                SceneModel(homography=None, fps=fps)


class TestCostMatrix:
    def test_perfect_match_score(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 52, 100)
        scores, branch = cost_matrix([tr], table(det), RunConfig(), scene, frame=1)
        # identical predicted and detected boxes: IoU 1; L2 0: bonus tau_l2
        assert scores[0, 0] == pytest.approx(1.0 + 2.5, abs=1e-12)
        assert branch[0, 0] == 0

    def test_partial_overlap_score(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 56, 100)  # 4 px to the right of the branch point
        scores, _ = cost_matrix([tr], table(det), RunConfig(), scene, frame=1)
        # 12x24 boxes offset 4 px: IoU (8*24)/(2*288-192) = 0.5; L2 = 4 > tau_l2
        assert scores[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_iou_gate_blocks_low_overlap(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 63, 100)  # 11 px offset: IoU (1*24)/(552) < tau_iou
        scores, branch = cost_matrix([tr], table(det), RunConfig(), scene, frame=1)
        assert scores[0, 0] == 0.0
        assert branch[0, 0] == -1

    def test_distance_only_score_when_iou_gate_disabled(self):
        scene = make_scene()
        cfg = RunConfig(tau_l2=20.0, tau_iou=0.0)
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 70, 100)  # disjoint boxes, BEV distance 18
        scores, branch = cost_matrix([tr], table(det), cfg, scene, frame=1)
        assert scores[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert branch[0, 0] == 0

    def test_appearance_gate(self):
        scene = make_scene()
        a, b = unit(1, 0, 0), unit(0, 1, 0)  # cosine 0 < tau_app
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)], app=a)
        det = det_at(1, 52, 100, app=b)
        scores, _ = cost_matrix([tr], table(det), RunConfig(), scene, frame=1)
        assert scores[0, 0] == 0.0
        # same geometry with an agreeing descriptor passes
        det2 = det_at(1, 52, 100, app=a)
        scores2, _ = cost_matrix([tr], table(det2), RunConfig(), scene, frame=1)
        assert scores2[0, 0] == pytest.approx(3.5, abs=1e-12)

    def test_missing_appearance_skips_gate(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)], app=unit(1, 0, 0))
        det = det_at(1, 52, 100, app=None)
        scores, _ = cost_matrix([tr], table(det), RunConfig(), scene, frame=1)
        assert scores[0, 0] == pytest.approx(3.5, abs=1e-12)

    def test_best_branch_selected(self):
        scene = make_scene()
        tr = inactive_track(1, 50, 100, [(57.0, 100.0), (52.0, 100.0)])
        det = det_at(1, 52, 100)
        scores, branch = cost_matrix([tr], table(det), RunConfig(), scene, frame=1)
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
            scores, _ = cost_matrix([tr], table(det), cfg, scene, frame=1)
            pb = box_at(bp[0], bp[1])
            d_iou = iou(pb, box_at(du, dv))
            d_l2 = float(np.hypot(bp[0] - du, bp[1] - dv))
            want = d_iou + max(cfg.tau_l2 - d_l2, 0.0) if d_iou >= cfg.tau_iou else 0.0
            assert scores[0, 0] == pytest.approx(want, abs=1e-12)

    def test_rows_pick_the_scored_tracks_in_order(self):
        # Track 2, in row 1, is scored first: rows, not the table's order, order the scores.
        near = inactive_track(2, 50, 100, [(52.0, 100.0)])
        far = inactive_track(1, 50, 100, [(90.0, 100.0)])
        won = build_cost_matrix([1, 0], [0], np.ones((2, 1), bool), table_of([far, near]),
                                table(det_at(1, 52, 100)), make_scene(fps=1.0), 1, RunConfig())
        assert [(i, j, b) for i, j, _, b in won] == [(0, 0, 0)]
        assert won[0][2] == pytest.approx(3.5, abs=1e-12)

    def test_only_the_gated_pairs_are_returned(self):
        # Both detections sit on the track's branch; the gate passes the second alone.
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        dets = table(det_at(1, 52, 100), det_at(1, 52, 100))
        won = build_cost_matrix([0], [0, 1], np.array([[False, True]]), table_of([tr]), dets,
                                make_scene(fps=1.0), 1, RunConfig())
        assert [(i, j) for i, j, *_ in won] == [(0, 1)]


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


class TestEgoFrameOutsideTrack:
    """A step with detections at a frame the camera track lacks raises, also where
    the step lifts nothing: a continued track or a new one reads no BEV point."""

    @staticmethod
    def tracker(held: bool):
        scene = make_scene()
        tk = Tracker(scene, small_config())
        if held:
            tk.step(table(det_at(-3, 50, 100)), -3)  # before the scene has a camera track
        scene.ego = EgomotionTrack(np.zeros((4, 2)))
        return tk

    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("frame", [4, 9, -1])
    def test_detections_at_the_frame_raise(self, held, frame):
        tk = self.tracker(held)
        with pytest.raises(ValueError, match=f"frame {frame} outside egomotion track of length 4"):
            tk.step(table(det_at(frame, 50, 100)), frame)

    def test_a_frame_without_detections_does_not(self):
        scene = make_scene()
        scene.ego = EgomotionTrack(np.zeros((4, 2)))
        tk = Tracker(scene, small_config())
        for f in range(4):
            tk.step(walker_dets(f), f)
        _, events = tk.step([], 9)  # track 1 goes inactive, forecast from frames 0 to 3
        assert [e["reason"] for e in events] == ["inactive"]


class TestDeactivateReadsTheWindowTail:
    """A track keeps only its last matches, as many as a filter window can hold: the
    feet from the last one at or before the grid's first point on. Filtering them
    must equal filtering the whole history."""

    def check(self, frames, cfg, fps, rng):
        # In ingestion mode one upstream id holds the track however far it jumps.
        tk = Tracker(make_scene(fps=fps), cfg.override(ingest_ids=True))
        feet = []
        for f in frames.tolist():
            dets = table(det_at(f, *rng.uniform(20.0, 180.0, 2), source=1))
            tk.step(dets, f)
            feet.append(dets.foot[0])
        seen = matches(tk, 1)
        tk.step([], int(frames[-1]) + 1)  # the track goes inactive
        lifted = tk.scene.px_to_world(np.array(feet), frames)
        state = preprocess(frames, lifted, cfg, fps)
        origin, velocity, end = forecast([state], cfg, fps)
        t, r = tk.tracks, row(tk, 1)
        assert np.array_equal(t.origin[r], origin[0])
        assert np.array_equal(t.velocity[r], velocity[0])
        assert seen[-1][0] == state[2] and t.end[r] == end[0]
        first = frames[-1] - cfg.dt * fps * (cfg.obs_len - 1)
        start = max([k for k, f in enumerate(frames) if f <= first], default=0)
        held = len(seen)
        assert t.matches[r].maxlen == tk.history_len and held == min(len(frames), tk.history_len)
        assert [f for f, _ in seen] == frames[-held:].tolist() and start >= len(frames) - held
        return frames[0] > first, frames[0] < first and first not in frames

    def test_straddling_gap_and_short_history(self):
        rng = np.random.default_rng(3)
        cfg = RunConfig(obs_len=8, dt=0.5)  # at 10 fps the grid starts 35 frames back
        # observations at 20 and 50 straddle the first grid point, frame 45
        assert self.check(np.array([0, 10, 20, 50, 60, 70, 80]), cfg, 10.0, rng) == (False, True)
        assert self.check(np.array([50, 60, 70, 80]), cfg, 10.0, rng) == (True, False)  # shorter
        assert self.check(np.array([30, 45, 80]), cfg, 10.0, rng) == (False, False)  # one at 45

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
    return table(det_at(frame, x0 + v * frame, y, app=app))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boxes_whose_areas_underflow_match_nothing_in_a_large_association():
    # Above FEW_PAIRS pairs base association runs iou_matrix, whose 0 / 0 for two
    # such boxes is NaN, silently: no track matches, each detection founds a track.
    boxes = [PixelBox(1e-190 * i, 0.0, 1e-200, 1e-200) for i in range(9)]  # each overlaps itself
    tk = Tracker(make_scene(), small_config(forecast_enabled=False))
    tk.step(table(*[(0, b, None, None) for b in boxes]), 0)
    assert len(boxes) ** 2 > tracker_module.FEW_PAIRS
    _, events = tk.step(table(*[(1, b, None, None) for b in boxes]), 1)
    assert [e["reason"] for e in events] == ["terminated"] * 9 + ["new"] * 9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_pair_whose_union_rounds_to_0_overlaps_nothing_in_either_association():
    # Boxes of 2**-47 px at 64 px, where the edges round: a box's two areas add up to
    # its rounded overlap with itself, so the union is 0. The IoU is 0, not inf, so
    # neither re-association (whose assignment once raised on it) nor base association
    # takes the pair.
    s = 2.0**-47
    tk = Tracker(make_scene(), small_config(motion="static"))
    tk.step(table((0, PixelBox(64.0 + 2 * s, 64.0, s, s), None, None)), 0)
    tk.step([], 1)  # inactive; its static branch's predicted box is this one
    ((u, v),) = tk.scene.world_to_px(tk.tracks.origin, 2)[0].tolist()
    predicted = PixelBox(u - s / 2.0, v - s, s, s)
    overlap = (predicted.right - predicted.left) * (predicted.bottom - predicted.top)
    assert 2 * (s * s) == overlap > 0
    _, events = tk.step(table((2, predicted, None, None)), 2)
    assert [(e["reason"], e["track_id"]) for e in events] == [("new", 2)]
    _, events = tk.step(table((3, predicted, None, None)), 3)
    assert [(e["reason"], e["track_id"]) for e in events] == [("inactive", 2), ("new", 3)]


class TestCandidatePairs:
    """The appearance gate runs once a step, and only tracks and detections with a
    pair that passes it are mapped and scored."""

    @staticmethod
    def reappear(monkeypatch, app):
        """The frame-6 calls and event reasons of a walker with descriptor (1, 0), missed
        at frame 5, and back at frame 6 with descriptor app."""
        calls = []
        monkeypatch.setattr(tracker_module, "appearance_gate", lambda *a: calls.append(
            "appearance_gate") or appearance_gate(*a))
        monkeypatch.setattr(tracker_module, "build_cost_matrix", lambda *a: calls.append(
            "build_cost_matrix") or build_cost_matrix(*a))
        world_to_px = SceneModel.world_to_px
        monkeypatch.setattr(SceneModel, "world_to_px", lambda *a: calls.append(
            "world_to_px") or world_to_px(*a))
        tk = Tracker(make_scene(fps=10.0), small_config())
        for f in range(5):
            tk.step(walker_dets(f, app=unit(1, 0)), f)
        tk.step([], 5)
        del calls[:]
        _, events = tk.step(walker_dets(6, app=app), 6)
        return calls, [e["reason"] for e in events]

    def test_a_step_whose_pairs_all_fail_the_gate_maps_nothing(self, monkeypatch):
        assert self.reappear(monkeypatch, unit(0, 1)) == (["appearance_gate"], ["new"])

    def test_a_passing_pair_is_mapped_and_scored(self, monkeypatch):
        # the gate is decided once a scoring step; build_cost_matrix reads it
        want = (["appearance_gate", "build_cost_matrix", "world_to_px"], ["reassociated"])
        assert self.reappear(monkeypatch, unit(1, 0)) == want
        assert self.reappear(monkeypatch, None) == want  # no descriptor passes


class TestLiftOnlyWhatIsRead:
    """A deactivating step lifts only the matches each lost track's filter grid
    reads, at most two per grid point, and a scoring step lifts only the free
    detections with a pair that passes the appearance gate."""

    @staticmethod
    def lifts(monkeypatch, tk):
        """The number of points of each px_to_world call tk's scene makes from now on."""
        sizes, lift = [], tk.scene.px_to_world
        monkeypatch.setattr(tk.scene, "px_to_world",
                            lambda p, f: sizes.append(len(p)) or lift(p, f))
        return sizes

    @pytest.mark.parametrize("dt", [0.4, 0.33])  # grid points on matched frames, or between
    def test_a_deactivating_step_lifts_at_most_two_matches_a_grid_point(self, monkeypatch, dt):
        cfg = RunConfig(dt=dt)
        tk = Tracker(make_scene(fps=20.0), cfg)
        for f in range(60):  # three walkers, seen at every frame: 57 or 48 matches each
            tk.step(table(*[det_at(f, 20.0 + 50.0 * i + f, 100.0) for i in range(3)]), f)
        assert all(len(held) == tk.history_len > 2 * cfg.obs_len for held in tk.tracks.matches)
        sizes = self.lifts(monkeypatch, tk)
        _, events = tk.step(table(det_at(60, 130.0, 100.0)), 60)  # the middle one is seen
        assert [e["reason"] for e in events] == ["inactive", "active", "inactive"]
        assert sizes and sum(sizes) <= 2 * cfg.obs_len * 2

    def test_a_step_whose_pairs_all_fail_the_gate_lifts_no_free_detection(self, monkeypatch):
        tk = Tracker(make_scene(fps=10.0), small_config())
        for f in range(5):
            tk.step(walker_dets(f, app=unit(1, 0)), f)
        tk.step([], 5)
        sizes = self.lifts(monkeypatch, tk)
        reasons = [e["reason"] for e in tk.step(walker_dets(6, app=unit(0, 1)), 6)[1]]
        assert (sizes, reasons) == ([], ["new"])
        # a free detection with a passing pair is lifted, alone
        tk.step(table(det_at(7, 57.0, 100.0, app=unit(0, 1)),
                      det_at(7, 150.0, 50.0, app=unit(1, 0))), 7)
        assert sizes == [1]


class TestTrackerLifecycle:
    def test_new_tracks_and_outputs_sorted(self):
        tk = Tracker(make_scene(), small_config())
        outputs, events = tk.step(table(det_at(0, 50, 100), det_at(0, 120, 100)), 0)
        assert [tid for _, tid, _ in outputs] == [1, 2]
        assert [e["reason"] for e in events] == ["new", "new"]
        assert events[0]["detection_index"] == 0 and events[1]["detection_index"] == 1

    def test_track_keeps_its_bev_points(self):
        tk = Tracker(make_scene(), small_config())
        tk.step(table(det_at(0, 50, 100)), 0)
        tk.step(table(det_at(1, 51, 100)), 1)
        feet = matches(tk, 1)
        assert feet == [(0, [50.0, 100.0]), (1, [51.0, 100.0])]  # the boxes' bottom-centres
        points = tk.scene.px_to_world([p for _, p in feet], [f for f, _ in feet])
        assert np.allclose(points, [[50.0, 100.0], [51.0, 100.0]])  # identity map

    @pytest.mark.parametrize("motion, k", [("fan", 3), ("kalman_cv", 1), ("static", 1)])
    def test_the_branch_axis_is_the_configs_from_the_start(self, motion, k):
        # Every track has the config's K branches, before the first forecast too.
        tk = Tracker(make_scene(), RunConfig(motion=motion))
        assert tk.tracks.velocity.shape == (0, k, 2)
        tk.step(walker_dets(0), 0)
        assert tk.tracks.velocity.shape == (1, k, 2)

    def test_active_continuation_keeps_id(self):
        tk = Tracker(make_scene(), small_config())
        for f in range(4):
            outputs, events = tk.step(walker_dets(f), f)
        assert [tid for _, tid, _ in outputs] == [1]
        assert events[0]["reason"] == "active"

    def test_base_association_prefers_higher_overlap(self):
        tk = Tracker(make_scene(), small_config())
        tk.step(table(det_at(0, 50, 100), det_at(0, 80, 100)), 0)
        # det 0 overlaps track 1 fully; det 1 nudged from track 2
        _, events = tk.step(table(det_at(1, 50, 100), det_at(1, 82, 100)), 1)
        by_tid = {e["track_id"]: e for e in events if e["reason"] == "active"}
        assert by_tid[1]["detection_index"] == 0
        assert by_tid[2]["detection_index"] == 1

    def test_miss_goes_inactive_then_reassociates_same_id(self):
        tk = Tracker(make_scene(fps=10.0), small_config())
        for f in range(5):
            tk.step(walker_dets(f), f)
        _, ev5 = tk.step([], 5)
        assert [e["reason"] for e in ev5] == ["inactive"]
        assert not tk.tracks.active[row(tk, 1)]
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
        assert tk.tracks.active[row(tk, 1)]

    def test_forecast_disabled_terminates_on_miss(self):
        tk = Tracker(make_scene(), small_config(forecast_enabled=False))
        tk.step(walker_dets(0), 0)
        _, events = tk.step([], 1)
        assert [e["reason"] for e in events] == ["terminated"]
        assert len(tk.tracks) == 0
        _, events = tk.step(walker_dets(2), 2)
        assert events[0]["track_id"] == 2  # ids are never reissued

    def test_track_outlives_patience_to_its_forecast_end(self):
        # tau_max * fps is 20 frames, but the forecast grid covers 7 steps of 3
        # frames, 21: the walker is re-associated 21 frames after it was last seen.
        tk = Tracker(make_scene(fps=10.0), small_config())
        for f in range(5):
            tk.step(walker_dets(f), f)
        tk.step([], 5)
        assert end_frame(tk, 1) == 25
        outputs, events = tk.step(walker_dets(25), 25)
        assert [(e["track_id"], e["reason"]) for e in events] == [(1, "reassociated")]
        assert [tid for _, tid, _ in outputs] == [1]

    def test_dead_forecast_removal(self):
        # a 22-frame gap outruns the 21-frame forecast: removed as dead
        tk = Tracker(make_scene(fps=10.0), small_config())
        for f in range(5):
            tk.step(walker_dets(f), f)
        tk.step([], 5)
        _, events = tk.step(walker_dets(26), 26)
        assert [(e["track_id"], e["reason"]) for e in events] == [(1, "removed_dead"), (2, "new")]

    def test_removals_logged_in_id_order(self):
        # tracks 3 and 1, given out of id order, leave in the same step; the log
        # lists them in id order
        tk = Tracker(make_scene(fps=10.0), small_config())
        dead3 = inactive_track(3, 52, 100, [(0.0, 0.0)], created=10)  # forecast ended at 11
        alive = inactive_track(2, 80, 100, [(0.0, 0.0)])
        alive.end = 50
        dead1 = inactive_track(1, 120, 100, [(0.0, 0.0)], created=5)
        hold(tk, [dead3, alive, dead1])
        _, events = tk.step([], 25)
        assert [(e["track_id"], e["reason"]) for e in events] == [
            (1, "removed_dead"),
            (3, "removed_dead"),
        ]
        assert tk.tracks.id.tolist() == [2] and tk.tracks.end.tolist() == [50]

    def test_patience_alone_removes_nothing(self):
        # At frame 25 every track is 25 frames unseen, past tau_max * fps = 20
        # frames; only track 1, whose forecast has ended, leaves.
        tk = Tracker(make_scene(fps=10.0), small_config())
        tracks = [inactive_track(tid, 52, 100, [(0.0, 0.0)]) for tid in (1, 2, 3)]
        tracks[1].end = tracks[2].end = 50
        hold(tk, tracks)
        _, events = tk.step([], 25)
        assert [(e["track_id"], e["reason"]) for e in events] == [(1, "removed_dead")]
        assert tk.tracks.id.tolist() == [2, 3] and tk.tracks.end.tolist() == [50, 50]

    @pytest.mark.parametrize("fps", [7.5, 10.0, 12.5, 20.0, 24.0, 25.0, 29.97, 30.0])
    def test_unseen_walker_leaves_once_after_its_forecast_ends(self, fps):
        # One exit rule at any frame rate: a walker seen for 6 frames and never
        # again leaves exactly once, as removed_dead, the frame after its
        # forecast's end, also where the forecast grid overshoots tau_max * fps.
        rng = np.random.default_rng(int(fps * 100))
        draws = [(0.4, 6.0)] + [(rng.uniform(0.1, 1.0), rng.uniform(0.2, 4.0)) for _ in range(10)]
        overshoots = 0
        for dt, tau_max in draws:
            cfg = RunConfig(dt=dt, tau_max=tau_max)
            seen = {f: walker_dets(f) for f in range(6)}
            feet = [d.foot[0] for d in seen.values()]
            end = int(forecast([preprocess(list(seen), feet, cfg, fps)], cfg, fps)[2][0])
            overshoots += end - 5 > tau_max * fps
            tk = Tracker(make_scene(fps=fps), cfg)
            _, events = tk.run(seen, range(end + 10))
            leave = [(e["frame"], e["reason"]) for e in events if e["reason"].startswith("removed")]
            assert leave == [(end + 1, "removed_dead")], (dt, tau_max)
            assert len(tk.tracks) == 0 and "terminated" not in {e["reason"] for e in events}
        assert overshoots > 0  # some grids outrun tau_max * fps: no patience clock may fire first

    def test_non_monotonic_frame_rejected(self):
        tk = Tracker(make_scene(), small_config())
        tk.step(walker_dets(5), 5)
        with pytest.raises(NonMonotonicFrame):
            tk.step(walker_dets(5), 5)
        with pytest.raises(NonMonotonicFrame):
            tk.step(walker_dets(4), 4)

    @pytest.mark.parametrize("detections", [[det_at(0, 50, 100)], None, iter([]), {}],
                             ids=["rows", "none", "iterator", "dict"])
    def test_step_reads_a_table_or_an_empty_list(self, detections):
        tk = Tracker(make_scene(), small_config())
        assert tk.step([], 0) == ([], []) and tk.step((), 1) == ([], [])
        with pytest.raises(TypeError, match=r"^need a DetectionTable or an empty list, not "):
            tk.step(detections, 2)
        assert tk.last_step_frame == 1

    def test_rows_of_another_frame_refused(self):
        # A table stepped as another frame: refused, and the tracker left as it was.
        tk = Tracker(make_scene(), small_config())
        rows = table(det_at(7, 50, 100), det_at(9, 120, 100))
        with pytest.raises(ValueError, match=r"^frame 3: row 0 is from frame 7$"):
            tk.step(rows, 3)
        with pytest.raises(ValueError, match=r"^frame 7: row 1 is from frame 9$"):
            tk.step(rows, 7)
        assert len(tk.tracks) == 0 and tk.last_step_frame is None
        outputs, _ = tk.step(rows.rows(slice(0, 1)), 7)
        assert [(f, tid) for f, tid, _ in outputs] == [(7, 1)]

    @pytest.mark.parametrize("missed", [False, True], ids=["active", "inactive"])
    def test_descriptors_of_another_width_refused(self, missed):
        # The first descriptors fix the width. A table of another width is refused
        # before the tracker changes, whether its track is active or inactive, and
        # the next step runs as if the table had never come.
        def run(bad):
            tk = Tracker(make_scene(), small_config())
            tk.step(walker_dets(0, app=unit(1, 0, 0, 1)), 0)
            if missed:
                tk.step([], 1)
            if bad:
                last, columns = tk.last_step_frame, [c.copy() for c in tk.tracks._arrays()]
                held = [list(m) for m in tk.tracks.matches]
                with pytest.raises(ValueError, match=r"^frame 2: descriptors of width 3, "
                                                     r"the tracker's have 4$"):
                    tk.step(walker_dets(2, app=unit(1, 0, 0)), 2)
                assert tk.last_step_frame == last
                for got, want in zip(tk.tracks._arrays(), columns):
                    np.testing.assert_array_equal(got, want, strict=True)
                assert [list(m) for m in tk.tracks.matches] == held
            return tk.step(walker_dets(3, app=unit(1, 0, 0, 1)), 3)

        outputs, events = run(bad=True)
        assert (outputs, events) == run(bad=False)
        want = "reassociated" if missed else "active"
        assert [e["reason"] for e in events] == [want]

    def test_a_table_without_rows_fixes_no_width(self):
        tk = Tracker(make_scene(), small_config())
        tk.step(DetectionTable(np.zeros(0, int), np.zeros((0, 4)), np.zeros((0, 5))), 0)
        tk.step(walker_dets(1, app=unit(1, 0, 0)), 1)
        tk.step(DetectionTable(np.zeros(0, int), np.zeros((0, 4)), np.zeros((0, 5))), 2)
        assert tk.tracks.appearance.tolist() == [[1.0, 0.0, 0.0]]

    def test_track_keeps_only_its_window(self):
        # dt 0.3 s at 10 fps and obs_len 8: the grid starts 21 frames back, and a
        # track keeps its last 22 matches: for a walker seen at every frame, its
        # window, the feet from the last one at or before that frame.
        tk = Tracker(make_scene(), small_config())
        assert tk.history_len == 22
        for f in range(100):
            tk.step(walker_dets(f), f)
            assert tk.tracks.matches[0].maxlen == 22
            assert [g for g, _ in matches(tk, 1)] == list(range(max(f - 21, 0), f + 1))

    @pytest.mark.parametrize("dt, fps, obs_len, history_len",
                             [(1e6, 20.0, 8, 140_000_001), (1e10, 1e8, 100, None),
                              (1e10, 1e8, 10**300, None)],
                             ids=["1000000.0-20.0", "span_beyond_a_deque",
                                  "span_beyond_the_floats"])
    def test_a_window_longer_than_the_run_keeps_every_match(self, dt, fps, obs_len, history_len):
        # Filter windows of 1.4e8 frames, of 9.9e19 (more than a deque's maxlen takes)
        # and of more than the floats hold: the track keeps every match; past a
        # deque's maxlen it keeps them unbounded.
        tk = Tracker(make_scene(fps=fps), RunConfig(dt=dt, obs_len=obs_len))
        assert tk.history_len == history_len
        for f in range(40):
            tk.step(walker_dets(f), f)
            assert tk.tracks.matches[0].maxlen == history_len
            assert [g for g, _ in matches(tk, 1)] == list(range(f + 1))

    def test_a_window_longer_than_the_run_forecasts_from_the_last_match(self):
        # At dt 1e6 s the grid holds only the last match: a forecast at rest there.
        tk = Tracker(make_scene(fps=20.0), RunConfig(dt=1e6))
        for f in range(40):
            tk.step(walker_dets(f), f)
        _, events = tk.step([], 40)
        t = tk.tracks
        assert [e["reason"] for e in events] == ["inactive"]
        assert t.origin.tolist() == [[89.0, 100.0]] and t.velocity.tolist() == [[[0.0, 0.0]]]
        assert t.end.tolist() == [39 + 20_000_000]
        _, events = tk.step(walker_dets(41), 41)
        assert [(e["track_id"], e["reason"]) for e in events] == [(1, "reassociated")]

    @pytest.mark.parametrize("dt, fps, message", [
        (1e20, 20.0, r"dt 1e\+20 s at 20 fps puts a forecast's end frame beyond"),  # 2e21 frames
        (1e300, 20.0, r"dt is too large: dt\*\*4 overflows"),  # so does the forecast's end
        (1e300, 1e9, r"dt is too large: dt\*\*4 overflows"),  # and dt * fps
        (1e70, 1e300, r"dt 1e\+70 s at 1e\+300 fps puts"),  # dt * fps is not finite
        # 9.22e18 frames fit int64, but not after a last frame of up to 2**53
        (4.61e17, 20.0, r"dt 4\.61e\+17 s at 20 fps puts a forecast's end frame beyond"),
    ], ids=["1e20_at_20fps", "1e300_at_20fps", "1e300_at_1e9fps", "1e70_at_1e300fps",
            "4.61e17_at_20fps"])
    def test_a_dt_whose_forecast_overflows_is_refused(self, dt, fps, message):
        # Refused before any step, not an OverflowError at a track's first miss.
        with pytest.raises(ParseError, match="^config: " + message):
            Tracker(make_scene(fps=fps), RunConfig(dt=dt))

    def test_the_longest_forecast_that_fits_in_int64(self):
        # dt 4e17 s at 20 fps: a forecast of one step of 8e18 frames, just under 2**63.
        tk = Tracker(make_scene(fps=20.0), RunConfig(dt=4e17))
        for f in range(5):
            tk.step(walker_dets(f), f)
        _, events = tk.step([], 5)
        assert [e["reason"] for e in events] == ["inactive"]
        assert tk.tracks.end.tolist() == [4 + 8 * 10**18]
        assert [e["reason"] for e in tk.step(walker_dets(6), 6)[1]] == ["reassociated"]

    def test_the_longest_forecast_fits_after_the_last_frames(self):
        # A track seen at 2**53 - 3 and 2**53 - 2 ends 8e18 frames on, within int64;
        # at dt 4.61e17 s, refused above, it would not.
        tk = Tracker(make_scene(fps=20.0), RunConfig(dt=4e17))
        for f in (2**53 - 3, 2**53 - 2):
            tk.step(DetectionTable([f], [[44.0, 76.0, 12.0, 24.0]]), f)
        _, events = tk.step([], 2**53 - 1)
        assert [e["reason"] for e in events] == ["inactive"]
        assert tk.tracks.end.tolist() == [2**53 - 2 + 8 * 10**18]

    def test_outputs_only_tracks_seen_this_frame(self):
        tk = Tracker(make_scene(), small_config())
        tk.step(table(det_at(0, 50, 100), det_at(0, 120, 100)), 0)
        outputs, _ = tk.step(table(det_at(1, 50, 100)), 1)
        assert [tid for _, tid, _ in outputs] == [1]


class TestIngestMode:
    def test_binding_overrides_geometry(self):
        tk = Tracker(make_scene(), small_config(ingest_ids=True))
        tk.step(table(det_at(0, 50, 100, source=7)), 0)
        # the upstream id jumps across the image; the binding keeps the track
        outputs, events = tk.step(table(det_at(1, 150, 100, source=7)), 1)
        assert [tid for _, tid, _ in outputs] == [1]
        assert events[0]["reason"] == "active"

    def test_new_upstream_id_founds_new_track(self):
        tk = Tracker(make_scene(), small_config(ingest_ids=True))
        tk.step(table(det_at(0, 50, 100, source=7)), 0)
        _, events = tk.step(table(det_at(1, 150, 100, source=8)), 1)
        reasons = {e["reason"] for e in events}
        assert "inactive" in reasons and "new" in reasons
        assert tk.tracks.id.tolist() == [1, 2]

    def test_reassociation_rebinds_upstream_id(self):
        tk = Tracker(make_scene(fps=10.0), small_config(ingest_ids=True))
        for f in range(5):
            tk.step(table(det_at(f, 50.0 + f, 100, source=7)), f)
        tk.step([], 5)
        # the upstream tracker reappears under a fresh id where the forecast is
        _, events = tk.step(table(det_at(9, 59, 100, source=11)), 9)
        assert [e["reason"] for e in events] == ["reassociated"]
        assert tk.tracks.source[row(tk, 1)] == 11
        _, events = tk.step(table(det_at(10, 60, 100, source=11)), 10)
        assert events[0]["reason"] == "active" and events[0]["track_id"] == 1


    @pytest.mark.parametrize("source, want", [(7, 1), (8, 2)])
    def test_upstream_id_back_after_a_gap_the_gates_reject(self, source, want):
        # The detection comes back 100 px from the forecast, where the gates
        # reject it. Under the upstream id the track had, its kept binding
        # brings the track back before the gates; under another id it founds
        # a new track.
        tk = Tracker(make_scene(fps=10.0), small_config(ingest_ids=True))
        for f in range(5):
            tk.step(table(det_at(f, 50.0 + f, 100, source=7)), f)
        tk.step([], 5)
        assert tk.tracks.source[row(tk, 1)] == 7
        outputs, events = tk.step(table(det_at(9, 159, 100, source=source)), 9)
        assert [tid for _, tid, _ in outputs] == [want]
        if want == 1:
            assert events == [dict(frame=9, track_id=1, detection_index=0, score=None,
                                   branch_id=None, reason="reassociated")]
            assert tk.tracks.active.all()
        else:
            assert [e["reason"] for e in events] == ["new"] and not tk.tracks.active[row(tk, 1)]

    def test_bindings_come_before_closer_forecasts(self):
        # Two inactive tracks come back with their upstream ids swapped in
        # place: each detection sits on the other track's forecast, and each
        # track still takes the detection that carries its own id.
        tk = Tracker(make_scene(fps=10.0), small_config(ingest_ids=True))
        for f in range(5):
            tk.step(table(det_at(f, 50.0 + f, 100, source=7), det_at(f, 150.0 + f, 100, source=8)), f)
        tk.step([], 5)
        outputs, events = tk.step(table(det_at(9, 59, 100, source=8), det_at(9, 159, 100, source=7)), 9)
        assert [(e["track_id"], e["detection_index"], e["score"], e["reason"]) for e in events] == [
            (2, 0, None, "reassociated"),
            (1, 1, None, "reassociated"),
        ]
        assert [(tid, box.bottom_center[0]) for _, tid, box in outputs] == [(1, 159.0), (2, 59.0)]
        assert tk.tracks.active.tolist() == [True, True]

    def test_two_detections_with_one_source_id_refused(self):
        # Two tracks would share one binding, and base association would keep
        # the last: the frame is refused and the tracker left as it was.
        tk = Tracker(make_scene(), small_config(ingest_ids=True))
        frame0 = table(det_at(0, 50, 100, source=7), det_at(0, 120, 100, source=7))
        with pytest.raises(ValueError, match=r"^frame 0: source id 7 on two detections$"):
            tk.step(frame0, 0)
        assert len(tk.tracks) == 0 and tk.last_step_frame is None
        outputs, events = tk.step(table(det_at(1, 51, 100, source=7)), 1)
        assert [(e["track_id"], e["reason"]) for e in events] == [(1, "new")]
        assert tk.tracks.source[row(tk, 1)] == 7

    def test_one_source_id_refused_only_in_ingest_mode(self):
        tk = Tracker(make_scene(), small_config())
        _, events = tk.step(table(det_at(0, 50, 100, source=7), det_at(0, 120, 100, source=7)), 0)
        assert [e["reason"] for e in events] == ["new", "new"]

    def test_binding_leaves_with_its_track(self):
        # The upstream id comes back one frame after the forecast has ended:
        # the track has left (removed_dead) and its id founds a new track.
        tk = Tracker(make_scene(fps=10.0), small_config(ingest_ids=True))
        for f in range(5):
            tk.step(table(det_at(f, 50.0 + f, 100, source=7)), f)
        tk.step([], 5)
        assert end_frame(tk, 1) == 25
        outputs, events = tk.step(table(det_at(26, 76, 100, source=7)), 26)
        assert [(e["track_id"], e["reason"]) for e in events] == [(1, "removed_dead"), (2, "new")]
        assert [tid for _, tid, _ in outputs] == [2] and tk.tracks.source[row(tk, 2)] == 7


def test_trackers_sharing_one_frame_dict_match_their_solo_runs():
    # A BEV tracker and a pixel-space tracker stepped in turn on the same
    # read-only slices: neither may see what the other made of them, and
    # every output box is its detection's own PixelBox.
    sim = generate(crossing_scenario())
    frames = range(sim.scenario.n_frames)

    def trackers():
        return [
            Tracker(build_scene_model(sim.scenario, sim.homography), RunConfig()),
            Tracker(pixel_baseline_scene(sim.scenario), pixel_baseline_config(RunConfig())),
        ]

    alone = [tk.run(sim_detections_by_frame(sim), frames) for tk in trackers()]
    shared, paired = sim_detections_by_frame(sim), trackers()
    before = {f: [c.copy() for c in (t.frame, t.box, t.appearance)] for f, t in shared.items()}
    together = [([], []) for _ in paired]
    for f in frames:
        for tk, (outputs, events) in zip(paired, together):
            out, ev = tk.step(shared.get(f, []), f)
            outputs.extend(out)
            events.extend(ev)
    assert [e["reason"] for e in alone[0][1]].count("reassociated") == 2
    assert together[0] == alone[0]
    assert together[1] == alone[1]
    for f, t in shared.items():
        assert all(np.array_equal(a, b) for a, b in zip(before[f], (t.frame, t.box, t.appearance)))
    for outputs, _ in together:
        assert all(any(box is b for b in shared[f].boxes()) for f, _, box in outputs)


def test_slices_are_read_only():
    sim = generate(crossing_scenario())
    t = sim_detections_by_frame(sim)[5]
    for column in (t.frame, t.box, t.appearance, t.agent_id, t.rows([1, 0]).box):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    rows = np.flatnonzero(sim.table.frame == 5).tolist()
    assert t.frame.tolist() == [5] * len(rows)
    assert all(a is b for a, b in zip(t.boxes(), (sim.table.boxes()[j] for j in rows)))
