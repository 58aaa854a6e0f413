"""Occlusion-aware tracker: forecast inactive tracks in BEV and re-associate.

The built-in base association (a stand-in for any upstream online tracker) is
frame-to-frame IoU-greedy matching. Tracks that miss a detection go inactive
and are forecast forward in the BEV plane for the horizon tau_max; a track
leaves on the frame after its forecast ends. At every frame each branch is
offered the unmatched detections through a gated geometric+appearance score
solved as a maximum-score assignment. In ingestion mode a track keeps its
upstream id while inactive, and a detection carrying that id brings it back
before the gates. Track ids are never reissued. Tracks are the rows of one
TrackTable, an inactive track's forecast branches its columns, and a step works
on it in array passes. It lifts in one px_to_world call only what a decision
reads: the pixel feet of the tracks going inactive and, while inactive tracks
exist, the unmatched detections. Tracks and forecasts are world-fixed, the map
camera-relative: only SceneModel.px_to_world and world_to_px apply the camera
offset. A step reads a frame's DetectionTable and outputs its rows' PixelBoxes.

Base association scores up to FEW_PAIRS (track, detection) pairs with scalar
IoU, which costs less than iou_matrix's fixed numpy calls, and more with
iou_matrix; both give the same matches. Re-association decides the appearance
gate once, on every (inactive track, free detection) pair, and maps and scores
only the tracks and detections with a passing pair; the other pairs keep the
score 0 they would get, so the assignment reads the same matrix.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import InitVar, dataclass, fields
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

# iou and predicted_box go uncalled here; the benchmark tracer wraps them as this module's.
from .boxes import PixelBox, bottom_centers, iou, iou_ltwh, iou_matrix  # noqa: F401
from .config import RunConfig
from .errors import NonMonotonicFrame, ParseError
from .forecast import forecast, forecast_span, predicted_box, preprocess  # noqa: F401

# Base association scores up to this many (active track, detection) pairs with
# scalar IoU, more with iou_matrix: the measured crossover (_base_association).
FEW_PAIRS = 64


def _read_only(column, dtype):
    """A read-only view of the column as an array of dtype; the column itself stays writable."""
    view = np.asarray(column, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _refuse(bad: np.ndarray, message: str) -> None:
    """ValueError naming the first row where bad holds."""
    if bad.any():
        raise ValueError(f"row {np.argmax(bad)}: {message}")


@dataclass(eq=False)
class DetectionTable:
    """Detections as read-only columns, one row per detection, in row order.

    A row's descriptor may be NaN throughout: that detection has none, and
    skips the appearance gate. A source id below 0 is no upstream id. The
    check, on by default, makes each column a read-only view, raises
    ValueError naming the first row whose frame or id is not an integer of
    magnitude at most 2**53 (a float's exact range, which forecasts read),
    whose box has a non-positive size or a non-finite value or edge (left +
    width, top + height), or whose descriptor's norm is not 1 within 1e-6,
    and fills ``foot`` with ``bottom_centers(box)``; ``check=False`` is for
    parts of a checked table, which share its read-only columns.
    """

    frame: np.ndarray  # (N,) int
    box: np.ndarray  # (N, 4) left, top, width, height
    appearance: Optional[np.ndarray] = None  # (N, D) unit rows; None: no descriptors
    source_id: Optional[np.ndarray] = None  # (N,) int upstream ids; None: no ids
    agent_id: Optional[np.ndarray] = None  # (N,) int simulated agent; None outside the simulator
    foot: Optional[np.ndarray] = None  # (N, 2) the boxes' bottom centres, set by the check
    pixel_boxes: Optional[tuple] = None  # each row's PixelBox; None until boxes() builds them
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if not check:
            return
        for name, dtype in (("frame", np.int64), ("box", float), ("appearance", float),
                            ("source_id", np.int64), ("agent_id", np.int64)):
            column = getattr(self, name)
            if column is None:
                continue
            if dtype is np.int64:
                column = np.asarray(column)
                v = column.astype(float)
                _refuse(~(np.isfinite(v) & (v == np.floor(v))), f"{name} must be an integer")
                # beyond 2**53 a float skips integers; compared as given, 2**53 + 1 is refused
                big = (column > 2**53) | (column < -2**53)
                _refuse(big, f"{name} must be at most 2**53 in size")
            setattr(self, name, _read_only(column, dtype))
        n, a = len(self.frame), self.appearance
        sized = (self.source_id, self.agent_id, self.pixel_boxes)
        if (self.frame.ndim != 1 or self.box.shape != (n, 4)
                or any(c is not None and len(c) != n for c in sized)
                or (a is not None and (a.ndim != 2 or len(a) != n or a.shape[1] < 1))):
            raise ValueError(f"need {n} rows in every column, (N, 4) boxes and (N, D >= 1) "
                             "descriptors")
        _refuse(~(self.box[:, 2:] > 0).all(axis=1), "box width and height must be positive")
        with np.errstate(over="ignore"):
            edges = np.concatenate([self.box, self.box[:, :2] + self.box[:, 2:]], axis=1)
        _refuse(~np.isfinite(edges).all(axis=1), "box values and edges must be finite")
        self.foot = _read_only(bottom_centers(self.box), float)
        if a is not None:
            # stacked (1, D) @ (D, 1) products round like each row's own dot, as linalg.norm
            unit = np.abs(np.sqrt(a[:, None, :] @ a[:, :, None])[:, 0, 0] - 1.0) <= 1e-6
            _refuse(~(unit | np.isnan(a).all(axis=1)), "appearance descriptor must be unit length")

    def __len__(self) -> int:
        return len(self.frame)

    def rows(self, index) -> DetectionTable:
        """The rows ``index`` selects (a slice or a sequence of row numbers), read-only."""
        columns = (self.frame, self.box, self.appearance, self.source_id, self.agent_id, self.foot)
        boxes = self.boxes()
        if isinstance(index, slice):  # views of read-only columns, read-only too
            parts = [None if c is None else c[index] for c in columns]
            return DetectionTable(*parts, boxes[index], check=False)
        index = np.asarray(index, dtype=np.intp)
        parts = [None if c is None else _read_only(c[index], c.dtype) for c in columns]
        return DetectionTable(*parts, tuple(map(boxes.__getitem__, index.tolist())), check=False)

    def boxes(self) -> tuple:
        """Each row's PixelBox: pixel_boxes, built from the box column on first read."""
        if self.pixel_boxes is None:
            self.pixel_boxes = tuple(PixelBox(*b) for b in self.box.tolist())
        return self.pixel_boxes

    def by_frame(self) -> dict:
        """{frame: the frame's rows}, in row order; each part holds its rows' boxes()."""
        table = self
        if (np.diff(self.frame) < 0).any():
            table = self.rows(np.argsort(self.frame, kind="stable"))
        cuts = [0, *(np.flatnonzero(np.diff(table.frame)) + 1).tolist(), len(table)]
        frames = table.frame[cuts[:-1]].tolist() if len(table) else []
        return {f: table.rows(slice(lo, hi)) for f, lo, hi in zip(frames, cuts, cuts[1:])}


_NO_DETECTIONS = DetectionTable(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), pixel_boxes=())


@dataclass
class TrackTable:
    """Every held track, one row each in id order, as a struct of arrays. A track's
    m-th match sits in slot m % C of its rings, which hold its last C matches.

    An inactive track's forecast is its last three columns, as forecast() returns
    them: branch b sits at origin + ((f - last matched frame) / fps) * velocity[b]
    at frame f, up to end; the track leaves on the frame after. Every track has
    the config's K branches.
    """

    id: np.ndarray  # (T,) ascending
    active: np.ndarray  # (T,) bool
    box: np.ndarray  # (T, 4) last box: left, top, width, height
    appearance: np.ndarray  # (T, D) last descriptor, NaN throughout for none; D = 0 before any
    source: np.ndarray  # (T,) upstream id of the last match, kept while inactive; negative: none
    frames: np.ndarray  # (T, C) matched frames, a ring
    feet: np.ndarray  # (T, C, 2) their pixel bottom-centres
    seen: np.ndarray  # (T,) matches so far
    origin: np.ndarray  # (T, 2) BEV point at the last match; set while inactive
    velocity: np.ndarray  # (T, K, 2) m/s, one row per branch; K = 0 before any forecast
    end: np.ndarray  # (T,) last frame the forecast covers

    @classmethod
    def empty(cls) -> TrackTable:
        """No tracks, with rings of one slot."""
        z = np.zeros
        return cls(z(0, int), z(0, bool), z((0, 4)), z((0, 0)), z(0, int), z((0, 1), int),
                   z((0, 1, 2)), z(0, int), z((0, 2)), z((0, 0, 2)), z(0, int))

    def __len__(self) -> int:
        return len(self.id)

    def _columns(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def extend(self, ids) -> TrackTable:
        """This table, then unmatched rows for new tracks with these ids, zeros but the id."""
        grown = [np.concatenate([c, np.zeros((len(ids), *c.shape[1:]), c.dtype)])
                 for c in self._columns()]
        grown[0][len(self):] = ids
        return TrackTable(*grown)

    def matches(self, rows):
        """(frames (k, C), feet (k, C, 2), held (k, C)) of the tracks at rows, oldest first:
        row i's matches are frames[i][held[i]], the last in column C - 1."""
        c = self.frames.shape[1]
        i = np.arange(c)
        seen = self.seen[rows][:, None]
        rows, slot = np.asarray(rows)[:, None], (seen + i) % c
        return self.frames[rows, slot], self.feet[rows, slot], i >= c - np.minimum(seen, c)


@dataclass
class SceneModel:
    """Camera-relative map, frame rate, camera egomotion."""

    lh: object  # LinearizedHomography
    fps: float
    ego: object = None  # EgomotionTrack or None

    def __post_init__(self):
        if not self.fps > 0:
            raise ValueError("fps must be positive")

    def px_to_world(self, pixels, frames) -> np.ndarray:
        """World-fixed BEV points of (N, 2) pixels seen at one frame or at (N,) frames."""
        bev = self.lh.px_to_bev(pixels)
        return bev if self.ego is None else bev + self.ego.offset(frames)

    def world_to_px(self, points: np.ndarray, frame: int):
        """try_bev_to_px of (N, 2) world-fixed BEV points seen at a frame."""
        if self.ego is not None:
            points = points - self.ego.offset(frame)
        return self.lh.try_bev_to_px(points)


def frame_geometry(tracks: TrackTable, rows, det_boxes, scene: SceneModel, frame: int):
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


def appearance_gate(track_appearance: np.ndarray, det_appearance: np.ndarray,
                    tau_app: float):
    """(n, m) bool: which (track, detection) pairs of (n, D) and (m, D) descriptors
    pass the appearance gate, similarity not below tau_app. A row of NaN (no
    descriptor), or a side with no columns, passes.
    """
    if not (track_appearance.shape[1] and det_appearance.shape[1]):
        return np.ones((len(track_appearance), len(det_appearance)), bool)
    a = track_appearance[:, None, None, :]
    b = det_appearance[None, :, :, None]
    # One stacked product per pair, rounding like the 1-D tr @ det product. A row
    # of NaN on either side gives NaN, which the gate lets pass.
    return ~((a @ b)[..., 0, 0] < tau_app)


def build_cost_matrix(points: np.ndarray, det_points: np.ndarray, overlap: np.ndarray,
                      gate: np.ndarray, config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise re-association scores between n inactive tracks and m detections.

    Per branch the score is IoU(predicted box, detection box) plus the
    thresholded BEV-distance bonus max(tau_l2 - L2, 0), zeroed unless the pair
    passes the (n, m) appearance ``gate`` and the IoU clears tau_iou. The
    track/detection entry is the best (max) over its branches, the first branch
    on a tie. Zero means "forbidden". ``points`` (n, K, 2) and ``overlap``
    (n, K, m) are frame_geometry's; ``det_points`` are the detections' (m, 2)
    world-fixed BEV points.

    Returns:
        (scores, best_branch): (n, m) float scores and the branch index
        attaining each entry (-1 where the score is 0).
    """
    # Stacked (1, 2) @ (2, 1) products round like np.linalg.norm of one pair.
    diff = points[:, :, None, :] - det_points
    d_l2 = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    s = np.where(overlap >= config.tau_iou, overlap + np.maximum(config.tau_l2 - d_l2, 0.0), 0.0)
    best = s.max(axis=1)
    ok = (best > 0.0) & gate
    return np.where(ok, best, 0.0), np.where(ok, s.argmax(axis=1), -1)


def assign(scores: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total-score assignment with zero-score pairs excluded.

    Hungarian on the rectangular matrix; the returned pairs are sorted by
    (row, column).
    """
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        return []
    rows, cols = linear_sum_assignment(s, maximize=True)
    # linear_sum_assignment returns the rows ascending, each at most once
    return [(int(r), int(c)) for r, c in zip(rows, cols) if s[r, c] > 0.0]


def prune_forecasts(*_) -> None:  # uncalled; only benchmarks/tracing.py wraps the name
    """Placeholder: branches are never pruned."""


def _event(frame, track_id=None, detection_index=None, score=None, branch_id=None, reason=""):
    return {"frame": frame, "track_id": track_id, "detection_index": detection_index,
            "score": score, "branch_id": branch_id, "reason": reason}


class Tracker:
    """Stateful per-frame tracker; call step() once per frame, in order.

    Every gate, the forecasting window and the motion model come from one
    RunConfig (default: RunConfig()).
    """

    def __init__(self, scene: SceneModel, config: RunConfig = None):
        self.scene = scene
        self.config = config or RunConfig()
        self.next_id = 1
        self.last_step_frame: Optional[int] = None
        try:
            forecast_span(self.config, scene.fps)
        except ValueError as e:
            raise ParseError(f"config: {e}") from e
        span = self.window_span = self.config.dt * scene.fps * (self.config.obs_len - 1)  # frames
        # rings double up to the most matches a filter window (all preprocess reads) holds
        self.ring_limit = math.ceil(span) + 1 if span < math.inf else math.inf
        self.tracks = TrackTable.empty()

    # -- helpers -------------------------------------------------------------

    def _take(self, rows, js, dets: DetectionTable, frame: int):
        """Activate the tracks at rows with dets' rows js (index arrays, or one of each)."""
        t = self.tracks
        seen, c = t.seen[rows], t.frames.shape[1]
        top = seen.max() if seen.ndim else seen  # one row: compared as it is
        if c < self.ring_limit and top >= c:  # a full ring: double them all, which
            pad = min(c, self.ring_limit - c)  # keeps slots m % C = m, as no ring has wrapped
            t.frames = np.concatenate([t.frames, np.zeros((len(t), pad), int)], axis=1)
            t.feet = np.concatenate([t.feet, np.zeros((len(t), pad, 2))], axis=1)
        slot = seen % t.frames.shape[1]
        t.frames[rows, slot] = frame
        t.feet[rows, slot] = dets.foot.take(js, axis=0)
        t.seen[rows] = seen + 1
        t.active[rows] = True
        t.box[rows] = dets.box.take(js, axis=0)
        t.appearance[rows] = np.nan if dets.appearance is None else dets.appearance.take(js, 0)
        t.source[rows] = -1 if dets.source_id is None else dets.source_id[js]

    def _base_association(self, active: np.ndarray, dets: DetectionTable) -> dict:
        """{index into active: detection index}, by IoU-greedy (or upstream-id) matching
        in (-iou, track id, detection index) order.

        Up to FEW_PAIRS pairs are scored with iou_ltwh and sorted as tuples: 3 us at
        one pair and 0.3 us more a pair, where iou_matrix, nonzero, lexsort and tolist
        cost 16-24 us however few the pairs. One formula and order: the same matches.
        """
        t, matches = self.tracks, {}
        if self.config.ingest_ids:  # a frame's upstream ids are distinct
            bound = {s: i for i, s in enumerate(t.source[active].tolist()) if s >= 0}
            sources = [] if dets.source_id is None else dets.source_id.tolist()
            return {bound[s]: j for j, s in enumerate(sources) if s in bound}
        if not len(active) or not len(dets):
            return matches
        if len(active) * len(dets) <= FEW_PAIRS:  # scalar IoU: no numpy fixed costs
            base, cols = self.config.base_iou, dets.box.tolist()
            cands = sorted((-ov, i, j) for i, a in enumerate(t.box.take(active, axis=0).tolist())
                           for j, b in enumerate(cols) if (ov := iou_ltwh(a, b)) >= base)
            order, ti, dj = range(len(cands)), [c[1] for c in cands], [c[2] for c in cands]
        else:
            ov = iou_matrix(t.box.take(active, axis=0), dets.box)
            ti, dj = np.nonzero(ov >= self.config.base_iou)
            # active is in id order, so its index orders pairs like the track id.
            order = np.lexsort((dj, ti, -ov[ti, dj])).tolist()
            ti, dj = ti.tolist(), dj.tolist()
        used_dets = set()
        for k in order:
            i, j = ti[k], dj[k]
            if i not in matches and j not in used_dets:
                matches[i] = j
                used_dets.add(j)
        return matches

    def _advance_inactive(self, dets, free, free_bev, frame, events, took, dead):
        """Remove (removed_dead, in id order, into dead) or re-associate (into took) the
        inactive tracks; the list free of dets' rows has world points free_bev. In ingestion
        mode a free detection's upstream id brings its inactive track back before the gates."""
        cfg, t = self.config, self.tracks
        gone = (t.end < frame) > t.active  # ended and inactive; below, also the re-associated
        if not free and not gone.any():
            return
        held = ~t.active
        dead += gone.nonzero()[0].tolist()
        events += [_event(frame, tid, reason="removed_dead") for tid in t.id[gone].tolist()]

        def reassociate(r, j, score=None, branch=None):
            events.append(_event(frame, int(t.id[r]), j, score, branch, reason="reassociated"))
            took.append((r, j))
            gone[r] = True

        if cfg.ingest_ids and free and dets.source_id is not None:  # ids are distinct
            rows = (held & ~gone).nonzero()[0].tolist()
            bound = {s: r for s, r in zip(t.source[rows].tolist(), rows) if s >= 0}
            sources = dets.source_id[free].tolist()
            for j, s in zip(free, sources):
                if s in bound:
                    reassociate(bound[s], j)
            left = [k for k, s in enumerate(sources) if s not in bound]
            free, free_bev = [free[k] for k in left], free_bev[left]
        survivors = (held & ~gone).nonzero()[0]
        if not len(survivors) or not free:
            return
        # One gate on every (survivor, free detection) pair picks what to map and score;
        # any other pair would score 0, so the scattered matrix is the dense one.
        app = np.zeros((len(free), 0)) if dets.appearance is None else dets.appearance[free]
        gate = appearance_gate(t.appearance[survivors], app, cfg.tau_app)
        rows, cols = gate.any(axis=1).nonzero()[0], gate.any(axis=0).nonzero()[0]
        if not len(rows):
            return
        points, overlap = frame_geometry(t, survivors[rows], dets.box[np.asarray(free)[cols]],
                                         self.scene, frame)
        cells = np.ix_(rows, cols)
        scores, best_branch = np.zeros(gate.shape), np.full(gate.shape, -1, dtype=int)
        scores[cells], best_branch[cells] = build_cost_matrix(points, free_bev[cols], overlap,
                                                              gate[cells], cfg)
        for i, jj in assign(scores):
            reassociate(survivors[i], free[jj], float(scores[i, jj]), int(best_branch[i, jj]))

    # -- the per-frame update --------------------------------------------------

    def run(self, by_frame: dict, frames) -> tuple[list, list]:
        """step() over the ascending sequence frames, with by_frame's detections (none if absent).

        While no track is held, a frame without detections is skipped (its
        step would return nothing): the run jumps to the next detection frame.
        """
        outputs, events = [], []
        busy = sorted(f for f, dets in by_frame.items() if dets)
        i = 0
        while i < len(frames):
            f = frames[i]
            if not len(self.tracks) and not by_frame.get(f):
                k = bisect.bisect_left(busy, f)
                i = bisect.bisect_left(frames, busy[k]) if k < len(busy) else len(frames)
                continue
            out, ev = self.step(by_frame.get(f, []), f)
            outputs.extend(out)
            events.extend(ev)
            i += 1
        return outputs, events

    def step(self, detections, frame: int):
        """Process one frame of detections: a DetectionTable of the frame's rows, or an
        empty list (or tuple) for none; anything else is a TypeError. A row of another
        frame or of a descriptor width not the first one's, and in ingestion mode two
        detections with one source id, are a ValueError raised before the tracker changes.

        Returns:
            (outputs, events): outputs is [(frame, track_id, PixelBox)] for the
            tracks active after this frame, in id order, each with its
            detection's PixelBox; events is a list of association log records
            (dicts with frame/track_id/detection_index/score/branch_id/reason).
        """
        empty = isinstance(detections, (list, tuple)) and not detections
        dets = _NO_DETECTIONS if empty else detections
        if not isinstance(dets, DetectionTable):
            raise TypeError(f"need a DetectionTable or an empty list, not {type(dets).__name__}")
        if self.last_step_frame is not None and frame <= self.last_step_frame:
            raise NonMonotonicFrame(
                f"frame {frame} not after last processed frame {self.last_step_frame}"
            )
        cfg, t, n = self.config, self.tracks, len(dets)
        if dets.frame.tolist().count(frame) != n:  # one scan in C, cheaper than ufunc calls
            j = int(np.argmax(dets.frame != frame))
            raise ValueError(f"frame {frame}: row {j} is from frame {dets.frame[j]}")
        if cfg.ingest_ids and dets.source_id is not None:
            ids = np.sort(dets.source_id[dets.source_id >= 0])
            twice = ids[1:][ids[1:] == ids[:-1]]
            if len(twice):
                raise ValueError(f"frame {frame}: source id {twice[0]} on two detections")
        width = 0 if dets.appearance is None or not n else dets.appearance.shape[1]
        if width and t.appearance.shape[1] not in (0, width):  # fixed by the first descriptors
            raise ValueError(f"frame {frame}: descriptors of width {width}, the tracker's have "
                             f"{t.appearance.shape[1]}")
        if n and self.scene.ego is not None:
            self.scene.ego.offset(frame)  # a frame the camera track lacks is an error here
        if width and not t.appearance.shape[1]:  # the first descriptors
            t.appearance = np.full((len(t), width), np.nan)
        self.last_step_frame = frame
        events, took, dead, lost = [], [], [], []

        # Base association keeps visible tracks alive; rows are in id order.
        active = t.active.nonzero()[0]
        matches = self._base_association(active, dets)
        for i, (r, tid) in enumerate(zip(active.tolist(), t.id[active].tolist())):
            j = matches.get(i)
            if j is not None:
                took.append((r, j))
                reason = "active"
            elif cfg.forecast_enabled:
                lost.append(r)
                reason = "inactive"
            else:
                dead.append(r)
                reason = "terminated"
            events.append({"frame": frame, "track_id": tid, "detection_index": j, "score": None,
                           "branch_id": None, "reason": reason})

        # The step's one lift: the matches of the tracks going inactive, then, while
        # inactive tracks exist, the free detections.
        used = set(matches.values())
        free = [j for j in range(n) if j not in used]
        inactive = len(t) - len(active) + len(lost)
        world = None  # unread while no detection is free
        if lost or (free and inactive):
            at, pixels = np.full(len(free), frame), dets.foot[free]
            if lost:
                frames, feet, held = t.matches(lost)
                at, pixels = np.concatenate([frames[held], at]), np.concatenate([feet[held], pixels])
            world = self.scene.px_to_world(pixels, at)
        if lost:
            cuts = [0, *np.cumsum(held.sum(axis=1)).tolist()]
            states = [preprocess(at[lo:hi], world[lo:hi], cfg, self.scene.fps)
                      for lo, hi in zip(cuts, cuts[1:])]
            world = world[cuts[-1] :]
            t.active[lost] = False
            origin, velocity, end = forecast(states, cfg, self.scene.fps)
            if not t.velocity.shape[1]:  # the first forecast sizes the branch axis
                t.velocity = np.zeros((len(t), velocity.shape[1], 2))
            t.origin[lost], t.velocity[lost], t.end[lost] = origin, velocity, end
        if inactive:
            self._advance_inactive(dets, free, world, frame, events, took, dead)

        # Anything still unmatched founds a new track.
        used = {j for _, j in took}
        new = [j for j in range(n) if j not in used]
        if new:
            ids = range(self.next_id, self.next_id + len(new))
            self.next_id += len(new)
            events += [_event(frame, i, j, reason="new") for i, j in zip(ids, new)]
            took += zip(range(len(t), len(t) + len(new)), new)
            t = self.tracks = t.extend(ids)
        took.sort()
        if len(took) < 5:  # four row writes cost less than one scatter's fixed numpy calls
            for r, j in took:
                self._take(r, j, dets, frame)
        else:
            self._take(*np.array(took, dtype=np.intp).T, dets, frame)
        if dead:
            keep = np.ones(len(t), bool)
            keep[dead] = False
            self.tracks = TrackTable(*(c[keep] for c in t._columns()))
        ids, boxes = t.id.tolist(), dets.boxes()
        return [(frame, ids[r], boxes[j]) for r, j in took], events
