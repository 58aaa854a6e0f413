"""Occlusion-aware tracker: forecast inactive tracks in BEV and re-associate.

The built-in base association (a stand-in for any upstream online tracker) is
frame-to-frame IoU-greedy matching. Tracks that miss a detection go inactive
and are forecast forward in the BEV plane for the horizon tau_max; a track
leaves on the frame after its forecast ends. Their branches are the rows of
one BranchTable; at every frame all rows are evaluated at that frame and
offered the unmatched detections through a gated geometric+appearance score
solved as a maximum-score assignment. In ingestion mode a track keeps its
upstream id while inactive, and a detection carrying that id brings it back
before the gates. Track ids are never reissued. A track keeps only its filter
window's pixel feet; a step lifts in one px_to_world call only the points a
decision reads: the windows of the tracks going inactive and, while the
table has rows, the unmatched detections. Against those, one try_bev_to_px
call maps every branch and one iou_matrix call gives the overlaps
(FrameGeometry). Tracks and forecasts are world-fixed, the map camera-relative:
SceneModel.px_to_world and world_to_px apply the camera offset, and nothing
else does. A step reads one frame's detections as a DetectionTable, its only
input (an empty list stands for none): read-only columns that trackers may
share, and each row's PixelBox, built once per table, which a track keeps
and the step outputs.
"""

from __future__ import annotations

import bisect
from dataclasses import InitVar, dataclass, fields
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

# iou and predicted_box go uncalled here; the benchmark tracer wraps them as this module's.
from .boxes import PixelBox, bottom_centers, iou, iou_matrix, ltwh  # noqa: F401
from .config import RunConfig
from .errors import NonMonotonicFrame
from .forecast import Forecast, forecast, predicted_box, preprocess  # noqa: F401


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
    ValueError naming the first row whose frame or id is not an integer,
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
                v = np.asarray(column, dtype=float)
                _refuse(~(np.isfinite(v) & (v == np.floor(v))), f"{name} must be an integer")
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

    def sources(self) -> list:
        """Each row's upstream id, or None."""
        if self.source_id is None:
            return [None] * len(self)
        return [s if s >= 0 else None for s in self.source_id.tolist()]


_NO_DETECTIONS = DetectionTable(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), pixel_boxes=())


@dataclass
class Track:
    """A track's own state: its filter window's pixel feet, last box and last descriptor."""

    id: int
    feet: list  # [(frame, (u, v) pixel bottom-centre)], one per matched frame of the window
    last_box: PixelBox
    last_appearance: Optional[np.ndarray]  # NaN throughout when the detection had none
    forecast: Optional[Forecast] = None  # None while active
    source_binding: Optional[int] = None  # upstream id of the last match, kept while inactive

    @property
    def active(self) -> bool:
        return self.forecast is None

    @property
    def last_frame(self) -> int:
        return self.feet[-1][0]


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


@dataclass
class BranchTable:
    """Every branch of every inactive track, one row each, as a struct of arrays.

    Row r is branch ``branch[r]`` of track ``owner[r]`` at
    origin + ((f - created) / fps) * velocity, as in ``Forecast.points``. Rows
    stay until their track leaves.
    """

    fps: float
    owner: np.ndarray  # (R,) track id
    branch: np.ndarray  # (R,) branch index within the track's forecast
    origin: np.ndarray  # (R, 2) BEV point at created
    velocity: np.ndarray  # (R, 2) m/s
    created: np.ndarray  # (R,) the track's last observed frame
    end: np.ndarray  # (R,) last frame the branch covers
    size: np.ndarray  # (R, 2) width and height of the track's last box

    @classmethod
    def of(cls, tracks, fps: float) -> BranchTable:
        """Rows for the tracks' forecasts, in track order."""
        fcs = [t.forecast for t in tracks]
        k = np.array([len(fc.velocities) for fc in fcs], dtype=int)

        def per_track(values, dtype, *shape):
            return np.repeat(np.array(values, dtype=dtype).reshape(len(k), *shape), k, axis=0)

        return cls(
            fps,
            owner=per_track([t.id for t in tracks], int),
            branch=np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k),
            origin=per_track([fc.origin for fc in fcs], float, 2),
            velocity=np.concatenate([np.zeros((0, 2))] + [fc.velocities for fc in fcs]),
            created=per_track([fc.created_frame for fc in fcs], int),
            end=per_track([fc.end_frame for fc in fcs], int),
            size=per_track([(t.last_box.width, t.last_box.height) for t in tracks], float, 2),
        )

    def __len__(self) -> int:
        return len(self.owner)

    def _columns(self) -> list:
        return [getattr(self, f.name) for f in fields(self)[1:]]

    def rows(self, keep: np.ndarray) -> BranchTable:
        return BranchTable(self.fps, *(c[keep] for c in self._columns()))

    def extend(self, other: BranchTable) -> BranchTable:
        return BranchTable(
            self.fps, *(np.concatenate([a, b]) for a, b in zip(self._columns(), other._columns()))
        )

    def points(self, frame: int) -> np.ndarray:
        """(R, 2) BEV points of every row at the given frame."""
        return self.origin + ((frame - self.created) / self.fps)[:, None] * self.velocity


@dataclass
class FrameGeometry:
    """A BranchTable's rows at one frame, in table order, against M detections.

    A row's predicted box is its track's last box moved so its bottom-centre
    sits on the pixel of the row's point; a point with no pixel preimage has
    NaN box coordinates, which overlap nothing.
    """

    table: BranchTable
    points: np.ndarray  # (R, 2) BEV points
    overlap: np.ndarray  # (R, M) IoU of each row's predicted box with each detection
    det_points: np.ndarray  # (M, 2) the detections' world-fixed BEV points


def frame_geometry(
    table: BranchTable, det_boxes, det_points, scene: SceneModel, frame: int
) -> FrameGeometry:
    """The table's FrameGeometry against detections' (M, 4) boxes and (M, 2) BEV points."""
    pts = table.points(frame)
    px, _ = scene.world_to_px(pts, frame)
    boxes = np.concatenate([px - table.size / (2.0, 1.0), table.size], axis=1)  # u - w / 2, v - h
    return FrameGeometry(table, pts, iou_matrix(boxes, det_boxes), det_points)


def build_cost_matrix(
    tracks: list[Track], detections, config: RunConfig, geometry: FrameGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise re-association scores between inactive tracks and detections.

    Per branch the score is IoU(predicted box, detection box) plus the
    thresholded BEV-distance bonus max(tau_l2 - L2, 0), zeroed unless both the
    appearance similarity and the IoU clear their gates. The track/detection
    entry is the best (max) over its branches, the first branch on a
    tie. Zero means "forbidden". ``geometry``, whose table holds these
    tracks' rows and whose overlap columns are the DetectionTable
    ``detections``, supplies the branch points, the overlaps and the
    detections' BEV points.

    Returns:
        (scores, best_branch): (n, m) float scores and the branch index
        attaining each entry (-1 where the score is 0).
    """
    n, m = len(tracks), len(detections)
    scores = np.zeros((n, m))
    best_branch = np.full((n, m), -1, dtype=int)
    if n == 0 or m == 0:
        return scores, best_branch
    table = geometry.table
    index = {tr.id: i for i, tr in enumerate(tracks)}
    owner = np.array([index.get(tid, -1) for tid in table.owner.tolist()], dtype=int)
    rows = owner >= 0
    d_iou = geometry.overlap[rows]
    # Stacked (1, 2) @ (2, 1) products round like np.linalg.norm of one pair.
    diff = geometry.points[rows][:, None, :] - geometry.det_points[None, :, :]
    d_l2 = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    s = np.where(d_iou >= config.tau_iou, d_iou + np.maximum(config.tau_l2 - d_l2, 0.0), 0.0)
    per_branch = np.zeros((n, table.branch.max(initial=0) + 1, m))
    per_branch[owner[rows], table.branch[rows]] = s
    best = per_branch.max(axis=1)
    ok = best > 0.0

    ti = [i for i, tr in enumerate(tracks) if tr.last_appearance is not None]
    if ti and detections.appearance is not None:
        a = np.array([tracks[i].last_appearance for i in ti])[:, None, None, :]
        b = detections.appearance[None, :, :, None]
        # One stacked product per pair, rounding like the 1-D tr @ det product. A row
        # of NaN, no descriptor, on either side gives NaN, which the gate lets pass.
        ok[ti] &= ~((a @ b)[..., 0, 0] < config.tau_app)

    scores[ok] = best[ok]
    best_branch[ok] = per_branch.argmax(axis=1)[ok]
    return scores, best_branch


def assign(scores: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total-score assignment with zero-score pairs excluded.

    Hungarian on the rectangular matrix; the returned pairs are sorted by
    (row, column).
    """
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        return []
    rows, cols = linear_sum_assignment(s, maximize=True)
    pairs = [(int(r), int(c)) for r, c in zip(rows, cols) if s[r, c] > 0.0]
    pairs.sort()
    return pairs


def prune_forecasts(*_) -> None:  # uncalled; only benchmarks/tracing.py wraps the name
    """Placeholder: branches are never pruned."""


def _event(frame, track_id=None, detection_index=None, score=None, branch_id=None, reason=""):
    return dict(frame=frame, track_id=track_id, detection_index=detection_index, score=score,
                branch_id=branch_id, reason=reason)


class Tracker:
    """Stateful per-frame tracker; call step() once per frame, in order.

    Every gate, the forecasting window and the motion model come from one
    RunConfig (default: RunConfig()).
    """

    def __init__(self, scene: SceneModel, config: RunConfig = None):
        self.scene = scene
        self.config = config or RunConfig()
        self.tracks: dict[int, Track] = {}
        self.next_id = 1
        self.last_step_frame: Optional[int] = None
        self.branches = BranchTable.of([], scene.fps)  # the inactive tracks' branches
        self.window_span = self.config.dt * scene.fps * (self.config.obs_len - 1)  # in frames

    # -- helpers -------------------------------------------------------------

    def _activate(self, track: Track, row: tuple, frame: int):
        """Give the track a detection's (foot, PixelBox, descriptor, source id). It keeps
        its filter window: the grid starts window_span frames back, and interpolating it
        reads no foot before the last one at or before that frame."""
        foot, track.last_box, track.last_appearance, track.source_binding = row
        track.feet.append((frame, foot))
        while len(track.feet) > 1 and track.feet[1][0] <= frame - self.window_span:
            del track.feet[0]
        track.forecast = None

    def _deactivate(self, track: Track, history):
        """Forecast the track from its window's (frame, world point) pairs."""
        state = preprocess(history, self.config, self.scene.fps)
        track.forecast = forecast(state, self.config, self.scene.fps)

    def _base_association(self, active: list[Track], dets: DetectionTable, sources: list):
        """IoU-greedy (or upstream-id) matching, by (-iou, track id, detection index)."""
        matches = {}
        if self.config.ingest_ids:
            by_source = {t.source_binding: t for t in active if t.source_binding is not None}
            for j, source in enumerate(sources):
                tr = by_source.get(source)
                if tr is not None and tr.id not in matches:
                    matches[tr.id] = j
            return matches
        if not active or not sources:
            return matches
        ov = iou_matrix(ltwh([t.last_box for t in active]), dets.box)
        ti, dj = np.nonzero(ov >= self.config.base_iou)
        # active is in id order, so its index orders pairs like the track id.
        order = np.lexsort((dj, ti, -ov[ti, dj])).tolist()
        ti, dj = ti.tolist(), dj.tolist()
        used_dets = set()
        for k in order:
            tid, j = active[ti[k]].id, dj[k]
            if tid in matches or j in used_dets:
                continue
            matches[tid] = j
            used_dets.add(j)
        return matches

    def _advance_inactive(self, dets, det_rows, sources, free_dets, free_bev, matched_dets, frame,
                          events):
        """Remove and re-associate the inactive tracks: one pass over the table.
        The free detections, free_dets, have the world points free_bev.

        A track whose forecast has ended leaves (removed_dead); removals are
        logged in id order. In ingestion mode a free detection carrying an
        inactive track's upstream id re-associates it before the gates.
        Removed and re-associated tracks leave the table.
        """
        cfg = self.config
        table = self.branches
        owner = table.owner
        gone = set(owner[table.end < frame].tolist())  # and, below, the re-associated
        for tid in sorted(gone):
            del self.tracks[tid]
            events.append(_event(frame, tid, reason="removed_dead"))
        survivors = [self.tracks[tid] for tid in sorted(set(owner.tolist()) - gone)]

        def reassociate(tr, j, score=None, branch=None):
            events.append(_event(frame, tr.id, j, score, branch, reason="reassociated"))
            self._activate(tr, det_rows[j], frame)
            matched_dets.add(j)
            gone.add(tr.id)

        if cfg.ingest_ids and survivors and free_dets:
            bound = {t.source_binding: t for t in survivors if t.source_binding is not None}
            for j in free_dets:
                tr = bound.get(sources[j])
                if tr is not None and not tr.active:
                    reassociate(tr, j)
            survivors = [t for t in survivors if not t.active]
            keep = [i for i, j in enumerate(free_dets) if j not in matched_dets]
            free_dets, free_bev = [free_dets[i] for i in keep], free_bev[keep]

        if survivors and free_dets:
            free = frame_geometry(table, dets.box[free_dets], free_bev, self.scene, frame)
            scores, best_branch = build_cost_matrix(survivors, dets.rows(free_dets), cfg, free)
            for i, jj in assign(scores):
                reassociate(survivors[i], free_dets[jj], float(scores[i, jj]),
                            int(best_branch[i, jj]))
        if gone:
            self.branches = table.rows(~np.isin(owner, list(gone)))

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
            if not self.tracks and not by_frame.get(f):
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
        empty list (or tuple) for none; anything else is a TypeError.

        In ingestion mode two detections with one source id are a ValueError,
        raised before the tracker changes.

        Returns:
            (outputs, events): outputs is [(frame, track_id, PixelBox)] for the
            tracks active after this frame; events is a list of association
            log records (dicts with frame/track_id/detection_index/score/
            branch_id/reason).
        """
        empty = isinstance(detections, (list, tuple)) and not detections
        dets = _NO_DETECTIONS if empty else detections
        if not isinstance(dets, DetectionTable):
            raise TypeError(f"need a DetectionTable or an empty list, not {type(dets).__name__}")
        if self.last_step_frame is not None and frame <= self.last_step_frame:
            raise NonMonotonicFrame(
                f"frame {frame} not after last processed frame {self.last_step_frame}"
            )
        cfg = self.config
        if cfg.ingest_ids and dets.source_id is not None:
            ids = np.sort(dets.source_id[dets.source_id >= 0])
            twice = ids[1:][ids[1:] == ids[:-1]]
            if len(twice):
                raise ValueError(f"frame {frame}: source id {twice[0]} on two detections")
        self.last_step_frame = frame
        events = []
        n = len(dets)
        if n and self.scene.ego is not None:
            self.scene.ego.offset(frame)  # a frame the camera track lacks is an error here
        feet = dets.foot.tolist()
        sources = dets.sources()
        descriptors = [None] * n if dets.appearance is None else list(dets.appearance)
        det_rows = list(zip(feet, dets.boxes(), descriptors, sources))  # what a track keeps

        # Base association keeps visible tracks alive; self.tracks holds ids ascending.
        active = [t for t in self.tracks.values() if t.active]
        matches = self._base_association(active, dets, sources)
        matched_dets = set(matches.values())
        deactivated = []
        for tr in active:
            if tr.id in matches:
                j = matches[tr.id]
                self._activate(tr, det_rows[j], frame)
                events.append(_event(frame, tr.id, j, reason="active"))
            elif cfg.forecast_enabled:
                deactivated.append(tr)
                events.append(_event(frame, tr.id, reason="inactive"))
            else:
                del self.tracks[tr.id]
                events.append(_event(frame, tr.id, reason="terminated"))

        # The step's one lift: windows of the tracks going inactive, then the table's detections.
        rows = [row for tr in deactivated for row in tr.feet]
        free_dets = [j for j in range(n) if j not in matched_dets]
        if deactivated or len(self.branches):
            rows += [(frame, feet[j]) for j in free_dets]
        world = self.scene.px_to_world([p for _, p in rows], [f for f, _ in rows]) if rows else []
        lo = 0
        for tr in deactivated:
            self._deactivate(tr, list(zip((f for f, _ in tr.feet), world[lo : lo + len(tr.feet)])))
            lo += len(tr.feet)
        if deactivated:
            self.branches = self.branches.extend(BranchTable.of(deactivated, self.scene.fps))
        if len(self.branches):
            self._advance_inactive(dets, det_rows, sources, free_dets, world[lo:], matched_dets,
                                   frame, events)

        # Anything still unmatched founds a new track.
        for j in range(n):
            if j in matched_dets:
                continue
            tid = self.next_id
            self.next_id += 1
            self.tracks[tid] = Track(tid, [], None, None)
            self._activate(self.tracks[tid], det_rows[j], frame)
            events.append(_event(frame, tid, j, reason="new"))

        live = (t for t in self.tracks.values() if t.active and t.last_frame == frame)
        return [(frame, t.id, t.last_box) for t in live], events
