"""Occlusion-aware tracker: forecast inactive tracks in BEV and re-associate.

The built-in base association (a stand-in for any upstream online tracker) is
frame-to-frame IoU-greedy matching. Tracks that miss a detection go inactive
and are forecast forward in the BEV plane until the forecast ends or the
patience tau_max runs out. Their branches are the rows of one BranchTable; at
every frame all rows are evaluated at that frame and offered the unmatched
detections through a gated geometric+appearance score solved as a
maximum-score assignment. Track ids are never reissued. Per frame, one
px_to_bev call lifts the detections and one try_bev_to_px call maps every
branch (FrameGeometry); overlaps come from one kernel, iou_matrix, once per
frame for the branches. Tracks and forecasts are world-fixed, the map
camera-relative: SceneModel.px_to_world and world_to_px apply the camera
offset, and nothing else does.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

# iou and predicted_box go uncalled here; the benchmark tracer wraps them as this module's.
from .boxes import PixelBox, iou, iou_matrix, ltwh  # noqa: F401
from .config import RunConfig
from .errors import NonMonotonicFrame
from .forecast import Forecast, forecast, predicted_box, preprocess  # noqa: F401


@dataclass
class Detection:
    """A single-frame observation: box, unit appearance descriptor, BEV point.

    bev is filled in by the tracker (the bottom-center's world-fixed BEV
    point); source_id carries the upstream track id in ingestion mode.
    """

    frame: int
    box: PixelBox
    appearance: Optional[np.ndarray] = None  # None disables the appearance gate
    bev: Optional[np.ndarray] = None
    source_id: Optional[int] = None

    def __post_init__(self):
        if self.appearance is not None:
            self.appearance = np.asarray(self.appearance, dtype=float)
            norm = float(np.linalg.norm(self.appearance))
            if not abs(norm - 1.0) <= 1e-6:  # NaN fails too
                raise ValueError("appearance descriptor must be unit length")


@dataclass
class Track:
    id: int
    history: list  # [(frame, Detection)]
    last_appearance: Optional[np.ndarray]
    forecast: Optional[Forecast] = None  # None while active
    source_binding: Optional[int] = None  # upstream id in ingestion mode

    @property
    def active(self) -> bool:
        return self.forecast is None

    @property
    def last_frame(self) -> int:
        return self.history[-1][0]

    @property
    def last_box(self) -> PixelBox:
        return self.history[-1][1].box


@dataclass
class SceneModel:
    """Camera-relative map, frame rate, camera egomotion."""

    lh: object  # LinearizedHomography
    fps: float
    ego: object = None  # EgomotionTrack or None

    def __post_init__(self):
        if not self.fps > 0:
            raise ValueError("fps must be positive")

    def px_to_world(self, pixels, frame: int) -> np.ndarray:
        """World-fixed BEV points of (N, 2) pixels seen at a frame."""
        bev = self.lh.px_to_bev(pixels)
        return bev if self.ego is None else bev + self.ego.offset(frame)

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
    """A BranchTable's rows at one frame, in table order.

    A row's predicted box is its track's last box moved so its bottom-centre
    sits on the pixel of the row's point; a point with no pixel preimage has
    NaN box coordinates, which overlap nothing.
    """

    table: BranchTable
    points: np.ndarray  # (R, 2) BEV points
    overlap: np.ndarray  # (R, M) IoU of each row's predicted box with each detection


def frame_geometry(table: BranchTable, det_boxes, scene: SceneModel, frame: int) -> FrameGeometry:
    """The table's FrameGeometry, mapped with one try_bev_to_px call, against (M, 4) detections."""
    pts = table.points(frame)
    px, _ = scene.world_to_px(pts, frame)
    boxes = np.concatenate([px - table.size / (2.0, 1.0), table.size], axis=1)  # u - w / 2, v - h
    return FrameGeometry(table, pts, iou_matrix(boxes, det_boxes))


def build_cost_matrix(
    tracks: list[Track], detections: list[Detection], config: RunConfig, geometry: FrameGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise re-association scores between inactive tracks and detections.

    Per branch the score is IoU(predicted box, detection box) plus the
    thresholded BEV-distance bonus max(tau_l2 - L2, 0), zeroed unless both the
    appearance similarity and the IoU clear their gates. The track/detection
    entry is the best (max) over its branches, the first branch on a
    tie. Zero means "forbidden". ``geometry``, whose table holds these
    tracks' rows and whose overlap columns are these detections, supplies
    the branch points and overlaps.

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
    diff = geometry.points[rows][:, None, :] - np.array([d.bev for d in detections])[None, :, :]
    d_l2 = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    s = np.where(d_iou >= config.tau_iou, d_iou + np.maximum(config.tau_l2 - d_l2, 0.0), 0.0)
    per_branch = np.zeros((n, table.branch.max(initial=0) + 1, m))
    per_branch[owner[rows], table.branch[rows]] = s
    best = per_branch.max(axis=1)
    ok = best > 0.0

    ti = [i for i, tr in enumerate(tracks) if tr.last_appearance is not None]
    dj = [j for j, d in enumerate(detections) if d.appearance is not None]
    if ti and dj:
        a = np.array([tracks[i].last_appearance for i in ti])[:, None, None, :]
        b = np.array([detections[j].appearance for j in dj])[None, :, :, None]
        # One stacked product per pair, rounding like the 1-D tr @ det product.
        ok[np.ix_(ti, dj)] &= (a @ b)[..., 0, 0] >= config.tau_app

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
    return {
        "frame": frame,
        "track_id": track_id,
        "detection_index": detection_index,
        "score": score,
        "branch_id": branch_id,
        "reason": reason,
    }


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

    # -- helpers -------------------------------------------------------------

    def _activate(self, track: Track, det: Detection, frame: int):
        track.history.append((frame, det))
        track.last_appearance = det.appearance
        track.forecast = None
        track.source_binding = det.source_id

    def _deactivate(self, track: Track, frame: int):
        # The filter's grid starts at `first`; interpolating it reads no
        # observation before the last one at or before that frame.
        cfg, fps = self.config, self.scene.fps
        first = track.last_frame - cfg.dt * fps * (cfg.obs_len - 1)
        i = max(bisect.bisect_right(track.history, first, key=lambda h: h[0]) - 1, 0)
        state = preprocess([(f, d.bev) for f, d in track.history[i:]], cfg, fps)
        track.forecast = forecast(state, cfg, fps)
        track.source_binding = None

    def _base_association(self, active: list[Track], detections: list[Detection], det_boxes):
        """IoU-greedy (or upstream-id) matching, by (-iou, track id, detection index)."""
        matches = {}
        if self.config.ingest_ids:
            by_source = {t.source_binding: t for t in active if t.source_binding is not None}
            for j, det in enumerate(detections):
                tr = by_source.get(det.source_id)
                if tr is not None and tr.id not in matches:
                    matches[tr.id] = j
            return matches
        if not active or not detections:
            return matches
        ov = iou_matrix(ltwh([t.last_box for t in active]), det_boxes)
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

    def _advance_inactive(self, detections, det_boxes, matched_dets: set, frame: int, events):
        """Expire and re-associate the inactive tracks: one pass over the table.

        Only removed tracks are looped over, in id order, so their events
        interleave. Removed and re-associated tracks leave the table.
        """
        cfg = self.config
        table = self.branches
        geometry = frame_geometry(table, det_boxes, self.scene, frame)
        owner = table.owner
        ids = set(owner.tolist())
        dead = set(owner[table.end < frame].tolist())
        expired = set(owner[frame - table.created > cfg.tau_max * self.scene.fps].tolist())
        gone = dead | expired  # and, below, the re-associated: their rows leave
        for tid in sorted(gone):
            reason = "dead" if tid in dead else "expired"
            del self.tracks[tid]
            events.append(_event(frame, tid, reason="removed_" + reason))
        survivors = [self.tracks[tid] for tid in sorted(ids - gone)]

        free_dets = [j for j in range(len(detections)) if j not in matched_dets]
        if survivors and free_dets:
            dets = [detections[j] for j in free_dets]
            free = replace(geometry, overlap=geometry.overlap[:, free_dets])
            scores, best_branch = build_cost_matrix(survivors, dets, cfg, free)
            for i, jj in assign(scores):
                tr = survivors[i]
                j = free_dets[jj]
                score, branch = float(scores[i, jj]), int(best_branch[i, jj])
                events.append(_event(frame, tr.id, j, score, branch, reason="reassociated"))
                self._activate(tr, detections[j], frame)
                matched_dets.add(j)
                gone.add(tr.id)
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

    def step(self, detections: list[Detection], frame: int):
        """Process one frame of detections.

        Returns:
            (outputs, events): outputs is [(frame, track_id, PixelBox)] for the
            tracks active after this frame; events is a list of association
            log records (dicts with frame/track_id/detection_index/score/
            branch_id/reason).
        """
        if self.last_step_frame is not None and frame <= self.last_step_frame:
            raise NonMonotonicFrame(
                f"frame {frame} not after last processed frame {self.last_step_frame}"
            )
        self.last_step_frame = frame
        events = []
        cfg = self.config

        det_boxes = ltwh([d.box for d in detections])
        if detections:
            bottom_centres = det_boxes[:, :2] + det_boxes[:, 2:] / (2.0, 1.0)
            bev = self.scene.px_to_world(bottom_centres, frame)
            for det, p in zip(detections, bev):
                det.bev = p

        # Base association keeps visible tracks alive.
        active = sorted((t for t in self.tracks.values() if t.active), key=lambda t: t.id)
        matches = self._base_association(active, detections, det_boxes)
        matched_dets = set(matches.values())
        deactivated = []
        for tr in active:
            if tr.id in matches:
                j = matches[tr.id]
                self._activate(tr, detections[j], frame)
                events.append(_event(frame, tr.id, j, reason="active"))
            elif cfg.forecast_enabled:
                self._deactivate(tr, frame)
                deactivated.append(tr)
                events.append(_event(frame, tr.id, reason="inactive"))
            else:
                del self.tracks[tr.id]
                events.append(_event(frame, tr.id, reason="terminated"))
        if deactivated:
            self.branches = self.branches.extend(BranchTable.of(deactivated, self.scene.fps))
        if len(self.branches):
            self._advance_inactive(detections, det_boxes, matched_dets, frame, events)

        # Anything still unmatched founds a new track.
        for j, det in enumerate(detections):
            if j in matched_dets:
                continue
            tid = self.next_id
            self.next_id += 1
            self.tracks[tid] = Track(
                id=tid,
                history=[(frame, det)],
                last_appearance=det.appearance,
                source_binding=det.source_id,
            )
            events.append(_event(frame, tid, j, reason="new"))

        outputs = [
            (frame, t.id, t.last_box)
            for t in sorted(self.tracks.values(), key=lambda t: t.id)
            if t.active and t.last_frame == frame
        ]
        return outputs, events
