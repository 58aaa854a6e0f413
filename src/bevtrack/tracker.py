"""Occlusion-aware tracker: forecast inactive tracks in BEV and re-associate.

The built-in base association (a stand-in for any upstream online tracker) is
frame-to-frame IoU-greedy matching. Tracks that miss a detection go inactive
and are forecast forward in the BEV plane; at every frame each forecast is
evaluated at that frame, pruned against visible freespace, and offered the
unmatched detections through a gated geometric+appearance score solved as a
maximum-score assignment. Track ids are never reissued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .boxes import PixelBox, iou
from .config import RunConfig
from .errors import NonMonotonicFrame, OutOfDomain
from .forecast import Forecast, forecast, predicted_box, preprocess


@dataclass
class Detection:
    """A single-frame observation: box, unit appearance descriptor, BEV point.

    bev is filled in by the tracker (bottom-center through the scene's
    homography); source_id carries the upstream track id in ingestion mode.
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
            if abs(norm - 1.0) > 1e-6:
                raise ValueError("appearance descriptor must be unit length")


@dataclass
class Track:
    id: int
    history: list  # [(frame, Detection)]
    last_appearance: Optional[np.ndarray]
    forecast: Optional[Forecast] = None  # None while active
    inactive_since: Optional[int] = None
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

    def bev_history(self):
        return [(f, d.bev) for f, d in self.history if d.bev is not None]


@dataclass
class SceneModel:
    """Static scene context: BEV freespace mask, mapping, frame rate, egomotion."""

    mask: np.ndarray  # (ny, nx) bool, True where ground is visible to the camera
    cell_size: float
    origin: np.ndarray  # BEV coords of the mask's (0, 0) cell corner
    lh: object  # LinearizedHomography
    fps: float
    ego: object = None  # EgomotionTrack or None

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.origin = np.asarray(self.origin, dtype=float)
        if self.mask.ndim != 2 or self.mask.size == 0:
            raise ValueError("mask must be a non-empty 2D array")
        if self.cell_size <= 0 or self.fps <= 0:
            raise ValueError("cell_size and fps must be positive")

    def contains(self, point: np.ndarray) -> bool:
        """True when the BEV point lies on a visible-freespace cell."""
        j = int(math.floor((point[0] - self.origin[0]) / self.cell_size))
        i = int(math.floor((point[1] - self.origin[1]) / self.cell_size))
        if 0 <= i < self.mask.shape[0] and 0 <= j < self.mask.shape[1]:
            return bool(self.mask[i, j])
        return False


def _branch_boxes(track: Track, scene: SceneModel, frame: int):
    """(branch_index, point, predicted box or None) for alive branches."""
    fc = track.forecast
    out = []
    for bi, pt in enumerate(fc.points(frame)):
        if not fc.alive[bi]:
            continue
        try:
            pb = predicted_box(track.last_box, pt, scene.lh, ego=scene.ego, frame=frame)
        except OutOfDomain:
            pb = None
        out.append((bi, pt, pb))
    return out


def build_cost_matrix(
    tracks: list[Track],
    detections: list[Detection],
    config: RunConfig,
    scene: SceneModel,
    frame: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise re-association scores between inactive tracks and detections.

    Per branch the score is IoU(predicted box, detection box) plus the
    thresholded BEV-distance bonus max(tau_l2 - L2, 0), zeroed unless both the
    appearance similarity and the IoU clear their gates. The track/detection
    entry is the best (max) over its alive branches. Zero means "forbidden".

    Returns:
        (scores, best_branch): (n, m) float scores and the branch index
        attaining each entry (-1 where the score is 0).
    """
    n, m = len(tracks), len(detections)
    scores = np.zeros((n, m))
    best_branch = np.full((n, m), -1, dtype=int)
    for i, tr in enumerate(tracks):
        branches = _branch_boxes(tr, scene, frame)
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


def prune_forecasts(
    track: Track,
    scene: SceneModel,
    detections: list[Detection],
    frame: int,
    config: RunConfig,
) -> None:
    """Kill branches that linger in visible freespace.

    A branch point is visible when it lies on an occupied freespace cell and
    its predicted box overlaps no closer detection (larger bottom edge) with
    IoU >= occlusion_iou. Each branch carries a consecutive-visible counter;
    exceeding tau_vis * fps kills the branch.
    """
    limit = config.tau_vis * scene.fps
    fc = track.forecast
    for bi, pt, pb in _branch_boxes(track, scene, frame):
        visible = scene.contains(pt) and pb is not None
        if visible:
            for det in detections:
                if det.box.bottom > pb.bottom and iou(pb, det.box) >= config.occlusion_iou:
                    visible = False
                    break
        if visible:
            fc.visible_streak[bi] += 1
            if fc.visible_streak[bi] > limit:
                fc.alive[bi] = False
        else:
            fc.visible_streak[bi] = 0


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
        self.motion = self.config.motion_spec()
        self.horizon_steps = max(1, math.ceil(self.config.tau_max / self.config.dt))
        self.tracks: dict[int, Track] = {}
        self.next_id = 1
        self.last_step_frame: Optional[int] = None

    # -- helpers -------------------------------------------------------------

    def _activate(self, track: Track, det: Detection, frame: int):
        track.history.append((frame, det))
        track.last_appearance = det.appearance
        track.forecast = None
        track.inactive_since = None
        track.source_binding = det.source_id

    def _deactivate(self, track: Track, frame: int):
        obs = preprocess(
            track.bev_history(),
            obs_len=self.config.obs_len,
            dt=self.config.dt,
            fps=self.scene.fps,
            process_noise=self.config.process_noise,
            obs_noise=self.config.obs_noise,
        )
        track.forecast = forecast(self.motion, obs, self.horizon_steps)
        track.inactive_since = frame
        track.source_binding = None

    def _base_association(self, active: list[Track], detections: list[Detection]):
        """IoU-greedy (or upstream-id) matching of active tracks to detections."""
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
        for neg_ov, tid, j in cands:
            if tid in matches or j in used_dets:
                continue
            matches[tid] = j
            used_dets.add(j)
        return matches

    # -- the per-frame update --------------------------------------------------

    def run(self, by_frame: dict, frames) -> tuple[list, list]:
        """step() over frames in order, with by_frame's detections (none if absent)."""
        outputs: list = []
        events: list = []
        for f in frames:
            out, ev = self.step(by_frame.get(f, []), f)
            outputs.extend(out)
            events.extend(ev)
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

        for det in detections:
            det.bev = self.scene.lh.px_to_bev(
                np.array(det.box.bottom_center), ego=self.scene.ego, frame=frame
            )

        # Base association keeps visible tracks alive.
        active = sorted((t for t in self.tracks.values() if t.active), key=lambda t: t.id)
        matches = self._base_association(active, detections)
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

        # Drop forecasts past their end, then prune and expire the inactive set.
        inactive = sorted((t for t in self.tracks.values() if not t.active), key=lambda t: t.id)
        survivors = []
        for tr in inactive:
            if frame > tr.forecast.end_frame:
                del self.tracks[tr.id]
                events.append(_event(frame, tr.id, reason="removed_dead"))
                continue
            prune_forecasts(tr, self.scene, detections, frame, cfg)
            if not tr.forecast.alive.any():
                del self.tracks[tr.id]
                events.append(_event(frame, tr.id, reason="removed_pruned"))
            elif frame - tr.last_frame > cfg.tau_max * self.scene.fps:
                del self.tracks[tr.id]
                events.append(_event(frame, tr.id, reason="removed_expired"))
            else:
                survivors.append(tr)

        # Re-associate leftover detections to forecast tracks.
        free_dets = [j for j in range(len(detections)) if j not in matched_dets]
        if survivors and free_dets:
            dets = [detections[j] for j in free_dets]
            scores, best_branch = build_cost_matrix(survivors, dets, cfg, self.scene, frame)
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
