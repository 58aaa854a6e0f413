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
on it in array passes. It lifts to BEV only what a decision reads: the ring
matches each lost track's filter grid reads (at most two a grid point, all in
one px_to_world call), and the free detections with a pair that passes the
appearance gate. Tracks and forecasts are world-fixed, the map
camera-relative: only SceneModel.px_to_world and world_to_px apply the camera
offset. A step reads a frame's DetectionTable (mot_io's table of MOT detection
rows) and outputs its rows' PixelBoxes, each with its row's confidence.

Base association scores up to FEW_PAIRS (track, detection) pairs with scalar
IoU, which costs less than iou_matrix's fixed numpy calls, and more with
iou_matrix; both give the same matches. Re-association decides the appearance
gate once, on every (inactive track, free detection) pair, and maps and scores
only the passing pairs, in Python floats: a step scores a few, where numpy's
fixed costs would outweigh the arithmetic.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

# iou and predicted_box go uncalled here; the benchmark tracer wraps them as this module's.
from .boxes import iou, iou_ltwh, iou_matrix  # noqa: F401
from .config import RunConfig
from .errors import NonMonotonicFrame, ParseError
from .forecast import filter_grid, forecast, forecast_span, predicted_box, preprocess  # noqa: F401
from .homography import Homography
from .mot_io import DetectionTable

# Base association scores up to this many (active track, detection) pairs with
# scalar IoU, more with iou_matrix: the measured crossover (_base_association).
FEW_PAIRS = 64


_NO_DETECTIONS = DetectionTable(np.zeros(0, dtype=np.int64), np.zeros((0, 4)))


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


@dataclass
class SceneModel:
    """Camera-relative map, frame rate, camera egomotion."""

    homography: Homography  # pixel -> camera-relative BEV
    fps: float
    ego: object = None  # EgomotionTrack or None

    def __post_init__(self):
        if not self.fps > 0:
            raise ValueError("fps must be positive")

    def px_to_world(self, pixels, frames) -> np.ndarray:
        """World-fixed BEV points of (N, 2) pixels seen at one frame or at (N,) frames."""
        bev = self.homography.px_to_bev(pixels)
        return bev if self.ego is None else bev + self.ego.offset(frames)

    def world_to_px(self, points: np.ndarray, frame: int):
        """try_bev_to_px of (N, 2) world-fixed BEV points seen at a frame."""
        if self.ego is not None:
            points = points - self.ego.offset(frame)
        return self.homography.try_bev_to_px(points)


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


def build_cost_matrix(rows, cand, gate: np.ndarray, tracks: TrackTable, dets: DetectionTable,
                      scene: SceneModel, frame: int, config: RunConfig) -> list:
    """Re-association scores of the pairs the (n, m) bool ``gate`` passes, between the
    n inactive tracks at ``rows`` and the m detections at ``cand`` (rows of ``dets``).

    A branch sits at origin + s * velocity, s = (frame - last matched frame) / fps;
    its predicted box is the track's last box moved so its bottom-centre sits on
    the branch's pixel, NaN for a point with no pixel preimage, which overlaps
    nothing. Per branch the score is IoU(predicted box, detection box) plus the
    thresholded BEV-distance bonus max(tau_l2 - L2, 0), or 0 where the IoU is
    below tau_iou; a pair scores its best branch, the first on a tie, and 0 if a
    branch scores NaN. A pair scoring 0 is never re-associated.

    Python floats, with the operations of the array formulas and so their bits,
    except for the distances: one stacked (P, 1, 2) @ (P, 2, 1) product over every
    (pair, branch) difference, which numpy rounds as fma(dy, dy, dx * dx), a fused
    step Python floats lack.

    Returns:
        [(i, j, score, branch)] for the pairs scoring above 0, i indexing rows and
        j cand, in (i, j) order.
    """
    fps, k = scene.fps, tracks.velocity.shape[1]
    last = tracks.frames[rows, (tracks.seen[rows] - 1) % tracks.frames.shape[1]].tolist()
    points = []
    for f, (ox, oy), vel in zip(last, tracks.origin[rows].tolist(),
                                tracks.velocity[rows].tolist()):
        s = (frame - f) / fps
        points += [(ox + s * vx, oy + s * vy) for vx, vy in vel]
    px = scene.world_to_px(np.array(points), frame)[0].tolist()
    det_points = scene.px_to_world(dets.foot[cand], frame).tolist()
    det_boxes = dets.box[cand].tolist()
    sizes = (size for size in tracks.box[rows, 2:].tolist() for _ in range(k))
    boxes = [(u - w / 2.0, v - h, w, h) for (u, v), (w, h) in zip(px, sizes)]
    pairs = [(i, j) for i, passed in enumerate(gate.tolist()) for j, ok in enumerate(passed) if ok]
    d = np.array([(x - det_points[j][0], y - det_points[j][1])
                  for i, j in pairs for x, y in points[i * k : i * k + k]]).reshape(-1, 2)
    distances = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]).tolist()
    won = []
    for p, (i, j) in enumerate(pairs):
        best, branch = 0.0, -1
        for b in range(k):
            ov = iou_ltwh(boxes[i * k + b], det_boxes[j])
            bonus = config.tau_l2 - distances[p * k + b]
            score = ov + (0.0 if bonus < 0.0 else bonus) if ov >= config.tau_iou else 0.0
            if score != score:  # numpy's max returns NaN, which is not above 0
                branch = -1
                break
            if score > best:
                best, branch = score, b
        if branch >= 0:
            won.append((i, j, best, branch))
    return won


def assign(scores: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total-score assignment with zero-score pairs excluded.

    Hungarian on the rectangular matrix; the returned pairs are sorted by
    (row, column).
    """
    from scipy.optimize import linear_sum_assignment  # here: importing scipy takes 0.3-0.6 s

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

    def _advance_inactive(self, dets, free, frame, events, took, dead):
        """Remove (removed_dead, in id order, into dead) or re-associate (into took) the
        inactive tracks with the list free of dets' rows. In ingestion mode a free
        detection's upstream id brings its inactive track back before the gates."""
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
            free = [free[k] for k in left]
        survivors = (held & ~gone).nonzero()[0]
        if not len(survivors) or not free:
            return
        # One gate on every (survivor, free detection) pair picks what to map and score;
        # any other pair would score 0, so the scores are those of scoring every pair.
        app = np.zeros((len(free), 0)) if dets.appearance is None else dets.appearance[free]
        gate = appearance_gate(t.appearance[survivors], app, cfg.tau_app)
        rows, cols = gate.any(axis=1).nonzero()[0], gate.any(axis=0).nonzero()[0]
        if not len(rows):
            return
        # the free detections with a passing pair are lifted in the scorer
        won = build_cost_matrix(survivors[rows], np.asarray(free)[cols],
                                gate[np.ix_(rows, cols)], t, dets, self.scene, frame, cfg)
        rows, cols = rows.tolist(), cols.tolist()
        won = {(rows[i], cols[j]): (score, branch) for i, j, score, branch in won}
        scores = np.zeros(gate.shape)
        for (i, j), (score, _) in won.items():
            scores[i, j] = score
        for i, j in assign(scores):
            reassociate(int(survivors[i]), free[j], *won[i, j])

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

        used = set(matches.values())
        free = [j for j in range(n) if j not in used]
        # Lift of each lost track only the ring matches its filter grid reads; preprocess
        # on them alone finds the same grid and brackets, so the same state.
        if lost:
            c, fps = t.frames.shape[1], self.scene.fps
            histories, rows, slots = [], [], []
            for r, seen, ring in zip(lost, t.seen[lost].tolist(), t.frames[lost].tolist()):
                start = seen % c if seen >= c else 0  # the oldest held match's slot
                held = (ring[start:] + ring[:start])[:seen]
                picked = sorted({i for _, pair in filter_grid(held, cfg, fps) for i in pair})
                histories.append([held[i] for i in picked])
                rows += [r] * len(picked)
                slots += [(start + i) % c for i in picked]
            world = self.scene.px_to_world(t.feet[rows, slots], [f for h in histories for f in h])
            ends = itertools.accumulate(map(len, histories))
            states = [preprocess(h, world[e - len(h) : e], cfg, fps) for h, e in zip(histories, ends)]
            t.active[lost] = False
            origin, velocity, end = forecast(states, cfg, fps)
            if not t.velocity.shape[1]:  # the first forecast sizes the branch axis
                t.velocity = np.zeros((len(t), velocity.shape[1], 2))
            t.origin[lost], t.velocity[lost], t.end[lost] = origin, velocity, end
        if len(t) - len(active) + len(lost):  # inactive tracks exist
            self._advance_inactive(dets, free, frame, events, took, dead)

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
