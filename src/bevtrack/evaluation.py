"""Long-horizon association metrics.

The suite scores a tracker against ground truth with an emphasis on identity
survival through occlusions rather than frame-level coverage:

- per-frame box matching (Hungarian on IoU, maximum cardinality first),
- identity switches and transfers,
- lost intervals split into short and long gaps,
- occlusion events extracted from ground-truth visibility, with identity
  recall bucketed by event duration,
- final displacement error of forecast branches against ground truth, scored
  on its own by ``fde``.

``evaluate_tracking`` reads its IoU and visibility thresholds, merge window and
buckets from a RunConfig; the functions it calls take them as arguments.

Record conventions: ground truth and hypotheses are sequences of
``(frame, id, PixelBox)``; visibility records are ``(frame, id, fraction)``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

# iou goes uncalled here; the benchmark tracer wraps it as an attribute of this module.
from .boxes import PixelBox, iou, iou_matrix, ltwh  # noqa: F401
from .config import RunConfig
from .errors import MissingGroundTruth
from .mot_io import write_json

_BIG = 1e6


# -- frame matching ----------------------------------------------------------------


def match_frames(gt_records: Sequence, hyp_records: Sequence, iou_threshold: float) -> dict:
    """Per-frame gt/hyp correspondence: maximum matches, then maximum total IoU.

    Pairs below the IoU threshold are never matched. Returns
    ``{frame: [(gt_id, hyp_id), ...]}`` with pairs sorted by gt id.
    """
    by_frame_gt: dict[int, list] = {}
    by_frame_hyp: dict[int, list] = {}
    for frame, gid, box in gt_records:
        by_frame_gt.setdefault(int(frame), []).append((int(gid), box))
    for frame, hid, box in hyp_records:
        by_frame_hyp.setdefault(int(frame), []).append((int(hid), box))

    matches: dict[int, list] = {}
    for frame in sorted(set(by_frame_gt) | set(by_frame_hyp)):
        gts = sorted(by_frame_gt.get(frame, []), key=lambda e: e[0])
        hyps = sorted(by_frame_hyp.get(frame, []), key=lambda e: e[0])
        if not gts or not hyps:
            matches[frame] = []
            continue
        ov = iou_matrix(ltwh([b for _, b in gts]), ltwh([b for _, b in hyps]))
        cost = np.where(ov >= iou_threshold, 1.0 - ov, _BIG)
        rows, cols = linear_sum_assignment(cost)
        matches[frame] = sorted(
            (gts[i][0], hyps[j][0]) for i, j in zip(rows, cols) if cost[i, j] < _BIG
        )
    return matches


def _gt_timelines(matches: dict) -> dict:
    """Per gt id: sorted list of (frame, hyp_id) over its matched frames."""
    lines: dict[int, list] = {}
    for frame in sorted(matches):
        for gid, hid in matches[frame]:
            lines.setdefault(gid, []).append((frame, hid))
    return lines


def _hyp_timelines(matches: dict) -> dict:
    lines: dict[int, list] = {}
    for frame in sorted(matches):
        for gid, hid in matches[frame]:
            lines.setdefault(hid, []).append((frame, gid))
    return lines


def count_switches(matches: dict) -> tuple[int, int]:
    """(idsw, idtr).

    idsw: a ground-truth identity changes its matched hypothesis id between
    consecutive matched frames. idtr: a hypothesis id changes the ground-truth
    identity it covers (two objects sharing one track id over time).
    """
    idsw = 0
    for line in _gt_timelines(matches).values():
        for (_, prev), (_, cur) in zip(line, line[1:]):
            if cur != prev:
                idsw += 1
    idtr = 0
    for line in _hyp_timelines(matches).values():
        for (_, prev), (_, cur) in zip(line, line[1:]):
            if cur != prev:
                idtr += 1
    return idsw, idtr


def count_lost(matches: dict, fps: float, short_max_s: float = 2.0) -> tuple[int, int]:
    """(short, long) lost intervals per ground-truth identity.

    An interval is a gap between consecutive matched frames of the same gt id;
    its duration is the frame difference over fps. Gaps of at most
    ``short_max_s`` seconds count as short.
    """
    short = 0
    long_ = 0
    for line in _gt_timelines(matches).values():
        for (prev_f, _), (cur_f, _) in zip(line, line[1:]):
            if cur_f - prev_f > 1:
                if (cur_f - prev_f) / fps <= short_max_s:
                    short += 1
                else:
                    long_ += 1
    return short, long_


# -- occlusion events ---------------------------------------------------------------


@dataclass(frozen=True)
class OcclusionEvent:
    agent_id: int
    start_frame: int
    end_frame: int  # inclusive
    pre_frame: int  # last visible frame before the event
    post_frame: int  # first visible frame after the event
    duration_s: float


def occlusion_components(vis_records: Sequence, fps: float, threshold: float, window: int) -> list:
    """Extract occlusion events from per-frame ground-truth visibility.

    Per identity, frames spanning its first to last record are binarized as
    visible (fraction >= threshold) or hidden; frames missing from the records
    inside the span count as hidden. Hidden runs separated by fewer than
    ``window`` visible frames merge into one event (brief flickers of
    visibility do not split an occlusion). Runs touching the span boundary are
    dropped; the rest become events with their flanking visible frames.

    The extraction is idempotent: re-running it on a signal whose merged runs
    were zeroed out yields the same events.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    per_id: dict[int, dict[int, float]] = {}
    for frame, aid, vis in vis_records:
        per_id.setdefault(int(aid), {})[int(frame)] = float(vis)

    events: list[OcclusionEvent] = []
    for aid in sorted(per_id):
        frames = per_id[aid]
        lo, hi = min(frames), max(frames)
        visible = np.array(
            [frames.get(f, 0.0) >= threshold for f in range(lo, hi + 1)], dtype=bool
        )
        runs = _hidden_runs(visible)
        runs = _merge_runs(runs, window)
        for start, end in runs:
            if start == 0 or end == len(visible) - 1:
                continue  # no visible flank inside the span
            events.append(
                OcclusionEvent(
                    agent_id=aid,
                    start_frame=lo + start,
                    end_frame=lo + end,
                    pre_frame=lo + start - 1,
                    post_frame=lo + end + 1,
                    duration_s=(end - start + 1) / fps,
                )
            )
    return events


def _hidden_runs(visible: np.ndarray) -> list:
    """Maximal runs of False as inclusive (start, end) index pairs."""
    runs = []
    start = None
    for i, v in enumerate(visible):
        if not v and start is None:
            start = i
        elif v and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(visible) - 1))
    return runs


def _merge_runs(runs: list, window: int) -> list:
    if not runs:
        return []
    merged = [runs[0]]
    for start, end in runs[1:]:
        prev_start, prev_end = merged[-1]
        if start - prev_end - 1 < window:
            merged[-1] = (prev_start, end)
        else:
            merged.append((start, end))
    return merged


# -- bucketed identity recall --------------------------------------------------------


@dataclass(frozen=True)
class RecallBucket:
    lo: float
    hi: float
    total: int
    recovered: int

    @property
    def recall(self) -> Optional[float]:
        return self.recovered / self.total if self.total else None


def id_recall(events: Sequence, matches: dict, buckets: Sequence) -> list:
    """Fraction of occlusion events whose identity survives, by duration bucket.

    An event counts as recovered when its ground-truth identity is matched at
    both flanking visible frames and to the same hypothesis id.
    """
    edges = list(buckets)
    if len(edges) < 2 or any(nxt <= prev for prev, nxt in zip(edges, edges[1:])):
        raise ValueError("buckets must be strictly increasing with at least two edges")
    lines = _gt_timelines(matches)
    per_gt = {gid: dict(line) for gid, line in lines.items()}
    totals = [0] * (len(edges) - 1)
    recovered = [0] * (len(edges) - 1)
    for ev in events:
        b = None
        for k in range(len(edges) - 1):
            if edges[k] <= ev.duration_s < edges[k + 1]:
                b = k
                break
        if b is None:
            continue
        totals[b] += 1
        line = per_gt.get(ev.agent_id, {})
        pre = line.get(ev.pre_frame)
        post = line.get(ev.post_frame)
        if pre is not None and post is not None and pre == post:
            recovered[b] += 1
    return [
        RecallBucket(lo=edges[k], hi=edges[k + 1], total=totals[k], recovered=recovered[k])
        for k in range(len(edges) - 1)
    ]


# -- forecast displacement -----------------------------------------------------------


def fde(forecasts: dict, gt_positions: dict, horizons: Sequence, fps: float) -> dict:
    """Final displacement error of forecasts against BEV ground truth.

    ``forecasts`` maps an identity to a Forecast; ``gt_positions`` maps
    ``(frame, id)`` to a BEV point. For each horizon the error of one identity
    is the minimum over branches of the distance at the target frame
    ``created_frame + round(h * fps)``; the result is the mean over
    identities. Raises MissingGroundTruth when the target frame of an identity
    has no ground truth, and when a forecast is too short for the horizon.
    """
    out = {}
    for h in horizons:
        steps = int(round(h * fps))
        if steps < 1:
            raise ValueError(f"horizon {h} is below one frame at {fps} fps")
        errs = []
        for aid in sorted(forecasts):
            fc = forecasts[aid]
            target = fc.created_frame + steps
            key = (target, aid)
            if key not in gt_positions:
                raise MissingGroundTruth(
                    f"no ground truth for id {aid} at frame {target}"
                )
            gt = np.asarray(gt_positions[key], dtype=float)
            if target > fc.end_frame:
                raise MissingGroundTruth(
                    f"forecast for id {aid} is shorter than horizon {h}s"
                )
            errs.append(min(float(np.linalg.norm(p - gt)) for p in fc.points(target)))
        out[float(h)] = float(np.mean(errs)) if errs else float("nan")
    return out


# -- report --------------------------------------------------------------------------


@dataclass
class EvalReport:
    idsw: int
    idtr: int
    id_lost_short: int
    id_lost_long: int
    buckets: list
    n_gt: int
    n_hyp: int
    n_matched: int

    def to_dict(self) -> dict:
        return {
            "idsw": self.idsw,
            "idtr": self.idtr,
            "id_lost_short": self.id_lost_short,
            "id_lost_long": self.id_lost_long,
            "n_gt": self.n_gt,
            "n_hyp": self.n_hyp,
            "n_matched": self.n_matched,
            "id_recall": [
                {
                    "lo": b.lo,
                    "hi": b.hi,
                    "total": b.total,
                    "recovered": b.recovered,
                    "recall": b.recall,
                }
                for b in self.buckets
            ],
        }

    def write_json(self, path) -> None:
        write_json(path, self.to_dict())

    def write_csv(self, path) -> None:
        row = self.to_dict()
        del row["id_recall"]  # flattened into one column group per bucket below
        for b in self.buckets:
            hi = "inf" if b.hi == float("inf") else f"{b.hi:g}"
            tag = f"recall_{b.lo:g}_{hi}"
            row[f"{tag}_total"] = b.total
            row[f"{tag}_recovered"] = b.recovered
            row[f"{tag}"] = "" if b.recall is None else f"{b.recall:.6f}"
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)


def evaluate_tracking(
    gt_records: Sequence,
    hyp_records: Sequence,
    vis_records: Sequence,
    fps: float,
    config: RunConfig,
) -> EvalReport:
    """Full metric pass: matching, identity errors, bucketed event recall.

    Reads iou_threshold, vis_threshold, window and buckets from config.
    """
    matches = match_frames(gt_records, hyp_records, config.iou_threshold)
    idsw, idtr = count_switches(matches)
    lost_s, lost_l = count_lost(matches, fps)
    events = occlusion_components(vis_records, fps, config.vis_threshold, config.window)
    bucket_rows = id_recall(events, matches, config.buckets)
    return EvalReport(
        idsw=idsw,
        idtr=idtr,
        id_lost_short=lost_s,
        id_lost_long=lost_l,
        buckets=bucket_rows,
        n_gt=len(gt_records),
        n_hyp=len(hyp_records),
        n_matched=sum(len(v) for v in matches.values()),
    )
