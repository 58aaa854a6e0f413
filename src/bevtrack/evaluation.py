"""Long-horizon association metrics.

The suite scores a tracker against ground truth with an emphasis on identity
survival through occlusions rather than frame-level coverage:

- per-frame box matching (Hungarian on IoU, maximum cardinality first),
- identity switches and transfers,
- lost intervals split into short and long gaps,
- occlusion events extracted from ground-truth visibility, with identity
  recall bucketed by event duration.

``evaluate_tracking`` reads its IoU and visibility thresholds, merge window and
buckets from a RunConfig; the functions it calls take them as arguments.

Record conventions: boxes are ``(frame, id, (N, 4) ltwh box)`` arrays and
visibility is ``(frame, id, fraction)`` arrays; ``evaluate_tracking`` takes
the ground truth's from one GtTable and the hypotheses as such arrays
(``mot_io.box_records`` of tracker outputs, or a MotTable's columns).
Matches are three sorted arrays (``Matches``). ``match_frames`` scores
consecutive frames in blocks of at most MATCH_BLOCK IoU cells, one
``iou_matrix`` call a block, and solves each frame's assignment on its own.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

# iou goes uncalled here; the benchmark tracer wraps it as an attribute of this module.
from .boxes import iou, iou_matrix  # noqa: F401
from .config import RunConfig
from .mot_io import GtTable, write_json

_BIG = 1e6
MATCH_BLOCK = 16384  # IoU cells scored together; bounds the padded per-block arrays


# -- frame matching ----------------------------------------------------------------


class Matches(NamedTuple):
    """Matched (frame, gt id, hyp id) triples as three arrays, sorted in that order."""

    frame: np.ndarray
    gt_id: np.ndarray
    hyp_id: np.ndarray


def _blocks(n_gt: list, n_hyp: list) -> list:
    """(start, stop) of runs of consecutive frames, each padded to its largest frame
    in at most MATCH_BLOCK cells; a frame over the budget is a block of its own."""
    blocks, start, g, h = [], 0, 0, 0
    for k, (a, b) in enumerate(zip(n_gt, n_hyp)):
        g, h = max(g, a), max(h, b)
        if k > start and (k - start + 1) * g * h > MATCH_BLOCK:
            blocks.append((start, k))
            start, g, h = k, a, b
    return blocks + [(start, len(n_gt))] if n_gt else blocks


def match_frames(gt: tuple, hyp: tuple, iou_threshold: float) -> Matches:
    """Per-frame gt/hyp correspondence: maximum matches, then maximum total IoU.

    gt and hyp are (frame, id, (N, 4) box) arrays. Each frame's rows enter the
    assignment in (id, input) order. Pairs below the IoU threshold are never
    matched. Frames with rows on both sides are scored in blocks (``_blocks``):
    each frame is padded by repeating its last row, one ``iou_matrix`` call
    scores the block, and the padding is sliced off before the frame's
    assignment.
    """
    (gf, gid, gbox), (hf, hid, hbox) = gt, hyp
    g_order, h_order = np.lexsort((gid, gf)), np.lexsort((hid, hf))  # stable
    g_frames, h_frames = gf[g_order], hf[h_order]
    g_box, h_box = gbox[g_order], hbox[h_order]
    both = np.intersect1d(g_frames, h_frames)
    g_lo, h_lo = np.searchsorted(g_frames, both), np.searchsorted(h_frames, both)
    n_g = np.searchsorted(g_frames, both, "right") - g_lo
    n_h = np.searchsorted(h_frames, both, "right") - h_lo
    g_rows, h_rows = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for start, stop in _blocks(n_g.tolist(), n_h.tolist()):
        lo_g, lo_h, ng, nh = g_lo[start:stop], h_lo[start:stop], n_g[start:stop], n_h[start:stop]
        gi = lo_g[:, None] + np.minimum(np.arange(ng.max()), ng[:, None] - 1)
        hi = lo_h[:, None] + np.minimum(np.arange(nh.max()), nh[:, None] - 1)
        ov = iou_matrix(g_box[gi], h_box[hi])
        cost = np.where(ov >= iou_threshold, 1.0 - ov, _BIG)
        sizes = zip(ng.tolist(), nh.tolist())
        pairs = [linear_sum_assignment(cost[k, :a, :b]) for k, (a, b) in enumerate(sizes)]
        rows, cols = (np.concatenate(side) for side in zip(*pairs))
        k = np.repeat(np.arange(stop - start), np.minimum(ng, nh))  # each pair's frame
        ok = cost[k, rows, cols] < _BIG
        g_rows.append(gi[k, rows][ok])
        h_rows.append(hi[k, cols][ok])
    gm, hm = np.concatenate(g_rows), np.concatenate(h_rows)
    frame, gt_id, hyp_id = g_frames[gm], gid[g_order[gm]], hid[h_order[hm]]
    order = np.lexsort((hyp_id, gt_id, frame))
    return Matches(frame[order], gt_id[order], hyp_id[order])


def _changes(key: np.ndarray, value: np.ndarray) -> int:
    """Value changes along each key's timeline, its matches in match order (a stable sort)."""
    order = np.argsort(key, kind="stable")
    k, v = key[order], value[order]
    return int(((k[1:] == k[:-1]) & (v[1:] != v[:-1])).sum())


def count_switches(matches: Matches) -> tuple[int, int]:
    """(idsw, idtr).

    idsw: a ground-truth identity changes its matched hypothesis id between
    consecutive matched frames. idtr: a hypothesis id changes the ground-truth
    identity it covers (two objects sharing one track id over time).
    """
    return _changes(matches.gt_id, matches.hyp_id), _changes(matches.hyp_id, matches.gt_id)


def count_lost(matches: Matches, fps: float, short_max_s: float = 2.0) -> tuple[int, int]:
    """(short, long) lost intervals per ground-truth identity.

    An interval is a gap between consecutive matched frames of the same gt id;
    its duration is the frame difference over fps. Gaps of at most
    ``short_max_s`` seconds count as short.
    """
    order = np.argsort(matches.gt_id, kind="stable")
    gid, frame = matches.gt_id[order], matches.frame[order]
    step = frame[1:] - frame[:-1]
    gaps = step[(gid[1:] == gid[:-1]) & (step > 1)]
    short = int((gaps / fps <= short_max_s).sum())
    return short, len(gaps) - short


# -- occlusion events ---------------------------------------------------------------


@dataclass(frozen=True)
class OcclusionEvent:
    agent_id: int
    start_frame: int
    end_frame: int  # inclusive
    pre_frame: int  # last visible frame before the event
    post_frame: int  # first visible frame after the event
    duration_s: float


def occlusion_components(vis: tuple, fps: float, threshold: float, window: int) -> list:
    """Extract occlusion events from per-frame ground-truth visibility.

    vis is (frame, id, visibility) arrays; of two rows for one (frame, id),
    the later counts. Per identity, frames spanning its first to last record
    are binarized as visible (fraction >= threshold) or hidden; frames missing
    from the records inside the span count as hidden. Hidden runs separated by
    fewer than ``window`` visible frames merge into one event (brief flickers
    of visibility do not split an occlusion). Runs touching the span boundary
    are dropped; the rest become events with their flanking visible frames.

    So an event lies between two consecutive solid blocks of one identity:
    runs of visible frames at least ``window`` long or touching the span ends.

    The extraction is idempotent: re-running it on a signal whose merged runs
    were zeroed out yields the same events.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    frame, aid, fraction = (np.asarray(c) for c in vis)
    order = np.lexsort((frame, aid))  # stable: of two rows for one (frame, id), the later is last
    aid, frame, visible = aid[order], frame[order], fraction[order] >= threshold
    first, last = _runs(_starts(aid))
    span_lo, span_hi = (np.repeat(frame[i], last - first + 1) for i in (first, last))
    keep = visible & _starts(aid[::-1], frame[::-1])[::-1]  # the last row of each (id, frame)
    aid, frame, span_lo, span_hi = aid[keep], frame[keep], span_lo[keep], span_hi[keep]
    first, last = _runs(_starts(aid, frame - np.arange(len(frame))))  # blocks of visible frames
    lo, hi = frame[first], frame[last]
    solid = (hi - lo + 1 >= window) | (lo == span_lo[first]) | (hi == span_hi[last])
    ids, pre, post = aid[first[solid]], hi[solid], lo[solid]
    pair = ids[1:] == ids[:-1]  # consecutive solid blocks of one identity
    ids, pre, post = ids[1:][pair], pre[:-1][pair], post[1:][pair]
    durations = (post - pre - 1) / fps
    return [
        OcclusionEvent(a, p + 1, q - 1, p, q, d)
        for a, p, q, d in zip(ids.tolist(), pre.tolist(), post.tolist(), durations.tolist())
    ]


def _starts(*columns) -> np.ndarray:
    """Per row, whether a run starts there: the first row, or a column changes value."""
    out = np.arange(len(columns[0])) == 0
    for c in columns:
        out[1:] |= c[1:] != c[:-1]
    return out


def _runs(starts: np.ndarray):
    """(first, last) row of each run, from _starts."""
    first = np.flatnonzero(starts)
    return first, np.append(first[1:], len(starts))[: len(first)] - 1


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


def _keys(gt_id, frame) -> np.ndarray:
    """(gt id, frame) pairs as one structured array, which sorts and compares as pairs."""
    out = np.empty(len(gt_id), dtype=[("gt_id", np.int64), ("frame", np.int64)])
    out["gt_id"], out["frame"] = gt_id, frame
    return out


def id_recall(events: Sequence, matches: Matches, buckets: Sequence) -> list:
    """Fraction of occlusion events whose identity survives, by duration bucket.

    An event counts as recovered when its ground-truth identity is matched at
    both flanking visible frames and to the same hypothesis id (where a frame
    matches the identity twice, the later match in match order counts).
    """
    edges = list(buckets)
    if len(edges) < 2 or not all(nxt > prev for prev, nxt in zip(edges, edges[1:])):
        raise ValueError("buckets must be strictly increasing with at least two edges")
    order = np.lexsort((matches.frame, matches.gt_id))  # stable: match order within a key
    keys, hyp = _keys(matches.gt_id[order], matches.frame[order]), matches.hyp_id[order]
    aid = np.array([ev.agent_id for ev in events], dtype=np.int64)

    def last_match(frames):
        """Index in keys of the identity's last match at each frame, and whether there is one."""
        q = _keys(aid, np.array(frames, dtype=np.int64))
        k = np.searchsorted(keys, q, "right") - 1
        ok = k >= 0
        ok[ok] = keys[k[ok]] == q[ok]
        return k, ok

    pre, pre_ok = last_match([ev.pre_frame for ev in events])
    post, post_ok = last_match([ev.post_frame for ev in events])
    same = pre_ok & post_ok
    same[same] = hyp[pre[same]] == hyp[post[same]]
    durations = np.array([ev.duration_s for ev in events], dtype=float)
    b = np.searchsorted(np.array(edges, dtype=float), durations, "right") - 1
    inside = (b >= 0) & (b < len(edges) - 1)
    totals = np.bincount(b[inside], minlength=len(edges) - 1)
    recovered = np.bincount(b[inside & same], minlength=len(edges) - 1)
    return [
        RecallBucket(lo=lo, hi=hi, total=t, recovered=r)
        for lo, hi, t, r in zip(edges, edges[1:], totals.tolist(), recovered.tolist())
    ]


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
        """The counts, then ``id_recall``: each bucket with its recall."""
        d = asdict(self)
        rows = zip(d.pop("buckets"), self.buckets)
        d["id_recall"] = [{**row, "recall": b.recall} for row, b in rows]
        return d

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


def evaluate_tracking(gt: GtTable, hyp: tuple, fps: float, config: RunConfig) -> EvalReport:
    """Full metric pass: matching, identity errors, bucketed event recall.

    hyp is (frame, id, (N, 4) box) arrays (``mot_io.box_records`` of the tracker's
    outputs); the ground truth's own visibility gives the occlusion events.
    Reads iou_threshold, vis_threshold, window and buckets from config.
    """
    matches = match_frames((gt.frame, gt.agent_id, gt.box), hyp, config.iou_threshold)
    idsw, idtr = count_switches(matches)
    lost_s, lost_l = count_lost(matches, fps)
    vis = (gt.frame, gt.agent_id, gt.visibility)
    events = occlusion_components(vis, fps, config.vis_threshold, config.window)
    bucket_rows = id_recall(events, matches, config.buckets)
    return EvalReport(
        idsw=idsw,
        idtr=idtr,
        id_lost_short=lost_s,
        id_lost_long=lost_l,
        buckets=bucket_rows,
        n_gt=len(gt),
        n_hyp=len(hyp[0]),
        n_matched=len(matches.frame),
    )
