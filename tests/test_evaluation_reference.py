"""The array evaluator against a list-based reference copy.

The ``reference_*`` functions are the evaluator as it was before it worked on
arrays: ground truth, hypotheses and visibility as lists of records, matches
as ``{frame: [(gt_id, hyp_id), ...]}`` and per-identity timelines as dicts.
``evaluate_tracking`` must give the same report on seeded random inputs
built to reach the corners: duplicate (frame, id) rows, frames with one side
only, equal IoUs, one-box frames, frames with no row at all and rows whose
ids are out of order.

``loop_match_frames`` is the array matcher as it was before it scored frames
in blocks: one ``iou_matrix`` call per frame. ``match_frames`` must return the
same arrays for every block size.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from bevtrack.boxes import PixelBox, iou_matrix, ltwh
from bevtrack.config import DEFAULT_BUCKETS, RunConfig
from bevtrack import evaluation
from bevtrack.evaluation import (
    EvalReport,
    Matches,
    OcclusionEvent,
    RecallBucket,
    evaluate_tracking,
    match_frames,
)
from bevtrack.experiments import run_tracker
from bevtrack.mot_io import GtTable, box_records
from bevtrack.simulator import generate
from test_tracker_reference import crowd

_BIG = 1e6


def reference_match_frames(gt_records, hyp_records, iou_threshold):
    by_frame_gt, by_frame_hyp = {}, {}
    for frame, gid, box in gt_records:
        by_frame_gt.setdefault(int(frame), []).append((int(gid), box))
    for frame, hid, box in hyp_records:
        by_frame_hyp.setdefault(int(frame), []).append((int(hid), box))
    matches = {}
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


def _timelines(matches, gt_side: bool):
    lines = {}
    for frame in sorted(matches):
        for gid, hid in matches[frame]:
            key, other = (gid, hid) if gt_side else (hid, gid)
            lines.setdefault(key, []).append((frame, other))
    return lines


def reference_count_switches(matches):
    counts = []
    for gt_side in (True, False):
        n = 0
        for line in _timelines(matches, gt_side).values():
            n += sum(1 for (_, prev), (_, cur) in zip(line, line[1:]) if cur != prev)
        counts.append(n)
    return tuple(counts)


def reference_count_lost(matches, fps, short_max_s=2.0):
    short = long_ = 0
    for line in _timelines(matches, True).values():
        for (prev_f, _), (cur_f, _) in zip(line, line[1:]):
            if cur_f - prev_f > 1:
                if (cur_f - prev_f) / fps <= short_max_s:
                    short += 1
                else:
                    long_ += 1
    return short, long_


def _hidden_runs(visible):
    runs, start = [], None
    for i, v in enumerate(visible):
        if not v and start is None:
            start = i
        elif v and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(visible) - 1))
    return runs


def _merge_runs(runs, window):
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


def reference_occlusion_components(vis_records, fps, threshold, window):
    per_id = {}
    for frame, aid, vis in vis_records:
        per_id.setdefault(int(aid), {})[int(frame)] = float(vis)
    events = []
    for aid in sorted(per_id):
        frames = per_id[aid]
        lo, hi = min(frames), max(frames)
        visible = [frames.get(f, 0.0) >= threshold for f in range(lo, hi + 1)]
        for start, end in _merge_runs(_hidden_runs(visible), window):
            if start == 0 or end == len(visible) - 1:
                continue
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


def reference_id_recall(events, matches, buckets):
    edges = list(buckets)
    per_gt = {gid: dict(line) for gid, line in _timelines(matches, True).items()}
    totals = [0] * (len(edges) - 1)
    recovered = [0] * (len(edges) - 1)
    for ev in events:
        inside = [k for k in range(len(edges) - 1) if edges[k] <= ev.duration_s < edges[k + 1]]
        if not inside:
            continue
        b = inside[0]
        totals[b] += 1
        line = per_gt.get(ev.agent_id, {})
        pre, post = line.get(ev.pre_frame), line.get(ev.post_frame)
        if pre is not None and post is not None and pre == post:
            recovered[b] += 1
    return [
        RecallBucket(lo=edges[k], hi=edges[k + 1], total=totals[k], recovered=recovered[k])
        for k in range(len(edges) - 1)
    ]


def reference_evaluate(rows, hyp, fps, config) -> EvalReport:
    """The list-based pass over ground-truth rows (frame, id, PixelBox, visibility)."""
    gt = [(f, i, b) for f, i, b, _ in rows]
    vis = [(f, i, v) for f, i, _, v in rows]
    matches = reference_match_frames(gt, hyp, config.iou_threshold)
    idsw, idtr = reference_count_switches(matches)
    lost_s, lost_l = reference_count_lost(matches, fps)
    events = reference_occlusion_components(vis, fps, config.vis_threshold, config.window)
    return EvalReport(
        idsw=idsw,
        idtr=idtr,
        id_lost_short=lost_s,
        id_lost_long=lost_l,
        buckets=reference_id_recall(events, matches, config.buckets),
        n_gt=len(gt),
        n_hyp=len(hyp),
        n_matched=sum(len(v) for v in matches.values()),
    )


def frames_of(m: Matches) -> dict:
    """``{frame: [(gt_id, hyp_id), ...]}`` of frames with matches, the reference's shape."""
    out = {}
    for f, g, h in zip(m.frame.tolist(), m.gt_id.tolist(), m.hyp_id.tolist()):
        out.setdefault(f, []).append((g, h))
    return out


def table_of(rows) -> GtTable:
    frame, agent_id, box = box_records([(f, i, b) for f, i, b, _ in rows])
    visibility = np.array([v for *_, v in rows], dtype=float)
    return GtTable(frame, agent_id, box, np.full((len(rows), 2), np.nan), visibility)


# -- seeded random inputs ----------------------------------------------------------

VIS_LEVELS = (0.0, 0.1, 0.2, 0.25, 0.3, 1.0)  # both thresholds used below are levels


def grid_box(x, y) -> PixelBox:
    """A box on a 2 px grid, so equal IoUs are common."""
    return PixelBox(2.0 * round(x / 2.0), 2.0 * round(y / 2.0), 12.0, 24.0)


def random_case(seed: int):
    """(gt rows, hyp triples, fps, config): one random evaluation input."""
    rng = np.random.default_rng(seed)
    n_frames = int(rng.integers(5, 90))
    frame0 = int(rng.choice([0, -40, 10**6]))
    silent = set(rng.choice(n_frames, size=n_frames // 8, replace=False).tolist())
    ids = rng.choice(np.arange(-5, 400), size=int(rng.integers(1, 7)), replace=False).tolist()
    rows, hyp = [], []
    next_hyp = 1000
    for gid in ids:
        x, y = rng.uniform(0.0, 120.0, 2)
        vx = float(rng.choice([0.0, 1.0, 3.0]))
        lost = range(int(rng.integers(0, n_frames)), n_frames)[: int(rng.choice([0, 5, 45]))]
        hid = int(rng.choice([next_hyp, -7])) if rng.random() < 0.1 else next_hyp
        next_hyp += 1
        for k in range(n_frames):
            x += vx
            if k in silent or rng.random() < 0.1:
                continue  # a frame missing from the records
            f = frame0 + k
            box = grid_box(x, y)
            v = float(rng.choice(VIS_LEVELS, p=[0.15, 0.1, 0.1, 0.1, 0.1, 0.45]))
            rows.append((f, gid, box, v))
            if rng.random() < 0.06:  # a second row for this (frame, id)
                other = box if rng.random() < 0.5 else grid_box(x + 4.0, y)
                rows.append((f, gid, other, float(rng.choice(VIS_LEVELS))))
                if other is not box and rng.random() < 0.7:  # both rows can be matched
                    hyp.append((f, 5000 + gid, other))
            if v < 0.25 or rng.random() < 0.15 or k in lost:
                continue  # hidden, or a dropout
            if rng.random() < 0.04:
                hid, next_hyp = next_hyp, next_hyp + 1  # a relabel: a switch
            hyp.append((f, hid, grid_box(x + rng.uniform(-3, 3), y + rng.uniform(-3, 3))))
            if rng.random() < 0.02:
                hyp.append((f, hid, grid_box(x, y)))  # a duplicate hypothesis row
    for _ in range(int(rng.integers(0, 6))):  # clutter, some on frames with no ground truth
        f = frame0 + int(rng.integers(-3, n_frames + 3))
        hyp.append((f, int(rng.integers(2000, 2005)), grid_box(*rng.uniform(0, 150, 2))))
    for rec in (rows, hyp):  # ids out of order within and across frames
        for _ in range(len(rec) // 10):
            i, j = rng.integers(0, len(rec), 2)
            rec[i], rec[j] = rec[j], rec[i]
    config = RunConfig(
        iou_threshold=float(rng.choice([0.3, 0.5])),
        vis_threshold=float(rng.choice([0.1, 0.25])),
        window=int(rng.choice([1, 3, 5])),
        buckets=DEFAULT_BUCKETS if rng.random() < 0.5 else (0.0, 0.5, 2.0, float("inf")),
    )
    return rows, hyp, float(rng.choice([10.0, 20.0])), config


SEEDS = range(200)


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_tracking_matches_list_reference(seed):
    rows, hyp, fps, config = random_case(seed)
    want = reference_evaluate(rows, hyp, fps, config).to_dict()
    assert evaluate_tracking(table_of(rows), box_records(hyp), fps, config).to_dict() == want


def case_features(rows, hyp, fps, config) -> set:
    """Which corner cases one input reaches."""
    found = set()
    matches = reference_match_frames([r[:3] for r in rows], hyp, config.iou_threshold)
    vis_rows = [(f, i, v) for f, i, _, v in rows]
    for ev in reference_occlusion_components(vis_rows, fps, config.vis_threshold, config.window):
        for f in (ev.pre_frame, ev.post_frame):
            if [g for g, _ in matches.get(f, [])].count(ev.agent_id) > 1:
                found.add("identity matched twice at an event flank")
    keys = [(f, i) for f, i, _, _ in rows]
    gt_frames, hyp_frames = {f for f, _ in keys}, {f for f, _, _ in hyp}
    if len(set(keys)) < len(keys):
        found.add("duplicate gt rows")
    vis = {}
    for f, i, _, v in rows:
        if (f, i) in vis and (vis[(f, i)] >= config.vis_threshold) != (v >= config.vis_threshold):
            found.add("later vis row decides")
        vis[(f, i)] = v
    if len({(f, i) for f, i, _ in hyp}) < len(hyp):
        found.add("duplicate hyp rows")
    if gt_frames - hyp_frames:
        found.add("gt-only frame")
    if hyp_frames - gt_frames:
        found.add("hyp-only frame")
    if keys != sorted(keys):
        found.add("ids out of order")
    all_frames = gt_frames | hyp_frames
    if len(all_frames) < max(all_frames) - min(all_frames) + 1:
        found.add("frame with no row")
    for f in gt_frames & hyp_frames:
        g = [b for ff, _, b, _ in rows if ff == f]
        h = [b for ff, _, b in hyp if ff == f]
        if len(g) == len(h) == 1:
            found.add("one-box frame")
        ov = iou_matrix(ltwh(g), ltwh(h))
        live = ov[ov >= config.iou_threshold]
        if len(live) > len(np.unique(live)):
            found.add("equal IoUs")
    return found


def test_random_cases_cover_the_corners():
    found, reports = set(), []
    for seed in SEEDS:
        rows, hyp, fps, config = random_case(seed)
        found |= case_features(rows, hyp, fps, config)
        reports.append(reference_evaluate(rows, hyp, fps, config))
    assert found == {
        "duplicate gt rows",
        "later vis row decides",
        "duplicate hyp rows",
        "gt-only frame",
        "hyp-only frame",
        "ids out of order",
        "frame with no row",
        "one-box frame",
        "equal IoUs",
        "identity matched twice at an event flank",
    }
    # and every metric moves somewhere
    for field in ("idsw", "idtr", "id_lost_short", "id_lost_long"):
        assert any(getattr(r, field) > 0 for r in reports), field
    buckets = [b for r in reports for b in r.buckets]
    assert any(b.recovered > 0 for b in buckets)
    assert any(b.total > b.recovered for b in buckets)


# -- block matching against the per-frame loop ---------------------------------------


def loop_match_frames(gt, hyp, iou_threshold) -> Matches:
    (gf, gid, gbox), (hf, hid, hbox) = gt, hyp
    g_order, h_order = np.lexsort((gid, gf)), np.lexsort((hid, hf))
    g_frames, h_frames = gf[g_order], hf[h_order]
    both = np.intersect1d(g_frames, h_frames)
    g_lo, g_hi = np.searchsorted(g_frames, both), np.searchsorted(g_frames, both, "right")
    h_lo, h_hi = np.searchsorted(h_frames, both), np.searchsorted(h_frames, both, "right")
    g_rows, h_rows = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for gs, ge, hs, he in zip(g_lo.tolist(), g_hi.tolist(), h_lo.tolist(), h_hi.tolist()):
        gi, hi = g_order[gs:ge], h_order[hs:he]
        ov = iou_matrix(gbox[gi], hbox[hi])
        cost = np.where(ov >= iou_threshold, 1.0 - ov, _BIG)
        rows, cols = linear_sum_assignment(cost)
        ok = cost[rows, cols] < _BIG
        g_rows.append(gi[rows[ok]])
        h_rows.append(hi[cols[ok]])
    gm, hm = np.concatenate(g_rows), np.concatenate(h_rows)
    frame, gt_id, hyp_id = gf[gm], gid[gm], hid[hm]
    order = np.lexsort((hyp_id, gt_id, frame))
    return Matches(frame[order], gt_id[order], hyp_id[order])


def frame_case(seed: int, n_frames: int = 60, max_rows: int = 12):
    """(gt, hyp) (frame, id, box) arrays: per frame 0 to max_rows - 1 rows a side on
    the 2 px grid, so one side is often empty and IoUs tie; rows in random order."""
    rng = np.random.default_rng(seed)
    sides = ([], [])
    for f in range(n_frames):
        centres = rng.uniform(0.0, 60.0, (max_rows, 2))
        for rows, jitter in zip(sides, (0.0, 4.0)):
            n = int(rng.integers(0, max_rows))
            ids = rng.choice(40, size=n, replace=False).tolist()
            for i, (x, y) in zip(ids, centres[:n] + rng.uniform(-jitter, jitter, (n, 2))):
                rows.append((f, i, grid_box(x, y)))
    for rows in sides:
        rng.shuffle(rows)
    return tuple(box_records(rows) for rows in sides)


def assert_same_matches(got: Matches, want: Matches) -> None:
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("block", [None, 1, 50, 300])
def test_match_frames_equals_per_frame_loop(monkeypatch, seed, block):
    if block is not None:
        monkeypatch.setattr(evaluation, "MATCH_BLOCK", block)
    gt, hyp = frame_case(seed)
    threshold = (0.3, 0.5)[seed % 2]
    assert_same_matches(match_frames(gt, hyp, threshold), loop_match_frames(gt, hyp, threshold))


def test_blocks_end_mid_run_and_hold_the_budget(monkeypatch):
    monkeypatch.setattr(evaluation, "MATCH_BLOCK", 300)
    rng = np.random.default_rng(5)
    n_gt, n_hyp = rng.integers(1, 12, 60).tolist(), rng.integers(1, 12, 60).tolist()
    n_gt[20], n_hyp[20] = 20, 20  # 400 cells, over the budget: a block of its own
    blocks = evaluation._blocks(n_gt, n_hyp)
    assert blocks[0][0] == 0 and blocks[-1][1] == 60
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))  # consecutive, covering
    assert (20, 21) in blocks and len(blocks) > 5
    for start, stop in blocks:
        cells = (stop - start) * max(n_gt[start:stop]) * max(n_hyp[start:stop])
        assert cells <= 300 or stop - start == 1
    assert evaluation._blocks([2] * 50, [3] * 50) == [(0, 50)]  # 300 cells: one block
    assert evaluation._blocks([2] * 51, [3] * 51) == [(0, 50), (50, 51)]
    assert evaluation._blocks([], []) == []


@pytest.mark.parametrize("seed", range(3))
def test_frame_over_the_cell_budget(seed):
    """A 130 x 130 frame (16,900 cells) among small frames."""
    rng = np.random.default_rng(seed)
    n = 130
    assert n * n > evaluation.MATCH_BLOCK
    big = [grid_box(*xy) for xy in rng.uniform(0.0, 600.0, (n, 2))]
    near = [grid_box(b.left + rng.uniform(-4, 4), b.top + rng.uniform(-4, 4)) for b in big]
    small_gt, small_hyp = frame_case(seed, n_frames=6)
    big_gt = box_records([(3, 100 + i, b) for i, b in enumerate(big)])
    big_hyp = box_records([(3, 100 + i, b) for i, b in enumerate(near)])
    gt = tuple(np.concatenate(c) for c in zip(small_gt, big_gt))
    hyp = tuple(np.concatenate(c) for c in zip(small_hyp, big_hyp))
    want = loop_match_frames(gt, hyp, 0.3)
    assert (want.frame == 3).sum() > 50
    assert_same_matches(match_frames(gt, hyp, 0.3), want)


def test_empty_inputs():
    gt, hyp = frame_case(0)
    empty = box_records([])
    hyp_elsewhere = (hyp[0] + 1000, hyp[1], hyp[2])  # no frame in common
    for g, h in ((empty, empty), (gt, empty), (empty, hyp), (gt, hyp_elsewhere)):
        got = match_frames(g, h, 0.5)
        assert len(got.frame) == 0
        assert_same_matches(got, loop_match_frames(g, h, 0.5))


def test_frame_cases_reach_one_sided_frames_and_ties():
    found = set()
    for seed in range(12):
        (gf, _, gbox), (hf, _, hbox) = frame_case(seed)
        if set(gf.tolist()) - set(hf.tolist()):
            found.add("gt-only frame")
        if set(hf.tolist()) - set(gf.tolist()):
            found.add("hyp-only frame")
        for f in np.intersect1d(gf, hf).tolist():
            ov = iou_matrix(gbox[gf == f], hbox[hf == f])
            live = ov[ov >= 0.3]
            if len(live) > len(np.unique(live)):
                found.add("equal IoUs")
    assert found == {"gt-only frame", "hyp-only frame", "equal IoUs"}


# -- metamorphic relations: what must not change ------------------------------------


@pytest.fixture(scope="module")
def crowd_case():
    """(gt, hyp, fps): a simulated crowd of 12 walkers past 2 walls for 10 s, and the
    tracker's outputs on it."""
    sim = generate(crowd(3, n_walkers=12, n_walls=2, duration=10.0))
    outputs, _, _ = run_tracker(sim, RunConfig())
    return sim.gt, box_records(outputs), sim.scenario.fps


def tie_case(seed):
    """(gt, hyp, fps): frame_case's tie-prone rows, one per (frame, id) a side, with
    random visibility levels."""
    gt, hyp = frame_case(seed)
    vis = np.random.default_rng(seed).choice(VIS_LEVELS, len(gt[0]))
    return GtTable(*gt, np.full((len(vis), 2), np.nan), vis), hyp, 10.0


@pytest.mark.parametrize("seed", [None, *range(4)],
                         ids=lambda s: "crowd" if s is None else f"ties-{s}")
def test_permuting_rows_keeps_the_report(crowd_case, seed):
    gt, hyp, fps = crowd_case if seed is None else tie_case(seed)
    for frame, ids in ((gt.frame, gt.agent_id), hyp[:2]):  # unique (frame, id) rows a side
        assert len(set(zip(frame.tolist(), ids.tolist()))) == len(frame)
    want = evaluate_tracking(gt, hyp, fps, RunConfig()).to_dict()
    rng = np.random.default_rng(3)
    for _ in range(3):
        g, h = rng.permutation(len(gt)), rng.permutation(len(hyp[0]))
        moved = GtTable(gt.frame[g], gt.agent_id[g], gt.box[g], gt.bev[g], gt.visibility[g])
        got = evaluate_tracking(moved, tuple(c[h] for c in hyp), fps, RunConfig())
        assert got.to_dict() == want
    assert want["n_matched"] and want["idsw"]


def test_ground_truth_scored_as_its_own_hypothesis(crowd_case):
    gt, _, fps = crowd_case
    report = evaluate_tracking(gt, (gt.frame, gt.agent_id, gt.box), fps, RunConfig())
    assert (report.idsw, report.idtr, report.n_matched) == (0, 0, len(gt))
    assert all(b.recovered == b.total for b in report.buckets)
    assert sum(b.total for b in report.buckets) > 0
