import csv
import itertools
import json
import math

import numpy as np
import pytest

from bevtrack.boxes import PixelBox, iou
from bevtrack.config import DEFAULT_BUCKETS, RunConfig
from bevtrack.evaluation import (
    EvalReport,
    Matches,
    OcclusionEvent,
    count_lost,
    count_switches,
    evaluate_tracking,
    id_recall,
    match_frames,
    occlusion_components,
)
from bevtrack.mot_io import GtTable, box_records
from test_evaluation_reference import table_of


def B(left, top=0.0, w=10.0, h=10.0):
    return PixelBox(left, top, w, h)


def match_lists(gt, hyp, iou_threshold):
    """match_frames on (frame, id, PixelBox) lists, as a list of (frame, gt id, hyp id)."""
    m = match_frames(box_records(gt), box_records(hyp), iou_threshold)
    return list(zip(m.frame.tolist(), m.gt_id.tolist(), m.hyp_id.tolist()))


def matches_of(by_frame: dict) -> Matches:
    """Matches from ``{frame: [(gt_id, hyp_id), ...]}``, sorted as match_frames sorts them."""
    rows = sorted((f, g, h) for f, pairs in by_frame.items() for g, h in pairs)
    return Matches(*np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def vis_arrays(records) -> tuple:
    """(frame, id, visibility) arrays of (frame, id, visibility) records."""
    frames, ids, vis = zip(*records) if records else ((), (), ())
    return np.array(frames, dtype=np.int64), np.array(ids, dtype=np.int64), np.array(vis, float)


def gt_table(gt, vis) -> GtTable:
    """A GtTable of gt (frame, id, box) and vis (frame, id, fraction) lists of the same rows."""
    assert [(f, i) for f, i, _ in gt] == [(f, i) for f, i, _ in vis]
    return table_of([(f, i, b, v) for (f, i, b), (_, _, v) in zip(gt, vis)])


class TestMatchFrames:
    def test_single_pair_above_threshold(self):
        m = match_lists([(0, 1, B(0))], [(0, 7, B(1))], iou_threshold=0.5)
        assert m == [(0, 1, 7)]

    def test_below_threshold_unmatched(self):
        m = match_lists([(0, 1, B(0))], [(0, 7, B(8))], iou_threshold=0.5)
        assert m == []

    def test_maximum_matches_beat_greedy_iou(self):
        # hyp 7 overlaps both gts, hyp 8 only gt 1; taking the single best
        # IoU pair (1, 7) would strand gt 2
        gt = [(0, 1, B(0)), (0, 2, B(6))]
        hyp = [(0, 7, B(3)), (0, 8, B(1))]
        m = match_lists(gt, hyp, iou_threshold=0.5)
        assert m == [(0, 1, 8), (0, 2, 7)]

    def test_frames_with_one_side_match_nothing(self):
        m = match_lists([(0, 1, B(0))], [(1, 7, B(0))], iou_threshold=0.5)
        assert m == []

    def test_matches_brute_force(self):
        # maximum cardinality, then maximum total IoU, on random frames
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n, m_ = rng.integers(1, 5, 2)
            gts = [(0, i + 1, B(rng.uniform(0, 30), rng.uniform(0, 5))) for i in range(n)]
            hyps = [(0, 100 + j, B(rng.uniform(0, 30), rng.uniform(0, 5))) for j in range(m_)]
            got = [(g, h) for _, g, h in match_lists(gts, hyps, iou_threshold=0.3)]

            gb = {g[1]: g[2] for g in gts}
            hb = {h[1]: h[2] for h in hyps}
            best_card, best_iou = -1, -1.0
            hids = list(hb)
            for k in range(min(n, m_), -1, -1):
                for gsel in itertools.combinations(sorted(gb), k):
                    for perm in itertools.permutations(hids, k):
                        pairs = list(zip(gsel, perm))
                        if any(iou(gb[g], hb[h]) < 0.3 for g, h in pairs):
                            continue
                        tot = math.fsum(iou(gb[g], hb[h]) for g, h in pairs)
                        if k > best_card or (k == best_card and tot > best_iou):
                            best_card, best_iou = k, tot
            assert len(got) == best_card
            got_iou = math.fsum(iou(gb[g], hb[h]) for g, h in got)
            assert got_iou == pytest.approx(best_iou, abs=1e-9)

    def test_pairs_sorted_by_gt_id(self):
        gt = [(0, 5, B(20)), (0, 2, B(0))]
        hyp = [(0, 9, B(20)), (0, 3, B(0))]
        m = match_lists(gt, hyp, iou_threshold=0.5)
        assert m == [(0, 2, 3), (0, 5, 9)]


class TestCountSwitches:
    def test_no_switch(self):
        m = {0: [(1, 10)], 1: [(1, 10)], 2: [(1, 10)]}
        assert count_switches(matches_of(m)) == (0, 0)

    def test_idsw_counts_gt_side_changes(self):
        m = {0: [(1, 10)], 1: [(1, 11)], 2: [(1, 11)], 3: [(1, 10)]}
        assert count_switches(matches_of(m)) == (2, 0)

    def test_idtr_counts_hyp_side_changes(self):
        # one hypothesis id drifts from covering gt 1 to covering gt 2
        m = {0: [(1, 10)], 1: [(2, 10)]}
        assert count_switches(matches_of(m)) == (0, 1)

    def test_gap_with_same_id_is_not_a_switch(self):
        m = {0: [(1, 10)], 5: [(1, 10)]}
        assert count_switches(matches_of(m)) == (0, 0)

    def test_mixed(self):
        m = {
            0: [(1, 10), (2, 20)],
            1: [(1, 20), (2, 10)],  # both gts swap their hyps
        }
        assert count_switches(matches_of(m)) == (2, 2)


class TestCountLost:
    def test_no_gaps(self):
        m = {f: [(1, 10)] for f in range(5)}
        assert count_lost(matches_of(m), fps=10.0) == (0, 0)

    def test_short_gap(self):
        m = {0: [(1, 10)], 6: [(1, 10)]}  # 0.6 s at 10 fps
        assert count_lost(matches_of(m), fps=10.0) == (1, 0)

    def test_long_gap(self):
        m = {0: [(1, 10)], 25: [(1, 10)]}  # 2.5 s
        assert count_lost(matches_of(m), fps=10.0) == (0, 1)

    def test_boundary_is_short(self):
        m = {0: [(1, 10)], 20: [(1, 10)]}  # exactly 2.0 s
        assert count_lost(matches_of(m), fps=10.0) == (1, 0)

    def test_multiple_identities(self):
        m = {0: [(1, 10), (2, 20)], 6: [(1, 10)], 30: [(2, 20)]}
        assert count_lost(matches_of(m), fps=10.0) == (1, 1)


def vis_signal(values, aid=1, start=0):
    return [(start + i, aid, v) for i, v in enumerate(values)]


class TestOcclusionComponents:
    def test_simple_event(self):
        sig = vis_signal([1, 1, 1, 0.05, 0.0, 0.05, 1, 1, 1, 1])
        evs = occlusion_components(vis_arrays(sig), fps=10.0, threshold=0.1, window=5)
        assert len(evs) == 1
        ev = evs[0]
        assert (ev.start_frame, ev.end_frame) == (3, 5)
        assert (ev.pre_frame, ev.post_frame) == (2, 6)
        assert ev.duration_s == pytest.approx(0.3)
        assert ev.agent_id == 1

    def test_missing_interior_frames_count_hidden(self):
        sig = [(0, 1, 1.0), (1, 1, 1.0), (5, 1, 1.0), (6, 1, 1.0)]
        evs = occlusion_components(vis_arrays(sig), fps=10.0, threshold=0.1, window=5)
        assert len(evs) == 1
        assert (evs[0].start_frame, evs[0].end_frame) == (2, 4)

    def test_flicker_merges_within_window(self):
        sig = vis_signal([1, 1, 0, 0, 1, 0, 0, 0, 1, 1])  # 1-frame flicker at 4
        evs = occlusion_components(vis_arrays(sig), fps=10.0, threshold=0.1, window=5)
        assert len(evs) == 1
        assert (evs[0].start_frame, evs[0].end_frame) == (2, 7)
        assert evs[0].duration_s == pytest.approx(0.6)

    def test_no_merge_when_gap_reaches_window(self):
        sig = vis_signal([1, 1, 0, 0, 1, 1, 0, 0, 1, 1])
        evs = occlusion_components(vis_arrays(sig), fps=10.0, threshold=0.1, window=2)
        assert [(e.start_frame, e.end_frame) for e in evs] == [(2, 3), (6, 7)]

    def test_boundary_runs_dropped(self):
        sig = vis_signal([0, 0, 1, 1, 0, 0, 1, 0, 0])
        evs = occlusion_components(vis_arrays(sig), fps=10.0, threshold=0.1, window=1)
        assert [(e.start_frame, e.end_frame) for e in evs] == [(4, 5)]

    def test_threshold_inclusive_visible(self):
        sig = vis_signal([1, 0.1, 1])  # exactly at the threshold: visible
        assert occlusion_components(vis_arrays(sig), fps=10.0, threshold=0.1, window=5) == []

    def test_window_validation(self):
        with pytest.raises(ValueError):
            sig = vis_arrays(vis_signal([1, 0, 1]))
            occlusion_components(sig, fps=10.0, threshold=0.1, window=0)

    def test_per_identity_independence(self):
        sig = vis_signal([1, 0, 0, 1], aid=1) + vis_signal([1, 1, 0, 1], aid=2)
        evs = occlusion_components(vis_arrays(sig), fps=10.0, threshold=0.1, window=1)
        assert [(e.agent_id, e.start_frame, e.end_frame) for e in evs] == [
            (1, 1, 2),
            (2, 2, 2),
        ]

    def test_idempotent_after_zeroing_merged_runs(self):
        sig = vis_signal([1, 1, 0, 0, 1, 0, 0, 0, 1, 1])
        evs = occlusion_components(vis_arrays(sig), fps=10.0, threshold=0.1, window=5)
        hidden = set()
        for ev in evs:
            hidden.update(range(ev.start_frame, ev.end_frame + 1))
        sig2 = [(f, a, 0.0 if f in hidden else v) for f, a, v in sig]
        evs2 = occlusion_components(vis_arrays(sig2), fps=10.0, threshold=0.1, window=5)
        assert evs2 == evs


def make_event(aid=1, start=3, end=5, pre=None, post=None, duration=None, fps=10.0):
    return OcclusionEvent(
        agent_id=aid,
        start_frame=start,
        end_frame=end,
        pre_frame=pre if pre is not None else start - 1,
        post_frame=post if post is not None else end + 1,
        duration_s=duration if duration is not None else (end - start + 1) / fps,
    )


class TestIdRecall:
    def test_recovered_when_same_hyp_flanks(self):
        ev = make_event(duration=0.3)
        matches = {2: [(1, 7)], 6: [(1, 7)]}
        buckets = id_recall([ev], matches_of(matches), buckets=(0.0, 1.0, float("inf")))
        assert buckets[0].total == 1 and buckets[0].recovered == 1
        assert buckets[0].recall == 1.0

    def test_not_recovered_on_switch(self):
        ev = make_event(duration=0.3)
        matches = {2: [(1, 7)], 6: [(1, 8)]}
        buckets = id_recall([ev], matches_of(matches), buckets=(0.0, float("inf")))
        assert buckets[0].recovered == 0

    def test_not_recovered_when_endpoint_unmatched(self):
        ev = make_event(duration=0.3)
        matches = {2: [(1, 7)], 6: []}
        buckets = id_recall([ev], matches_of(matches), buckets=(0.0, float("inf")))
        assert buckets[0].total == 1 and buckets[0].recovered == 0

    def test_bucketing_by_duration(self):
        evs = [make_event(aid=1, duration=0.3), make_event(aid=2, duration=1.5)]
        matches = {2: [(1, 7), (2, 9)], 6: [(1, 7), (2, 9)]}
        buckets = id_recall(evs, matches_of(matches), buckets=DEFAULT_BUCKETS)
        by_range = {(b.lo, b.hi): b for b in buckets}
        assert by_range[(0.0, 0.5)].total == 1
        assert by_range[(1.0, 2.0)].total == 1
        assert by_range[(2.0, 3.0)].total == 0
        assert by_range[(2.0, 3.0)].recall is None

    def test_infinite_upper_edge_catches_long_events(self):
        ev = make_event(duration=99.0)
        buckets = id_recall([ev], matches_of({}), buckets=(0.0, 6.0, float("inf")))
        assert buckets[1].total == 1

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            id_recall([], matches_of({}), buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            id_recall([], matches_of({}), buckets=(1.0,))
        # strictly increasing required
        with pytest.raises(ValueError):
            id_recall([], matches_of({}), buckets=(0.0, 1.0, 1.0))


class TestEvaluateTrackingAndReport:
    def make_inputs(self):
        # gt id 1 visible except frames 3-5; hypothesis 7 covers it throughout
        # with a box gap during the occlusion
        gt, hyp, vis = [], [], []
        for f in range(10):
            gt.append((f, 1, B(float(f))))
            vis.append((f, 1, 0.0 if 3 <= f <= 5 else 1.0))
            if not 3 <= f <= 5:
                hyp.append((f, 7, B(float(f))))
        return gt, box_records(hyp), vis

    def test_report_fields(self):
        gt, hyp, vis = self.make_inputs()
        cfg = RunConfig(buckets=(0.0, 1.0, float("inf")))
        rep = evaluate_tracking(gt_table(gt, vis), hyp, 10.0, cfg)
        assert rep.idsw == 0 and rep.idtr == 0
        assert rep.id_lost_short == 1 and rep.id_lost_long == 0
        assert rep.n_gt == 10 and rep.n_hyp == 7 and rep.n_matched == 7
        assert rep.buckets[0].total == 1 and rep.buckets[0].recovered == 1

    def test_reads_vis_threshold_from_config(self):
        gt, hyp, vis = self.make_inputs()
        vis = [(f, a, 0.2 if v == 0.0 else v) for f, a, v in vis]
        # 0.2 is hidden at the default cutoff 0.25 and visible at 0.1
        for cfg, events in ((RunConfig(), 1), (RunConfig(vis_threshold=0.1), 0)):
            rep = evaluate_tracking(gt_table(gt, vis), hyp, 10.0, cfg)
            assert sum(b.total for b in rep.buckets) == events

    def test_json_round_trip(self, tmp_path):
        gt, hyp, vis = self.make_inputs()
        cfg = RunConfig(buckets=(0.0, 1.0, float("inf")))
        rep = evaluate_tracking(gt_table(gt, vis), hyp, 10.0, cfg)
        p = tmp_path / "report.json"
        rep.write_json(p)
        d = json.loads(p.read_text())
        assert d["idsw"] == 0
        assert d["id_lost_short"] == 1
        assert d["id_recall"][0]["recall"] == 1.0
        assert d["n_matched"] == 7

    def test_csv_headers_and_values(self, tmp_path):
        gt, hyp, vis = self.make_inputs()
        rep = evaluate_tracking(gt_table(gt, vis), hyp, 10.0, RunConfig())
        p = tmp_path / "report.csv"
        rep.write_csv(p)
        with open(p, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        row = rows[0]
        assert row["idsw"] == "0"
        assert row["recall_0_0.5_total"] == "1"
        assert row["recall_0_0.5"] == "1.000000"
        assert row["recall_4_6"] == ""  # empty bucket
        assert "recall_6_inf" in row
