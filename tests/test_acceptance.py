"""Release acceptance checks.

Each test verifies one end-to-end guarantee of the toolkit and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete). Heavy scene suites are simulated once per module
and shared across the checks that need them.
"""

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from bevtrack.boxes import PixelBox, iou
from bevtrack.config import DEFAULT_BUCKETS, RunConfig
from bevtrack.evaluation import (
    count_lost,
    count_switches,
    id_recall,
    match_frames,
    occlusion_components,
)
from bevtrack.experiments import (
    aggregate_buckets,
    calibrate_from_cloud,
    calibrated_lh,
    default_camera,
    evaluate_sim,
    junction_suite,
    linear_suite,
    pixel_baseline_config,
    pixel_baseline_scene,
    recall_over,
    rigid_align_2d,
    run_tracker,
)
from bevtrack.forecast import forecast, preprocess
from bevtrack.homography import Homography
from bevtrack.linearized import linearize
from bevtrack.mot_io import box_records
from bevtrack.simulator import (
    VISIBILITY_CUTOFF,
    build_scene_model,
    generate,
    project_points,
    true_homography,
)
from bevtrack.tracker import (
    SceneModel,
    assign,
)

from test_evaluation import vis_arrays
from test_evaluation_reference import frames_of
from test_tracker import cost_matrix, inactive_track, make_scene, table


def criterion(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


# -- shared suite runs ---------------------------------------------------------------


@dataclass
class SuiteRun:
    outputs: list  # per scene: list of (frame, id, box)
    reports: list
    seconds: float


def _track_suite(sims, cfg, lh=None, pixel=False):
    t0 = time.perf_counter()
    outputs_all, reports = [], []
    for sim in sims:
        if pixel:
            scene = pixel_baseline_scene(sim.scenario)
            outs, _, _ = run_tracker(sim, pixel_baseline_config(cfg), scene=scene)
        else:
            scene = None if lh is None else build_scene_model(sim.scenario, lh)
            outs, _, _ = run_tracker(sim, cfg, scene=scene)
        outputs_all.append(outs)
        reports.append(evaluate_sim(sim, outs, cfg))
    return SuiteRun(outputs_all, reports, time.perf_counter() - t0)


@pytest.fixture(scope="module")
def linear_runs():
    cfg = RunConfig()
    t0 = time.perf_counter()
    sims = [generate(sc) for sc in linear_suite(20)]
    sim_seconds = time.perf_counter() - t0
    est_lh = calibrated_lh(sims[0], cfg, pixel_noise=0.5, seed=1)
    return {
        "cfg": cfg,
        "sims": sims,
        "sim_seconds": sim_seconds,
        "cv_true": _track_suite(sims, cfg),
        "cv_est": _track_suite(sims, cfg, lh=est_lh),
        "pixel": _track_suite(sims, cfg, pixel=True),
        "no_forecast": _track_suite(sims, cfg.override(forecast_enabled=False)),
        "fan": _track_suite(sims, cfg.override(motion="fan", k=3)),
    }


@pytest.fixture(scope="module")
def junction_runs():
    cfg = RunConfig()
    t0 = time.perf_counter()
    sims = [generate(sc) for sc in junction_suite()]
    sim_seconds = time.perf_counter() - t0
    return {
        "cfg": cfg,
        "sims": sims,
        "sim_seconds": sim_seconds,
        "fan": _track_suite(sims, cfg.override(motion="fan", k=3)),
        "cv": _track_suite(sims, cfg),
    }


def endpoint_recall(sims, outputs_per_scene, cfg, min_s=0.0):
    """Occlusion events whose identity is carried across the gap and whose
    post-gap box matches ground truth by IoU > 0.5 or lands within 2 m in BEV."""
    recovered = total = 0
    for sim, outputs in zip(sims, outputs_per_scene):
        cam = sim.scenario.camera
        lh = linearize(
            sim.homography, (cam.image_width, cam.image_height), cfg.max_spacing
        )
        gt = sim.gt
        events = occlusion_components(
            (gt.frame, gt.agent_id, gt.visibility),
            sim.scenario.fps,
            threshold=VISIBILITY_CUTOFF,
            window=cfg.window,
        )
        matches = match_frames(
            (gt.frame, gt.agent_id, gt.box), box_records(outputs), cfg.iou_threshold
        )
        per_gt = {}
        for fr, pairs in frames_of(matches).items():
            for gid, hid in pairs:
                per_gt.setdefault(gid, {})[fr] = hid
        hyp_by = {(f, i): b for f, i, b in outputs}
        gt_by = {key: k for k, key in enumerate(zip(gt.frame.tolist(), gt.agent_id.tolist()))}
        for ev in events:
            if ev.duration_s <= min_s:
                continue
            total += 1
            hid = per_gt.get(ev.agent_id, {}).get(ev.pre_frame)
            if hid is None:
                continue
            box = hyp_by.get((ev.post_frame, hid))
            k = gt_by.get((ev.post_frame, ev.agent_id))
            if box is None or k is None:
                continue
            bev = lh.px_to_bev(np.array([box.bottom_center]))[0]
            if iou(box, PixelBox(*gt.box[k])) > 0.5 or float(np.linalg.norm(bev - gt.bev[k])) < 2.0:
                recovered += 1
    return recovered, total


# -- 1: metric calibration from a ground cloud ----------------------------------------


def sample_ground(cam, n, seed, x_range=(-18.0, 18.0), y_range=(1.5, 45.0)):
    rng = np.random.default_rng(seed)
    m = 40 * n
    x = rng.uniform(*x_range, m)
    y = rng.uniform(*y_range, m)
    world = np.stack([x, y, np.zeros(m)], axis=1)
    px, _ = project_points(cam, world, (0.0, 0.0))
    ok = (
        (px[:, 0] >= 0)
        & (px[:, 0] < cam.image_width)
        & (px[:, 1] >= 0)
        & (px[:, 1] < cam.image_height)
    )
    idx = np.nonzero(ok)[0][:n]
    assert len(idx) == n, "not enough visible ground points sampled"
    return world[idx], px[idx]


def test_calibration_recovers_metric_ground_plane():
    cam = default_camera()
    world_tr, px_tr = sample_ground(cam, 500, seed=10)
    world_ho, px_ho = sample_ground(cam, 500, seed=11)
    near_w, near_px = sample_ground(cam, 500, seed=12, x_range=(-8.0, 8.0), y_range=(1.5, 9.9))
    near = np.linalg.norm(near_w[:, :2], axis=1) <= 10.0
    assert near.sum() >= 300

    t0 = time.perf_counter()
    # noiseless: held-out reprojection after removing the frame ambiguity
    cal = calibrate_from_cloud(world_tr, px_tr, world_tr)
    lift_tr = cal.homography.apply(px_tr)
    rot, trans, _ = rigid_align_2d(lift_tr, world_tr[:, :2])
    lift_ho = cal.homography.apply(px_ho) @ rot.T + trans
    rmse_clean = float(np.sqrt(np.mean(np.sum((lift_ho - world_ho[:, :2]) ** 2, axis=1))))

    # 0.5 px detection noise, evaluated within 10 m of the camera
    rng = np.random.default_rng(13)
    cal_n = calibrate_from_cloud(world_tr, px_tr + rng.normal(0.0, 0.5, px_tr.shape), world_tr)
    lift_tr_n = cal_n.homography.apply(px_tr)
    rot_n, trans_n, _ = rigid_align_2d(lift_tr_n, world_tr[:, :2])
    lift_near = cal_n.homography.apply(near_px[near]) @ rot_n.T + trans_n
    err = lift_near - near_w[near, :2]
    rmse_noisy = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
    elapsed = time.perf_counter() - t0

    ok = rmse_clean < 1e-6 and rmse_noisy < 0.05 and elapsed < 1.0
    criterion(
        "calibration",
        ok,
        f"held-out rmse {rmse_clean:.2e} m noiseless, {rmse_noisy:.4f} m at 0.5 px noise "
        f"within 10 m ({int(near.sum())} pts), {elapsed:.2f}s",
    )


# -- 2: linearized map stays continuous and spacing-bounded ---------------------------


def test_linearization_continuity_spacing_roundtrip():
    cam = default_camera()
    h = true_homography(cam)
    w, ht = cam.image_width, cam.image_height
    t0 = time.perf_counter()
    lh = linearize(h, (w, ht), max_spacing=0.2)
    assert bool(np.all(lh.column_defined))
    m = h.m

    def exact_map(pts):
        p = np.column_stack([pts, np.ones(len(pts))]) @ m.T
        return p[:, :2] / p[:, 2:3]

    cols = np.arange(w, dtype=float)
    v_t = lh.column_v_t
    junction = np.stack([cols, v_t], axis=1)
    val_gap = np.linalg.norm(lh.column_anchor - exact_map(junction), axis=1)

    num = junction @ m[:2, :2].T + m[:2, 2]  # per-column numerators at v_T
    den = junction @ m[2, :2] + m[2, 2]
    dnum = m[:2, 1]  # d/dv of numerator and denominator
    dden = m[2, 1]
    deriv = (dnum[None, :] * den[:, None] - dden * num) / den[:, None] ** 2
    der_gap = np.linalg.norm(lh.column_tangent - deriv, axis=1)

    eps = 1e-6  # black-box probe across the junction
    below = lh.px_to_bev(np.stack([cols, v_t - eps], axis=1))
    above = lh.px_to_bev(np.stack([cols, v_t + eps], axis=1))
    probe_gap = np.linalg.norm(below - above, axis=1)

    uu, vv = np.meshgrid(cols, np.arange(ht, dtype=float))
    grid = np.stack([uu.ravel(), vv.ravel()], axis=1)
    lifted = lh.px_to_bev(grid).reshape(ht, w, 2)
    spacing = np.linalg.norm(np.diff(lifted, axis=0), axis=2)

    gu = np.linspace(0.0, w - 1.0, 200)
    gv = np.linspace(0.0, ht - 1.0, 200)
    ru, rv = np.meshgrid(gu, gv)
    rpts = np.stack([ru.ravel(), rv.ravel()], axis=1)
    back = lh.bev_to_px(lh.px_to_bev(rpts))
    rt = float(np.max(np.abs(back - rpts)))
    elapsed = time.perf_counter() - t0

    ok = (
        float(val_gap.max()) < 1e-9
        and float(der_gap.max()) < 1e-9
        and float(probe_gap.max()) < 1e-6
        and float(spacing.max()) <= 0.2 + 1e-9
        and rt < 1e-6
        and elapsed < 5.0
    )
    criterion(
        "linearization",
        ok,
        f"junction value gap {val_gap.max():.1e}, derivative gap {der_gap.max():.1e}, "
        f"max row spacing {spacing.max():.6f} m, round-trip {rt:.1e} px over all "
        f"{w} columns, {elapsed:.2f}s",
    )


# -- 3: assignment equals the exhaustive optimum --------------------------------------


def brute_assignment_total(scores: np.ndarray) -> float:
    if scores.shape[0] > scores.shape[1]:
        scores = scores.T
    n, m = scores.shape
    rows = scores.tolist()
    best = 0.0
    for perm in itertools.permutations(range(m), n):
        tot = math.fsum(rows[i][j] for i, j in enumerate(perm))
        if tot > best:
            best = tot
    return best


def test_assignment_matches_exhaustive_optimum():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        scores = rng.integers(0, 49, size=(n, m)) / 16.0  # dyadic: sums are exact
        scores[rng.random((n, m)) < 0.3] = 0.0
        pairs = assign(scores)
        assert pairs == sorted(pairs)
        assert all(scores[r, c] > 0.0 for r, c in pairs)
        total = math.fsum(scores[r, c] for r, c in pairs)
        if total != brute_assignment_total(scores):
            criterion("assignment", False, f"total mismatch on a {n}x{m} matrix")
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 1000 and elapsed < 10.0
    criterion(
        "assignment",
        ok,
        f"{checked} random matrices up to 7x7 equal the exhaustive optimum exactly, "
        f"{elapsed:.2f}s",
    )


# -- 4: ground-plane forecasting closes occlusion gaps --------------------------------


def test_occlusion_gap_recall_on_ground_plane(linear_runs):
    r = linear_runs
    rec_t, tot_t = endpoint_recall(r["sims"], r["cv_true"].outputs, r["cfg"])
    rec_e, tot_e = endpoint_recall(r["sims"], r["cv_est"].outputs, r["cfg"])
    rec_p2, tot_p2 = endpoint_recall(r["sims"], r["pixel"].outputs, r["cfg"], min_s=2.0)
    rec_t2, tot_t2 = endpoint_recall(r["sims"], r["cv_true"].outputs, r["cfg"], min_s=2.0)
    elapsed = (
        r["sim_seconds"]
        + r["cv_true"].seconds
        + r["cv_est"].seconds
        + r["pixel"].seconds
    )
    assert tot_t == tot_e and tot_p2 == tot_t2 and tot_t >= 40 and tot_p2 >= 10
    ratio_t = rec_t / tot_t
    ratio_e = rec_e / tot_e
    ok = (
        ratio_t >= 0.95
        and ratio_e >= 0.80
        and rec_p2 / tot_p2 < rec_t2 / tot_t2
        and elapsed < 120.0
    )
    criterion(
        "gap-recall",
        ok,
        f"exact map {rec_t}/{tot_t}, estimated map {rec_e}/{tot_e}, image-space "
        f"baseline {rec_p2}/{tot_p2} vs {rec_t2}/{tot_t2} on gaps over 2s, {elapsed:.1f}s",
    )


# -- 5: a branch fan covers turns a single hypothesis misses --------------------------


def test_fan_covers_turns_without_extra_transfers(linear_runs, junction_runs):
    j = junction_runs
    fan_rec, fan_tot = recall_over(aggregate_buckets(j["fan"].reports), 2.0)
    cv_rec, cv_tot = recall_over(aggregate_buckets(j["cv"].reports), 2.0)
    assert fan_tot == cv_tot and fan_tot >= 10
    gain = fan_rec / fan_tot - cv_rec / cv_tot

    idtr_fan = sum(rep.idtr for rep in linear_runs["fan"].reports)
    idtr_cv = sum(rep.idtr for rep in linear_runs["cv_true"].reports)
    elapsed = (
        j["sim_seconds"]
        + j["fan"].seconds
        + j["cv"].seconds
        + linear_runs["fan"].seconds
    )
    ok = gain >= 0.3 and idtr_fan <= 1.1 * idtr_cv and elapsed < 120.0
    criterion(
        "multimodal-fan",
        ok,
        f"turn-scene recall {fan_rec}/{fan_tot} fan vs {cv_rec}/{cv_tot} single branch "
        f"(gain {gain:.2f}); straight-scene transfers {idtr_fan} vs {idtr_cv}, {elapsed:.1f}s",
    )


# -- 6: forecasting halves identity switches ------------------------------------------


def test_forecasting_halves_switches_and_lifts_recall(linear_runs):
    r = linear_runs
    idsw_on = sum(rep.idsw for rep in r["cv_true"].reports)
    idsw_off = sum(rep.idsw for rep in r["no_forecast"].reports)
    on_buckets = aggregate_buckets(r["cv_true"].reports)
    off_buckets = aggregate_buckets(r["no_forecast"].reports)
    lifted = []
    for bo, bf in zip(on_buckets, off_buckets):
        assert bo.lo == bf.lo and bo.total == bf.total
        if bo.lo >= 1.0 and bo.total > 0:
            lifted.append(bo.recall > bf.recall)
    elapsed = r["sim_seconds"] + r["cv_true"].seconds + r["no_forecast"].seconds
    ok = (
        idsw_off > 0
        and idsw_on <= 0.5 * idsw_off
        and len(lifted) >= 3
        and all(lifted)
        and elapsed < 120.0
    )
    criterion(
        "forecast-benefit",
        ok,
        f"identity switches {idsw_on} with forecasting vs {idsw_off} without; recall "
        f"raised in {sum(lifted)}/{len(lifted)} buckets of 1s and longer, {elapsed:.1f}s",
    )


# -- 7: metric implementations agree with naive recomputation -------------------------


def brute_switch_counts(matches):
    frames = sorted(matches)
    gt_ids = sorted({g for f in frames for g, _ in matches[f]})
    hyp_ids = sorted({h for f in frames for _, h in matches[f]})
    idsw = 0
    for g in gt_ids:
        seq = [h for f in frames for gg, h in matches[f] if gg == g]
        idsw += sum(1 for a, b in zip(seq, seq[1:]) if a != b)
    idtr = 0
    for h in hyp_ids:
        seq = [g for f in frames for g, hh in matches[f] if hh == h]
        idtr += sum(1 for a, b in zip(seq, seq[1:]) if a != b)
    return idsw, idtr


def brute_lost_counts(matches, fps, short_max_s=2.0):
    frames = sorted(matches)
    short = long_ = 0
    for g in sorted({g for f in frames for g, _ in matches[f]}):
        seen = [f for f in frames if any(gg == g for gg, _ in matches[f])]
        for a, b in zip(seen, seen[1:]):
            if b - a > 1:
                if (b - a) / fps <= short_max_s:
                    short += 1
                else:
                    long_ += 1
    return short, long_


def brute_occlusion_events(vis_records, fps, threshold, window):
    per = {}
    for f, aid, v in vis_records:
        per.setdefault(int(aid), {})[int(f)] = float(v)
    out = []
    for aid in sorted(per):
        fr = per[aid]
        lo, hi = min(fr), max(fr)
        vis = [fr.get(f, 0.0) >= threshold for f in range(lo, hi + 1)]
        runs = []
        i = 0
        while i < len(vis):
            if not vis[i]:
                j = i
                while j + 1 < len(vis) and not vis[j + 1]:
                    j += 1
                runs.append([i, j])
                i = j + 1
            else:
                i += 1
        merged = []
        for s, e in runs:
            if merged and s - merged[-1][1] - 1 < window:
                merged[-1][1] = e
            else:
                merged.append([s, e])
        for s, e in merged:
            if s == 0 or e == len(vis) - 1:
                continue
            out.append(
                (aid, lo + s, lo + e, lo + s - 1, lo + e + 1, (e - s + 1) / fps)
            )
    return out


def brute_id_recall(events, matches, buckets):
    edges = list(buckets)
    rows = []
    for k in range(len(edges) - 1):
        total = recovered = 0
        for ev in events:
            if not (edges[k] <= ev.duration_s < edges[k + 1]):
                continue
            total += 1
            pre = [h for g, h in matches.get(ev.pre_frame, []) if g == ev.agent_id]
            post = [h for g, h in matches.get(ev.post_frame, []) if g == ev.agent_id]
            if pre and post and pre[0] == post[0]:
                recovered += 1
        rows.append((edges[k], edges[k + 1], total, recovered))
    return rows


def random_tracking_fixture(rng, n_frames=200):
    """Random gt/hyp box records, visibility, and hypothesis id relabelings."""
    n_ids = int(rng.integers(1, 6))
    gt, hyp, vis = [], [], []
    next_hyp = 100
    for gid in range(1, n_ids + 1):
        start = int(rng.integers(0, 40))
        end = int(rng.integers(n_frames - 40, n_frames))
        x = float(rng.uniform(50, 250))
        y = float(rng.uniform(50, 250))
        vx = float(rng.uniform(-1.5, 1.5))
        hyp_id = next_hyp
        next_hyp += 1
        for f in range(start, end):
            x += vx
            v = float(rng.choice([0.0, 0.05, 0.3, 1.0], p=[0.15, 0.1, 0.25, 0.5]))
            if rng.random() < 0.1:
                continue  # frame missing from the records entirely
            vis.append((f, gid, v))
            if v < 0.25:
                continue  # hidden: no boxes emitted
            box = PixelBox(x, y, 12.0, 24.0)
            gt.append((f, gid, box))
            if rng.random() < 0.12:
                continue  # hypothesis dropout
            if rng.random() < 0.03:
                hyp_id = next_hyp  # spontaneous relabel: switches to count
                next_hyp += 1
            jitter = rng.uniform(-2.0, 2.0, 2)
            hyp.append((f, hyp_id, PixelBox(x + jitter[0], y + jitter[1], 12.0, 24.0)))
    return gt, hyp, vis


def test_metrics_match_naive_recomputation():
    t0 = time.perf_counter()
    for trial in range(50):
        rng = np.random.default_rng(7000 + trial)
        gt, hyp, vis = random_tracking_fixture(rng)
        matches = match_frames(box_records(gt), box_records(hyp), 0.5)
        by_frame = frames_of(matches)
        assert count_switches(matches) == brute_switch_counts(by_frame)
        assert count_lost(matches, fps=20.0) == brute_lost_counts(by_frame, fps=20.0)
        events = occlusion_components(vis_arrays(vis), fps=20.0, threshold=0.1, window=5)
        got = [
            (e.agent_id, e.start_frame, e.end_frame, e.pre_frame, e.post_frame, e.duration_s)
            for e in events
        ]
        assert got == brute_occlusion_events(vis, fps=20.0, threshold=0.1, window=5)
        buckets = id_recall(events, matches, DEFAULT_BUCKETS)
        assert [
            (b.lo, b.hi, b.total, b.recovered) for b in buckets
        ] == brute_id_recall(events, by_frame, DEFAULT_BUCKETS)
    elapsed = time.perf_counter() - t0
    criterion(
        "metric-oracles",
        True,
        f"switch/lost counts, occlusion events, and bucketed recall equal naive "
        f"recomputation on 50 random fixtures, {elapsed:.2f}s",
    )


# -- 8: association score equals its closed formula -----------------------------------


def rect_iou(a, b):
    ax0, ay0, aw, ah = a
    bx0, by0, bw, bh = b
    ix = min(ax0 + aw, bx0 + bw) - max(ax0, bx0)
    iy = min(ay0 + ah, by0 + bh) - max(ay0, by0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def test_association_score_formula():
    scene = make_scene(size=400)
    cfg = RunConfig()
    rng = np.random.default_rng(88)
    nonzero = zero = 0
    worst = 0.0
    for trial in range(100):
        u, v = rng.uniform(120, 280, 2)
        tw, thh = float(rng.uniform(10, 30)), float(rng.uniform(20, 50))
        dw, dhh = float(rng.uniform(10, 30)), float(rng.uniform(20, 50))
        bp = np.array([u, v]) + rng.uniform(-12, 12, 2)
        ang = float(rng.uniform(0, 2 * math.pi))
        cos_sim = float(rng.uniform(0.6, 1.0)) if trial % 2 else float(rng.uniform(-1, 1))
        a1 = np.array([math.cos(ang), math.sin(ang)])
        phi = math.acos(max(-1.0, min(1.0, cos_sim)))
        a2 = np.array([math.cos(ang + phi), math.sin(ang + phi)])

        tr = inactive_track(1, 200, 200, [bp], app=a1, w=tw, h=thh)
        det = table((1, PixelBox(u - dw / 2.0, v - dhh, dw, dhh), a2, None))
        scores, _ = cost_matrix([tr], det, cfg, scene, frame=1)

        overlap = rect_iou((bp[0] - tw / 2.0, bp[1] - thh, tw, thh), (u - dw / 2.0, v - dhh, dw, dhh))
        l2 = math.hypot(bp[0] - u, bp[1] - v)
        if float(a1 @ a2) < cfg.tau_app or overlap < cfg.tau_iou:
            want = 0.0
        else:
            want = overlap + max(cfg.tau_l2 - l2, 0.0)
        worst = max(worst, abs(float(scores[0, 0]) - want))
        if want > 0:
            nonzero += 1
        else:
            zero += 1
    ok = worst <= 1e-12 and nonzero >= 20 and zero >= 20
    criterion(
        "score-formula",
        ok,
        f"100 random geometry/appearance triples within {worst:.1e} of the closed "
        f"formula ({nonzero} scoring, {zero} gated to zero)",
    )


# -- 9: forecast displacement on exact constant-velocity agents -----------------------


def test_forecast_displacement_exactness():
    fps = 16.0
    gt_positions = {}
    forecasts_cv = {}
    forecasts_st = {}
    for aid, (x0, y0, dx, dy) in enumerate(
        [(3.0, 7.0, 1.0, 0.0), (-5.0, 11.0, 0.0, 1.0)], start=1
    ):
        history = [(f, (x0 + dx * f / fps, y0 + dy * f / fps)) for f in range(81)]
        cfg = RunConfig(obs_len=8, dt=0.5, tau_max=4.0)  # 8 steps of 0.5 s
        state = preprocess([f for f, _ in history], [p for _, p in history], cfg, fps)
        forecasts_cv[aid] = state, forecast([state], cfg.override(motion="kalman_cv"), fps)
        forecasts_st[aid] = state, forecast([state], cfg.override(motion="static"), fps)
        for f in range(0, 145):
            gt_positions[(f, aid)] = np.array([x0 + dx * f / fps, y0 + dy * f / fps])

    def min_displacement(forecasts, horizon):
        """Mean over walkers of the closest branch's distance to the truth horizon s ahead."""
        errs = []
        for aid, (state, ((origin,), (velocity,), (end,))) in forecasts.items():
            target = state[2] + round(horizon * fps)
            assert target <= end
            points = origin + ((target - state[2]) / fps) * velocity
            dist = np.linalg.norm(points - gt_positions[(target, aid)], axis=1)
            errs.append(float(dist.min()))
        return float(np.mean(errs))

    err_cv = {h: min_displacement(forecasts_cv, h) for h in (2.0, 4.0)}
    err_st = {h: min_displacement(forecasts_st, h) for h in (2.0, 4.0)}
    ok = (
        err_cv[2.0] <= 1e-9
        and err_cv[4.0] <= 1e-9
        and err_st[2.0] == 2.0
        and err_st[4.0] == 4.0
    )
    criterion(
        "forecast-displacement",
        ok,
        f"constant-velocity model {err_cv[2.0]:.1e}/{err_cv[4.0]:.1e} m at 2s/4s; "
        f"static model exactly {err_st[2.0]}/{err_st[4.0]} m on 1 m/s walkers",
    )


# -- 10: a moving camera tracks in the world-fixed frame ------------------------------


def test_panning_camera_recalls_like_static(junction_runs):
    # run_tracker takes the camera path from the scenario itself; the static
    # suite recovers every turn behind its wall, and so must a panning camera.
    # The panned wall-shadow crossings, tracked with the default config, must
    # recover most of their events too.
    cfg = junction_runs["cfg"].override(motion="fan", k=3)
    t0 = time.perf_counter()
    pan = (0.02, 0.0)

    def panned(scenes, config):
        scenes = [replace(sc, camera_path=(pan,) * (sc.n_frames - 1)) for sc in scenes]
        run = _track_suite([generate(sc) for sc in scenes], config)
        return recall_over(aggregate_buckets(run.reports)), sum(r.idsw for r in run.reports)

    (rec, tot), idsw = panned(junction_suite(), cfg)
    (lin_rec, lin_tot), lin_idsw = panned(linear_suite(20), junction_runs["cfg"])
    elapsed = time.perf_counter() - t0
    static_rec, static_tot = recall_over(aggregate_buckets(junction_runs["fan"].reports))
    ok = tot == static_tot and rec == tot == static_rec and idsw == 0
    ok = ok and lin_rec >= 0.9 * lin_tot and lin_idsw <= 5
    criterion(
        "moving-camera",
        ok,
        f"turn scenes panned 0.02 m/frame sideways recall {rec}/{tot} with {idsw} switches, "
        f"static camera {static_rec}/{static_tot}; panned crossings {lin_rec}/{lin_tot} "
        f"with {lin_idsw} switches, {elapsed:.1f}s",
    )
