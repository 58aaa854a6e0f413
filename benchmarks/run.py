#!/usr/bin/env python3
"""Pipeline benchmark for bevtrack: set-up, per-frame tracking, identity quality.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload crowd --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py                # every workload, one process each
    python3 benchmarks/run.py --trace 1      # per-layer numbers and overhead

The workload's scenes are built from the seed (see ``scenes.py``). Each scene
goes through the public API the way a user runs it: ``generate``; set-up
(``calibrate_from_cloud``, ``linearize``, ``build_scene_model``, ``Tracker``);
every ``Tracker.step``; ``evaluate_sim``; and writing ``track.txt``,
``events.jsonl`` and ``report.json``. Its outputs are then checked. Untraced
runs repeat whole passes over the scenes until ``--seconds`` have elapsed,
and always finish at least one pass. A traced run makes one untraced pass and
one traced pass over the same scenes; it reports per-layer numbers from the
traced pass and the tracing overhead as the ratio of the two wall times.

Human-readable lines come first. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (scenes, over every
pass) and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import os
import sys

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("suite", "crowd", "crowd_fan")


def load_library():
    """Import bevtrack from this checkout's ``src``, never from elsewhere."""
    package = os.path.join(SRC, "bevtrack")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no bevtrack sources at {package}")
    sys.path.insert(0, SRC)
    import bevtrack

    if os.path.dirname(os.path.abspath(bevtrack.__file__)) != package:
        raise SystemExit(f"error: imported bevtrack from {bevtrack.__file__}, not {package}")


def environment() -> str:
    import numpy
    import scipy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
        f"BLAS/OpenMP threads {os.environ['OMP_NUM_THREADS']}"
    )


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def end_to_end(passes: list, q: dict, probe) -> tuple[dict, list]:
    """(metrics, human-readable rows) of an untraced run.

    Times are scaled to nominal host speed by the run's probes (see
    ``speed.py``); each row also shows the raw value. q is the first pass's
    quality. The rows after the metrics are printed but not gated: see
    README.md for why.
    """
    setup = [v for p in passes for v in p.setup_s]
    scene = [v for p in passes for v in p.pipeline_s]
    steps = [v for p in passes for v in p.step_s]
    k = probe.scale()
    timings = [
        ("setup_s", statistics.median(setup), k, "s", f"median of {len(setup)} set-ups"),
        ("pipeline_s", statistics.median(scene), k, "s", f"median of {len(scene)} scenes"),
        ("track_fps", len(steps) / sum(steps), 1.0 / k, "frames/s", f"{len(steps)} frames"),
        ("step_ms_p50", 1e3 * percentile(steps, 50), k, "ms", f"{len(steps)} steps"),
    ]
    rows = [(n, v * f, u, f"raw {v:.6g}; {note}") for n, v, f, u, note in timings]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows.append(("peak_rss_mb", rss_mb, "MB", "whole process"))
    p99 = 1e3 * percentile(steps, 99)
    extra = [
        ("step_ms_p99", p99 * k, "ms", f"raw {p99:.6g}; {len(steps)} steps"),
        ("idsw", q["idsw"], "count", f"{len(passes[0].reports)} scenes of one pass"),
        ("id_recall", q["recovered"] / max(q["events"], 1), "ratio",
         f"{q['recovered']}/{q['events']} occlusion events"),
        ("id_recall_long", q["recovered_long"] / max(q["events_long"], 1), "ratio",
         f"{q['recovered_long']}/{q['events_long']} events of 2 s or more"),
        ("host_speed", k, "ratio", f"{len(probe.samples)} probes"),
    ]
    return {n: {"value": v, "unit": u} for n, v, u, _ in rows}, rows + extra


def per_layer(tracer, traced, untraced, q: dict) -> tuple[dict, list]:
    """(metrics, human-readable rows) of a traced run; q is the traced pass's quality."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name: str) -> int:
        return s.get(name, {}).get("calls", 0)

    def secs(name: str) -> float:
        return s.get(name, {}).get("s", 0.0)

    cells = c["tracker.build_cost_matrix.units"]
    reasons = traced.reasons
    bev = "linearized.bev_to_px"
    rows = [
        ("simulator.generate_s", secs("simulator.generate"), "s"),
        ("simulator.covered_fraction_calls", calls("simulator.covered_fraction"), "count"),
        ("simulator.detections", traced.detections, "count"),
        ("simulator.build_scene_model_s", secs("simulator.build_scene_model"), "s"),
        ("plane.fit_ground_plane_s", secs("plane.fit_ground_plane"), "s"),
        ("homography.estimate_homography_s", secs("homography.estimate_homography"), "s"),
        ("linearized.linearize_s", secs("linearized.linearize"), "s"),
        ("linearized.bev_to_px_calls", calls(bev), "count"),
        ("linearized.bev_to_px_calls_mask",
         tracer.calls_under(bev, "simulator.build_scene_model"), "count"),
        ("linearized.bev_to_px_calls_tracker", tracer.calls_under(bev, "tracker.step"), "count"),
        ("linearized.bev_to_px_points", c[bev + ".units"], "count"),
        ("linearized.bev_to_px_s", secs(bev), "s"),
        ("linearized.px_to_bev_calls", calls("linearized.px_to_bev"), "count"),
        ("linearized.px_to_bev_points", c["linearized.px_to_bev.units"], "count"),
        ("linearized.px_to_bev_s", secs("linearized.px_to_bev"), "s"),
        ("linearized.out_of_domain",
         c[bev + ".out_of_domain"] + c["linearized.px_to_bev.out_of_domain"], "count"),
        ("forecast.preprocess_calls", calls("forecast.preprocess"), "count"),
        ("forecast.preprocess_s", secs("forecast.preprocess"), "s"),
        ("forecast.forecast_calls", calls("forecast.forecast"), "count"),
        ("forecast.forecast_s", secs("forecast.forecast"), "s"),
        ("forecast.predicted_box_calls", calls("forecast.predicted_box"), "count"),
        ("tracker.step_s", secs("tracker.step"), "s"),
        ("tracker.step_self_s", s.get("tracker.step", {}).get("self_s", 0.0), "s"),
        ("tracker.iou_calls", calls("tracker.iou"), "count"),
        ("tracker.prune_forecasts_calls", calls("tracker.prune_forecasts"), "count"),
        ("tracker.prune_forecasts_s", secs("tracker.prune_forecasts"), "s"),
        ("tracker.build_cost_matrix_s", secs("tracker.build_cost_matrix"), "s"),
        ("tracker.cost_cells", cells, "count"),
        ("tracker.assign_s", secs("tracker.assign"), "s"),
        ("tracker.reassociated", reasons["reassociated"], "count"),
        ("tracker.new_tracks", reasons["new"], "count"),
        ("tracker.removed_pruned", reasons["removed_pruned"], "count"),
        ("tracker.removed_dead", reasons["removed_dead"], "count"),
        ("tracker.removed_expired", reasons["removed_expired"], "count"),
        ("tracker.reassoc_per_cell", reasons["reassociated"] / cells if cells else 0.0, "ratio"),
        ("evaluation.evaluate_tracking_s", secs("evaluation.evaluate_tracking"), "s"),
        ("evaluation.match_frames_s", secs("evaluation.match_frames"), "s"),
        ("evaluation.iou_calls", calls("evaluation.iou"), "count"),
        ("evaluation.occlusion_components_s", secs("evaluation.occlusion_components"), "s"),
        ("evaluation.id_recall_s", secs("evaluation.id_recall"), "s"),
        ("evaluation.idsw", q["idsw"], "count"),
        ("evaluation.id_recall", q["recovered"] / max(q["events"], 1), "ratio"),
        ("evaluation.id_recall_long",
         q["recovered_long"] / max(q["events_long"], 1), "ratio"),
        ("mot_io.write_s",
         sum(secs(n) for n in ("mot_io.write_detections", "mot_io.write_events",
                               "mot_io.write_report")), "s"),
        ("trace.overhead", traced.wall_s / untraced.wall_s, "ratio"),
    ]
    rows = [(n, v, u, "traced pass") for n, v, u in rows]
    return {n: {"value": v, "unit": u} for n, v, u, _ in rows}, rows


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_library()
    import pipeline
    import scenes as scene_sets
    from speed import SpeedProbe
    from tracing import Tracer

    scenes = scene_sets.WORKLOADS[name](seed)
    out_dir = os.path.join(OUT, name)
    os.makedirs(out_dir, exist_ok=True)
    # Warm-up: imports, lazy numpy/scipy set-up and file creation, untimed.
    sc, cfg = scenes[0]
    warm = replace(sc, duration=min(sc.duration, 1.0))
    pipeline.run_scene(warm, cfg, out_dir, pipeline.Pass(), SpeedProbe())
    probe = SpeedProbe()

    if trace:
        untraced = pipeline.run_pass(scenes, out_dir, probe)
        tracer = Tracer()
        tracer.install()
        try:
            traced = pipeline.run_pass(scenes, out_dir, probe)
        finally:
            tracer.restore()
        tracer.save(os.path.join(out_dir, "trace.npz"))
        passes = [untraced, traced]
        metrics, rows = per_layer(tracer, traced, untraced, pipeline.quality(traced))
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(pipeline.run_pass(scenes, out_dir, probe))
        metrics, rows = end_to_end(passes, pipeline.quality(passes[0]), probe)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    correct = failed == 0 and len(digests) == 1
    print(f"# workload {name}, seed {seed}, trace {int(trace)}: {len(scenes)} scene(s) per pass, "
          f"{len(passes)} pass(es), {sum(p.wall_s for p in passes):.1f} s measured")
    print(f"# {environment()}")
    print(f"# scenes attempted {attempted}, failed {failed}")
    print(f"# digest of track.txt + events.jsonl: {passes[0].digest}"
          + ("" if len(digests) == 1 else f" (passes disagree: {sorted(digests)})"))
    for metric, value, unit, note in rows:
        print(f"{metric:36s} {value:>14.6g} {unit:9s} {note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so memory and warm caches do not leak."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        status = status or proc.returncode or (results[name] is None)
    print(json.dumps(results))
    return int(bool(status))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=0, help="0 reproduces the acceptance suites")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
