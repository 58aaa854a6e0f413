#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise it as a baseline.

Run from the root of a checkout:

    python3 benchmarks/baseline.py --seeds 1-10 --out benchmarks/baseline.json

Every (seed, workload) pair runs ``run.py`` in its own process with tracing
off. For each end-to-end metric the summary gives the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median. With ``--trace-seed`` one traced
run per workload adds the per-layer table and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

# A human-readable row of run.py: name, value, unit, then "raw <value>;" for times.
ROW = re.compile(r"^([a-z][\w.]*)\s+(\S+)\s+\S+\s+(?:raw (\S+);)?")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    digest = next((ln.split(": ")[-1] for ln in lines if ln.startswith("# digest")), None)
    result = json.loads(lines[-1])
    result["digest"] = digest
    rows = [m for m in map(ROW.match, lines[:-1]) if m]
    result["printed"] = {m.group(1): float(m.group(2)) for m in rows}
    result["raw"] = {m.group(1): float(m.group(3)) for m in rows if m.group(3)}
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"error: {workload} seed {seed} failed:\n{proc.stdout}")
    return result


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else None  # idsw is 0 on suite
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="write the summary as JSON here")
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    runs = {w: [] for w in args.workloads}
    for seed in seeds:
        for w in args.workloads:
            r = run_once(w, seed, args.seconds, 0)
            runs[w].append({"seed": seed, "digest": r["digest"], "raw": r["raw"],
                            "printed": {k: v for k, v in r["printed"].items()
                                        if k not in r["metrics"]},
                            "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print(f"# {w} seed {seed}: " + ", ".join(
                f"{k} {v:.6g}" for k, v in runs[w][-1]["metrics"].items()), flush=True)

    summary, printed_summary = {}, {}
    for w, rs in runs.items():
        names = list(rs[0]["metrics"])
        summary[w] = {n: summarise([r["metrics"][n] for r in rs]) for n in names}
        printed = {n: summarise([r["printed"][n] for r in rs]) for n in rs[0]["printed"]}
        printed_summary[w] = printed
        raw = {n: summarise([r["raw"][n] for r in rs]) for n in rs[0]["raw"]}
        print(f"\n### {w} ({len(rs)} seeds)\n")
        print("| metric | median | q1 | q3 | spread | raw spread |")
        print("|---|---:|---:|---:|---:|---:|")
        rows = list(summary[w].items()) + [(f"{n} (printed)", s) for n, s in printed.items()]
        for n, s in rows:
            name = n.split(" ")[0]
            raw_spread = f"{raw[name]['spread']:.4f}" if name in raw else ""
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"| {n} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                  f"| {spread} | {raw_spread} |")

    traced = {}
    if args.trace_seed is not None:
        for w in args.workloads:
            r = run_once(w, args.trace_seed, args.seconds, 1)
            traced[w] = {"seed": args.trace_seed, "digest": r["digest"],
                         "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
            untraced = {x["seed"]: x["digest"] for x in runs[w]}.get(args.trace_seed)
            if untraced is not None and untraced != r["digest"]:
                raise SystemExit(f"error: {w}: traced digest differs from untraced run")
        names = list(traced[args.workloads[0]]["metrics"])
        print(f"\n### per-layer, traced pass of seed {args.trace_seed}\n")
        print("| metric | " + " | ".join(args.workloads) + " |")
        print("|---|" + "---:|" * len(args.workloads))
        for n in names:
            print(f"| {n} | " + " | ".join(
                f"{traced[w]['metrics'][n]:.6g}" for w in args.workloads) + " |")

    if args.out:
        import numpy
        import scipy

        doc = {
            "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                            "scipy": scipy.__version__, "nproc": os.cpu_count(),
                            "machine": platform.machine()},
            "seconds": args.seconds,
            "seeds": seeds,
            "end_to_end": summary,
            "printed": printed_summary,
            "runs": runs,
            "per_layer": traced,
        }
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
