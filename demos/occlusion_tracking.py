"""Tracking two walkers through a wall occlusion, with and without forecasts.

The bundled crossing scene sends two walkers behind a central wall for a few
seconds. With forecasting on, their tracks coast along predicted BEV paths and
re-associate when they reappear, so each walker keeps one identity end to end.
With forecasting off, every occlusion spawns a fresh identity.
"""

from collections import Counter

from bevtrack.config import RunConfig
from bevtrack.experiments import crossing_scenario, evaluate_sim, run_tracker
from bevtrack.simulator import generate


def describe(outputs, events, report, label):
    ids = sorted({i for _, i, _ in outputs})
    reasons = Counter(e["reason"] for e in events)
    print(f"{label}:")
    print(f"  identities used: {ids}")
    print(f"  events: {dict(reasons)}")
    print(f"  identity switches: {report.idsw}")
    for b in report.buckets:
        if b.total:
            print(f"  occlusions {b.lo:.1f}-{b.hi:.1f}s: {b.recovered}/{b.total} kept their id")


def main():
    scenario = crossing_scenario()
    sim = generate(scenario)
    n_det = len(sim.table)
    print(f"simulated {scenario.n_frames} frames, {n_det} detections, "
          f"{len(scenario.agents)} walkers, one wall\n")

    cfg = RunConfig()
    outputs, events, _ = run_tracker(sim, cfg)
    describe(outputs, events, evaluate_sim(sim, outputs, cfg), "with forecasting")

    print()
    cfg_off = cfg.override(forecast_enabled=False)
    outputs_off, events_off, _ = run_tracker(sim, cfg_off)
    describe(outputs_off, events_off, evaluate_sim(sim, outputs_off, cfg_off),
             "without forecasting")

    print("\nforecasting carries hidden tracks across the wall: same walkers,")
    print("same detections, but the identities survive the gap.")


if __name__ == "__main__":
    main()
