"""One pass of a workload: every scene through the pipeline, timed and checked.

Library calls go through module attributes (``simulator.generate``,
``experiments.evaluate_sim``, ...) so that the tracer can wrap them.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from bevtrack import experiments, linearized, mot_io, simulator
from bevtrack.tracker import Tracker
from speed import SpeedProbe

KNOWN_REASONS = {
    "active",
    "inactive",
    "terminated",
    "reassociated",
    "new",
    "removed_dead",
    "removed_pruned",
    "removed_expired",
}


class CheckFailed(Exception):
    pass


@dataclass
class Pass:
    """Everything measured over one pass of a workload's scenes (wall-clock seconds)."""

    setup_s: list = field(default_factory=list)
    pipeline_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)
    scene_digests: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    reasons: Counter = field(default_factory=Counter)
    detections: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0

    @property
    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.scene_digests)).hexdigest()


def set_up(sim, cfg):
    """Scene to ready tracker: what a user pays for each new camera."""
    cal = experiments.calibrate_from_cloud(sim.cloud, sim.cloud_pixels.copy(), sim.cloud)
    cam = sim.scenario.camera
    lh = linearized.linearize(
        cal.homography, (cam.image_width, cam.image_height), cfg.max_spacing
    )
    scene = simulator.build_scene_model(sim.scenario, lh, cfg.cell_size)
    return Tracker(scene, cfg.tracker_config())


def check_outputs(sim, outputs, events, report) -> None:
    """Raise CheckFailed unless the tracker's outputs are well formed."""
    det_boxes = {(d.frame, d.box) for d in sim.detections}
    seen = set()
    for frame, tid, box in outputs:
        if (frame, box) not in det_boxes:
            raise CheckFailed(f"frame {frame}: track {tid} box is not a detection of the frame")
        if (frame, tid) in seen:
            raise CheckFailed(f"frame {frame}: track id {tid} output twice")
        seen.add((frame, tid))
    unknown = {ev["reason"] for ev in events} - KNOWN_REASONS
    if unknown:
        raise CheckFailed(f"unknown event reasons {sorted(unknown)}")
    if report.n_matched > min(report.n_gt, report.n_hyp):
        raise CheckFailed(
            f"n_matched {report.n_matched} exceeds min(n_gt {report.n_gt}, n_hyp {report.n_hyp})"
        )


def run_scene(sc, cfg, out_dir: str, into: Pass, probe: SpeedProbe) -> None:
    """Time one scene end to end, check it, and add it to the pass.

    The speed probe runs between the timed calls, at every phase boundary
    and every quarter second of tracking; its own time is left out of the
    scene's pipeline time.
    """
    probe.sample()
    t0 = time.perf_counter()
    sim = simulator.generate(sc)
    probed = probe.sample()
    t = time.perf_counter()
    tracker = set_up(sim, cfg)
    setup = time.perf_counter() - t
    probed += probe.sample()
    by_frame = experiments.sim_detections_by_frame(sim)
    outputs, events, steps = [], [], []
    for f in range(sc.n_frames):
        dets = by_frame.get(f, [])
        t = time.perf_counter()
        out, ev = tracker.step(dets, f)
        steps.append(time.perf_counter() - t)
        outputs.extend(out)
        events.extend(ev)
        probed += probe.poll()
    probed += probe.sample()
    report = experiments.evaluate_sim(sim, outputs, cfg)
    track_path = os.path.join(out_dir, "track.txt")
    events_path = os.path.join(out_dir, "events.jsonl")
    mot_io.write_detections(track_path, mot_io.records_from_outputs(outputs))
    mot_io.write_events(events_path, events)
    report.write_json(os.path.join(out_dir, "report.json"))
    total = time.perf_counter() - t0 - probed
    probe.sample()

    check_outputs(sim, outputs, events, report)
    digest = hashlib.sha256()
    for path in (track_path, events_path):
        with open(path, "rb") as f:
            digest.update(f.read())
    into.setup_s.append(setup)
    into.pipeline_s.append(total)
    into.step_s.extend(steps)
    into.scene_digests.append(digest.digest())
    into.reports.append(report)
    into.reasons.update(ev["reason"] for ev in events)
    into.detections += len(sim.detections)


def run_pass(scenes, out_dir: str, probe: SpeedProbe) -> Pass:
    p = Pass()
    t0 = time.perf_counter()
    for sc, cfg in scenes:
        p.attempted += 1
        try:
            run_scene(sc, cfg, out_dir, p, probe)
        except Exception:  # a scene that raises or fails a check counts as failed
            p.failed += 1
            print(f"# scene with seed {sc.seed} failed:", file=sys.stderr)
            traceback.print_exc()
    p.wall_s = time.perf_counter() - t0
    return p


def quality(first: Pass) -> dict:
    """Identity metrics of one pass: switches and bucketed occlusion recall."""
    buckets = experiments.aggregate_buckets(first.reports)
    rec, tot = experiments.recall_over(buckets, 0.0)
    rec_long, tot_long = experiments.recall_over(buckets, 2.0)
    return {
        "idsw": sum(r.idsw for r in first.reports),
        "recovered": rec,
        "events": tot,
        "recovered_long": rec_long,
        "events_long": tot_long,
    }
