"""Command-line entry points.

Subcommands:
  simulate   render a scenario to detections, ground truth, cloud, homography
  calibrate  fit the ground plane and the pixel->BEV homography from a cloud
  track      run the occlusion-bridging tracker over a detection file
  evaluate   score a tracker output against ground truth
  forecast   emit motion-model branches for identities in a detection file
  pipeline   simulate + (optionally calibrate) + track + evaluate in one go

Exit codes: 0 on success, 1 on validation/data errors, 2 on argument errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import mot_io
from .config import MOTION_KINDS, RunConfig, read_config
from .errors import BevTrackError, ParseError
from .experiments import calibrate_from_cloud, calibrated_homography, run_tracker
from .evaluation import evaluate_tracking
from .forecast import forecast as run_forecast
from .forecast import preprocess
from .homography import load_homography, save_homography
from .simulator import build_scene_model, generate, read_scenario, write_scenario
from .tracker import SceneModel, Tracker


def _checked(kind, accept, expected: str):
    """argparse type: ``kind(text)`` if accept() holds for it, else a usage error (exit 2)."""

    def parse(text: str):
        try:
            v = kind(text)
        except ValueError:
            v = math.nan
        if not accept(v):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return v

    return parse


_positive = _checked(float, lambda v: 0 < v < math.inf, "a positive number")
_fraction = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bevtrack",
        description="Monocular ground-plane tracking with occlusion-bridging forecasts.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON run configuration")

    sp = sub.add_parser("simulate", help="render a synthetic scenario")
    sp.add_argument("--seed", type=int, help="override the scenario's seed")
    sp.add_argument("--scenario", required=True, help="scenario JSON path or bundled name")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("calibrate", help="estimate the ground homography from a cloud")
    sp.add_argument("--seed", type=_seed, default=0, help="RANSAC seed of the plane fit")
    sp.add_argument("--cloud", required=True, help="x y z point cloud file")
    sp.add_argument("--correspondences", required=True, help="u v x y z pairs file")
    sp.add_argument("--out", required=True, help="homography output file")

    sp = sub.add_parser("track", help="run the tracker over a detection file")
    add_common(sp)
    sp.add_argument("--det", required=True, help="MOT detection file")
    sp.add_argument("--homography", required=True, help="homography file")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--appearance", help="descriptor sidecar, one row per detection")
    sp.add_argument("--ego", help="cumulative camera offsets, one dx dy row per frame")
    sp.add_argument("--motion", choices=MOTION_KINDS)
    sp.add_argument("--no-forecast", action="store_true", help="drop occluded tracks")
    sp.add_argument("--ingest", action="store_true", help="respect upstream ids in the file")
    sp.add_argument("--fps", type=_positive, default=20.0, help="frame rate")

    sp = sub.add_parser("evaluate", help="score tracking output against ground truth")
    add_common(sp)
    sp.add_argument("--gt", required=True, help="9-column ground truth with visibility")
    sp.add_argument("--hyp", required=True, help="10-column tracker output")
    sp.add_argument("--out", required=True, help="report JSON path")
    sp.add_argument("--csv", help="optional flat CSV path")
    sp.add_argument("--fps", type=_positive, default=20.0)
    sp.add_argument("--buckets", help="comma-separated edges, e.g. 0,0.5,1,2,inf")
    sp.add_argument(
        "--vis-threshold",
        type=_fraction,
        help="visibility below which a frame counts as occluded; overrides vis_threshold",
    )

    sp = sub.add_parser("forecast", help="emit forecast branches per identity")
    add_common(sp)
    sp.add_argument("--det", required=True, help="MOT file with identities")
    sp.add_argument("--homography", required=True)
    sp.add_argument("--out", required=True, help="JSONL output path")
    sp.add_argument("--motion", choices=MOTION_KINDS)
    sp.add_argument("--fps", type=_positive, default=20.0)
    sp.add_argument("--horizon", type=_positive, help="seconds ahead; defaults to tau_max")

    sp = sub.add_parser("pipeline", help="simulate, track, evaluate")
    add_common(sp)
    sp.add_argument("--seed", type=int, help="override the scenario's seed")
    sp.add_argument("--scenario", required=True, help="scenario JSON path or bundled name")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--motion", choices=MOTION_KINDS)
    sp.add_argument("--no-forecast", action="store_true")
    sp.add_argument(
        "--estimate-homography",
        action="store_true",
        help="calibrate from the simulated cloud instead of using the exact map",
    )
    return p


def _config_from_args(args) -> RunConfig:
    cfg = read_config(args.config) if args.config else RunConfig()
    over = {}
    if getattr(args, "motion", None):
        over["motion"] = args.motion
    if getattr(args, "no_forecast", False):
        over["forecast_enabled"] = False
    if getattr(args, "ingest", False):
        over["ingest_ids"] = True
    if getattr(args, "buckets", None) is not None:
        over["buckets"] = _parse_buckets(args.buckets)
    if getattr(args, "vis_threshold", None) is not None:
        over["vis_threshold"] = args.vis_threshold
    return cfg.override(**over) if over else cfg


def _parse_buckets(text: str) -> tuple:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as e:
        raise ParseError(f"invalid bucket list {text!r}: {e}") from e


def _simulate(args):
    """Generate --scenario, reseeded by --seed if given, and write its files to --out."""
    sc = read_scenario(args.scenario)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    sim = generate(sc)
    os.makedirs(args.out, exist_ok=True)
    out = functools.partial(os.path.join, args.out)
    mot_io.write_detections(out("det.txt"), sim.table)
    mot_io.write_appearance(out("appearance.txt"), sim.table.appearance)
    mot_io.write_gt(out("gt.txt"), sim.gt)
    mot_io.write_cloud(out("cloud.txt"), sim.cloud)
    mot_io.write_correspondences(out("correspondences.txt"), sim.cloud_pixels, sim.cloud)
    save_homography(out("homography.txt"), sim.homography)
    write_scenario(out("scenario.json"), sc)
    if sc.camera_path is not None:
        mot_io.write_ego(out("ego.txt"), sim.ego)
    return sim


def _cmd_simulate(args) -> int:
    sim = _simulate(args)
    print(f"frames: {sim.scenario.n_frames}")
    print(f"detections: {len(sim.table)}")
    print(f"ground-truth rows: {len(sim.gt)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    cloud = mot_io.read_cloud(args.cloud)
    px, pts = mot_io.read_correspondences(args.correspondences)
    cal = calibrate_from_cloud(cloud, px, pts, seed=args.seed)
    save_homography(args.out, cal.homography)
    n = cal.plane.normal
    print(f"plane normal: {n[0]:.6f} {n[1]:.6f} {n[2]:.6f}")
    print(f"plane offset: {cal.plane.offset:.6f}")
    print(f"reprojection rmse (m): {cal.fit.rmse:.6g}")
    print(f"wrote {args.out}")
    return 0


def _load_tracker_inputs(args):
    h = load_homography(args.homography)
    dets = mot_io.read_detections(args.det)
    if args.appearance:
        appearance = mot_io.read_appearance(args.appearance)
        if len(appearance) != len(dets):
            raise ParseError(
                f"{args.appearance}: {len(appearance)} descriptor rows for "
                f"{len(dets)} detections"
            )
        dets.appearance = appearance
    ego = mot_io.read_ego(args.ego) if args.ego else None
    return h, dets, ego


def _write_outputs(out_dir, outputs: list, events: list) -> mot_io.DetectionTable:
    """The tracker's track.txt and events.jsonl; returns the outputs' table."""
    track = mot_io.records_from_outputs(outputs)
    mot_io.write_detections(os.path.join(out_dir, "track.txt"), track)
    mot_io.write_events(os.path.join(out_dir, "events.jsonl"), events)
    return track


def _cmd_track(args) -> int:
    cfg = _config_from_args(args)
    h, dets, ego = _load_tracker_inputs(args)
    if cfg.ingest_ids:  # an inactive track's kept upstream id must name one row a frame
        bound = dets.source_id >= 0
        _check_identities(args.det, dets.frame[bound], dets.source_id[bound], need_ids=False)
    scene = SceneModel(h, args.fps, ego)
    by_frame = dets.by_frame()
    frames = range(min(by_frame), max(by_frame) + 1) if by_frame else ()
    if ego is not None and frames and (frames[0] < 0 or frames[-1] >= len(ego)):
        reach = frames[0] if frames[0] < 0 else frames[-1]
        raise ParseError(f"{args.ego}: {len(ego)} offsets, detections reach frame {reach}")
    outputs, events = Tracker(scene, cfg).run(by_frame, frames)
    os.makedirs(args.out, exist_ok=True)
    _write_outputs(args.out, outputs, events)
    n_ids = len({i for _, i, _ in outputs})
    print(f"tracked boxes: {len(outputs)}")
    print(f"identities: {n_ids}")
    print(f"wrote {args.out}")
    return 0


def _check_identities(path, frame: np.ndarray, ids: np.ndarray, need_ids: bool = True) -> None:
    """ParseError naming the frame and id of the first row with id -1 (when identities
    are needed), or of a second row for one (frame, id)."""
    if need_ids and (ids < 0).any():
        k = np.flatnonzero(ids < 0)[0]
        raise ParseError(f"{path}: frame {frame[k]} has id {ids[k]}: needs identities (id >= 0)")
    order = np.lexsort((ids, frame))
    f, i = frame[order], ids[order]
    dup = np.flatnonzero((f[1:] == f[:-1]) & (i[1:] == i[:-1]))
    if len(dup):
        raise ParseError(f"{path}: frame {f[dup[0]]}: id {i[dup[0]]} has two rows in one frame")


def _cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    gt = mot_io.read_gt(args.gt)
    _check_identities(args.gt, gt.frame, gt.agent_id, need_ids=False)
    hyp = mot_io.read_detections(args.hyp)
    _check_identities(args.hyp, hyp.frame, hyp.source_id)
    report = evaluate_tracking(gt, (hyp.frame, hyp.source_id, hyp.box), args.fps, cfg)
    report.write_json(args.out)
    if args.csv:
        report.write_csv(args.csv)
    print(f"idsw: {report.idsw}  idtr: {report.idtr}")
    print(f"lost short/long: {report.id_lost_short}/{report.id_lost_long}")
    for b in report.buckets:
        hi = "inf" if b.hi == float("inf") else f"{b.hi:g}"
        rec = "n/a" if b.recall is None else f"{b.recall:.3f}"
        print(f"recall [{b.lo:g}, {hi}) s: {rec} ({b.recovered}/{b.total})")
    print(f"wrote {args.out}")
    return 0


def _cmd_forecast(args) -> int:
    cfg = _config_from_args(args)
    h = load_homography(args.homography)
    dets = mot_io.read_detections(args.det)
    _check_identities(args.det, dets.frame, dets.source_id)
    order = np.lexsort((dets.frame, dets.source_id))
    frames, points = dets.frame[order], h.px_to_bev(dets.foot[order])
    ids, starts = np.unique(dets.source_id[order], return_index=True)
    states = [preprocess(frames[lo:hi], points[lo:hi], cfg, args.fps)
              for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(frames)])]
    try:
        origin, velocity, end = run_forecast(states, cfg, args.fps, args.horizon)
    except ValueError as e:
        raise ParseError(f"{'config' if args.horizon is None else '--horizon'}: {e}") from e
    columns = zip(ids.tolist(), states, origin.tolist(), velocity.tolist(), end.tolist())
    rows = [dict(id=i, origin=o, velocities=v, created_frame=s[2], end_frame=e, fps=args.fps)
            for i, s, o, v, e in columns]
    mot_io.write_json_lines(args.out, rows)
    print(f"forecasted identities: {len(rows)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _config_from_args(args)
    sim = _simulate(args)
    scene = None
    if args.estimate_homography:
        h = calibrated_homography(sim)
        save_homography(os.path.join(args.out, "homography_estimated.txt"), h)
        scene = build_scene_model(sim.scenario, h)
    outputs, events, _ = run_tracker(sim, cfg, scene=scene)
    track = _write_outputs(args.out, outputs, events)
    hyp = (track.frame, track.source_id, track.box)
    report = evaluate_tracking(sim.gt, hyp, sim.scenario.fps, cfg)
    report.write_json(os.path.join(args.out, "report.json"))
    report.write_csv(os.path.join(args.out, "report.csv"))
    print(f"idsw: {report.idsw}  idtr: {report.idtr}")
    for b in report.buckets:
        if b.total == 0:
            continue
        hi = "inf" if b.hi == float("inf") else f"{b.hi:g}"
        print(f"recall [{b.lo:g}, {hi}) s: {b.recall:.3f} ({b.recovered}/{b.total})")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "track": _cmd_track,
    "evaluate": _cmd_evaluate,
    "forecast": _cmd_forecast,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BevTrackError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
