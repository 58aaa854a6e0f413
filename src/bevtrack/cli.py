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
from .config import RunConfig, read_config
from .errors import BevTrackError, ParseError
from .experiments import (
    calibrate_from_cloud,
    calibrated_lh,
    evaluate_sim,
    run_tracker,
)
from .evaluation import evaluate_tracking
from .forecast import forecast as run_forecast
from .forecast import preprocess
from .homography import MAX_IMAGE_SIDE, load_homography, save_homography
from .linearized import linearize
from .simulator import generate, read_scenario, write_scenario
from .tracker import Detection, SceneModel, Tracker


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
_image_side = _checked(int, lambda v: 0 < v <= MAX_IMAGE_SIDE, f"1 to {MAX_IMAGE_SIDE} pixels")
_fraction = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bevtrack",
        description="Monocular ground-plane tracking with occlusion-bridging forecasts.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON run configuration")

    sp = sub.add_parser("simulate", help="render a synthetic scenario")
    add_common(sp)
    sp.add_argument("--seed", type=int, help="override the scenario's seed")
    sp.add_argument("--scenario", required=True, help="scenario JSON path or bundled name")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("calibrate", help="estimate the ground homography from a cloud")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=0, help="RANSAC seed of the plane fit")
    sp.add_argument("--cloud", required=True, help="x y z point cloud file")
    sp.add_argument("--correspondences", required=True, help="u v x y z pairs file")
    sp.add_argument("--out", required=True, help="homography output file")
    sp.add_argument("--max-spacing", type=_positive, help="overrides the config's max_spacing")
    sp.add_argument(
        "--image", type=_image_side, nargs=2, metavar=("W", "H"), default=(1920, 1080)
    )

    sp = sub.add_parser("track", help="run the tracker over a detection file")
    add_common(sp)
    sp.add_argument("--det", required=True, help="MOT detection file")
    sp.add_argument("--homography", required=True, help="homography file")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--appearance", help="descriptor sidecar, one row per detection")
    sp.add_argument("--ego", help="cumulative camera offsets, one dx dy row per frame")
    sp.add_argument("--motion", choices=("static", "kalman_cv", "fan"))
    sp.add_argument("--k", type=int, help="number of forecast branches")
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
    sp.add_argument("--motion", choices=("static", "kalman_cv", "fan"))
    sp.add_argument("--k", type=int)
    sp.add_argument("--fps", type=_positive, default=20.0)
    sp.add_argument("--horizon", type=_positive, help="seconds ahead; defaults to tau_max")

    sp = sub.add_parser("pipeline", help="simulate, track, evaluate")
    add_common(sp)
    sp.add_argument("--seed", type=int, help="override the scenario's seed")
    sp.add_argument("--scenario", required=True, help="scenario JSON path or bundled name")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--motion", choices=("static", "kalman_cv", "fan"))
    sp.add_argument("--k", type=int)
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
    if getattr(args, "k", None) is not None:
        over["k"] = args.k
    if getattr(args, "no_forecast", False):
        over["forecast_enabled"] = False
    if getattr(args, "ingest", False):
        over["ingest_ids"] = True
    if getattr(args, "buckets", None):
        over["buckets"] = _parse_buckets(args.buckets)
    if getattr(args, "vis_threshold", None) is not None:
        over["vis_threshold"] = args.vis_threshold
    if getattr(args, "max_spacing", None) is not None:
        over["max_spacing"] = args.max_spacing
    return cfg.override(**over) if over else cfg


def _parse_buckets(text: str) -> tuple:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as e:
        raise ParseError(f"invalid bucket list {text!r}: {e}") from e


def _simulate(args, cfg: RunConfig):
    """Generate --scenario, reseeded by --seed if given, and write its files to --out."""
    sc = read_scenario(args.scenario)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    sim = generate(sc)
    os.makedirs(args.out, exist_ok=True)
    out = functools.partial(os.path.join, args.out)
    dets = [mot_io.MotRecord(d.frame, -1, d.box) for d in sim.detections]
    mot_io.write_detections(out("det.txt"), dets)
    mot_io.write_appearance(out("appearance.txt"), [d.appearance for d in sim.detections])
    mot_io.write_gt(out("gt.txt"), sim.gt)
    mot_io.write_cloud(out("cloud.txt"), sim.cloud)
    mot_io.write_correspondences(out("correspondences.txt"), sim.cloud_pixels, sim.cloud)
    image_size = (sc.camera.image_width, sc.camera.image_height)
    save_homography(out("homography.txt"), sim.homography, cfg.max_spacing, image_size)
    write_scenario(out("scenario.json"), sc)
    if sc.camera_path is not None:
        mot_io.write_ego(out("ego.txt"), sim.ego)
    return sim


def _cmd_simulate(args) -> int:
    sim = _simulate(args, _config_from_args(args))
    print(f"frames: {sim.scenario.n_frames}")
    print(f"detections: {len(sim.detections)}")
    print(f"ground-truth rows: {len(sim.gt)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _config_from_args(args)
    cloud = mot_io.read_cloud(args.cloud)
    px, pts = mot_io.read_correspondences(args.correspondences)
    cal = calibrate_from_cloud(cloud, px, pts, seed=args.seed)
    save_homography(args.out, cal.homography, cfg.max_spacing, tuple(args.image))
    n = cal.plane.normal
    print(f"plane normal: {n[0]:.6f} {n[1]:.6f} {n[2]:.6f}")
    print(f"plane offset: {cal.plane.offset:.6f}")
    print(f"reprojection rmse (m): {cal.fit.rmse:.6g}")
    print(f"wrote {args.out}")
    return 0


def _load_tracker_inputs(args):
    h, max_spacing, image_size = load_homography(args.homography)
    lh = linearize(h, image_size, max_spacing)
    records = mot_io.read_detections(args.det)
    appearance = None
    if args.appearance:
        appearance = mot_io.read_appearance(args.appearance)
        if len(appearance) != len(records):
            raise ParseError(
                f"{args.appearance}: {len(appearance)} descriptor rows for "
                f"{len(records)} detections"
            )
    ego = mot_io.read_ego(args.ego) if args.ego else None
    return lh, records, appearance, ego


def _cmd_track(args) -> int:
    cfg = _config_from_args(args)
    lh, records, appearance, ego = _load_tracker_inputs(args)
    scene = SceneModel(lh, args.fps, ego)
    by_frame: dict[int, list] = {}
    for i, r in enumerate(records):
        det = Detection(
            frame=r.frame,
            box=r.box,
            appearance=appearance[i] if appearance else None,
            source_id=r.track_id if cfg.ingest_ids and r.track_id >= 0 else None,
        )
        by_frame.setdefault(r.frame, []).append(det)
    frames = range(min(by_frame), max(by_frame) + 1) if by_frame else ()
    if ego is not None and frames and (frames[0] < 0 or frames[-1] >= len(ego)):
        reach = frames[0] if frames[0] < 0 else frames[-1]
        raise ParseError(f"{args.ego}: {len(ego)} offsets, detections reach frame {reach}")
    outputs, events = Tracker(scene, cfg).run(by_frame, frames)
    os.makedirs(args.out, exist_ok=True)
    mot_io.write_detections(
        os.path.join(args.out, "track.txt"), mot_io.records_from_outputs(outputs)
    )
    mot_io.write_events(os.path.join(args.out, "events.jsonl"), events)
    n_ids = len({i for _, i, _ in outputs})
    print(f"tracked boxes: {len(outputs)}")
    print(f"identities: {n_ids}")
    print(f"wrote {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    gt = mot_io.read_gt(args.gt)
    hyp = [(r.frame, r.track_id, r.box) for r in mot_io.read_detections(args.hyp)]
    report = evaluate_tracking(gt, hyp, args.fps, cfg)
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
    h, max_spacing, image_size = load_homography(args.homography)
    lh = linearize(h, image_size, max_spacing)
    records = mot_io.read_detections(args.det)
    if any(r.track_id < 0 for r in records):
        raise ParseError(f"{args.det}: forecasting needs identities (id column >= 0)")
    by_id: dict[int, list] = {}
    for r in records:
        by_id.setdefault(r.track_id, []).append(r)
    forecasts = {}
    for tid in sorted(by_id):
        rows = sorted(by_id[tid], key=lambda r: r.frame)
        if len({r.frame for r in rows}) < len(rows):
            raise ParseError(f"{args.det}: id {tid} has two rows in one frame")
        points = lh.px_to_bev(np.array([r.box.bottom_center for r in rows]))
        state = preprocess([(r.frame, p) for r, p in zip(rows, points)], cfg, args.fps)
        try:
            forecasts[tid] = run_forecast(state, cfg, args.fps, args.horizon)
        except ValueError as e:
            raise ParseError(f"--horizon: {e}") from e
    rows = [
        {
            "id": tid,
            "created_frame": fc.created_frame,
            "end_frame": fc.end_frame,
            "fps": fc.fps,
            "origin": fc.origin.tolist(),
            "velocities": fc.velocities.tolist(),
        }
        for tid, fc in forecasts.items()
    ]
    mot_io.write_events(args.out, rows)
    print(f"forecasted identities: {len(by_id)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _config_from_args(args)
    sim = _simulate(args, cfg)
    lh = None
    if args.estimate_homography:
        lh = calibrated_lh(sim, cfg)
        cam = sim.scenario.camera
        save_homography(
            os.path.join(args.out, "homography_estimated.txt"),
            lh.h,
            cfg.max_spacing,
            (cam.image_width, cam.image_height),
        )
    outputs, events, _ = run_tracker(sim, cfg, lh=lh)
    mot_io.write_detections(
        os.path.join(args.out, "track.txt"), mot_io.records_from_outputs(outputs)
    )
    mot_io.write_events(os.path.join(args.out, "events.jsonl"), events)
    report = evaluate_sim(sim, outputs, cfg)
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
    except BevTrackError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
