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
import math
import os
import sys
from importlib import resources

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
from .homography import load_homography, save_homography
from .linearized import linearize
from .simulator import build_scene_model, generate, read_scenario, write_scenario
from .tracker import Detection, SceneModel, Tracker


def _positive(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bevtrack",
        description="Monocular ground-plane tracking with occlusion-bridging forecasts.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON run configuration")
        sp.add_argument("--seed", type=int, help="override the configured seed")

    sp = sub.add_parser("simulate", help="render a synthetic scenario")
    add_common(sp)
    sp.add_argument("--scenario", required=True, help="scenario JSON path or bundled name")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("calibrate", help="estimate the ground homography from a cloud")
    add_common(sp)
    sp.add_argument("--cloud", required=True, help="x y z point cloud file")
    sp.add_argument("--correspondences", required=True, help="u v x y z pairs file")
    sp.add_argument("--out", required=True, help="homography output file")
    sp.add_argument("--max-spacing", type=float, default=0.2)
    sp.add_argument("--image", type=int, nargs=2, metavar=("W", "H"), default=(1920, 1080))

    sp = sub.add_parser("track", help="run the tracker over a detection file")
    add_common(sp)
    sp.add_argument("--det", required=True, help="MOT detection file")
    sp.add_argument("--homography", required=True, help="homography file")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--scenario", help="scenario JSON for the freespace mask")
    sp.add_argument("--appearance", help="descriptor sidecar, one row per detection")
    sp.add_argument("--ego", help="cumulative camera offsets, one dx dy row per frame")
    sp.add_argument("--motion", choices=("static", "kalman_cv", "fan"))
    sp.add_argument("--k", type=int, help="number of forecast branches")
    sp.add_argument("--no-forecast", action="store_true", help="drop occluded tracks")
    sp.add_argument("--ingest", action="store_true", help="respect upstream ids in the file")
    sp.add_argument(
        "--fps", type=_positive, default=20.0, help="frame rate; a --scenario's own fps wins"
    )

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
        type=float,
        help="visibility below which a frame counts as occluded "
        "(align with the detector's emission cutoff for endpoint recall)",
    )

    sp = sub.add_parser("forecast", help="emit forecast branches per identity")
    add_common(sp)
    sp.add_argument("--det", required=True, help="MOT file with identities")
    sp.add_argument("--homography", required=True)
    sp.add_argument("--out", required=True, help="JSONL output path")
    sp.add_argument("--motion", choices=("static", "kalman_cv", "fan"))
    sp.add_argument("--k", type=int)
    sp.add_argument("--fps", type=_positive, default=20.0)
    sp.add_argument("--horizon", type=float, help="seconds ahead; defaults to tau_max")

    sp = sub.add_parser("pipeline", help="simulate, track, evaluate")
    add_common(sp)
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
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
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
    return cfg.override(**over) if over else cfg


def _parse_buckets(text: str) -> tuple:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as e:
        raise ParseError(f"invalid bucket list {text!r}: {e}") from e


def _resolve_scenario(name: str) -> str:
    if os.path.exists(name):
        return name
    base = name if name.endswith(".json") else name + ".json"
    ref = resources.files("bevtrack").joinpath("data", base)
    if ref.is_file():
        return str(ref)
    raise ParseError(f"scenario {name!r}: no such file or bundled scenario")


def _write_sim(outdir: str, sim, cfg: RunConfig) -> None:
    os.makedirs(outdir, exist_ok=True)
    sc = sim.scenario
    mot_io.write_detections(
        os.path.join(outdir, "det.txt"),
        [mot_io.MotRecord(frame=d.frame, track_id=-1, box=d.box) for d in sim.detections],
    )
    mot_io.write_appearance(
        os.path.join(outdir, "appearance.txt"), [d.appearance for d in sim.detections]
    )
    mot_io.write_gt(os.path.join(outdir, "gt.txt"), mot_io.gt_from_sim(sim))
    mot_io.write_cloud(os.path.join(outdir, "cloud.txt"), sim.cloud)
    mot_io.write_correspondences(
        os.path.join(outdir, "correspondences.txt"), sim.cloud_pixels, sim.cloud
    )
    save_homography(
        os.path.join(outdir, "homography.txt"),
        sim.homography,
        cfg.max_spacing,
        (sc.camera.image_width, sc.camera.image_height),
    )
    write_scenario(os.path.join(outdir, "scenario.json"), sc)
    if sc.camera_path is not None:
        mot_io.write_ego(os.path.join(outdir, "ego.txt"), sim.ego)


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    sc = read_scenario(_resolve_scenario(args.scenario))
    if args.seed is not None:
        from dataclasses import replace

        sc = replace(sc, seed=args.seed)
    sim = generate(sc)
    _write_sim(args.out, sim, cfg)
    print(f"frames: {sc.n_frames}")
    print(f"detections: {len(sim.detections)}")
    print(f"ground-truth rows: {len(sim.gt)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    cloud = mot_io.read_cloud(args.cloud)
    px, pts = mot_io.read_correspondences(args.correspondences)
    cal = calibrate_from_cloud(cloud, px, pts, seed=args.seed or 0)
    save_homography(args.out, cal.homography, args.max_spacing, tuple(args.image))
    n = cal.plane.normal
    print(f"plane normal: {n[0]:.6f} {n[1]:.6f} {n[2]:.6f}")
    print(f"plane offset: {cal.plane.offset:.6f}")
    print(f"reprojection rmse (m): {cal.fit.rmse:.6g}")
    print(f"wrote {args.out}")
    return 0


def _free_scene(lh, cfg: RunConfig, fps: float, ego=None) -> SceneModel:
    extent = 60.0
    n = int(math.ceil(extent / cfg.cell_size))
    return SceneModel(
        mask=np.ones((n, n), dtype=bool),
        cell_size=cfg.cell_size,
        origin=np.array([-extent / 2.0, 0.0]),
        lh=lh,
        fps=fps,
        ego=ego,
    )


def _load_tracker_inputs(args, cfg: RunConfig):
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
        for row, vec in enumerate(appearance, start=1):
            if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-6:
                raise ParseError(f"{args.appearance}:{row}: descriptor is not unit length")
    ego = mot_io.read_ego(args.ego) if args.ego else None
    return lh, records, appearance, ego


def _cmd_track(args) -> int:
    cfg = _config_from_args(args)
    lh, records, appearance, ego = _load_tracker_inputs(args, cfg)
    if args.scenario:
        sc = read_scenario(_resolve_scenario(args.scenario))
        scene = build_scene_model(sc, lh, cfg.cell_size)
        scene.ego = ego
    else:
        scene = _free_scene(lh, cfg, args.fps, ego)
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
    hyp = mot_io.read_detections(args.hyp)
    report = evaluate_tracking(
        [(g.frame, g.track_id, g.box) for g in gt],
        [(r.frame, r.track_id, r.box) for r in hyp],
        [(g.frame, g.track_id, g.visibility) for g in gt],
        fps=args.fps,
        iou_threshold=cfg.iou_threshold,
        vis_threshold=args.vis_threshold if args.vis_threshold is not None else cfg.vis_threshold,
        window=cfg.window,
        buckets=cfg.buckets,
    )
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
    import json

    cfg = _config_from_args(args)
    h, max_spacing, image_size = load_homography(args.homography)
    lh = linearize(h, image_size, max_spacing)
    records = mot_io.read_detections(args.det)
    if any(r.track_id < 0 for r in records):
        raise ParseError(f"{args.det}: forecasting needs identities (id column >= 0)")
    horizon = args.horizon if args.horizon is not None else cfg.tau_max
    steps = max(1, int(math.ceil(horizon / cfg.dt)))
    by_id: dict[int, list] = {}
    for r in records:
        by_id.setdefault(r.track_id, []).append(r)
    model = cfg.motion_spec()
    with open(args.out, "w") as f:
        for tid in sorted(by_id):
            rows = sorted(by_id[tid], key=lambda r: r.frame)
            frames = [r.frame for r in rows]
            points = lh.px_to_bev(np.array([r.box.bottom_center for r in rows]))
            obs = preprocess(
                list(zip(frames, points)),
                obs_len=cfg.obs_len,
                dt=cfg.dt,
                fps=args.fps,
                process_noise=cfg.process_noise,
                obs_noise=cfg.obs_noise,
            )
            fc = run_forecast(model, obs, steps)
            frames = list(range(fc.created_frame + 1, fc.end_frame + 1))
            branch_pts = np.stack([fc.points(fr) for fr in frames], axis=1)  # (k, n, 2)
            f.write(
                json.dumps(
                    {
                        "id": tid,
                        "created_frame": fc.created_frame,
                        "branches": [
                            {"frames": frames, "points": [[float(a), float(b)] for a, b in pts]}
                            for pts in branch_pts
                        ],
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    print(f"forecasted identities: {len(by_id)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _config_from_args(args)
    sc = read_scenario(_resolve_scenario(args.scenario))
    if args.seed is not None:
        from dataclasses import replace

        sc = replace(sc, seed=args.seed)
    sim = generate(sc)
    _write_sim(args.out, sim, cfg)
    lh = None
    if args.estimate_homography:
        lh = calibrated_lh(sim, cfg, pixel_noise=0.0, seed=cfg.seed)
        save_homography(
            os.path.join(args.out, "homography_estimated.txt"),
            lh.h,
            cfg.max_spacing,
            (sc.camera.image_width, sc.camera.image_height),
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
