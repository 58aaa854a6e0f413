"""Reproducible end-to-end experiments: scene suites, runners, calibration glue.

The builders construct families of synthetic scenes that stress long-horizon
re-association: walkers cross wall shadows on depth-changing diagonals (so
image-space extrapolation degrades with gap length while ground-plane
extrapolation does not), and junction scenes where the walker turns inside
the shadow (so a single-hypothesis forecast misses but a fan over turn
angles covers it). Runners wire the simulator output through calibration,
tracking, and evaluation; the command-line pipeline and the demo scripts
share these helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import RunConfig
from .errors import DegenerateInput
from .evaluation import EvalReport, RecallBucket, evaluate_tracking
from .homography import Homography, HomographyFit, estimate_homography
from .mot_io import box_records
from .plane import GroundPlane, align_to_xy, fit_ground_plane
from .simulator import (
    AgentSpec,
    CameraSpec,
    Occluder,
    Scenario,
    SimOutput,
    build_scene_model,
    read_scenario,
)
from .tracker import SceneModel, Tracker


def default_camera() -> CameraSpec:
    return CameraSpec(height=6.0, tilt_deg=30.0, focal=1000.0, image_width=1920, image_height=1080)


# -- scene construction ----------------------------------------------------------------

_WALL_Y = 8.0
_WALL_THICKNESS = 0.3
_WALL_HEIGHT = 3.3


def _shadow_wall(entry_xy, exit_xy, wall_y: float = _WALL_Y) -> Occluder:
    """Wall whose shadow edge rays pass through the given BEV entry/exit points."""
    x0 = entry_xy[0] * wall_y / entry_xy[1]
    x1 = exit_xy[0] * wall_y / exit_xy[1]
    lo, hi = min(x0, x1), max(x0, x1)
    return Occluder(
        x_min=lo, x_max=hi, y_min=wall_y, y_max=wall_y + _WALL_THICKNESS, height=_WALL_HEIGHT
    )


def _diagonal_crossing(
    agent_id: int,
    speed: float,
    occlusion_s: float,
    t_enter: float,
    y_enter: float,
    heading_sign: float,
    center_x: float,
    appearance_seed: int,
):
    """A straight diagonal walk plus the wall that hides it for occlusion_s.

    The walker moves with |dx/dt| = speed*cos(phi) towards heading_sign and
    drifts away from the camera; the drift angle shrinks for long occlusions
    so the hidden stretch stays inside the wall's full-height shadow.
    """
    sin_phi = min(0.5, 2.6 / (speed * max(occlusion_s, 1.0)))
    cos_phi = math.sqrt(1.0 - sin_phi * sin_phi)
    d = np.array([heading_sign * cos_phi, sin_phi])
    enter = np.array([center_x - heading_sign * speed * cos_phi * occlusion_s / 2.0, y_enter])
    start = enter - d * speed * t_enter
    end = enter + d * speed * 60.0  # well past any scene duration
    agent = AgentSpec(
        id=agent_id,
        waypoints=(tuple(start), tuple(end)),
        speed=speed,
        appearance_seed=appearance_seed,
    )
    exit_ = enter + d * speed * occlusion_s
    return agent, _shadow_wall(enter, exit_)


def _suite_scene(agents: tuple, occluders: tuple, seed: int) -> Scenario:
    """An acceptance-suite scene: 16 s at 20 fps seen by the default camera, with the
    suites' noises and a 1,200-point cloud."""
    return Scenario(default_camera(), 40.0, agents, occluders, fps=20.0, duration=16.0,
                    detection_noise=0.5, appearance_noise=0.05, seed=seed, cloud_points=1200)


def linear_suite(n_scenes: int = 20) -> list:
    """Scenes of two diagonal walkers, each crossing its own wall shadow.

    Occlusion lengths sweep roughly 0.5 to 5.5 seconds across the suite in
    both directions, populating every duration bucket.
    """
    scenes = []
    for i in range(n_scenes):
        t1 = 0.6 + 0.25 * i
        t2 = 0.6 + 0.25 * (n_scenes - 1 - i)
        s1 = 0.8 + 0.04 * i
        s2 = 1.6 - 0.04 * i
        a1, w1 = _diagonal_crossing(
            agent_id=1,
            speed=s1,
            occlusion_s=t1,
            t_enter=4.0,
            y_enter=9.5,
            heading_sign=1.0,
            center_x=-4.0,
            appearance_seed=1000 + 2 * i,
        )
        a2, w2 = _diagonal_crossing(
            agent_id=2,
            speed=s2,
            occlusion_s=t2,
            t_enter=9.0,
            y_enter=9.8,
            heading_sign=-1.0,
            center_x=4.0,
            appearance_seed=1001 + 2 * i,
        )
        scenes.append(_suite_scene((a1, a2), (w1, w2), seed=300 + i))
    return scenes


def junction_suite() -> list:
    """Walkers that turn +-30 degrees while hidden behind a wall."""
    scenes = []
    specs = [(30.0, 2.6 + 0.4 * j) for j in range(6)]
    specs += [(-30.0, 2.6 + 0.35 * j) for j in range(6)]
    for idx, (turn_deg, occ_s) in enumerate(specs):
        speed = 1.2
        y0 = 10.0 if turn_deg > 0 else 11.0
        t_enter, t_turn = 4.0, 4.5
        x_enter = -1.0
        enter = np.array([x_enter, y0])
        turn_pt = enter + np.array([speed * (t_turn - t_enter), 0.0])
        rad = math.radians(turn_deg)
        post_dir = np.array([math.cos(rad), math.sin(rad)])
        exit_ = turn_pt + post_dir * speed * (occ_s - (t_turn - t_enter))
        start = enter - np.array([speed * t_enter, 0.0])
        end = turn_pt + post_dir * speed * 60.0
        agent = AgentSpec(
            id=1,
            waypoints=(tuple(start), tuple(turn_pt), tuple(end)),
            speed=speed,
            appearance_seed=2000 + idx,
        )
        scenes.append(_suite_scene((agent,), (_shadow_wall(enter, exit_),), seed=700 + idx))
    return scenes


def crossing_scenario() -> Scenario:
    """Two walkers crossing behind one central wall; the bundled demo scene."""
    return read_scenario("crossing")


# -- calibration glue -------------------------------------------------------------------


@dataclass
class CalibrationResult:
    plane: GroundPlane
    fit: HomographyFit

    @property
    def homography(self) -> Homography:
        return self.fit.homography


def calibrate_from_cloud(
    cloud: np.ndarray,
    corr_pixels: np.ndarray,
    corr_points: np.ndarray,
    seed: int = 0,
) -> CalibrationResult:
    """Plane fit on the cloud, then a pixel->in-plane homography from pairs.

    The recovered BEV frame matches any other frame on the same plane up to
    an in-plane rigid motion; distances and velocities are preserved.
    """
    plane = fit_ground_plane(cloud, seed=seed)
    rotation, _ = align_to_xy(plane, cloud[:1])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        aligned = np.asarray(corr_points, dtype=float) @ rotation.T
    if not np.isfinite(aligned[:, :2]).all():
        raise DegenerateInput("correspondence points spread beyond the float range")
    fit = estimate_homography(np.asarray(corr_pixels, dtype=float), aligned[:, :2])
    return CalibrationResult(plane=plane, fit=fit)


def rigid_align_2d(src: np.ndarray, dst: np.ndarray):
    """Least-squares rotation+translation taking src points onto dst points.

    Returns (rotation (2,2), translation (2,), transformed src).
    """
    a = np.asarray(src, dtype=float)
    b = np.asarray(dst, dtype=float)
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    h = (a - ca).T @ (b - cb)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, d]) @ u.T
    trans = cb - rot @ ca
    return rot, trans, a @ rot.T + trans


# -- runners ------------------------------------------------------------------------------


def sim_detections_by_frame(sim: SimOutput) -> dict:
    """{frame: DetectionTable} of the simulator's detection table: read-only slices cut
    where the frame column changes, sharing the table's PixelBoxes (``by_frame``)."""
    return sim.table.by_frame()


def run_tracker(sim: SimOutput, config: RunConfig, scene: Optional[SceneModel] = None):
    """Track the simulated detections; returns (outputs, events, tracker).

    The scene defaults to the scenario's over the exact simulator homography;
    pass one for another map (an estimated one:
    ``build_scene_model(sim.scenario, calibrated_homography(sim))``).
    """
    if scene is None:
        scene = build_scene_model(sim.scenario, sim.homography)
    tracker = Tracker(scene, config)
    by_frame = sim_detections_by_frame(sim)
    outputs, events = tracker.run(by_frame, range(sim.scenario.n_frames))
    return outputs, events, tracker


def pixel_baseline_scene(scenario: Scenario) -> SceneModel:
    """Scene model for extrapolation directly in image coordinates.

    The identity mapping makes "BEV" equal to pixels.
    """
    return SceneModel(Homography(np.eye(3)), scenario.fps)


def pixel_baseline_config(config: RunConfig) -> RunConfig:
    """Rescale the metric distance gate to pixels (about 30 px per meter)."""
    return config.override(tau_l2=75.0)


def evaluate_sim(sim: SimOutput, outputs: list, config: RunConfig) -> EvalReport:
    """Score the tracker's (frame, id, box) outputs against the simulated ground truth."""
    return evaluate_tracking(sim.gt, box_records(outputs), sim.scenario.fps, config)


def aggregate_buckets(reports: list) -> list:
    """Element-wise sum of the duration buckets across reports."""
    if not reports:
        return []
    base = reports[0].buckets
    totals = [0] * len(base)
    recovered = [0] * len(base)
    for rep in reports:
        if len(rep.buckets) != len(base):
            raise ValueError("reports use different bucket layouts")
        for k, b in enumerate(rep.buckets):
            totals[k] += b.total
            recovered[k] += b.recovered
    return [
        RecallBucket(lo=b.lo, hi=b.hi, total=t, recovered=r)
        for b, t, r in zip(base, totals, recovered)
    ]


def recall_over(buckets: list, min_duration_s: float = 0.0):
    """(recovered, total) summed over buckets starting at or above a duration."""
    total = sum(b.total for b in buckets if b.lo >= min_duration_s)
    recovered = sum(b.recovered for b in buckets if b.lo >= min_duration_s)
    return recovered, total


def calibrated_homography(sim: SimOutput, pixel_noise: float = 0.0, seed: int = 0) -> Homography:
    """Estimate the mapping from the simulated cloud, with optional pixel noise."""
    rng = np.random.default_rng(seed)
    px = sim.cloud_pixels.copy()
    if pixel_noise > 0:
        px = px + rng.normal(0.0, pixel_noise, size=px.shape)
    return calibrate_from_cloud(sim.cloud, px, sim.cloud).homography
