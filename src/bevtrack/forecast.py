"""Track preprocessing and pluggable BEV motion forecasting.

A raw track history (irregular frames, pixel noise) is resampled onto a
uniform step grid ending at the last observation and smoothed with a
constant-velocity Kalman filter plus RTS pass. Motion models then emit k
constant-velocity forecast branches, each an origin plus a velocity, valid up
to the horizon's end frame. The tracker never re-seeds a forecast
mid-occlusion; branches only disappear by being pruned, and the whole
forecast dies once the frame passes its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .smoothing import smooth_constant_velocity

MOTION_KINDS = ("static", "kalman_cv", "fan")


@dataclass(frozen=True)
class ObservedTrajectory:
    """Smoothed, uniformly resampled history ending at the last observation.

    points holds obs_len BEV positions spaced dt seconds apart; the first
    extrapolated_prefix of them were back-extrapolated (history too short)
    rather than observed. fps records the frame rate the grid was built
    against, so one step spans dt*fps frames.
    """

    points: np.ndarray  # (obs_len, 2)
    dt: float
    last_frame: int
    extrapolated_prefix: int
    fps: float
    velocities: np.ndarray  # (obs_len, 2) smoothed velocity estimates, m/s

    def __post_init__(self):
        if self.dt <= 0 or self.fps <= 0:
            raise ValueError("dt and fps must be positive")
        if len(self.points) == 0:
            raise ValueError("points must be non-empty")
        if not 0 <= self.extrapolated_prefix < len(self.points):
            raise ValueError("extrapolated_prefix must be < number of points")

    @property
    def frames_per_step(self) -> int:
        return max(1, round(self.dt * self.fps))


def preprocess(
    history,
    obs_len: int = 8,
    dt: float = 0.4,
    fps: float = 20.0,
    process_noise: float = 0.1,
    obs_noise: float = 0.25,
) -> ObservedTrajectory:
    """Resample and smooth a track history for forecasting.

    Args:
        history: sequence of (frame, (x, y)) with strictly increasing frames.
        obs_len: number of grid steps in the output.
        dt: grid step, seconds.
        fps: frames per second of the source video.
        process_noise, obs_noise: smoother parameters.

    Returns:
        ObservedTrajectory of exactly obs_len points ending at the last
        observation. Grid points earlier than the first observation are
        back-extrapolated along the earliest smoothed velocity and counted in
        extrapolated_prefix.
    """
    if len(history) == 0:
        raise ValueError("history must be non-empty")
    frames = np.array([f for f, _ in history], dtype=float)
    pos = np.array([list(p) for _, p in history], dtype=float)
    if np.any(np.diff(frames) <= 0):
        raise ValueError("history frames must be strictly increasing")

    last = frames[-1]
    step_frames = dt * fps
    grid = last - step_frames * np.arange(obs_len)[::-1]  # ascending, ends at last
    covered = grid >= frames[0] - 1e-9
    n_cov = int(covered.sum())  # >= 1: the last grid point is the last observation

    gx = np.interp(grid[covered], frames, pos[:, 0])
    gy = np.interp(grid[covered], frames, pos[:, 1])
    smoothed, vel = smooth_constant_velocity(
        np.stack([gx, gy], axis=1), dt, process_noise, obs_noise
    )

    prefix = obs_len - n_cov
    if prefix > 0:
        v0 = vel[0]
        steps = np.arange(prefix, 0, -1)[:, None]  # prefix, ..., 1
        pre_pts = smoothed[0] - steps * dt * v0
        smoothed = np.vstack([pre_pts, smoothed])
        vel = np.vstack([np.repeat(v0[None, :], prefix, axis=0), vel])

    return ObservedTrajectory(
        points=smoothed,
        dt=dt,
        last_frame=int(round(last)),
        extrapolated_prefix=prefix,
        fps=fps,
        velocities=vel,
    )


@dataclass(frozen=True)
class MotionModelSpec:
    """Which forecaster to run and with how many branches.

    kinds: "static" repeats the last point, "kalman_cv" propagates the
    smoothed constant-velocity state, "fan" spreads k constant-velocity
    branches across fan_angles (degrees, rotating the smoothed velocity).
    The fan is a deterministic stand-in for learned multi-modal forecasters.
    """

    kind: str = "kalman_cv"
    k: int = 1
    fan_angles: tuple[float, ...] = (-30.0, 0.0, 30.0)

    def __post_init__(self):
        if self.kind not in MOTION_KINDS:
            raise ValueError(f"unknown motion kind {self.kind!r}, expected one of {MOTION_KINDS}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.kind in ("static", "kalman_cv") and self.k != 1:
            raise ValueError(f"{self.kind} emits a single branch, got k={self.k}")
        if self.kind == "fan" and self.k != len(self.fan_angles):
            raise ValueError("fan requires k == len(fan_angles)")


@dataclass
class Forecast:
    """k constant-velocity branches leaving one origin at created_frame.

    Branch b sits at origin + ((f - created_frame) / fps) * velocities[b] at
    every frame created_frame < f <= end_frame. alive and visible_streak are
    the per-branch pruning state the tracker updates; they default to all
    alive with zero streaks.
    """

    origin: np.ndarray  # (2,) BEV point at created_frame
    velocities: np.ndarray  # (k, 2) m/s
    created_frame: int
    end_frame: int  # last frame the branches cover
    fps: float
    alive: np.ndarray = None  # (k,) bool
    visible_streak: np.ndarray = None  # (k,) consecutive frames in visible freespace

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.origin.shape != (2,) or self.velocities.shape[1:] != (2,):
            raise ValueError("origin must be (2,) and velocities (k, 2)")
        k = len(self.velocities)
        if k == 0:
            raise ValueError("a forecast needs at least one branch")
        if self.end_frame <= self.created_frame:
            raise ValueError("end_frame must be after created_frame")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.alive is None:
            self.alive = np.ones(k, dtype=bool)
        if self.visible_streak is None:
            self.visible_streak = np.zeros(k, dtype=int)

    def points(self, frame: int) -> np.ndarray:
        """(k, 2) BEV points of every branch, alive or not, at the given frame."""
        return self.origin + ((frame - self.created_frame) / self.fps) * self.velocities


def forecast(model: MotionModelSpec, obs: ObservedTrajectory, horizon_steps: int) -> Forecast:
    """Predict k branches covering every frame up to horizon_steps grid steps.

    Every model is constant velocity from the last smoothed point; the
    branches cover frames last_frame+1 .. last_frame + horizon_steps * (dt * fps).
    """
    if horizon_steps < 1:
        raise ValueError("horizon_steps must be >= 1")
    v = obs.velocities[-1]
    if model.kind == "static":
        vels = np.zeros((1, 2))
    elif model.kind == "kalman_cv":
        vels = v[None, :]
    else:  # fan
        vels = []
        for ang in model.fan_angles:
            a = math.radians(ang)
            rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            vels.append(rot @ v)
    return Forecast(
        origin=obs.points[-1],
        velocities=np.array(vels),
        created_frame=obs.last_frame,
        end_frame=obs.last_frame + horizon_steps * obs.frames_per_step,
        fps=obs.fps,
    )


def predicted_box(last_box, point: np.ndarray, lh, ego=None, frame: int = 0):
    """Translate the last observed box so its bottom-center sits at the
    pixel image of the given BEV point."""
    px = lh.bev_to_px(np.asarray(point, dtype=float), ego=ego, frame=frame)
    return last_box.with_bottom_center(px[0], px[1])
