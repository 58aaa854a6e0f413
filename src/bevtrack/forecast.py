"""Track preprocessing and constant-velocity BEV forecasting.

A raw track history (irregular frames, pixel noise) is resampled onto a
uniform step grid ending at the last observation and run through a forward
constant-velocity Kalman filter, whose gains do not depend on the data and are
computed once per config. The filter's last state, one position and one
velocity at the last observed frame, is all a forecast reads: the RunConfig's
motion model turns it into k constant-velocity branches, each an origin plus a
velocity, valid up to the horizon's end frame. The tracker never re-seeds a
forecast mid-occlusion; every branch lives until the frame passes the
forecast's end, when its track leaves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig


@functools.lru_cache(maxsize=8)
def _filter_gains(steps: int, dt: float, process_noise: float, obs_noise: float):
    """(f, h, gains): transition and observation matrices and the gain at each of
    `steps` grid points. No gain reads the data, and a shorter pass's are a prefix."""
    f = np.eye(4)
    f[0, 2] = dt
    f[1, 3] = dt
    h = np.zeros((2, 4))
    h[0, 0] = 1.0
    h[1, 1] = 1.0
    q1 = process_noise**2 * np.array(
        [[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]
    )
    q = np.zeros((4, 4))
    q[np.ix_([0, 2], [0, 2])] = q1
    q[np.ix_([1, 3], [1, 3])] = q1
    r = obs_noise**2 * np.eye(2)

    p = np.diag([obs_noise**2, obs_noise**2, (2.0 * obs_noise / dt) ** 2, (2.0 * obs_noise / dt) ** 2])
    gains = []
    for k in range(steps):
        if k > 0:
            p = f @ p @ f.T + q
        s = h @ p @ h.T + r
        gain = p @ h.T @ np.linalg.inv(s)
        p = (np.eye(4) - gain @ h) @ p
        gains.append(gain)
    for a in (f, h, *gains):
        a.flags.writeable = False  # the cache hands these same arrays to every caller
    return f, h, tuple(gains)


def _filter_last_state(z: np.ndarray, config: RunConfig):
    """Forward constant-velocity Kalman pass over (N, 2) grid positions, N <= obs_len.

    The state is [x, y, vx, vy], white-acceleration process noise
    (process_noise, m/s^2) and observation noise obs_noise (meters). On
    noiseless constant-velocity input every innovation is zero, so the last
    state is the last point and the true velocity. Returns the last
    posterior (position, velocity); a single point has zero velocity.
    """
    n = z.shape[0]
    if n == 1:
        return z[0].copy(), np.zeros(2)

    dt = config.dt
    f, h, gains = _filter_gains(config.obs_len, dt, config.process_noise, config.obs_noise)
    x = np.zeros(4)
    x[:2] = z[0]
    x[2:] = (z[1] - z[0]) / dt
    for k in range(n):
        if k > 0:
            x = f @ x
        x = x + gains[k] @ (z[k] - h @ x)
    return x[:2], x[2:]


def preprocess(frames, points, config: RunConfig, fps: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The filter's last state for a track history: (N,) strictly increasing
    frames and their (N, 2) BEV points, at fps frames per second. config supplies
    obs_len (grid steps), dt (grid step, seconds), process_noise and obs_noise.

    Returns:
        (position, velocity, last_frame): the filter's BEV position (2,) and
        velocity (2,) in m/s at the last observed frame. The filter runs over
        the obs_len grid points spaced dt apart that end at the last
        observation, minus those before the first observation.
    """
    frames, pos = np.asarray(frames, dtype=float), np.asarray(points, dtype=float).reshape(-1, 2)
    if len(frames) == 0:
        raise ValueError("history must be non-empty")
    if (frames[1:] <= frames[:-1]).any():
        raise ValueError("history frames must be strictly increasing")

    last = frames[-1]
    grid = last - config.dt * fps * np.arange(config.obs_len)[::-1]  # ascending, ends at last
    grid = grid[grid >= frames[0] - 1e-9]  # never empty: it ends at the last observation
    z = np.empty((len(grid), 2))
    z[:, 0], z[:, 1] = np.interp(grid, frames, pos[:, 0]), np.interp(grid, frames, pos[:, 1])
    position, velocity = _filter_last_state(z, config)
    return position, velocity, int(round(last))


@dataclass
class Forecast:
    """k constant-velocity branches leaving one origin at created_frame.

    Branch b sits at origin + ((f - created_frame) / fps) * velocities[b] at
    every frame created_frame < f <= end_frame. A forecast is pure data: the
    tracker copies it into its track's row of the track table.
    """

    origin: np.ndarray  # (2,) BEV point at created_frame
    velocities: np.ndarray  # (k, 2) m/s
    created_frame: int
    end_frame: int  # last frame the branches cover
    fps: float

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.origin.shape != (2,) or self.velocities.shape[1:] != (2,):
            raise ValueError("origin must be (2,) and velocities (k, 2)")
        if len(self.velocities) == 0:
            raise ValueError("a forecast needs at least one branch")
        if self.end_frame <= self.created_frame:
            raise ValueError("end_frame must be after created_frame")
        if self.fps <= 0:
            raise ValueError("fps must be positive")

    def points(self, frame: int) -> np.ndarray:
        """(k, 2) BEV points of every branch at the given frame."""
        return self.origin + ((frame - self.created_frame) / self.fps) * self.velocities


def forecast(state, config: RunConfig, fps: float, horizon_s: float = None) -> Forecast:
    """Branches from preprocess's (position, velocity, last_frame) state.

    config.motion picks them: "static" is one branch at rest, "kalman_cv" one
    at the filter's velocity, and "fan" one per config.fan_angles (degrees,
    rotating that velocity), a deterministic stand-in for learned multi-modal
    forecasters. They cover frames last_frame+1 .. last_frame + steps *
    max(1, round(dt * fps)), where steps = max(1, ceil(horizon_s / dt)) and
    horizon_s defaults to config.tau_max.
    """
    position, velocity, last_frame = state
    horizon = config.tau_max if horizon_s is None else horizon_s
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon:g} s")
    if horizon / config.dt == math.inf:
        raise ValueError(f"horizon {horizon:g} s overflows the step count at dt {config.dt:g} s")
    steps = max(1, math.ceil(horizon / config.dt))
    if config.motion == "static":
        vels = np.zeros((1, 2))
    elif config.motion == "kalman_cv":
        vels = velocity[None, :]
    else:  # fan
        vels = []
        for ang in config.fan_angles:
            a = math.radians(ang)
            rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            vels.append(rot @ velocity)
    return Forecast(
        origin=position,
        velocities=np.array(vels),
        created_frame=last_frame,
        end_frame=last_frame + steps * max(1, round(config.dt * fps)),
        fps=fps,
    )


def predicted_box(last_box, point: np.ndarray, lh):
    """Translate the last observed box so its bottom-center sits at the
    pixel image of the given camera-relative BEV point."""
    px = lh.bev_to_px(np.asarray(point, dtype=float))
    return last_box.with_bottom_center(px[0], px[1])
