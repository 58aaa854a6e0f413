"""Track preprocessing and constant-velocity BEV forecasting.

A raw track history (irregular frames, pixel noise) is resampled onto a
uniform step grid ending at the last observation and run through a forward
constant-velocity Kalman filter, whose gains do not depend on the data and are
computed once per config. The filter's last state, one position and one
velocity at the last observed frame, is all a forecast reads: the RunConfig's
motion model turns a list of states into the track table's forecast columns,
per state an origin, k branch velocities and the end frame the branches
cover. forecast_span holds the horizon's arithmetic and its limits. The
tracker never re-seeds a forecast mid-occlusion; every branch lives until the
frame passes the forecast's end, when its track leaves.
"""

from __future__ import annotations

import functools
import math

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


def forecast_span(config: RunConfig, fps: float, horizon_s: float = None) -> int:
    """Frames a forecast covers after its last observed frame: max(1, ceil(horizon_s /
    dt)) grid steps of max(1, round(dt * fps)) frames, horizon_s defaulting to
    config.tau_max. ValueError for an fps or horizon that is not positive, a step
    count that overflows, or a span that could put an end frame beyond int64.
    """
    dt = config.dt
    horizon = config.tau_max if horizon_s is None else horizon_s
    if not fps > 0:
        raise ValueError(f"fps must be positive, got {fps:g}")
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon:g} s")
    if horizon / dt == math.inf:
        raise ValueError(f"horizon {horizon:g} s overflows the step count at dt {dt:g} s")
    step = max(1, round(dt * fps)) if dt * fps < math.inf else math.inf
    span = max(1, math.ceil(horizon / dt)) * step
    if span > 2**63 - 1 - 2**53:  # an end frame: a last frame, at most 2**53 in size, + span
        raise ValueError(f"dt {dt:g} s at {fps:g} fps puts a forecast's end frame "
                         "beyond 64-bit integers")
    return span


@functools.lru_cache(maxsize=8)
def _fan_rotations(angles: tuple) -> np.ndarray:
    """(K, 2, 2) rotations from math.cos and math.sin, by angles in degrees given as
    float.hex strings: as floats, -0.0 would share 0.0's entry, whose sines differ."""
    rot = np.array([[[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
                    for a in (math.radians(float.fromhex(x)) for x in angles)])
    rot.flags.writeable = False  # the cache hands this same array to every caller
    return rot


def forecast(states, config: RunConfig, fps: float, horizon_s: float = None):
    """The track table's forecast columns for L preprocess (position, velocity,
    last_frame) states: (origin (L, 2), velocity (L, K, 2) m/s, end (L,)).

    config.motion picks the K branches: "static" is one branch at rest,
    "kalman_cv" one at the filter's velocity, and "fan" one per config.fan_angles
    (degrees, rotating that velocity), a deterministic stand-in for learned
    multi-modal forecasters. Branch b of state i sits at origin[i] + ((f -
    last_frame) / fps) * velocity[i, b] at frames last_frame < f <= end[i] =
    last_frame + forecast_span(config, fps, horizon_s).
    """
    span = forecast_span(config, fps, horizon_s)
    origin = np.array([s[0] for s in states], dtype=float).reshape(-1, 2)
    end = np.array([s[2] + span for s in states], dtype=np.int64)
    if config.motion == "static":
        return origin, np.zeros((len(states), 1, 2)), end
    velocity = np.array([s[1] for s in states], dtype=float).reshape(-1, 1, 2)
    if config.motion == "kalman_cv":
        return origin, velocity, end
    rot = _fan_rotations(tuple(float(a).hex() for a in config.fan_angles))
    # (K, 2, 2) @ (L, 1, 2, 1): one 2x2 product per branch, rounding like a lone rot @ v
    return origin, (rot @ velocity[..., None])[..., 0], end


def predicted_box(last_box, point: np.ndarray, lh):
    """Translate the last observed box so its bottom-center sits at the
    pixel image of the given camera-relative BEV point."""
    px = lh.bev_to_px(np.asarray(point, dtype=float))
    return last_box.with_bottom_center(px[0], px[1])
