"""Track preprocessing and constant-velocity BEV forecasting.

A raw track history (irregular frames, pixel noise) is resampled onto a
uniform step grid ending at the last observation and run through a forward
constant-velocity Kalman filter, whose gains do not depend on the data and are
computed once per config. Each grid point blends at most two observations, as
np.interp does; filter_grid names them, so a caller holding a long history
passes preprocess those alone. Both steps run in Python floats, rounding as
numpy's would. The filter's last state, one position and one velocity at the
last observed frame, is all a forecast reads: the RunConfig's motion model
turns a list of states into the track table's forecast columns, per state an
origin, k branch velocities and the end frame the branches cover.
forecast_span holds the horizon's arithmetic and its limits. The tracker never
re-seeds a forecast mid-occlusion; every branch lives until the frame passes
the forecast's end, when its track leaves.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .config import RunConfig


@functools.lru_cache(maxsize=8)
def _filter_gains(steps: int, dt: float, process_noise: float, obs_noise: float):
    """(f, h, gains, rows): transition and observation matrices, the gain at each of
    `steps` grid points, and the same matrices' rows as tuples of floats, f's and
    h's then each gain's. No gain reads the data, and a shorter pass's are a prefix."""
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
    rows = tuple(tuple(map(tuple, a.tolist())) for a in (f, h, *gains))
    return f, h, tuple(gains), rows


def _filter_last_state(z, config: RunConfig):
    """Forward constant-velocity Kalman pass over (N, 2) grid positions, N <= obs_len.

    The state is [x, y, vx, vy], white-acceleration process noise
    (process_noise, m/s^2) and observation noise obs_noise (meters). On
    noiseless constant-velocity input every innovation is zero, so the last
    state is the last point and the true velocity. Returns the last
    posterior (position, velocity); a single point has zero velocity.

    Each matrix product sums a row's products, zero and unit entries included, in
    column order: with at most two nonzero terms a row, any unfused order rounds alike.
    """
    x0, x1 = z[0]
    if len(z) == 1:
        return [x0, x1], [0.0, 0.0]

    dt = config.dt
    f, h, *gains = _filter_gains(config.obs_len, dt, config.process_noise, config.obs_noise)[3]
    (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3) = f
    (ha0, hb0, hc0, hd0), (ha1, hb1, hc1, hd1) = h
    x2, x3 = (z[1][0] - x0) / dt, (z[1][1] - x1) / dt
    for k, (zx, zy) in enumerate(z):
        if k > 0:
            x0, x1, x2, x3 = (a0 * x0 + b0 * x1 + c0 * x2 + d0 * x3,
                              a1 * x0 + b1 * x1 + c1 * x2 + d1 * x3,
                              a2 * x0 + b2 * x1 + c2 * x2 + d2 * x3,
                              a3 * x0 + b3 * x1 + c3 * x2 + d3 * x3)
        ix = zx - (ha0 * x0 + hb0 * x1 + hc0 * x2 + hd0 * x3)
        iy = zy - (ha1 * x0 + hb1 * x1 + hc1 * x2 + hd1 * x3)
        (ga0, gb0), (ga1, gb1), (ga2, gb2), (ga3, gb3) = gains[k]
        x0, x1, x2, x3 = (x0 + (ga0 * ix + gb0 * iy), x1 + (ga1 * ix + gb1 * iy),
                          x2 + (ga2 * ix + gb2 * iy), x3 + (ga3 * ix + gb3 * iy))
    return [x0, x1], [x2, x3]


def filter_grid(frames: list, config: RunConfig, fps: float) -> list:
    """The filter's grid over an ascending list of frames, as [(x, pair)]: each point x
    = frames[-1] - (dt * fps) * k, k = obs_len - 1 down to 0, at or after frames[0] -
    1e-9, with the indices of the frames np.interp reads there. With j =
    bisect_right(frames, x) - 1, pair is (j, j + 1), or (max(j, 0),) where x is
    before frames[0], on frames[j] or at or after the last frame.
    """
    last, step, first = frames[-1], config.dt * fps, frames[0] - 1e-9
    grid = []
    for k in range(config.obs_len - 1, -1, -1):
        x = last - step * k
        if x >= first:
            j = bisect.bisect_right(frames, x) - 1
            alone = j < 0 or x == frames[j] or j == len(frames) - 1
            grid.append((x, (max(j, 0),) if alone else (j, j + 1)))
    return grid


def _blend(x: float, xs: list, ys: list, pair: tuple) -> float:
    """np.interp's value at x from the points pair indexes, its NaN fallbacks included."""
    if len(pair) == 1:
        return ys[pair[0]]
    j, i = pair
    slope = (ys[i] - ys[j]) / (xs[i] - xs[j])
    y = slope * (x - xs[j]) + ys[j]
    if y != y:  # NaN one way: try the other
        y = slope * (x - xs[i]) + ys[i]
        if y != y and ys[j] == ys[i]:
            y = ys[j]
    return y


def preprocess(frames, points, config: RunConfig, fps: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The filter's last state for a track history: (N,) strictly increasing finite
    frames and their (N, 2) BEV points, at fps frames per second. config supplies
    obs_len (grid steps), dt (grid step, seconds), process_noise and obs_noise.
    ValueError, naming the row, for an empty history, one not of one frame per point,
    or frames not finite and strictly increasing; a non-finite point: a NaN state.

    Returns:
        (position, velocity, last_frame): the filter's BEV position (2,) and
        velocity (2,) in m/s at the last observed frame. The filter runs over
        the obs_len grid points spaced dt apart that end at the last
        observation, minus those before the first observation (filter_grid),
        each interpolated as np.interp does from at most two observations.
    """
    frames, pos = np.asarray(frames, dtype=float), np.asarray(points, dtype=float)
    if not frames.size:
        raise ValueError("history must be non-empty")
    if frames.ndim != 1 or pos.shape != (len(frames), 2):
        raise ValueError(f"history needs (N,) frames and (N, 2) points, got {frames.shape} "
                         f"and {pos.shape}")
    frames, (xs, ys) = frames.tolist(), pos.T.tolist()
    for i, f in enumerate(frames):
        if not (math.isfinite(f) and (i == 0 or f > frames[i - 1])):
            raise ValueError(f"row {i}: history frames must be finite and strictly increasing")
    z = [(_blend(x, frames, xs, pair), _blend(x, frames, ys, pair))
         for x, pair in filter_grid(frames, config, fps)]
    position, velocity = _filter_last_state(z, config)
    return np.array(position), np.array(velocity), int(round(frames[-1]))


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


def predicted_box(last_box, point: np.ndarray, homography):
    """Translate the last observed box so its bottom-center sits at the
    pixel image of the given camera-relative BEV point."""
    px = homography.bev_to_px(np.asarray(point, dtype=float))
    return last_box.with_bottom_center(px[0], px[1])
