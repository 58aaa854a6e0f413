import math
from types import SimpleNamespace

import numpy as np
import pytest

from bevtrack.boxes import PixelBox
from bevtrack.config import RunConfig
from bevtrack.forecast import (
    _blend,
    _filter_gains,
    _filter_last_state,
    filter_grid,
    forecast,
    forecast_span,
    predicted_box,
    preprocess,
)
from bevtrack.homography import Homography


def cv_history(n_frames, fps, vel, start=(0.0, 10.0), first_frame=0, every=1):
    """Constant-velocity observations every `every` frames: (frame, (x, y)) pairs."""
    out = []
    for i in range(n_frames):
        f = first_frame + i * every
        t = f / fps
        out.append((f, (start[0] + vel[0] * t, start[1] + vel[1] * t)))
    return out


def columns(history):
    """(frames, points) of a [(frame, (x, y))] history."""
    return [f for f, _ in history], [p for _, p in history]


def forecast_one(state, config, fps, horizon_s=None):
    """(origin (2,), velocity (K, 2), end) of one state's forecast."""
    origin, velocity, end = forecast([state], config, fps, horizon_s)
    return origin[0], velocity[0], int(end[0])


def branch_points(origin, velocity, last_frame, fps, frame):
    """(K, 2) points of every branch at frame, as the track table places them."""
    return origin + ((frame - last_frame) / fps) * velocity


def last_state(points, dt, process_noise=0.1, obs_noise=0.25):
    """The filter's last (position, velocity) for positions one dt grid step apart."""
    hist = [(8 * i, tuple(p)) for i, p in enumerate(points)]
    cfg = RunConfig(
        obs_len=len(points), dt=dt, process_noise=process_noise, obs_noise=obs_noise
    )
    position, velocity, _ = preprocess(*columns(hist), cfg, fps=8 / dt)  # one step is 8 frames
    return position, velocity


# -- the reference: whole-trajectory RTS smoothing, forecast from its last point ----


def reference_smooth(points, dt, process_noise=0.1, obs_noise=0.25):
    """Constant-velocity Kalman filter plus Rauch-Tung-Striebel backward pass."""
    z = np.asarray(points, dtype=float)
    n = z.shape[0]
    if n == 1:
        return z.copy(), np.zeros((1, 2))

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

    x = np.zeros(4)
    x[:2] = z[0]
    x[2:] = (z[1] - z[0]) / dt
    p = np.diag([obs_noise**2, obs_noise**2, (2.0 * obs_noise / dt) ** 2, (2.0 * obs_noise / dt) ** 2])

    xs_post = np.zeros((n, 4))
    ps_post = np.zeros((n, 4, 4))
    xs_prior = np.zeros((n, 4))
    ps_prior = np.zeros((n, 4, 4))
    for k in range(n):
        if k > 0:
            x = f @ x
            p = f @ p @ f.T + q
        xs_prior[k] = x
        ps_prior[k] = p
        innov = z[k] - h @ x
        s = h @ p @ h.T + r
        gain = p @ h.T @ np.linalg.inv(s)
        x = x + gain @ innov
        p = (np.eye(4) - gain @ h) @ p
        xs_post[k] = x
        ps_post[k] = p

    xs = xs_post.copy()
    for k in range(n - 2, -1, -1):
        c = ps_post[k] @ f.T @ np.linalg.inv(ps_prior[k + 1])
        xs[k] = xs_post[k] + c @ (xs[k + 1] - xs_prior[k + 1])
    return xs[:, :2], xs[:, 2:]


def reference_preprocess(history, obs_len, dt, fps, process_noise, obs_noise):
    """The smoothed obs_len-point grid ending at the last observation, with the
    grid points before the first observation back-extrapolated."""
    frames = np.array([f for f, _ in history], dtype=float)
    pos = np.array([list(p) for _, p in history], dtype=float)
    last = frames[-1]
    step_frames = dt * fps
    grid = last - step_frames * np.arange(obs_len)[::-1]
    covered = grid >= frames[0] - 1e-9
    n_cov = int(covered.sum())
    gx = np.interp(grid[covered], frames, pos[:, 0])
    gy = np.interp(grid[covered], frames, pos[:, 1])
    smoothed, vel = reference_smooth(np.stack([gx, gy], axis=1), dt, process_noise, obs_noise)
    prefix = obs_len - n_cov
    if prefix > 0:
        v0 = vel[0]
        steps = np.arange(prefix, 0, -1)[:, None]
        smoothed = np.vstack([smoothed[0] - steps * dt * v0, smoothed])
        vel = np.vstack([np.repeat(v0[None, :], prefix, axis=0), vel])
    return SimpleNamespace(
        points=smoothed,
        velocities=vel,
        last_frame=int(round(last)),
        extrapolated_prefix=prefix,
        fps=fps,
        frames_per_step=max(1, round(dt * fps)),
    )


def reference_forecast(kind, fan_angles, obs, horizon_steps):
    """(origin, (K, 2) velocities, end frame) from the smoothed grid's last state."""
    v = obs.velocities[-1]
    if kind == "static":
        vels = np.zeros((1, 2))
    elif kind == "kalman_cv":
        vels = v[None, :]
    else:
        vels = []
        for ang in fan_angles:
            a = math.radians(ang)
            rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            vels.append(rot @ v)
    end = obs.last_frame + horizon_steps * obs.frames_per_step
    return obs.points[-1], np.array(vels), end


class TestMatchesReference:
    def test_seeded_random_histories(self):
        # The forward pass alone gives the smoother's last state, and the old
        # step rounding max(1, ceil(horizon / dt)) grid steps of
        # max(1, round(dt * fps)) frames, bit for bit.
        rng = np.random.default_rng(2024)
        seen = {"single": 0, "cut": 0, "irregular": 0}
        for trial in range(60):
            fps = float(rng.choice([7.5, 10.0, 12.5, 20.0, 25.0, 29.97, 30.0]))
            motion = ("static", "kalman_cv", "fan")[trial % 3]
            cfg = RunConfig(
                motion=motion,
                fan_angles=tuple(rng.uniform(-90.0, 90.0, int(rng.integers(1, 5)))),
                obs_len=int(rng.integers(1, 12)),
                dt=float(rng.uniform(0.05, 1.0)),
                process_noise=float(rng.uniform(0.0, 1.0)),
                obs_noise=float(rng.uniform(0.01, 1.0)),
                tau_max=float(rng.uniform(1.0, 8.0)),
            )
            n = 1 if trial % 4 == 0 else int(rng.integers(2, 40))
            frames = int(rng.integers(0, 500)) + np.concatenate(
                [[0], np.cumsum(rng.integers(1, 7 if trial % 2 else 2, n - 1))]
            )
            vel = rng.uniform(-3.0, 3.0, 2)
            start = rng.uniform(-50.0, 50.0, 2)
            hist = [
                (int(f), tuple(start + vel * f / fps + rng.normal(0, 0.05, 2))) for f in frames
            ]
            horizon_s = None if trial % 5 == 0 else float(rng.uniform(0.01, 8.0))

            want_obs = reference_preprocess(
                hist, cfg.obs_len, cfg.dt, fps, cfg.process_noise, cfg.obs_noise
            )
            horizon = cfg.tau_max if horizon_s is None else horizon_s
            steps = max(1, math.ceil(horizon / cfg.dt))
            want = reference_forecast(motion, cfg.fan_angles, want_obs, steps)
            state = preprocess(*columns(hist), cfg, fps)
            got = forecast_one(state, cfg, fps, horizon_s)

            assert np.array_equal(got[0], want[0]), trial
            assert np.array_equal(got[1], want[1]), trial
            assert state[2] == want_obs.last_frame and got[2] == want[2], trial
            seen["single"] += n == 1
            seen["cut"] += n > 1 and want_obs.extrapolated_prefix > 0
            seen["irregular"] += bool(np.any(np.diff(frames) > 1))
        assert all(count >= 5 for count in seen.values()), seen


class TestPreprocess:
    def test_state_at_last_observation(self):
        hist = cv_history(80, fps=20.0, vel=(1.0, 0.5))
        position, velocity, last_frame = preprocess(*columns(hist), RunConfig(), 20.0)
        assert last_frame == 79
        assert position.shape == (2,) and velocity.shape == (2,)
        assert np.allclose(position, (79 / 20.0 * 1.0, 10.0 + 79 / 20.0 * 0.5), atol=1e-9)

    def test_constant_velocity_passes_through_exactly(self):
        hist = cv_history(80, fps=20.0, vel=(0.8, -0.2), start=(2.0, 15.0))
        position, velocity, _ = preprocess(*columns(hist), RunConfig(), 20.0)
        assert np.allclose(position, (2.0 + 0.8 * 79 / 20.0, 15.0 - 0.2 * 79 / 20.0), atol=1e-9)
        assert np.allclose(velocity, (0.8, -0.2), atol=1e-9)

    def test_interpolates_missing_frames(self):
        # Observations only every 5th frame; grid points in between come from
        # linear interpolation, which is exact for constant velocity.
        hist = cv_history(16, fps=20.0, vel=(1.0, 0.0), every=5)
        assert hist[-1][0] == 75
        position, velocity, last_frame = preprocess(*columns(hist), RunConfig(), 20.0)
        assert last_frame == 75
        assert np.allclose(position, (75 / 20.0, 10.0), atol=1e-9)
        assert np.allclose(velocity, (1.0, 0.0), atol=1e-9)

    def test_short_history_cuts_the_grid(self):
        # 17 frames cover 3 of the 8 grid points (last, -8, -16); the filter
        # runs over those three alone and still lands on the exact state.
        hist = cv_history(17, fps=20.0, vel=(1.0, 0.0), first_frame=63)
        position, velocity, last_frame = preprocess(*columns(hist), RunConfig(), 20.0)
        assert last_frame == 79
        assert np.allclose(position, (79 / 20.0, 10.0), atol=1e-6)
        assert np.allclose(velocity, (1.0, 0.0), atol=1e-6)

    def test_a_step_beyond_the_floats_leaves_the_last_frame_alone(self):
        # dt 1e10 s at 1e308 fps: the step is infinite, and the grid is the last frame
        cfg, frames = RunConfig(dt=1e10), [3.0, 5.0, 9.0]
        assert filter_grid(frames, cfg, 1e308) == [(9.0, (2,))]
        pos, vel, last = preprocess(frames, [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)], cfg, 1e308)
        assert pos.tolist() == [4.0, 5.0] and vel.tolist() == [0.0, 0.0] and last == 9

    def test_the_grid_stops_at_the_first_frame_whatever_obs_len(self):
        # 20 frames reach back 2.4 grid steps at 0.4 s and 20 fps: an obs_len of 10**8
        # walks the same 3 points as one of 8, not 10**8 steps.
        frames = [float(f) for f in range(100, 120)]
        points = [(0.1 * f, -0.2 * f) for f in frames]
        grid = filter_grid(frames, RunConfig(obs_len=10**8), 20.0)
        assert grid == filter_grid(frames, RunConfig(), 20.0) and len(grid) == 3
        for got, want in zip(preprocess(frames, points, RunConfig(obs_len=10**8), 20.0),
                             preprocess(frames, points, RunConfig(), 20.0)):
            assert np.array_equal(got, want)

    def test_single_observation(self):
        position, velocity, last_frame = preprocess([10], [(3.0, 7.0)], RunConfig(obs_len=4), 20.0)
        assert position.tolist() == [3.0, 7.0]
        assert velocity.tolist() == [0.0, 0.0]
        assert last_frame == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            preprocess([], [], RunConfig(), 20.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            preprocess([5, 5], [(0.0, 0.0), (1.0, 1.0)], RunConfig(), 20.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            preprocess([5, 4], [(0.0, 0.0), (1.0, 1.0)], RunConfig(), 20.0)

    @pytest.mark.parametrize("frames,points,message", [
        ([0, math.nan, 2], [(0.0, 0.0)] * 3, "row 1: history frames must be finite"),
        ([0, 1, math.inf], [(0.0, 0.0)] * 3, "row 2: history frames must be finite"),
        ([-math.inf, 1], [(0.0, 0.0)] * 2, "row 0: history frames must be finite"),
        ([0, 2, 1], [(0.0, 0.0)] * 3, "row 2: history frames must be finite and strictly increasing"),
        ([[0, 1]], [(0.0, 0.0)] * 2, r"got \(1, 2\) and \(2, 2\)"),
        (7, [(0.0, 0.0)], r"got \(\) and \(1, 2\)"),
        ([0, 1, 2], [(0.0, 0.0)] * 2, r"got \(3,\) and \(2, 2\)"),
        ([0, 1], [0.0, 0.0, 1.0, 1.0], r"got \(2,\) and \(4,\)"),
        ([0, 1], [(0.0, 0.0, 0.0)] * 2, r"got \(2,\) and \(2, 3\)"),
    ])
    def test_broken_histories_name_their_row(self, frames, points, message):
        with pytest.raises(ValueError, match=message):
            preprocess(frames, points, RunConfig(), 20.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("dt,at", [(0.4, 70), (0.33, 72)])  # a grid point, or beside one
    def test_a_non_finite_point_gives_a_nan_state_quietly(self, bad, dt, at):
        frames, points = columns(cv_history(40, fps=20.0, vel=(1.0, 0.5), every=2))
        points[frames.index(at)] = (1.0, bad)
        position, velocity, last_frame = preprocess(frames, points, RunConfig(dt=dt), 20.0)
        assert np.isnan(position).all() and np.isnan(velocity).all() and last_frame == 78


class TestFilterLastState:
    def test_constant_velocity_is_a_fixed_point(self):
        # Zero innovation at every step: the last state is the last point and
        # the true velocity, independent of the noise configuration.
        pts = (1.0, 8.0) + np.arange(12)[:, None] * 0.4 * np.array([0.7, -0.3])
        for pn, on in [(0.1, 0.25), (1.0, 0.01), (0.01, 5.0)]:
            pos, vel = last_state(pts, 0.4, pn, on)
            assert np.allclose(pos, pts[-1], atol=1e-9)
            assert np.allclose(vel, [0.7, -0.3], atol=1e-9)

    def test_stationary_input(self):
        pos, vel = last_state(np.tile([2.0, 5.0], (8, 1)), 0.5)
        assert np.allclose(pos, [2.0, 5.0], atol=1e-9)
        assert np.allclose(vel, 0.0, atol=1e-9)

    def test_two_points(self):
        pos, vel = last_state(np.array([[0.0, 0.0], [1.0, 2.0]]), 0.5)
        assert np.allclose(pos, [1.0, 2.0], atol=1e-9)
        assert np.allclose(vel, [2.0, 4.0], atol=1e-9)

    def test_endpoint_velocity_usable_for_extrapolation(self):
        # The last filtered state extrapolated one step lands closer to truth
        # than extrapolating from the last two raw observations, on nearly
        # every noise draw (individual draws can go either way).
        truth = (3.0, 6.0) + np.arange(30)[:, None] * 0.4 * np.array([0.9, 0.4])
        target = truth[-1] + np.array([0.9, 0.4]) * 0.4
        wins = 0
        for seed in range(50):
            noisy = truth + np.random.default_rng(seed).normal(0, 0.25, truth.shape)
            pos, vel = last_state(noisy, 0.4, 0.1, 0.25)
            kf_pred = pos + vel * 0.4
            raw_pred = noisy[-1] + (noisy[-1] - noisy[-2])
            wins += np.linalg.norm(kf_pred - target) < np.linalg.norm(raw_pred - target)
        assert wins >= 40


def per_call_filter_last_state(z, dt, process_noise, obs_noise):
    """The forward filter that recomputes its covariance and gains on every call."""
    n = z.shape[0]
    if n == 1:
        return z[0].copy(), np.zeros(2)

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

    x = np.zeros(4)
    x[:2] = z[0]
    x[2:] = (z[1] - z[0]) / dt
    p = np.diag([obs_noise**2, obs_noise**2, (2.0 * obs_noise / dt) ** 2, (2.0 * obs_noise / dt) ** 2])
    for k in range(n):
        if k > 0:
            x = f @ x
            p = f @ p @ f.T + q
        innov = z[k] - h @ x
        s = h @ p @ h.T + r
        gain = p @ h.T @ np.linalg.inv(s)
        x = x + gain @ innov
        p = (np.eye(4) - gain @ h) @ p
    return x[:2], x[2:]


class TestCachedGainsMatchPerCallFilter:
    @pytest.mark.parametrize(
        "dt,process_noise,obs_noise", [(0.4, 0.1, 0.25), (0.3, 1.5, 0.05), (0.05, 0.01, 2.0)]
    )
    def test_every_length_up_to_obs_len(self, dt, process_noise, obs_noise):
        # Short grids read a prefix of a longer gain table; every length
        # must give the per-call filter's floats exactly.
        rng = np.random.default_rng(7)
        cfg = RunConfig(obs_len=9, dt=dt, process_noise=process_noise, obs_noise=obs_noise)
        for n in range(1, cfg.obs_len + 1):
            for _ in range(10):
                z = rng.uniform(-20.0, 20.0, 2) + np.cumsum(rng.normal(0.0, 1.0, (n, 2)), axis=0)
                got = _filter_last_state(z, cfg)
                want = per_call_filter_last_state(z, dt, process_noise, obs_noise)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


    def test_a_shorter_table_is_a_prefix_of_a_longer_one(self):
        # A grid of n points reads the table for the power of two at or above n, so
        # its gains must be the first n of any longer table's, bit for bit.
        short, long = _filter_gains(4, 0.4, 0.1, 0.25), _filter_gains(64, 0.4, 0.1, 0.25)
        assert len(short) == 2 + 4 and len(long) == 2 + 64
        assert short == long[:6]


# -- the numpy reference: np.interp, then the filter loop over arrays of the gain rows --


def numpy_preprocess(frames, points, cfg, fps):
    """preprocess as np.interp and a numpy filter loop compute it."""
    frames, pos = np.asarray(frames, dtype=float), np.asarray(points, dtype=float)
    last = frames[-1]
    grid = last - cfg.dt * fps * np.arange(cfg.obs_len)[::-1]
    grid = grid[grid >= frames[0] - 1e-9]
    z = np.stack([np.interp(grid, frames, pos[:, 0]), np.interp(grid, frames, pos[:, 1])], axis=1)
    if len(z) == 1:
        return z[0], np.zeros(2), int(round(last))
    f, h, *gains = map(np.array, _filter_gains(cfg.obs_len, cfg.dt, cfg.process_noise,
                                                cfg.obs_noise))
    x = np.zeros(4)
    x[:2] = z[0]
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite points: a NaN state
        x[2:] = (z[1] - z[0]) / cfg.dt
        for k in range(len(z)):
            if k > 0:
                x = f @ x
            x = x + gains[k] @ (z[k] - h @ x)
    return x[:2], x[2:], int(round(last))


def same_bits(a, b):
    """Equal bit for bit, so -0.0 is not 0.0; any NaN equals any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def random_case(rng):
    """(frames, points, config, fps): irregular ascending frames, integers or not, and
    points that may hold 0.0, -0.0 and non-finite values."""
    cfg = RunConfig(obs_len=int(rng.integers(1, 10)), dt=float(rng.uniform(0.05, 1.0)),
                    process_noise=float(rng.uniform(0.0, 1.5)),
                    obs_noise=float(rng.uniform(0.01, 2.0)))
    fps = float(rng.choice([7.5, 10.0, 20.0, 29.97]))
    n = int(rng.integers(1, 4 * cfg.obs_len + 2))
    gaps = rng.integers(1, 8, n - 1) if rng.random() < 0.7 else rng.uniform(0.01, 9.0, n - 1)
    frames = float(rng.integers(0, 1000)) + np.concatenate([[0.0], np.cumsum(gaps)])
    points = rng.uniform(-30.0, 30.0, 2) + np.cumsum(rng.normal(0.0, 0.3, (n, 2)), axis=0)
    kind = rng.integers(0, 6)
    if kind == 1:  # signed zeros on one axis or both
        axes = [0, 1] if rng.random() < 0.5 else [int(rng.integers(0, 2))]
        points[:, axes] = rng.choice([0.0, -0.0], (n, len(axes)))
    elif kind == 2:  # at rest on -0.0 along an axis
        points[:, int(rng.integers(0, 2))] = -0.0
    elif kind == 3:  # a non-finite value
        points[int(rng.integers(0, n)), int(rng.integers(0, 2))] = rng.choice(
            [math.inf, -math.inf, math.nan])
    return frames, points, cfg, fps


class TestPreprocessMatchesNumpyReference:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_random_histories(self):
        # Python floats over the grid's brackets give np.interp's and the numpy
        # loop's floats exactly: signed zeros, NaN and every grid length included.
        rng = np.random.default_rng(34)
        lengths, seen = set(), {"-0.0": 0, "nan": 0, "blended": 0, "fraction": 0}
        for _ in range(1500):
            frames, points, cfg, fps = random_case(rng)
            got, want = preprocess(frames, points, cfg, fps), numpy_preprocess(frames, points,
                                                                                cfg, fps)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            assert got[2] == want[2]
            grid = filter_grid(frames.tolist(), cfg, fps)
            lengths.add((cfg.obs_len, len(grid)))
            seen["-0.0"] += bool(np.signbit(np.concatenate(got[:2])).any()
                                 and (np.concatenate(got[:2]) == 0.0).any())
            seen["nan"] += bool(np.isnan(got[0]).any())
            seen["blended"] += any(len(pair) == 2 for _, pair in grid)
            seen["fraction"] += bool((frames != np.round(frames)).any())
        assert {(m, g) for m in range(1, 10) for g in range(1, m + 1)} <= lengths
        assert all(count >= 20 for count in seen.values()), seen

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # np.interp's own
    def test_grid_points_match_np_interp(self):
        # Each grid point blends its bracket as np.interp does, NaN fallbacks included:
        # a span wider than the floats, and infinite or NaN values.
        rng = np.random.default_rng(36)
        cfg, specials = RunConfig(obs_len=6, dt=1.0), [math.inf, -math.inf, math.nan, 0.0, -0.0]
        for trial in range(400):
            huge = trial % 4 == 0
            scale = 1.7e308 if huge else 10.0
            frames = np.unique(rng.uniform(-1.0, 1.0, 4)) * scale
            if trial % 4 == 1:  # grid points on frames
                frames = np.unique(rng.integers(0, 12, 4)).astype(float)
            values = rng.choice([*specials, *rng.normal(0.0, 10.0, 5)], len(frames))
            fps = float(rng.uniform(0.05, 0.5)) * scale  # frames a grid step
            fps = float(rng.integers(1, 4)) if trial % 4 == 1 else fps
            for x, pair in filter_grid(frames.tolist(), cfg, fps):
                got = _blend(x, frames.tolist(), values.tolist(), pair)
                assert same_bits(got, np.interp(x, frames, values)), (trial, x, pair)

    def test_the_brackets_alone_give_the_same_state(self):
        # The tracker lifts only the frames filter_grid names, at most two a grid
        # point: on them alone the grid, the brackets and the state are the same.
        rng = np.random.default_rng(35)
        for _ in range(1500):
            frames, points, cfg, fps = random_case(rng)
            grid = filter_grid(frames.tolist(), cfg, fps)
            picked = sorted({i for _, pair in grid for i in pair})
            assert len(picked) <= 2 * len(grid) <= 2 * cfg.obs_len
            assert picked[-1] == len(frames) - 1
            with np.errstate(invalid="ignore"):
                want = preprocess(frames, points, cfg, fps)
                got = preprocess(frames[picked], points[picked], cfg, fps)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            assert got[2] == want[2]


STATE = (np.array([3.95, 11.975]), np.array([1.0, 0.5]), 79)


class TestForecastClosedForms:
    def test_static_repeats_last_point(self):
        origin, vel, end = forecast_one(STATE, RunConfig(motion="static"), 20.0, horizon_s=1.2)
        assert vel.shape == (1, 2)
        assert end == 103  # 3 steps of 8 frames at 20 fps after frame 79
        for f in (80, 91, 103):
            assert np.array_equal(branch_points(origin, vel, 79, 20.0, f), STATE[0][None, :])

    def test_kalman_cv_linear_in_time(self):
        origin, vel, end = forecast_one(STATE, RunConfig(), 20.0, horizon_s=0.8)
        got = np.array([branch_points(origin, vel, 79, 20.0, f)[0] for f in range(80, end + 1)])
        tsec = (np.arange(16) + 1.0) / 20.0
        want = STATE[0] + tsec[:, None] * np.array([1.0, 0.5])
        assert np.allclose(got, want, atol=1e-9)

    def test_fan_rotates_velocity(self):
        state = (STATE[0], np.array([1.0, 0.0]), 79)
        cfg = RunConfig(motion="fan", fan_angles=(-90.0, 0.0, 90.0))
        origin, vel, _ = forecast_one(state, cfg, 20.0, horizon_s=0.4)
        t1 = 1.0 / 20.0
        # first frame of each branch: velocity rotated by the fan angle
        p = branch_points(origin, vel, 79, 20.0, 80) - STATE[0]
        assert np.allclose(p[0], [0.0, -t1], atol=1e-9)  # -90 deg
        assert np.allclose(p[1], [t1, 0.0], atol=1e-9)
        assert np.allclose(p[2], [0.0, t1], atol=1e-9)  # +90 deg

    def test_fan_center_matches_kalman_cv(self):
        state = (STATE[0], np.array([0.7, -0.4]), 79)
        fan = forecast_one(state, RunConfig(motion="fan", k=3), 20.0, horizon_s=0.8)
        cv = forecast_one(state, RunConfig(), 20.0, horizon_s=0.8)
        assert fan[2] == cv[2]
        for f in range(80, cv[2] + 1):
            fan_pts, cv_pts = (branch_points(o, v, 79, 20.0, f) for o, v, _ in (fan, cv))
            assert np.allclose(fan_pts[1], cv_pts[0], atol=1e-12)

    def test_no_states(self):
        origin, vel, end = forecast([], RunConfig(motion="fan", k=3), 20.0)
        assert origin.shape == (0, 2) and vel.shape == (0, 3, 2) and end.shape == (0,)


class TestForecastHorizon:
    def test_defaults_to_tau_max(self):
        # ceil(3.0 / 0.5) = 6 steps of round(0.5 * 10) = 5 frames
        assert forecast_span(RunConfig(dt=0.5, tau_max=3.0), 10.0) == 30
        assert forecast_one(STATE, RunConfig(dt=0.5, tau_max=3.0), 10.0)[2] == 79 + 30

    def test_steps_round_up_and_frames_per_step_round(self):
        # ceil(1.3 / 0.4) = 4 steps of 8 frames at 20 fps
        assert forecast_one(STATE, RunConfig(), 20.0, horizon_s=1.3)[2] == 79 + 32
        # a step shorter than a frame still advances one frame
        assert forecast_span(RunConfig(dt=0.05), 10.0, horizon_s=0.2) == 4
        # any positive horizon covers at least one step
        assert forecast_span(RunConfig(), 20.0, horizon_s=1e-6) == 8

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_non_positive_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive"):
            forecast([STATE], RunConfig(), 20.0, horizon_s=horizon)

    @pytest.mark.parametrize("horizon", [math.inf, 1e308])
    def test_overflowing_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="overflows the step count"):
            forecast([STATE], RunConfig(), 20.0, horizon_s=horizon)

    @pytest.mark.parametrize("fps", [0.0, -10.0, math.nan])
    def test_non_positive_fps_rejected(self, fps):
        with pytest.raises(ValueError, match="fps must be positive"):
            forecast([STATE], RunConfig(), fps)

    def test_span_leaves_room_for_any_frame_up_to_2_to_the_53(self):
        # Steps of one frame at dt 1 s and 1 fps: a span of up to 2**63 - 1 - 2**53
        # frames puts the end of a track seen at frame 2**53 within int64.
        cfg = RunConfig(dt=1.0)
        assert forecast_span(cfg, 1.0, 2.0**63 - 2.0**54) == 2**63 - 2**54
        end = forecast_one((STATE[0], STATE[1], 2**53), cfg, 1.0, 2.0**63 - 2.0**54)[2]
        assert end == 2**63 - 2**53
        for dt, fps, horizon in ((1.0, 1.0, 2.0**63 - 2.0**53), (4.61e17, 20.0, None),
                                 (0.4, 20.0, 1e300)):
            with pytest.raises(ValueError, match="puts a forecast's end frame beyond 64-bit"):
                forecast_span(RunConfig(dt=dt), fps, horizon)


class TestForecastMatchesStoredPoints:
    def test_randomized_bit_identity(self):
        # The tracker's outputs depend on every forecast point bit for bit:
        # the branch formula must equal the per-frame array a stored-point
        # forecast would hold, last_pt + ((arange(n) + 1) / fps) * vel.
        rng = np.random.default_rng(0)
        for trial in range(60):
            fps = float(rng.choice([7.5, 10.0, 12.5, 20.0, 25.0, 29.97, 30.0]))
            dt = float(rng.uniform(0.05, 1.0))
            start = rng.uniform(-50.0, 50.0, 2)
            vel = rng.uniform(-3.0, 3.0, 2)
            last = int(rng.integers(0, 500))
            hist = cv_history(int(rng.integers(1, 60)), fps, vel, start=start, first_frame=last)
            hist = [(f, (x + rng.normal(0, 0.05), y + rng.normal(0, 0.05))) for f, (x, y) in hist]
            motion = ("static", "kalman_cv", "fan")[trial % 3]
            cfg = RunConfig(
                motion=motion,
                fan_angles=tuple(rng.uniform(-60, 60, 3)),
                obs_len=int(rng.integers(1, 10)),
                dt=dt,
            )
            state = preprocess(*columns(hist), cfg, fps)
            horizon = int(rng.integers(1, 8))
            origin, velocity, end = forecast_one(state, cfg, fps, horizon_s=horizon * dt)
            n = end - state[2]
            tsec = (np.arange(n) + 1.0) / fps
            for b, v in enumerate(velocity):
                stored = state[0] + tsec[:, None] * v[None, :]
                frames = range(state[2] + 1, end + 1)
                got = np.array([branch_points(origin, velocity, state[2], fps, f)[b] for f in frames])
                assert np.array_equal(got, stored), (trial, motion, b)


class TestStackedForecast:
    def test_many_states_match_each_alone_and_the_lone_rotation(self):
        # One call for L states gives, bit for bit, each state's own forecast, and
        # for the fan the lone rot @ velocity product of every branch: the stacked
        # product must round as that 2x2 product does.
        rng = np.random.default_rng(29)
        for trial in range(90):
            motion = ("static", "kalman_cv", "fan")[trial % 3]
            angles = tuple(rng.uniform(-180.0, 180.0, int(rng.integers(1, 6))))
            cfg = RunConfig(motion=motion, fan_angles=angles, k=len(angles) if motion == "fan" else 1)
            fps = float(rng.choice([10.0, 20.0, 29.97]))
            states = [
                (rng.uniform(-50.0, 50.0, 2), rng.uniform(-3.0, 3.0, 2), int(rng.integers(0, 10**6)))
                for _ in range(int(rng.integers(1, 9)))
            ]
            origin, velocity, end = forecast(states, cfg, fps)
            assert velocity.shape == (len(states), cfg.k, 2)
            for i, state in enumerate(states):
                alone = forecast_one(state, cfg, fps)
                assert np.array_equal(origin[i], alone[0]) and end[i] == alone[2], trial
                assert np.array_equal(velocity[i], alone[1]), trial
                if motion == "fan":
                    for b, ang in enumerate(angles):
                        a = math.radians(ang)
                        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
                        assert np.array_equal(velocity[i, b], rot @ state[1]), (trial, b)


    def test_signed_zero_angles_rotate_alone(self):
        # 0.0 and -0.0 degrees have sines of opposite sign: each branch is its own
        # lone rot @ v product, bit for bit, signed zeros and non-finite values included.
        cfg = RunConfig(motion="fan", fan_angles=(0.0, -0.0), k=2)
        for v in ([-0.0, 1.5], [0.0, -0.0], [1.5, -2.0], [math.inf, 0.5]):
            v = np.array(v)
            with np.errstate(invalid="ignore"):  # inf times a zero sine is NaN
                _, velocity, _ = forecast_one((STATE[0], v, 79), cfg, 20.0)
                for b, ang in enumerate(cfg.fan_angles):
                    a = math.radians(ang)
                    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
                    assert velocity[b].tobytes() == (rot @ v).tobytes(), (v, b)


class TestPredictedBox:
    def test_box_translated_to_projected_point(self):
        last = PixelBox(10.0, 20.0, 30.0, 60.0)
        box = predicted_box(last, np.array([50.0, 120.0]), Homography(np.eye(3)))
        assert box.width == last.width and box.height == last.height
        assert np.allclose(box.bottom_center, [50.0, 120.0])
