import math

import numpy as np
import pytest

from bevtrack.boxes import PixelBox
from bevtrack.forecast import (
    Forecast,
    MotionModelSpec,
    ObservedTrajectory,
    forecast,
    predicted_box,
    preprocess,
)
from bevtrack.homography import Homography
from bevtrack.linearized import linearize


def cv_history(n_frames, fps, vel, start=(0.0, 10.0), first_frame=0):
    """Per-frame constant-velocity observations: (frame, (x, y)) pairs."""
    out = []
    for i in range(n_frames):
        f = first_frame + i
        t = f / fps
        out.append((f, (start[0] + vel[0] * t, start[1] + vel[1] * t)))
    return out


class TestPreprocess:
    def test_grid_spacing_and_endpoint(self):
        hist = cv_history(80, fps=20.0, vel=(1.0, 0.5))
        obs = preprocess(hist, obs_len=8, dt=0.4, fps=20.0)
        assert obs.points.shape == (8, 2)
        assert obs.last_frame == 79
        assert obs.extrapolated_prefix == 0
        assert obs.frames_per_step == 8  # 0.4 s at 20 fps
        # grid ends at the last observation
        assert np.allclose(obs.points[-1], (79 / 20.0 * 1.0, 10.0 + 79 / 20.0 * 0.5), atol=1e-9)

    def test_constant_velocity_passes_through_exactly(self):
        hist = cv_history(80, fps=20.0, vel=(0.8, -0.2), start=(2.0, 15.0))
        obs = preprocess(hist, obs_len=8, dt=0.4, fps=20.0)
        t_grid = (79 - 8.0 * np.arange(8)[::-1]) / 20.0
        want = np.stack([2.0 + 0.8 * t_grid, 15.0 - 0.2 * t_grid], axis=1)
        assert np.allclose(obs.points, want, atol=1e-9)
        assert np.allclose(obs.velocities, [[0.8, -0.2]] * 8, atol=1e-9)

    def test_interpolates_missing_frames(self):
        # Observations only every 5th frame; grid points in between come from
        # linear interpolation, which is exact for constant velocity.
        hist = cv_history(80, fps=20.0, vel=(1.0, 0.0))[::5]
        assert hist[-1][0] == 75
        obs = preprocess(hist, obs_len=8, dt=0.4, fps=20.0)
        t_grid = (75 - 8.0 * np.arange(8)[::-1]) / 20.0
        assert np.allclose(obs.points[:, 0], t_grid, atol=1e-9)

    def test_short_history_back_extrapolates(self):
        # 17 frames cover 2 whole grid steps (last, -8, -16); the remaining 5
        # grid points are extrapolated backwards along the earliest velocity.
        hist = cv_history(17, fps=20.0, vel=(1.0, 0.0), first_frame=63)
        obs = preprocess(hist, obs_len=8, dt=0.4, fps=20.0)
        assert obs.extrapolated_prefix == 5
        t_grid = (79 - 8.0 * np.arange(8)[::-1]) / 20.0
        assert np.allclose(obs.points[:, 0], 1.0 * t_grid, atol=1e-6)

    def test_single_observation(self):
        obs = preprocess([(10, (3.0, 7.0))], obs_len=4, dt=0.4, fps=20.0)
        assert obs.extrapolated_prefix == 3
        assert np.allclose(obs.points, [[3.0, 7.0]] * 4)
        assert obs.last_frame == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            preprocess([])
        with pytest.raises(ValueError):
            preprocess([(5, (0.0, 0.0)), (5, (1.0, 1.0))])
        with pytest.raises(ValueError):
            preprocess([(5, (0.0, 0.0)), (4, (1.0, 1.0))])


class TestObservedTrajectoryValidation:
    def test_rejects_bad_dt_and_prefix(self):
        pts = np.zeros((4, 2))
        vel = np.zeros((4, 2))
        with pytest.raises(ValueError):
            ObservedTrajectory(pts, 0.0, 0, 0, 20.0, vel)
        with pytest.raises(ValueError):
            ObservedTrajectory(pts, 0.4, 0, 4, 20.0, vel)
        with pytest.raises(ValueError):
            ObservedTrajectory(np.zeros((0, 2)), 0.4, 0, 0, 20.0, vel)

    def test_frames_per_step_rounds(self):
        pts = np.zeros((2, 2))
        vel = np.zeros((2, 2))
        assert ObservedTrajectory(pts, 0.4, 0, 0, 20.0, vel).frames_per_step == 8
        assert ObservedTrajectory(pts, 0.05, 0, 0, 10.0, vel).frames_per_step == 1


class TestMotionModelSpec:
    def test_defaults(self):
        spec = MotionModelSpec()
        assert spec.kind == "kalman_cv" and spec.k == 1

    def test_single_branch_kinds_reject_k(self):
        with pytest.raises(ValueError):
            MotionModelSpec(kind="static", k=2)
        with pytest.raises(ValueError):
            MotionModelSpec(kind="kalman_cv", k=3)

    def test_fan_requires_matching_k(self):
        MotionModelSpec(kind="fan", k=3)  # default three angles
        with pytest.raises(ValueError):
            MotionModelSpec(kind="fan", k=2)
        MotionModelSpec(kind="fan", k=2, fan_angles=(-15.0, 15.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MotionModelSpec(kind="rnn")
        with pytest.raises(ValueError):
            MotionModelSpec(kind="fan", k=0, fan_angles=())


class TestForecastClosedForms:
    def make_obs(self, vel=(1.0, 0.5), fps=20.0, dt=0.4, last_frame=79):
        hist = cv_history(last_frame + 1, fps=fps, vel=vel)
        return preprocess(hist, obs_len=8, dt=dt, fps=fps)

    def test_static_repeats_last_point(self):
        obs = self.make_obs()
        fc = forecast(MotionModelSpec(kind="static"), obs, horizon_steps=3)
        assert fc.velocities.shape == (1, 2)
        assert fc.created_frame == 79 and fc.end_frame == 103  # 3 steps of 8 frames at 20 fps
        for f in (80, 91, 103):
            assert np.array_equal(fc.points(f), obs.points[-1][None, :])

    def test_kalman_cv_linear_in_time(self):
        obs = self.make_obs(vel=(1.0, 0.5))
        fc = forecast(MotionModelSpec(kind="kalman_cv"), obs, horizon_steps=2)
        got = np.array([fc.points(f)[0] for f in range(80, fc.end_frame + 1)])
        tsec = (np.arange(16) + 1.0) / 20.0
        want = obs.points[-1] + tsec[:, None] * np.array([1.0, 0.5])
        assert np.allclose(got, want, atol=1e-9)

    def test_fan_rotates_velocity(self):
        obs = self.make_obs(vel=(1.0, 0.0))
        spec = MotionModelSpec(kind="fan", k=3, fan_angles=(-90.0, 0.0, 90.0))
        fc = forecast(spec, obs, horizon_steps=1)
        t1 = 1.0 / 20.0
        # first frame of each branch: velocity rotated by the fan angle
        p = fc.points(80) - obs.points[-1]
        assert np.allclose(p[0], [0.0, -t1], atol=1e-9)  # -90 deg
        assert np.allclose(p[1], [t1, 0.0], atol=1e-9)
        assert np.allclose(p[2], [0.0, t1], atol=1e-9)  # +90 deg

    def test_fan_center_matches_kalman_cv(self):
        obs = self.make_obs(vel=(0.7, -0.4))
        fan = forecast(MotionModelSpec(kind="fan", k=3), obs, horizon_steps=2)
        cv = forecast(MotionModelSpec(kind="kalman_cv"), obs, horizon_steps=2)
        assert fan.end_frame == cv.end_frame
        for f in range(80, cv.end_frame + 1):
            assert np.allclose(fan.points(f)[1], cv.points(f)[0], atol=1e-12)

    def test_frames_cover_every_frame(self):
        obs = self.make_obs()
        fc = forecast(MotionModelSpec(kind="kalman_cv"), obs, horizon_steps=4)
        assert fc.created_frame == 79 and fc.end_frame == 111  # frames 80 .. 111

    def test_horizon_validation(self):
        obs = self.make_obs()
        with pytest.raises(ValueError):
            forecast(MotionModelSpec(), obs, horizon_steps=0)


class TestForecastMatchesStoredPoints:
    def test_randomized_bit_identity(self):
        # The tracker's outputs depend on every forecast point bit for bit:
        # points(f) must equal the per-frame array a stored-point forecast
        # would hold, last_pt + ((arange(n) + 1) / fps) * vel.
        rng = np.random.default_rng(0)
        for trial in range(60):
            fps = float(rng.choice([7.5, 10.0, 12.5, 20.0, 25.0, 29.97, 30.0]))
            dt = float(rng.uniform(0.05, 1.0))
            start = rng.uniform(-50.0, 50.0, 2)
            vel = rng.uniform(-3.0, 3.0, 2)
            last = int(rng.integers(0, 500))
            hist = cv_history(int(rng.integers(1, 60)), fps, vel, start=start, first_frame=last)
            hist = [(f, (x + rng.normal(0, 0.05), y + rng.normal(0, 0.05))) for f, (x, y) in hist]
            obs = preprocess(hist, obs_len=int(rng.integers(1, 10)), dt=dt, fps=fps)
            spec = [
                MotionModelSpec(kind="static"),
                MotionModelSpec(kind="kalman_cv"),
                MotionModelSpec(kind="fan", k=3, fan_angles=tuple(rng.uniform(-60, 60, 3))),
            ][trial % 3]
            horizon = int(rng.integers(1, 8))
            fc = forecast(spec, obs, horizon_steps=horizon)
            n = horizon * obs.frames_per_step
            assert fc.created_frame == obs.last_frame
            assert fc.end_frame == obs.last_frame + n
            tsec = (np.arange(n) + 1.0) / fps
            for b, v in enumerate(fc.velocities):
                stored = obs.points[-1] + tsec[:, None] * v[None, :]
                frames = range(fc.created_frame + 1, fc.end_frame + 1)
                got = np.array([fc.points(f)[b] for f in frames])
                assert np.array_equal(got, stored), (trial, spec.kind, b)


class TestForecastValidation:
    def make(self, **kw):
        args = dict(
            origin=[0.0, 0.0], velocities=[[1.0, 0.0]], created_frame=5, end_frame=9, fps=10.0
        )
        args.update(kw)
        return Forecast(**args)

    def test_defaults_all_alive(self):
        fc = self.make(velocities=[[1.0, 0.0], [0.0, 1.0]])
        assert fc.alive.tolist() == [True, True]
        assert fc.visible_streak.tolist() == [0, 0]

    def test_rejects_no_branches(self):
        with pytest.raises(ValueError):
            self.make(velocities=np.zeros((0, 2)))

    def test_rejects_end_not_after_created(self):
        with pytest.raises(ValueError):
            self.make(end_frame=5)
        with pytest.raises(ValueError):
            self.make(end_frame=4)

    def test_rejects_nonpositive_fps(self):
        with pytest.raises(ValueError):
            self.make(fps=0.0)
        with pytest.raises(ValueError):
            self.make(fps=-10.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            self.make(origin=[0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            self.make(velocities=[1.0, 0.0])


class TestPredictedBox:
    def test_box_translated_to_projected_point(self):
        lh = linearize(Homography(np.eye(3)), (200, 200), max_spacing=1e9)
        last = PixelBox(10.0, 20.0, 30.0, 60.0)
        box = predicted_box(last, np.array([50.0, 120.0]), lh)
        assert box.width == last.width and box.height == last.height
        assert np.allclose(box.bottom_center, [50.0, 120.0])
