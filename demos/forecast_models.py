"""Forecasting an occluded walker with the three motion models.

A walker strolls at 1.2 m/s and starts turning just before vanishing behind a
wall. The static model parks at the last seen position, the constant-velocity
model extrapolates the filter's last heading, and the fan hedges with three
branches at -30/0/+30 degrees. The fan's turning branch is the one that stays
near the walker's true path.
"""

import math

import numpy as np

from bevtrack.config import RunConfig
from bevtrack.forecast import forecast, preprocess


def walker_path(t):
    """Straight along +x at 1.2 m/s, then a smooth 30 degree left turn at t=4s."""
    speed = 1.2
    if t <= 4.0:
        return np.array([-4.0 + speed * t, 10.0])
    a = math.radians(30.0)
    d = np.array([math.cos(a), math.sin(a)])
    return np.array([-4.0 + speed * 4.0, 10.0]) + d * speed * (t - 4.0)


def main():
    fps = 20.0
    seen = [(f, tuple(walker_path(f / fps))) for f in range(0, 85)]  # last seen at t=4.2s
    rng = np.random.default_rng(0)
    noisy = [(f, (x + rng.normal(0, 0.03), y + rng.normal(0, 0.03))) for f, (x, y) in seen]

    base = RunConfig(obs_len=8, dt=0.4, fan_angles=(-30.0, 0.0, 30.0))
    state = preprocess([f for f, _ in noisy], [p for _, p in noisy], base, fps)
    _, vel, last_frame = state
    print(f"history: {len(noisy)} frames, filtered over {base.obs_len} steps of {base.dt}s")
    print(f"filtered end velocity: ({vel[0]:+.2f}, {vel[1]:+.2f}) m/s")

    horizon_s = 3.2  # 8 x 0.4s ahead
    # forecast takes a list of states and returns the track table's columns:
    # origins (L, 2), branch velocities (L, K, 2) and end frames (L,); here L = 1
    forecasts = {
        motion: forecast([state], base.override(motion=motion), fps, horizon_s=horizon_s)
        for motion in ("static", "kalman_cv", "fan")
    }
    end_frame = int(forecasts["static"][2][0])
    t_end = end_frame / fps
    truth = walker_path(t_end)
    print(f"\ntrue position {t_end - last_frame / fps:.1f}s after the last observation: "
          f"({truth[0]:+.2f}, {truth[1]:+.2f})")
    for motion, ((origin,), (velocity,), _) in forecasts.items():
        print(f"  {motion}:")
        # branch b sits at origin + (seconds since the last observation) * velocity[b]
        for i, end in enumerate(origin + ((end_frame - last_frame) / fps) * velocity):
            err = np.linalg.norm(end - truth)
            print(f"    branch {i}: endpoint ({end[0]:+.2f}, {end[1]:+.2f}), off by {err:.2f} m")

    print("\nthe fan's +30 degree branch lands closest; during tracking the branch")
    print("that overlaps the reappeared detection wins the re-association.")


if __name__ == "__main__":
    main()
