"""Seeded scene sets for the benchmark workloads.

Each workload is a list of ``(Scenario, RunConfig)`` pairs built only from
the library's public types. The workload seed is the only source of
variation: for the acceptance suites it offsets every scenario's own seed
(seed 0 reproduces the suites exactly); for the crowds it seeds each scene,
which draws the walker and wall layout as well as the sensor noise.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from bevtrack.config import RunConfig
from bevtrack.experiments import default_camera, junction_suite, linear_suite
from bevtrack.simulator import AgentSpec, Occluder, Scenario

# BEV rectangle (x_min, x_max, y_min, y_max) in meters that the default camera
# sees whole: its near edge is 2 m beyond the bottom image row, and the image
# is wider than the yard at every depth.
YARD = (-6.0, 6.0, 6.0, 20.0)
WALL_THICKNESS = 0.3
WALL_HEIGHT = 3.3  # taller than a walker, so a wall hides whoever is behind it
CROWD_FPS = 20.0


def _walker(rng, agent_id: int, duration: float) -> AgentSpec:
    """A walker on random-heading legs that never leaves the yard.

    The polyline is long enough for the whole scene, so ``agent_position``
    never clamps at its end and the crowd keeps its density to the last frame.
    """
    x0, x1, y0, y1 = YARD
    speed = float(rng.uniform(0.8, 1.6))
    p = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
    points = [p]
    length = 0.0
    while length < speed * duration + 1.0:
        heading = rng.uniform(0.0, 2.0 * math.pi)
        leg = rng.uniform(2.0, 6.0)
        q = p + leg * np.array([math.cos(heading), math.sin(heading)])
        q = np.clip(q, [x0, y0], [x1, y1])
        step = float(np.linalg.norm(q - p))
        if step < 0.5:  # heading into a yard edge; draw another
            continue
        points.append(q)
        length += step
        p = q
    return AgentSpec(
        id=agent_id,
        waypoints=tuple((float(x), float(y)) for x, y in points),
        speed=speed,
        appearance_seed=int(rng.integers(0, 2**31 - 1)),
    )


def _wall(rng, k: int, n: int) -> Occluder:
    """Wall k of n, parallel to the image rows, inside the yard.

    Walls alternate between the left and right half of the yard and step
    back in depth, each jittered, so every layout hides a similar share of
    the crowd while the seed still moves them.
    """
    cx = (-3.0 if k % 2 == 0 else 3.0) + float(rng.uniform(-1.0, 1.0))
    cy = 9.0 + 7.0 * (k + 0.5) / n + float(rng.uniform(-0.5, 0.5))
    half = float(rng.uniform(1.5, 2.0))
    return Occluder(
        x_min=cx - half,
        x_max=cx + half,
        y_min=cy,
        y_max=cy + WALL_THICKNESS,
        height=WALL_HEIGHT,
    )


def crowd_scenario(seed: int, n_walkers: int, n_walls: int, duration: float) -> Scenario:
    """One crowd scene: walkers wander a yard in view of the camera, past walls."""
    rng = np.random.default_rng(seed)
    walls = tuple(_wall(rng, k, n_walls) for k in range(n_walls))
    agents = tuple(_walker(rng, i + 1, duration) for i in range(n_walkers))
    return Scenario(
        camera=default_camera(),
        ground_extent=40.0,
        agents=agents,
        occluders=walls,
        fps=CROWD_FPS,
        duration=duration,
        detection_noise=0.5,
        appearance_noise=0.05,
        seed=seed,
        cloud_points=1200,
    )


def suite_scenes(seed: int) -> list:
    """The acceptance suites: linear scenes with kalman_cv, turns with a k=3 fan."""
    cv = RunConfig()
    fan = RunConfig(motion="fan", k=3)
    scenes = [(replace(sc, seed=sc.seed + seed), cv) for sc in linear_suite(20)]
    scenes += [(replace(sc, seed=sc.seed + seed), fan) for sc in junction_suite()]
    return scenes


# A crowd workload is three scenes of different layouts, 340 frames each, so
# one pass tracks 1020 frames: enough samples for a per-frame p99 latency.
CROWD_SCENES = 3
CROWD_SECONDS = 17.0


def crowd_scenes(seed: int) -> list:
    """60 walkers and two walls tracked with a single constant-velocity branch."""
    return [
        (crowd_scenario(CROWD_SCENES * seed + i, 60, 2, CROWD_SECONDS), RunConfig())
        for i in range(CROWD_SCENES)
    ]


def crowd_fan_scenes(seed: int) -> list:
    """40 walkers and four walls tracked with a three-branch fan."""
    fan = RunConfig(motion="fan", k=3)
    return [
        (crowd_scenario(CROWD_SCENES * seed + i, 40, 4, CROWD_SECONDS), fan)
        for i in range(CROWD_SCENES)
    ]


WORKLOADS = {
    "suite": suite_scenes,
    "crowd": crowd_scenes,
    "crowd_fan": crowd_fan_scenes,
}
