"""The frame-block generate against a per-agent reference copy.

``reference_generate`` is the simulator as it was before it worked on arrays:
one frame and one agent at a time, each box projected on its own, the scalar
sweep given every occluder and every lower agent as a cover, the noise of
each detection drawn on its own, and the ground cloud drawn one pair at a
time. The block generate must reproduce it bit for bit on seeded random
scenarios, every ground-truth entry, every detection and the ground cloud:
at the module's block constants, where each of these small scenarios is one
block, and with the constants patched down to blocks of a few frames, where
some scenarios are one block, some a whole number of blocks and some end in
a shorter block. On the benchmark's crowd scenes, too large for the
reference, every block size must give the same arrays.
"""

import functools
import importlib.util
import math
import os
from dataclasses import dataclass, replace

import numpy as np
import pytest

from bevtrack import simulator
from bevtrack.boxes import PixelBox
from bevtrack.errors import InvalidScenario
from bevtrack.simulator import (
    VISIBILITY_CUTOFF,
    AgentSpec,
    CameraSpec,
    Occluder,
    Scenario,
    SimDetection,
    agent_position,
    generate,
    project_points,
)
from test_boxes import reference_covered_fraction


@dataclass
class ReferenceGt:
    frame: int
    agent_id: int
    box: PixelBox
    bev: np.ndarray
    visibility: float


def reference_project_points(cam, world, cam_xy):
    t = math.radians(cam.tilt_deg)
    rot = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, -math.sin(t), -math.cos(t)],
            [0.0, math.cos(t), -math.sin(t)],
        ]
    )
    center = np.array([cam_xy[0], cam_xy[1], cam.height])
    pc = (np.atleast_2d(world) - center) @ rot.T
    cx, cy = cam.principal_point
    u = cam.focal * pc[:, 0] / pc[:, 2] + cx
    v = cam.focal * pc[:, 1] / pc[:, 2] + cy
    return np.stack([u, v], axis=1), pc


def reference_agent_position(agent, t: float) -> np.ndarray:
    wps = np.asarray(agent.waypoints, dtype=float)
    if len(wps) == 1:
        return wps[0].copy()
    seg = np.diff(wps, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    s = agent.speed * t
    for i, L in enumerate(seg_len):
        if s <= L or i == len(seg_len) - 1:
            if L < 1e-12:
                return wps[i].copy()
            frac = min(s / L, 1.0)
            return wps[i] + frac * seg[i]
        s -= L
    return wps[-1].copy()


def reference_agent_box(cam, agent, pos, cam_xy) -> PixelBox:
    x, y = pos
    hw = agent.width / 2.0
    corners = np.array(
        [
            [x - hw, y, 0.0],
            [x + hw, y, 0.0],
            [x - hw, y, agent.height],
            [x + hw, y, agent.height],
        ]
    )
    px, _ = reference_project_points(cam, corners, cam_xy)
    left, top = px[:, 0].min(), px[:, 1].min()
    return PixelBox(left, top, px[:, 0].max() - left, px[:, 1].max() - top)


def reference_occluder_rect(cam, occ, cam_xy):
    corners = np.array(
        [
            [x, y, z]
            for x in (occ.x_min, occ.x_max)
            for y in (occ.y_min, occ.y_max)
            for z in (0.0, occ.height)
        ]
    )
    px, pc = reference_project_points(cam, corners, cam_xy)
    px = px[pc[:, 2] > 1e-9]
    if len(px) == 0:
        return (0.0, 0.0, 0.0, 0.0)
    return (px[:, 0].min(), px[:, 1].min(), px[:, 0].max(), px[:, 1].max())


def reference_ground_cloud(scenario, rng, n, noise, max_draws=None):
    """One (x, y) pair at a time, at most max_draws (200 * n) pairs."""
    cam = scenario.camera
    e = scenario.ground_extent
    pts, pixels = [], []
    guard = 0
    while len(pts) < n and guard < (200 * n if max_draws is None else max_draws):
        guard += 1
        x = rng.uniform(-e / 2.0, e / 2.0)
        y = rng.uniform(0.5, e)
        px, pc = reference_project_points(cam, np.array([[x, y, 0.0]]), (0.0, 0.0))
        u, v = px[0]
        if 0 <= u < cam.image_width and 0 <= v < cam.image_height and pc[0, 2] > 0:
            p = pc[0]
            if noise > 0:
                p = p + rng.normal(0.0, noise, size=3)
            pts.append(p)
            pixels.append(px[0])
    return np.array(pts), np.array(pixels)


def reference_generate(scenario):
    """(gt, detections, cloud, cloud_pixels)."""
    cam = scenario.camera
    rng = np.random.default_rng(scenario.seed)
    ego = scenario.ego_track()
    base_appearance = {}
    for a in scenario.agents:
        vec = np.random.default_rng(a.appearance_seed).normal(size=scenario.appearance_dim)
        base_appearance[a.id] = vec / np.linalg.norm(vec)
    detections, gt = [], []
    img_w, img_h = cam.image_width, cam.image_height
    for f in range(scenario.n_frames):
        t = f / scenario.fps
        cam_xy = ego.offset(f)
        occ_rects = [reference_occluder_rect(cam, o, cam_xy) for o in scenario.occluders]
        agents = sorted(scenario.agents, key=lambda a: a.id)
        boxes, positions = {}, {}
        for a in agents:
            positions[a.id] = reference_agent_position(a, t)
            boxes[a.id] = reference_agent_box(cam, a, positions[a.id], cam_xy)
        for a in agents:
            box = boxes[a.id]
            covers = [r for r in occ_rects if r[3] > box.bottom]
            covers += [
                (b.left, b.top, b.right, b.bottom)
                for other, b in boxes.items()
                if other != a.id and b.bottom > box.bottom
            ]
            visibility = 1.0 - reference_covered_fraction(box, covers)
            gt.append(ReferenceGt(f, a.id, box, positions[a.id].copy(), visibility))
            in_frame = box.right > 0 and box.left < img_w and box.bottom > 0 and box.top < img_h
            if visibility >= VISIBILITY_CUTOFF and in_frame:
                if scenario.detection_noise > 0:
                    jit = rng.normal(0.0, scenario.detection_noise, size=4)
                else:
                    jit = np.zeros(4)
                noisy = PixelBox(
                    box.left + jit[0],
                    box.top + jit[1],
                    max(box.width + jit[2], 1.0),
                    max(box.height + jit[3], 1.0),
                )
                app = base_appearance[a.id]
                if scenario.appearance_noise > 0:
                    app = app + rng.normal(0.0, scenario.appearance_noise, size=app.shape)
                app = app / np.linalg.norm(app)
                detections.append(SimDetection(f, noisy, app, agent_id=a.id))
    cloud, pixels = reference_ground_cloud(
        scenario, rng, scenario.cloud_points, scenario.cloud_noise
    )
    return gt, detections, cloud, pixels


def random_agent(rng, agent_id: int) -> AgentSpec:
    """A walker on 1-4 waypoints; some repeat (zero-length legs), some lie outside the image."""
    n = int(rng.integers(1, 5))
    xs = rng.uniform(-12.0, 12.0, n)
    if rng.random() < 0.2:
        xs += rng.choice([-25.0, 25.0])  # beside the image at every depth
    ys = rng.uniform(3.0, 25.0, n)
    wps = [(float(x), float(y)) for x, y in zip(xs, ys)]
    if n > 1 and rng.random() < 0.4:
        k = int(rng.integers(1, n))
        wps[k] = wps[k - 1]
    return AgentSpec(
        id=agent_id,
        waypoints=tuple(wps),
        speed=float(rng.uniform(0.5, 3.0)),
        height=float(rng.uniform(1.2, 2.0)),
        width=float(rng.uniform(0.3, 0.9)),
        appearance_seed=int(rng.integers(0, 1000)),
    )


def random_occluder(rng) -> Occluder:
    """A wall in view, or one reaching behind the camera (y < about -3.5 m)."""
    x0 = float(rng.uniform(-10.0, 8.0))
    y0 = float(rng.uniform(-12.0, 20.0))
    depth = float(rng.uniform(0.2, 12.0) if y0 < 0 else rng.uniform(0.2, 1.0))
    return Occluder(
        x_min=x0,
        x_max=x0 + float(rng.uniform(0.5, 5.0)),
        y_min=y0,
        y_max=y0 + depth,
        height=float(rng.uniform(0.5, 4.0)),
    )


N_FRAMES = (30, 32, 75)
# (FRAME_BLOCK, BLOCK_AGENTS) patched in: blocks of 1, 15 and 32 frames whatever the
# agent count, and of 4 * max(1, 8 // agents) frames (32 for one agent, 4 from five on)
SMALL_BLOCKS = ((1, 1), (15, 1), (32, 1), (4, 8))


def generate_in_blocks(scenario, constants=None):
    """(generate(scenario), the frame count of each block it generated), with
    (FRAME_BLOCK, BLOCK_AGENTS) patched to constants unless None. A block is
    seen as its one projection of a (frames, agents, 4, 3) stack of corners."""
    sizes = []

    def spy(cam, world, *args):
        if np.ndim(world) == 4:
            sizes.append(np.shape(world)[0])
        return project_points(cam, world, *args)

    with pytest.MonkeyPatch.context() as mp:
        if constants is not None:
            mp.setattr(simulator, "FRAME_BLOCK", constants[0])
            mp.setattr(simulator, "BLOCK_AGENTS", constants[1])
        mp.setattr(simulator, "project_points", spy)
        sim = generate(scenario)
    assert sum(sizes) == scenario.n_frames
    return sim, sizes


def random_scenario(seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    fps, n_frames = 10.0, N_FRAMES[seed % len(N_FRAMES)]
    path = None
    if rng.random() < 0.5:  # a panning camera with jitter
        drift = rng.uniform(-0.1, 0.1, 2)
        path = tuple(
            (float(dx), float(dy)) for dx, dy in drift + rng.normal(0.0, 0.02, (n_frames - 1, 2))
        )
    return Scenario(
        camera=CameraSpec(
            height=float(rng.uniform(4.0, 8.0)),
            tilt_deg=float(rng.uniform(20.0, 40.0)),
            focal=float(rng.uniform(800.0, 1200.0)),
            image_width=1920,
            image_height=1080,
        ),
        ground_extent=40.0,
        agents=tuple(random_agent(rng, int(i)) for i in rng.permutation(int(rng.integers(0, 13)))),
        occluders=tuple(random_occluder(rng) for _ in range(int(rng.integers(0, 4)))),
        fps=fps,
        duration=n_frames / fps,
        detection_noise=float(rng.choice([0.0, 0.7])),
        appearance_noise=float(rng.choice([0.0, 0.05])),
        seed=seed,
        camera_path=path,
        cloud_points=30,
        cloud_noise=float(rng.choice([0.0, 0.02])),
    )


SEEDS = range(40)


@functools.lru_cache(maxsize=None)
def reference_of_seed(seed):
    return reference_generate(random_scenario(seed))


def assert_matches_reference(sim, reference):
    gt, dets, cloud, pixels = reference
    assert len(sim.gt) == len(gt)
    assert sim.gt.frame.tolist() == [g.frame for g in gt]
    assert sim.gt.agent_id.tolist() == [g.agent_id for g in gt]
    assert sim.gt.box.tolist() == [[g.box.left, g.box.top, g.box.width, g.box.height] for g in gt]
    assert np.array_equal(sim.gt.bev, np.reshape([g.bev for g in gt], (-1, 2)))
    # every visibility to the bit, 1.0 for the boxes with no cover included
    got_vis = sim.gt.visibility
    want_vis = np.array([g.visibility for g in gt], dtype=float)
    assert np.array_equal(got_vis.view(np.uint64), want_vis.view(np.uint64))
    assert len(sim.detections) == len(dets)
    for got, want in zip(sim.detections, dets):
        assert (got.frame, got.agent_id, got.box) == (want.frame, want.agent_id, want.box)
        assert np.array_equal(got.appearance, want.appearance)
    assert np.array_equal(sim.cloud, cloud)
    assert np.array_equal(sim.cloud_pixels, pixels)


@pytest.mark.parametrize("seed", SEEDS)
def test_generate_matches_per_agent_reference(seed):
    assert_matches_reference(generate(random_scenario(seed)), reference_of_seed(seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("constants", SMALL_BLOCKS, ids=lambda c: f"block{c[0]}x{c[1]}")
def test_small_blocks_match_per_agent_reference(seed, constants):
    sim, _ = generate_in_blocks(random_scenario(seed), constants)
    assert_matches_reference(sim, reference_of_seed(seed))


def test_zero_width_cover_on_the_centre_column_hides_nothing():
    """A zero-width wall on the camera's axis images, from a static camera,
    to a zero-width rectangle on the centre column. It covers nothing, so it
    must not reach the sweep either, where its edge would split the strips
    of the low wall that half hides the walker."""
    scenario = Scenario(
        camera=CameraSpec(
            height=6.0, tilt_deg=30.0, focal=1000.0, image_width=1920, image_height=1080
        ),
        ground_extent=40.0,
        agents=(AgentSpec(id=1, waypoints=((-0.6, 12.0), (0.6, 12.0)), speed=0.3),),
        occluders=(
            Occluder(x_min=0.0, x_max=0.0, y_min=9.0, y_max=9.3, height=3.0),
            Occluder(x_min=-2.0, x_max=0.244, y_min=10.0, y_max=10.3, height=1.44),
        ),
        fps=10.0,
        duration=4.0,
        cloud_points=30,
    )
    gt = reference_generate(scenario)[0]
    got_vis = generate(scenario).gt.visibility
    want_vis = np.array([g.visibility for g in gt])
    assert np.array_equal(got_vis.view(np.uint64), want_vis.view(np.uint64))
    assert any(0.0 < v < 1.0 for v in want_vis)


def test_random_scenarios_cover_the_edge_cases():
    scenarios = [random_scenario(s) for s in SEEDS]
    agents = [a for sc in scenarios for a in sc.agents]
    assert any(sc.camera_path is not None for sc in scenarios)
    assert any(sc.camera_path is None for sc in scenarios)
    assert any(len(a.waypoints) == 1 for a in agents)
    assert any(p == q for a in agents for p, q in zip(a.waypoints, a.waypoints[1:]))
    assert any(not sc.agents for sc in scenarios)
    # at the module's constants each scenario is one block; with the small blocks
    # some are one block, some a whole number k > 1 of them, some end in a shorter one
    assert all(generate_in_blocks(sc)[1] == [sc.n_frames] for sc in scenarios)
    small = [generate_in_blocks(sc, c)[1] for sc in scenarios for c in SMALL_BLOCKS]
    assert any(len(b) == 1 for b in small)
    assert any(len(b) > 1 and len(set(b)) == 1 for b in small)
    assert any(len(b) > 1 and b[-1] < b[0] for b in small)
    assert {b[0] for b in small} >= {1, 4, 8, 15, 16, 32}
    for field in ("detection_noise", "appearance_noise", "cloud_noise"):
        assert {getattr(sc, field) > 0 for sc in scenarios} == {True, False}
    # some occluders lie wholly behind the camera, some partly, some in front
    in_front = []
    for sc in scenarios:
        for o in sc.occluders:
            corners = [(x, y, z) for x in (o.x_min, o.x_max) for y in (o.y_min, o.y_max)
                       for z in (0.0, o.height)]
            _, pc = reference_project_points(sc.camera, np.array(corners), (0.0, 0.0))
            in_front.append(int((pc[:, 2] > 1e-9).sum()))
    assert 0 in in_front and 8 in in_front
    assert any(0 < k < 8 for k in in_front)
    # some boxes lie outside the image, some are hidden, some partly and some not covered
    gts = [g for sc in scenarios[:10] for g in reference_generate(sc)[0]]
    assert any(g.box.right < 0 or g.box.left > 1920 for g in gts)
    assert any(0.0 < g.visibility < VISIBILITY_CUTOFF for g in gts)
    assert any(VISIBILITY_CUTOFF <= g.visibility < 1.0 for g in gts)
    assert any(g.visibility == 1.0 for g in gts)


def paused_pan_scenario() -> Scenario:
    """A camera that stands still, pans 0.25 m/frame, stands, and jumps back.

    Its offsets run (0, 0); (-0.0, 0), as the cumulative sum keeps the first
    delta's sign; (0, 0) for frames 2-6; 0.25, 0.5 and 0.75 m; 1 m for frames
    10-15; and (0, 0) again for frames 16-20. Walkers cross two walls.
    """
    deltas = ([(-0.0, 0.0)] + [(0.0, 0.0)] * 5 + [(0.25, 0.0)] * 4 + [(0.0, 0.0)] * 5
              + [(-1.0, 0.0)] + [(0.0, 0.0)] * 4)
    return Scenario(
        camera=CameraSpec(
            height=6.0, tilt_deg=30.0, focal=1000.0, image_width=1920, image_height=1080
        ),
        ground_extent=40.0,
        agents=(
            AgentSpec(id=1, waypoints=((-4.0, 12.0), (4.0, 12.0)), speed=1.2),
            AgentSpec(id=2, waypoints=((3.0, 9.0), (-3.0, 9.5)), speed=1.5, width=0.5),
            AgentSpec(id=3, waypoints=((0.5, 15.0), (-2.0, 11.0)), speed=1.0, height=1.9),
        ),
        occluders=(
            Occluder(x_min=-2.0, x_max=0.5, y_min=10.0, y_max=10.3, height=1.2),
            Occluder(x_min=1.0, x_max=2.5, y_min=8.0, y_max=8.3, height=3.0),
        ),
        fps=10.0,
        duration=2.1,
        detection_noise=0.7,
        appearance_noise=0.05,
        seed=5,
        camera_path=tuple(deltas),
        cloud_points=30,
    )


def test_occluders_are_projected_once_per_run_of_equal_offsets(monkeypatch):
    scenario = paused_pan_scenario()
    calls = []

    def spy(cam, occluders, cam_xy):
        calls.append(np.array(cam_xy))
        return occluder_rects(cam, occluders, cam_xy)

    occluder_rects = simulator._occluder_rects
    monkeypatch.setattr(simulator, "_occluder_rects", spy)
    sim = generate(scenario)

    want = np.array([(0.0, 0.0), (-0.0, 0.0), (0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (0.75, 0.0),
                     (1.0, 0.0), (0.0, 0.0)])
    assert len(calls) == 1
    assert np.array_equal(calls[0].view(np.uint64), want.view(np.uint64))
    assert_matches_reference(sim, reference_generate(scenario))
    assert len(sim.table) > 0 and any(0.0 < v < 1.0 for v in sim.gt.visibility)


def test_zero_frames_give_an_empty_output():
    scenario = replace(paused_pan_scenario(), camera_path=None, duration=0.04)
    assert scenario.n_frames == 0
    sim = generate(scenario)
    assert len(sim.gt) == 0 and len(sim.table) == 0 and sim.detections == []
    assert sim.gt.box.shape == (0, 4) and sim.gt.bev.shape == (0, 2)
    assert sim.table.box.shape == (0, 4) and sim.table.appearance.shape == (0, 16)
    assert_matches_reference(sim, reference_generate(scenario))


# -- the benchmark's crowds: every block size gives the same arrays ----------------------

SCENES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "scenes.py"
)


def bench_scenes(workload: str) -> list:
    spec = importlib.util.spec_from_file_location("bench_scenes", SCENES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[workload](0)


def output_arrays(sim) -> list:
    t, g = sim.table, sim.gt
    return [t.frame, t.box, t.appearance, t.agent_id, g.frame, g.agent_id, g.box, g.bev,
            g.visibility, sim.cloud, sim.cloud_pixels]


@pytest.mark.parametrize("workload, walkers, blocks", [("crowd", 60, 11), ("crowd_fan", 40, 11)])
def test_crowd_scenes_are_the_same_in_every_block_size(workload, walkers, blocks):
    """The first scene of each crowd workload, 340 frames, in its 32-frame blocks,
    in blocks of one frame and as one block."""
    scenario = bench_scenes(workload)[0][0]
    assert (len(scenario.agents), scenario.n_frames) == (walkers, 340)
    runs = [generate_in_blocks(scenario, c) for c in (None, (1, 1), (scenario.n_frames, 1))]
    assert [len(sizes) for _, sizes in runs] == [blocks, 340, 1]
    want = output_arrays(runs[0][0])
    for sim, _ in runs[1:]:
        for got, exp in zip(output_arrays(sim), want):
            assert got.dtype == exp.dtype and got.shape == exp.shape
            assert got.tobytes() == exp.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_vectorized_agent_position_matches_scalar_calls(seed):
    rng = np.random.default_rng(seed)
    agent = random_agent(rng, 0)
    times = np.concatenate([np.arange(200) / 7.0, rng.uniform(0.0, 40.0, 50), [0.0, 1e6]])
    got = agent_position(agent, times)
    assert got.shape == (len(times), 2)
    want = np.array([reference_agent_position(agent, float(t)) for t in times])
    assert np.array_equal(got, want)
    for t in times[::25]:
        assert np.array_equal(agent_position(agent, float(t)), reference_agent_position(agent, t))


def sliver_scenario(seed: int, cloud_noise: float) -> Scenario:
    """No walkers, and a camera tilted up until about 1 in 220 ground draws is in view."""
    return Scenario(
        camera=CameraSpec(
            height=6.0, tilt_deg=-19.8, focal=1000.0, image_width=1920, image_height=1080
        ),
        ground_extent=40.0,
        agents=(),
        fps=10.0,
        duration=1.0,
        seed=seed,
        cloud_points=4,
        cloud_noise=cloud_noise,
    )


# Seeds whose 4th ground point is the 800th pair drawn, the last that 200 * n
# allows, or the 801st, one past it.
@pytest.mark.parametrize(
    "seed, cloud_noise, draws",
    [(1283, 0.0, 800), (127, 0.0, 801), (1669, 0.02, 800), (567, 0.02, 801)],
)
def test_too_little_ground_raises_exactly_when_the_scalar_loop_runs_out(seed, cloud_noise, draws):
    scenario = sliver_scenario(seed, cloud_noise)

    def reference(max_draws):
        rng = np.random.default_rng(seed)
        return reference_ground_cloud(scenario, rng, 4, cloud_noise, max_draws)

    assert len(reference(draws)[0]) == 4 and len(reference(draws - 1)[0]) == 3
    cloud, pixels = reference(None)
    if draws <= 800:
        sim = generate(scenario)
        assert np.array_equal(sim.cloud, cloud)
        assert np.array_equal(sim.cloud_pixels, pixels)
    else:
        with pytest.raises(InvalidScenario, match="too little ground to sample the point cloud"):
            generate(scenario)
