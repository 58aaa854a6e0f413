import dataclasses
import json
import warnings

import numpy as np
import pytest

from bevtrack.boxes import covered_fraction, ltwh
from bevtrack.errors import InvalidScenario, ParseError
from bevtrack.experiments import crossing_scenario, pixel_baseline_scene
from bevtrack.linearized import linearize
from bevtrack.simulator import (
    VISIBILITY_CUTOFF,
    AgentSpec,
    CameraSpec,
    Occluder,
    Scenario,
    agent_position,
    build_scene_model,
    generate,
    project_points,
    read_scenario,
    scenario_from_dict,
    scenario_to_dict,
    true_homography,
    write_scenario,
)
from test_simulator_reference import reference_agent_box, reference_occluder_rect


def gt_bev(sim, frame: int, agent_id: int) -> np.ndarray:
    """The BEV point of the one ground-truth row of an agent at a frame."""
    (k,) = np.flatnonzero((sim.gt.frame == frame) & (sim.gt.agent_id == agent_id))
    return sim.gt.bev[k]


def gt_visibility(sim) -> dict:
    """{(frame, agent id): visibility} of the ground truth."""
    gt = sim.gt
    return dict(zip(zip(gt.frame.tolist(), gt.agent_id.tolist()), gt.visibility.tolist()))


def make_camera():
    return CameraSpec(height=6.0, tilt_deg=30.0, focal=1000.0, image_width=1920, image_height=1080)


def make_scenario(agents, occluders=(), **kw):
    base = dict(
        camera=make_camera(),
        ground_extent=40.0,
        agents=tuple(agents),
        occluders=tuple(occluders),
        fps=10.0,
        duration=2.0,
        cloud_points=50,
        seed=5,
    )
    base.update(kw)
    return Scenario(**base)


WALKER = AgentSpec(id=1, waypoints=((-2.0, 10.0), (2.0, 10.0)), speed=1.0)


class TestScenarioValidation:
    def test_rejects_bad_fps_duration_extent(self):
        with pytest.raises(InvalidScenario):
            make_scenario([WALKER], fps=0.0)
        with pytest.raises(InvalidScenario):
            make_scenario([WALKER], duration=-1.0)
        with pytest.raises(InvalidScenario):
            make_scenario([WALKER], ground_extent=0.0)

    def test_rejects_duplicate_agent_ids(self):
        with pytest.raises(InvalidScenario):
            make_scenario([WALKER, AgentSpec(id=1, waypoints=((0.0, 5.0),), speed=1.0)])

    def test_rejects_bad_agents(self):
        with pytest.raises(InvalidScenario):
            make_scenario([AgentSpec(id=1, waypoints=((0.0, 5.0),), speed=0.0)])
        with pytest.raises(InvalidScenario):
            make_scenario([AgentSpec(id=1, waypoints=(), speed=1.0)])

    def test_camera_path_length_checked(self):
        # 2 s at 10 fps: 20 frames, needs 19 deltas
        with pytest.raises(InvalidScenario):
            make_scenario([WALKER], camera_path=tuple([(0.1, 0.0)] * 5))
        make_scenario([WALKER], camera_path=tuple([(0.1, 0.0)] * 19))

    def test_n_frames(self):
        assert make_scenario([WALKER]).n_frames == 20


class TestAgentPosition:
    def test_single_waypoint_is_static(self):
        a = AgentSpec(id=1, waypoints=((3.0, 7.0),), speed=2.0)
        assert np.allclose(agent_position(a, 0.0), [3.0, 7.0])
        assert np.allclose(agent_position(a, 99.0), [3.0, 7.0])

    def test_constant_speed_along_segments(self):
        a = AgentSpec(id=1, waypoints=((0.0, 0.0), (4.0, 0.0), (4.0, 2.0)), speed=2.0)
        assert np.allclose(agent_position(a, 1.0), [2.0, 0.0])
        assert np.allclose(agent_position(a, 2.0), [4.0, 0.0])
        assert np.allclose(agent_position(a, 2.5), [4.0, 1.0])

    def test_segment_longer_than_the_float_squares_keeps_its_speed(self):
        # |segment|^2 overflows; the length is measured scaled down instead.
        a = AgentSpec(id=1, waypoints=((0.0, 0.0), (0.0, 1e308)), speed=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pos = agent_position(a, np.array([0.0, 2.0]))
        assert np.allclose(pos, [[0.0, 0.0], [0.0, 3.0]], rtol=1e-12, atol=0.0)

    def test_clamps_at_the_end(self):
        a = AgentSpec(id=1, waypoints=((0.0, 0.0), (4.0, 0.0)), speed=2.0)
        assert np.allclose(agent_position(a, 50.0), [4.0, 0.0])


class TestGenerateGeometry:
    def test_deterministic_for_fixed_seed(self):
        scn = make_scenario([WALKER], detection_noise=0.4, appearance_noise=0.05)
        a, b = generate(scn), generate(scn)
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert da.frame == db.frame and da.agent_id == db.agent_id
            assert da.box == db.box
            assert np.array_equal(da.appearance, db.appearance)
        assert np.array_equal(a.cloud, b.cloud)

    def test_detections_view_is_the_table_row_by_row(self):
        scn = make_scenario([WALKER], detection_noise=0.4, appearance_noise=0.05)
        sim = generate(scn)
        t = sim.table
        assert len(sim.detections) == len(t) > 0 and sim.detections is sim.detections

        def bits(v):
            return np.asarray(v, dtype=float).view(np.uint64).tolist()

        for k, d in enumerate(sim.detections):
            assert (d.frame, d.agent_id) == (t.frame[k], t.agent_id[k])
            assert d.box is t.boxes()[k]
            assert bits(ltwh([d.box])[0]) == bits(t.box[k])
            assert bits(d.appearance) == bits(t.appearance[k])
        assert [f.name for f in dataclasses.fields(d)] == ["frame", "box", "appearance", "agent_id"]

    def test_bottom_center_lifts_back_to_ground_position(self):
        # The box bottom edge sits exactly on the agent's ground row, so the
        # lifted depth is exact. The box's horizontal center is set by the
        # wider head-height corners, giving a small lateral bias off-axis.
        scn = make_scenario([WALKER])
        sim = generate(scn)
        h = sim.homography
        for det in sim.detections:
            bev = gt_bev(sim, det.frame, det.agent_id)
            lifted = h.apply(np.array(det.box.bottom_center))
            assert lifted[1] == pytest.approx(bev[1], abs=1e-9)
            assert abs(lifted[0] - bev[0]) < 0.15

    def test_on_axis_agent_lifts_exactly(self):
        center = AgentSpec(id=1, waypoints=((0.0, 10.0),), speed=1.0)
        sim = generate(make_scenario([center]))
        lifted = sim.homography.apply(np.array(sim.detections[0].box.bottom_center))
        assert np.allclose(lifted, [0.0, 10.0], atol=1e-9)

    def test_bottom_corner_midpoint_lifts_exactly(self):
        # the midpoint of the two ground-corner pixels is an exact image of
        # the agent position, for any lateral offset
        scn = make_scenario([WALKER])
        a = WALKER
        pos = np.array([-2.0, 10.0])
        hw = a.width / 2.0
        corners = np.array([[pos[0] - hw, pos[1], 0.0], [pos[0] + hw, pos[1], 0.0]])
        px, _ = project_points(scn.camera, corners, (0.0, 0.0))
        mid = px.mean(axis=0)
        lifted = true_homography(scn.camera).apply(mid)
        assert np.allclose(lifted, pos, atol=1e-9)

    def test_gt_bev_matches_waypoint_kinematics(self):
        scn = make_scenario([WALKER])
        sim = generate(scn)
        for frame, bev in zip(sim.gt.frame.tolist(), sim.gt.bev):
            want = agent_position(WALKER, frame / scn.fps)
            assert np.allclose(bev, want, atol=1e-12)

    def test_moving_camera_keeps_world_fixed_bev(self):
        # with egomotion, lifting bottom-centers and adding the camera offset
        # recovers world positions (same lateral bias bound as the static case)
        path = tuple([(0.2, 0.1)] * 19)
        center = AgentSpec(id=1, waypoints=((0.0, 10.0),), speed=0.0001)
        scn = make_scenario([center], camera_path=path)
        sim = generate(scn)
        lh = linearize(sim.homography, (1920, 1080), 0.2)
        for det in sim.detections:
            bev = gt_bev(sim, det.frame, det.agent_id)
            lifted = lh.px_to_bev(np.array(det.box.bottom_center)) + sim.ego.offset(det.frame)
            assert lifted[1] == pytest.approx(bev[1], abs=1e-9)
            # the camera drifts almost 4 m sideways: larger off-axis bias
            assert abs(lifted[0] - bev[0]) < 0.2

    def test_cloud_lies_on_the_ground_plane(self):
        scn = make_scenario([WALKER])
        sim = generate(scn)
        assert len(sim.cloud) == 50
        # camera-frame ground points: lifting their pixels through the exact
        # homography gives BEV points 6 m below the camera in world frame
        bev = sim.homography.apply(sim.cloud_pixels)
        # re-project and compare pixels
        world = np.concatenate([bev, np.zeros((len(bev), 1))], axis=1)
        px, _ = project_points(scn.camera, world, (0.0, 0.0))
        assert np.allclose(px, sim.cloud_pixels, atol=1e-6)

    def test_cloud_noise_perturbs_camera_points(self):
        clean = generate(make_scenario([WALKER]))
        noisy = generate(make_scenario([WALKER], cloud_noise=0.05))
        assert clean.cloud.shape == noisy.cloud.shape
        assert not np.allclose(clean.cloud, noisy.cloud, atol=1e-6)


class TestVisibilityAndEmission:
    def test_open_walker_fully_visible(self):
        sim = generate(make_scenario([WALKER]))
        assert (sim.gt.visibility == 1.0).all()
        assert len(sim.detections) == 20

    def test_visibility_matches_covered_fraction_recomputation(self):
        wall = Occluder(x_min=-1.0, x_max=1.0, y_min=8.0, y_max=8.3, height=3.3)
        scn = make_scenario([WALKER], occluders=(wall,))
        sim = generate(scn)
        for bev, visibility in zip(sim.gt.bev, sim.gt.visibility):
            box = reference_agent_box(scn.camera, WALKER, bev, (0.0, 0.0))
            rect = reference_occluder_rect(scn.camera, wall, (0.0, 0.0))
            covers = [rect] if rect[3] > box.bottom else []
            want = 1.0 - covered_fraction(box, covers)
            assert visibility == pytest.approx(want, abs=1e-12)

    def test_emission_respects_cutoff(self):
        wall = Occluder(x_min=-1.0, x_max=1.0, y_min=8.0, y_max=8.3, height=3.3)
        fast = AgentSpec(id=1, waypoints=((-4.0, 10.0), (4.0, 10.0)), speed=4.0)
        scn = make_scenario([fast], occluders=(wall,))
        sim = generate(scn)
        emitted = {(d.frame, d.agent_id) for d in sim.detections}
        for key, visibility in gt_visibility(sim).items():
            if visibility >= VISIBILITY_CUTOFF:
                assert key in emitted
            else:
                assert key not in emitted
        # the wide wall must actually hide the walker for part of the pass
        assert (sim.gt.visibility < VISIBILITY_CUTOFF).any()
        assert (sim.gt.visibility >= VISIBILITY_CUTOFF).any()

    def test_agents_occlude_each_other(self):
        # two walkers on the same camera ray, the nearer one (larger bottom)
        # covers the farther one
        near = AgentSpec(id=1, waypoints=((0.0, 9.0),), speed=1.0)
        far = AgentSpec(id=2, waypoints=((0.0, 10.5),), speed=1.0)
        sim = generate(make_scenario([near, far]))
        vis = gt_visibility(sim)
        assert vis[(0, 1)] == 1.0
        assert vis[(0, 2)] < 1.0

    def test_out_of_frame_agent_not_emitted(self):
        off = AgentSpec(id=1, waypoints=((-30.0, 10.0),), speed=1.0)
        sim = generate(make_scenario([off]))
        assert sim.detections == []
        assert len(sim.gt) == 20  # ground truth still records it

    def test_detection_noise_jitters_boxes(self):
        clean = generate(make_scenario([WALKER]))
        noisy = generate(make_scenario([WALKER], detection_noise=0.5))
        deltas = [
            abs(a.box.left - b.box.left)
            for a, b in zip(clean.detections, noisy.detections)
        ]
        assert max(deltas) > 0.05

    def test_appearance_unit_norm_and_identity_specific(self):
        a1 = AgentSpec(id=1, waypoints=((-2.0, 10.0),), speed=1.0, appearance_seed=10)
        a2 = AgentSpec(id=2, waypoints=((2.0, 10.0),), speed=1.0, appearance_seed=11)
        sim = generate(make_scenario([a1, a2], appearance_noise=0.05))
        for det in sim.detections:
            assert np.linalg.norm(det.appearance) == pytest.approx(1.0, abs=1e-9)
        d1 = [d.appearance for d in sim.detections if d.agent_id == 1]
        d2 = [d.appearance for d in sim.detections if d.agent_id == 2]
        # same identity stays similar, different identities do not
        assert float(d1[0] @ d1[1]) > 0.95
        assert abs(float(d1[0] @ d2[0])) < 0.9

    def test_visibility_records(self):
        sim = generate(make_scenario([WALKER]))
        gt = sim.gt
        assert len(gt) == 20
        assert (gt.frame[0], gt.agent_id[0], gt.visibility[0]) == (0, 1, 1.0)


class TestBuildSceneModel:
    def test_map_rate_and_camera_motion(self, true_h):
        lh = linearize(true_h, (1920, 1080), 0.2)
        static = build_scene_model(make_scenario([WALKER]), lh)
        assert static.lh is lh and static.fps == 10.0 and static.ego is None
        panned = make_scenario([WALKER], camera_path=((0.5, 0.0),) * 19)
        scene = build_scene_model(panned, lh, 0.5)  # a third argument is ignored
        assert scene.lh is lh and scene.fps == 10.0
        assert np.array_equal(scene.ego.offsets, panned.ego_track().offsets)

    def test_pixel_baseline_maps_pixels_to_themselves(self):
        scene = pixel_baseline_scene(crossing_scenario())
        px = np.array([[0.0, 0.0], [960.0, 540.0], [1919.0, 1079.0]])
        assert np.array_equal(scene.px_to_world(px, 0), px)
        assert scene.fps == crossing_scenario().fps and scene.ego is None


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        wall = Occluder(x_min=-1.0, x_max=1.0, y_min=8.0, y_max=8.5, height=3.0)
        scn = make_scenario(
            [WALKER], occluders=(wall,), detection_noise=0.3, camera_path=tuple([(0.1, 0.0)] * 19)
        )
        p = tmp_path / "scene.json"
        write_scenario(p, scn)
        assert read_scenario(p) == scn

    def test_dict_round_trip(self):
        scn = make_scenario([WALKER])
        assert scenario_from_dict(scenario_to_dict(scn)) == scn

    def test_missing_field_named(self):
        d = scenario_to_dict(make_scenario([WALKER]))
        del d["fps"]
        with pytest.raises(ParseError, match="missing field 'fps'"):
            scenario_from_dict(d)

    def test_unknown_field_named(self):
        d = scenario_to_dict(make_scenario([WALKER]))
        d["framerate"] = 30
        with pytest.raises(ParseError, match="unknown field 'framerate'"):
            scenario_from_dict(d)

    def test_nested_camera_field_checked(self):
        d = scenario_to_dict(make_scenario([WALKER]))
        del d["camera"]["focal"]
        with pytest.raises(ParseError, match="scenario.camera: missing field 'focal'"):
            scenario_from_dict(d)

    def test_agent_fields_checked(self):
        d = scenario_to_dict(make_scenario([WALKER]))
        del d["agents"][0]["speed"]
        with pytest.raises(ParseError, match=r"agents\[0\]: missing field 'speed'"):
            scenario_from_dict(d)

    def test_invalid_json_reported_with_path(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ParseError, match="broken.json"):
            read_scenario(p)

    def test_bundled_scenario_read_by_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert read_scenario("crossing") == read_scenario("crossing.json") == crossing_scenario()
        assert crossing_scenario().agents[0].waypoints == ((-7.5, 8.9), (10.0, 12.4))
        with pytest.raises(ParseError, match="^scenario 'nowhere': no such file or bundled"):
            read_scenario("nowhere")
        (tmp_path / "crossing").write_text("{}")  # a file of that name comes first
        with pytest.raises(ParseError, match="missing field 'agents'"):
            read_scenario("crossing")

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda d: d["agents"][0].update(speed="fast"), ParseError,
             r"scenario\.agents\[0\]\.speed must be a number"),
            (lambda d: d.update(fps="fast"), ParseError, r"scenario\.fps must be a number"),
            (lambda d: d["agents"][0]["waypoints"].__setitem__(0, [1.0]), ParseError,
             r"scenario\.agents\[0\]\.waypoints must hold \[x, y\] number pairs"),
            (lambda d: d.update(agents=5), ParseError, r"scenario\.agents must be a list"),
            (lambda d: d["agents"].__setitem__(0, 5), ParseError,
             r"scenario\.agents\[0\]: expected a JSON object"),
            (lambda d: d["agents"][0].update(id=1.5), ParseError,
             r"scenario\.agents\[0\]\.id must be an integer"),
            (lambda d: d.update(camera_path=[[0.1]]), ParseError,
             r"scenario\.camera_path must hold \[x, y\] number pairs"),
            (lambda d: d.update(cloud_points=0), InvalidScenario,
             r"scenario\.cloud_points must be at least 4"),
            (lambda d: d["agents"][0].update(height=0), InvalidScenario,
             r"scenario\.agents\[0\]\.height must be positive"),
            (lambda d: d["agents"][0].update(width=-1), InvalidScenario,
             r"scenario\.agents\[0\]\.width must be positive"),
            (lambda d: d["agents"][0].update(speed=float("nan")), InvalidScenario,
             r"scenario\.agents\[0\]\.speed must be positive and finite"),
            (lambda d: d["camera"].update(focal=-100), InvalidScenario,
             r"scenario\.camera\.focal must be positive"),
            (lambda d: d["camera"].update(image_width=10**15), InvalidScenario,
             r"scenario\.camera\.image_width must be in \[1, 65536\]"),
            (lambda d: d.update(seed=-1), InvalidScenario, r"scenario\.seed must be non-negative"),
            (lambda d: d["occluders"][0].update(height=float("inf")), InvalidScenario,
             r"scenario\.occluders\[0\]: every field must be finite"),
        ],
    )
    def test_bad_field_named_before_generation(self, edit, error, message):
        wall = Occluder(x_min=-1.0, x_max=1.0, y_min=8.0, y_max=8.5, height=3.0)
        d = scenario_to_dict(make_scenario([WALKER], occluders=(wall,)))
        edit(d)
        with pytest.raises(error, match=message):
            scenario_from_dict(d)

    def test_semantic_errors_still_raise_invalid_scenario(self):
        d = scenario_to_dict(make_scenario([WALKER]))
        d["fps"] = -5
        with pytest.raises(InvalidScenario):
            scenario_from_dict(d)


class TestTrueHomography:
    def test_matches_projection(self, rng):
        cam = make_camera()
        h = true_homography(cam)
        world = np.stack(
            [rng.uniform(-10, 10, 50), rng.uniform(2, 30, 50), np.zeros(50)], axis=1
        )
        px, _ = project_points(cam, world, (0.0, 0.0))
        assert np.allclose(h.apply(px), world[:, :2], atol=1e-9)
