import numpy as np
import pytest

from bevtrack.egomotion import EgomotionTrack, estimate_egomotion
from bevtrack.errors import DegenerateInput
from bevtrack.simulator import sample_ground_correspondences


class TestEgomotionTrack:
    def test_identity(self):
        t = EgomotionTrack.identity(5)
        assert len(t) == 5
        assert np.allclose(t.offsets, 0.0)

    def test_from_deltas_cumulates(self):
        t = EgomotionTrack.from_deltas(np.array([[1.0, 0.0], [0.5, -1.0]]))
        assert len(t) == 3
        assert np.allclose(t.offset(0), [0.0, 0.0])
        assert np.allclose(t.offset(1), [1.0, 0.0])
        assert np.allclose(t.offset(2), [1.5, -1.0])

    def test_first_offset_must_be_zero(self):
        with pytest.raises(ValueError):
            EgomotionTrack(np.array([[0.1, 0.0], [1.0, 0.0]]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            EgomotionTrack(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            EgomotionTrack(np.zeros((3, 3)))

    def test_frame_out_of_range(self):
        t = EgomotionTrack.identity(2)
        with pytest.raises(ValueError):
            t.offset(2)
        with pytest.raises(ValueError):
            t.offset(-1)


class TestEstimateEgomotion:
    def make_pairs(self, lh, rng, delta, n=60):
        """Ground points fixed in the world; the camera moves by `delta`, so
        camera-relative positions shift by -delta between the frames."""
        world = np.stack([rng.uniform(-6, 6, n), rng.uniform(5, 20, n)], axis=1)
        prev_px = lh.bev_to_px(world)
        cur_px = lh.bev_to_px(world - delta)
        return prev_px, cur_px

    def test_exact_recovery_noiseless(self, lh, rng):
        delta = np.array([0.8, 1.7])
        prev_px, cur_px = self.make_pairs(lh, rng, delta)
        got = estimate_egomotion(prev_px, cur_px, lh)
        assert np.allclose(got, delta, atol=1e-9)

    def test_noise_averages_out(self, lh, rng):
        delta = np.array([-0.4, 2.0])
        prev_px, cur_px = self.make_pairs(lh, rng, delta, n=500)
        cur_px = cur_px + rng.normal(0, 0.5, cur_px.shape)
        got = estimate_egomotion(prev_px, cur_px, lh)
        assert np.linalg.norm(got - delta) < 0.05

    def test_trimming_rejects_outliers(self, lh, rng):
        delta = np.array([1.0, 0.0])
        prev_px, cur_px = self.make_pairs(lh, rng, delta, n=50)
        # corrupt 8 correspondences badly
        bad = rng.choice(50, size=8, replace=False)
        cur_px[bad] += rng.uniform(80, 160, (8, 2))
        naive = estimate_egomotion(prev_px, cur_px, lh)
        robust = estimate_egomotion(prev_px, cur_px, lh, trim_fraction=0.2)
        assert np.linalg.norm(naive - delta) > 0.1
        assert np.linalg.norm(robust - delta) < 1e-6

    def test_single_point(self, lh):
        p = np.array([[960.0, 700.0]])
        got = estimate_egomotion(p, p, lh)
        assert np.allclose(got, 0.0)

    def test_mismatched_shapes(self, lh):
        with pytest.raises(DegenerateInput):
            estimate_egomotion(np.zeros((3, 2)), np.zeros((4, 2)), lh)
        with pytest.raises(DegenerateInput):
            estimate_egomotion(np.zeros((0, 2)), np.zeros((0, 2)), lh)

    def test_trim_fraction_validation(self, lh):
        p = np.zeros((3, 2)) + [960.0, 700.0]
        with pytest.raises(ValueError):
            estimate_egomotion(p, p, lh, trim_fraction=1.0)

    def test_simulated_correspondences_round_trip(self, lh):
        # A camera that translates (0.3, 0.5) per frame; correspondences sampled
        # by the simulator between frames 2 and 3 must recover that delta.
        from bevtrack.simulator import AgentSpec, CameraSpec, Scenario

        cam = CameraSpec(
            height=6.0, tilt_deg=30.0, focal=1000.0, image_width=1920, image_height=1080
        )
        path = np.tile([0.3, 0.5], (79, 1))
        scn = Scenario(
            camera=cam,
            agents=(AgentSpec(id=1, waypoints=((0.0, 10.0), (0.0, 12.0)), speed=0.5),),
            occluders=(),
            fps=5.0,
            duration=16.0,
            # keep sampled points inside the exact projective region (< ~36 m)
            ground_extent=20.0,
            camera_path=path,
            seed=3,
        )
        prev_px, cur_px = sample_ground_correspondences(scn, 2, 3, n=80, seed=11)
        got = estimate_egomotion(prev_px, cur_px, lh)
        assert np.allclose(got, [0.3, 0.5], atol=1e-6)
