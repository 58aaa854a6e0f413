import numpy as np
import pytest

from bevtrack.errors import DegenerateInput
from bevtrack.plane import GroundPlane, _samples, align_to_xy, fit_ground_plane


def make_plane_points(normal, offset, n, noise=0.0, seed=0, extent=10.0):
    """Points satisfying p . normal == offset (plus optional normal noise)."""
    rng = np.random.default_rng(seed)
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    # span the plane with two orthogonal in-plane directions
    helper = np.array([1.0, 0.0, 0.0])
    if abs(normal @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(normal, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    coeffs = rng.uniform(-extent, extent, size=(n, 2))
    pts = offset * normal + coeffs[:, :1] * e1 + coeffs[:, 1:] * e2
    if noise > 0:
        pts = pts + rng.normal(0.0, noise, size=(n, 1)) * normal
    return pts


class TestGroundPlane:
    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError, match="unit length"):
            GroundPlane(np.array([0.0, 0.0, -2.0]), -4.0)

    def test_rejects_downward_normal(self):
        with pytest.raises(ValueError, match="z component"):
            GroundPlane(np.array([0.0, 0.0, -1.0]), -4.0)

    def test_accepts_unit_upward_normal(self):
        p = GroundPlane(np.array([0.0, 0.0, 1.0]), 2.0)
        assert np.allclose(p.normal, [0.0, 0.0, 1.0])
        assert p.offset == pytest.approx(2.0)

    def test_distances(self):
        p = GroundPlane(np.array([0.0, 0.0, 1.0]), 1.0)
        d = p.distances(np.array([[0.0, 0.0, 3.0], [1.0, 2.0, 1.0]]))
        assert np.allclose(d, [2.0, 0.0])


class TestFitGroundPlane:
    def test_exact_recovery_noiseless(self):
        normal = np.array([0.1, -0.3, 0.9])
        pts = make_plane_points(normal, 2.5, 300, seed=1)
        plane = fit_ground_plane(pts)
        want = normal / np.linalg.norm(normal)
        assert np.allclose(plane.normal, want, atol=1e-10)
        assert plane.offset == pytest.approx(2.5, abs=1e-10)
        assert np.abs(plane.distances(pts)).max() < 1e-9

    def test_outlier_rejection(self):
        pts = make_plane_points([0.0, 0.0, 1.0], 1.0, 400, noise=0.01, seed=2)
        rng = np.random.default_rng(3)
        outliers = rng.uniform(-10, 10, size=(100, 3)) + np.array([0.0, 0.0, 8.0])
        cloud = np.vstack([pts, outliers])
        plane = fit_ground_plane(cloud, inlier_tol=0.05, seed=4)
        assert abs(plane.normal[2]) > 0.999
        assert plane.offset == pytest.approx(1.0, abs=0.02)

    def test_too_few_points(self):
        with pytest.raises(DegenerateInput):
            fit_ground_plane(np.zeros((2, 3)))

    def test_collinear_points_rejected(self):
        t = np.linspace(0, 1, 50)[:, None]
        pts = t * np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(DegenerateInput):
            fit_ground_plane(pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 37])
    def test_non_finite_points_are_refused(self, bad, row):
        pts = make_plane_points([0.0, 0.0, 1.0], 1.0, 50, seed=3)
        pts[row] = [1.0, bad, 2.0] if row else [bad, bad, bad]
        with pytest.raises(ValueError, match="^points must be finite$"):
            fit_ground_plane(pts)

    @pytest.mark.parametrize("scale", [1e100, 1e300])
    def test_normals_that_overflow_give_no_plane(self, scale):
        # Finite points whose sample normals overflow are dropped as collinear ones are,
        # rather than given a zero normal that every point lies within tol of.
        pts = make_plane_points([0.2, 0.1, 1.0], 3.0, 50, seed=3) * scale
        with pytest.raises(DegenerateInput, match="^RANSAC found no non-degenerate sample$"):
            fit_ground_plane(pts)

    def test_deterministic_for_seed(self):
        pts = make_plane_points([0.2, 0.1, 1.0], 3.0, 200, noise=0.05, seed=5)
        a = fit_ground_plane(pts, seed=6)
        b = fit_ground_plane(pts, seed=6)
        assert np.array_equal(a.normal, b.normal)
        assert a.offset == b.offset

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_no_samples_is_degenerate(self, iterations):
        pts = make_plane_points([0.0, 0.0, 1.0], 1.0, 50, seed=7)
        with pytest.raises(DegenerateInput, match="^RANSAC found no non-degenerate sample$"):
            fit_ground_plane(pts, max_iterations=iterations)


class TestSamples:
    """_samples draws what a loop of rng.choice(n, size=3, replace=False) draws, and
    leaves the generator where the loop leaves it, on this numpy build."""

    @pytest.mark.parametrize("n", [3, 4, 5, 149, 150, 1200, 10001, 10**6, 2**33])
    def test_equals_a_loop_of_choice(self, n):
        for seed in range(100):
            for k in (0, 1, 16, 200):
                rng, loop = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _samples(rng, n, k)
                want = [loop.choice(n, size=3, replace=False) for _ in range(k)]
                assert got.shape == (k, 3) and got.dtype == np.int64
                assert got.tolist() == [w.tolist() for w in want], (n, seed, k)
                assert rng.bit_generator.state == loop.bit_generator.state, (n, seed, k)


class TestAlignToXy:
    def test_aligned_points_have_constant_z(self):
        pts = make_plane_points([0.3, 0.4, 0.5], 2.0, 100, seed=7)
        plane = fit_ground_plane(pts)
        _, aligned = align_to_xy(plane, pts)
        assert np.ptp(aligned[:, 2]) < 1e-9

    def test_distances_preserved(self):
        pts = make_plane_points([0.1, 0.9, 0.7], 1.5, 50, seed=8)
        plane = fit_ground_plane(pts)
        rot, aligned = align_to_xy(plane, pts)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        d_before = np.linalg.norm(pts[1:] - pts[0], axis=1)
        d_after = np.linalg.norm(aligned[1:] - aligned[0], axis=1)
        assert np.allclose(d_before, d_after, atol=1e-9)

    def test_sensor_side_orientation(self):
        # Points on a plane below the origin must land at negative z so the
        # in-plane frame is right-handed seen from the sensor (no mirroring).
        pts = make_plane_points([0.0, -0.6, -0.8], -3.0, 80, seed=9)
        plane = fit_ground_plane(pts)
        _, aligned = align_to_xy(plane, pts)
        assert np.all(aligned[:, 2] < 0)

    def test_tilted_camera_ground_alignment(self, camera):
        # The simulator's ground cloud lives in camera coordinates; after
        # alignment the in-plane coordinates must preserve the true BEV
        # distances between the sampled points.
        from bevtrack.simulator import Scenario, AgentSpec, generate

        sc = Scenario(
            camera=camera,
            ground_extent=30.0,
            agents=(AgentSpec(id=1, waypoints=((0.0, 10.0),), speed=1.0),),
            duration=1.0,
            cloud_points=200,
            seed=11,
        )
        sim = generate(sc)
        plane = fit_ground_plane(sim.cloud)
        assert plane.offset == pytest.approx(camera.height, abs=1e-9)
        _, aligned = align_to_xy(plane, sim.cloud)
        true_bev = sim.homography.apply(sim.cloud_pixels)
        d_true = np.linalg.norm(true_bev[1:] - true_bev[0], axis=1)
        d_est = np.linalg.norm(aligned[1:, :2] - aligned[0, :2], axis=1)
        assert np.allclose(d_true, d_est, atol=1e-6)
