import numpy as np
import pytest

from bevtrack.errors import DegenerateInput, ParseError
from bevtrack.linearized import LinearizedHomography
from bevtrack.homography import (
    MAX_IMAGE_SIDE,
    Homography,
    estimate_homography,
    load_homography,
    save_homography,
)


def random_homography(rng, scale=1.0):
    """Random invertible projective map whose denominator stays in [0.5, 1.5]
    over [0, 1000]^2, so lifted targets keep sane magnitudes and recovery
    tolerances stay meaningful."""
    while True:
        m = np.eye(3)
        m[:2, :2] += rng.normal(0.0, 0.3 * scale, size=(2, 2))
        m[:2, 2] = rng.normal(0.0, 5.0 * scale, size=2)
        m[2, :2] = rng.uniform(-1.5e-4, 1.5e-4, size=2) * scale
        m[2, 2] = 1.0 + rng.uniform(-0.2, 0.2) * scale
        if abs(np.linalg.det(m)) > 1e-3:
            return m


def apply_raw(m, pts):
    q = np.concatenate([pts, np.ones((len(pts), 1))], axis=1) @ m.T
    return q[:, :2] / q[:, 2:]


class TestHomography:
    def test_apply_matches_manual_projective_math(self, rng):
        m = random_homography(rng)
        h = Homography(m)
        pts = rng.uniform(0, 100, size=(20, 2))
        assert np.allclose(h.apply(pts), apply_raw(m, pts), atol=1e-9)

    def test_scale_invariance(self, rng):
        m = random_homography(rng)
        pts = rng.uniform(0, 100, size=(5, 2))
        assert np.allclose(Homography(m).apply(pts), Homography(3.7 * m).apply(pts), atol=1e-9)

    def test_inverse_round_trip(self, rng):
        m = random_homography(rng)
        h = Homography(m)
        pts = rng.uniform(0, 100, size=(10, 2))
        back = Homography(h.inv).apply(h.apply(pts))
        assert np.allclose(back, pts, atol=1e-6)

    def test_singular_matrix_rejected(self):
        m = np.ones((3, 3))
        with pytest.raises(DegenerateInput):
            Homography(m)

    def test_single_point(self, rng):
        m = random_homography(rng)
        h = Homography(m)
        p = np.array([3.0, 4.0])
        assert np.allclose(h.apply(p), apply_raw(m, p[None, :])[0])


class TestEstimateHomography:
    def test_exact_recovery_from_synthetic_pairs(self, rng):
        for _ in range(10):
            m = random_homography(rng)
            px = rng.uniform(0, 1000, size=(200, 2))
            fit = estimate_homography(px, apply_raw(m, px))
            assert fit.rmse < 1e-8
            pts = rng.uniform(0, 1000, size=(50, 2))
            assert np.allclose(fit.homography.apply(pts), apply_raw(m, pts), atol=1e-6)

    def test_four_point_minimal_case(self, rng):
        m = random_homography(rng)
        px = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
        bev = apply_raw(m, px)
        fit = estimate_homography(px, bev)
        pts = rng.uniform(0, 100, size=(20, 2))
        assert np.allclose(fit.homography.apply(pts), apply_raw(m, pts), atol=1e-6)

    def test_noise_reported_in_rmse(self, rng):
        m = random_homography(rng)
        px = rng.uniform(0, 1000, size=(200, 2))
        bev = apply_raw(m, px) + rng.normal(0, 0.05, size=(200, 2))
        fit = estimate_homography(px, bev)
        assert 0.01 < fit.rmse < 0.2

    def test_too_few_points(self, rng):
        with pytest.raises(DegenerateInput):
            estimate_homography(rng.uniform(0, 10, (3, 2)), rng.uniform(0, 10, (3, 2)))

    def test_collinear_points_rejected(self):
        t = np.linspace(0, 1, 10)[:, None]
        px = t * np.array([[1.0, 2.0]]) + np.array([[3.0, 4.0]])
        bev = 2.0 * px
        with pytest.raises(DegenerateInput):
            estimate_homography(px, bev)

    def test_mismatched_shapes(self, rng):
        with pytest.raises(ValueError):
            estimate_homography(rng.uniform(0, 1, (5, 2)), rng.uniform(0, 1, (6, 2)))


class TestHomographyIO:
    def test_round_trip_exact(self, tmp_path, rng):
        m = random_homography(rng)
        h = Homography(m)
        path = tmp_path / "h.txt"
        save_homography(path, h, 0.25, (1280, 720))
        h2, spacing, size = load_homography(path)
        assert np.array_equal(h.m, h2.m)
        assert spacing == 0.25
        assert size == (1280, 720)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("H\n1 0 0\n0 oops 0\n0 0 1\nmax_spacing 0.2\nimage 10 10\n")
        with pytest.raises(ParseError) as ei:
            load_homography(path)
        assert "3" in str(ei.value)

    @pytest.mark.parametrize("spacing", ["0", "-0.2", "nan", "inf"])
    def test_bad_max_spacing_reports_line_5(self, tmp_path, spacing):
        path = tmp_path / "bad.txt"
        path.write_text(f"H\n1 0 0\n0 1 0\n0 0 1\nmax_spacing {spacing}\nimage 10 10\n")
        with pytest.raises(ParseError, match=r"bad\.txt:5: max_spacing must be positive"):
            load_homography(path)

    @pytest.mark.parametrize("size", ["0 10", "10 -5", "-5 -5"])
    def test_bad_image_size_reports_line_6(self, tmp_path, size):
        path = tmp_path / "bad.txt"
        path.write_text(f"H\n1 0 0\n0 1 0\n0 0 1\nmax_spacing 0.2\nimage {size}\n")
        with pytest.raises(ParseError, match=r"bad\.txt:6: image size must be positive"):
            load_homography(path)

    @pytest.mark.parametrize("size", ["1000000000000000 1080", f"10 {MAX_IMAGE_SIDE + 1}"])
    def test_image_size_above_the_bound_reports_line_6(self, tmp_path, size):
        path = tmp_path / "bad.txt"
        path.write_text(f"H\n1 0 0\n0 1 0\n0 0 1\nmax_spacing 0.2\nimage {size}\n")
        with pytest.raises(ParseError, match=rf"bad\.txt:6: image size {size} too large"):
            load_homography(path)

    def test_image_size_at_the_bound_accepted(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text(f"H\n1 0 0\n0 1 0\n0 0 1\nmax_spacing 0.2\nimage {MAX_IMAGE_SIDE} 1\n")
        assert load_homography(path)[2] == (MAX_IMAGE_SIDE, 1)

    @pytest.mark.parametrize("size", [(10**15, 1080), (10, MAX_IMAGE_SIDE + 1)])
    def test_linearized_refuses_an_image_above_the_bound(self, size):
        # refused before any per-column array is built
        with pytest.raises(ValueError, match="too large"):
            LinearizedHomography(Homography(np.eye(3)), size)

    @pytest.mark.parametrize(
        "spacing, image, line",
        [("abc", "10 10", 5), ("0.2", "wide 10", 6), ("0.2", "10 1.5", 6)],
    )
    def test_non_numeric_field_reports_its_line(self, tmp_path, spacing, image, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"H\n1 0 0\n0 1 0\n0 0 1\nmax_spacing {spacing}\nimage {image}\n")
        with pytest.raises(ParseError, match=rf"bad\.txt:{line}: "):
            load_homography(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("H\n\n1 0 0\n0 1 0\n\n0 0 1\nmax_spacing 0.2\n\nimage 0 10\n")
        with pytest.raises(ParseError, match=r"bad\.txt:9: image size must be positive"):
            load_homography(path)
        path.write_text("\nH\n1 0 0\n0 1 x\n0 0 1\nmax_spacing 0.2\nimage 10 10\n")
        with pytest.raises(ParseError, match=r"bad\.txt:4: "):
            load_homography(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("\nH\n1 0 0\n\n0 1 0\n0 0 1\nmax_spacing 0.2\nimage 10 20\n\n")
        h, spacing, size = load_homography(path)
        assert np.array_equal(h.m, np.eye(3)) and spacing == 0.2 and size == (10, 20)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_entry_reports_its_line(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"H\n\n1 0 0\n0 {value} 0\n0 0 1\nmax_spacing 0.2\nimage 10 10\n")
        with pytest.raises(ParseError, match=r"bad\.txt:4: non-finite value$"):
            load_homography(path)

    def test_singular_matrix_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("H\n1 0 0\n2 0 0\n0 0 1\nmax_spacing 0.2\nimage 10 10\n")
        with pytest.raises(ParseError, match=r"bad\.txt: homography matrix is singular"):
            load_homography(path)

    def test_integer_valued_image_size_accepted(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("H\n1 0 0\n0 1 0\n0 0 1\nmax_spacing 0.2\nimage 1920.0 1.08e3\n")
        _, _, size = load_homography(path)
        assert size == (1920, 1080) and all(type(v) is int for v in size)

    def test_missing_sections(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("H\n1 0 0\n")
        with pytest.raises(ParseError):
            load_homography(path)
