import re

import numpy as np
import pytest
from scipy.optimize import brentq

from bevtrack.config import RunConfig
from bevtrack.errors import HorizonInsideFootprint, OutOfDomain
from bevtrack.experiments import calibrated_lh, crossing_scenario
from bevtrack.homography import Homography
from bevtrack.linearized import linearize
from bevtrack.simulator import generate


def numeric_dv_norm(h, u, v, eps=1e-4):
    """Independent oracle: |d(BEV)/dv| by central differences on the exact map."""
    a = h.apply(np.array([u, v - eps]))
    b = h.apply(np.array([u, v + eps]))
    return float(np.linalg.norm(b - a) / (2 * eps))


class TestThresholdOracle:
    def test_v_t_matches_numeric_derivative_crossing(self, true_h, lh):
        # The threshold row is where the derivative norm of the exact map
        # equals max_spacing; find it independently by bisection.
        for u in (0, 250, 960, 1500, 1919):
            got = lh.column_v_t[u]
            f = lambda v: numeric_dv_norm(true_h, float(u), v) - lh.max_spacing
            want = brentq(f, got - 50.0, got + 50.0, xtol=1e-9)
            assert got == pytest.approx(want, abs=1e-5)

    def test_tangent_norm_equals_max_spacing(self, lh):
        norms = np.linalg.norm(lh.column_tangent, axis=1)
        assert np.allclose(norms, lh.max_spacing, atol=1e-9)

    def test_anchor_is_exact_map_at_threshold(self, true_h, lh):
        for u in (0, 777, 1919):
            want = true_h.apply(np.array([float(u), lh.column_v_t[u]]))
            assert np.allclose(lh.column_anchor[u], want, atol=1e-9)

    def test_derivative_below_threshold_exceeds_max_spacing(self, true_h, lh):
        # Moving towards the horizon from v_t the exact derivative only grows.
        for u in (100, 960, 1800):
            vt = lh.column_v_t[u]
            assert numeric_dv_norm(true_h, float(u), vt + 5.0) < lh.max_spacing
            assert numeric_dv_norm(true_h, float(u), vt - 5.0) > lh.max_spacing


class TestForwardMap:
    def test_exact_region_matches_projective(self, true_h, lh, rng):
        pts = np.stack(
            [rng.uniform(0, 1919, 500), rng.uniform(600, 1079, 500)], axis=1
        )  # far below every threshold row (~190)
        assert np.allclose(lh.px_to_bev(pts), true_h.apply(pts), atol=1e-12)

    def test_continuity_at_junction(self, lh):
        for u in (0.0, 333.0, 960.0, 1919.0):
            vt = np.interp(u, np.arange(1920), lh.column_v_t)
            eps = 1e-7
            below = lh.px_to_bev(np.array([u, vt + eps]))
            above = lh.px_to_bev(np.array([u, vt - eps]))
            assert np.linalg.norm(below - above) < 1e-6

    def test_row_spacing_never_exceeds_max_spacing(self, lh):
        for u in np.linspace(0, 1919, 25):
            col = np.stack([np.full(1080, u), np.arange(1080.0)], axis=1)
            bev = lh.px_to_bev(col)
            gaps = np.linalg.norm(np.diff(bev, axis=0), axis=1)
            assert gaps.max() <= lh.max_spacing + 1e-9

    def test_linear_region_spacing_is_exactly_max_spacing(self, lh):
        u = 960.0
        vt = lh.column_v_t[960]
        vs = vt - np.arange(1, 50, dtype=float)
        col = np.stack([np.full(len(vs), u), vs], axis=1)
        bev = lh.px_to_bev(col)
        gaps = np.linalg.norm(np.diff(bev, axis=0), axis=1)
        assert np.allclose(gaps, lh.max_spacing, atol=1e-12)

    def test_finite_everywhere_including_horizon(self, true_h, lh):
        # The raw map blows up near/above the horizon row; the linearized one
        # stays finite on the whole image plane.
        pts = np.array([[960.0, 0.0], [960.0, -37.0], [500.0, 100.0]])
        out = lh.px_to_bev(pts)
        assert np.all(np.isfinite(out))

    @pytest.mark.filterwarnings("error")
    def test_infinite_column_is_nan_without_warning(self, lh):
        assert np.isnan(lh.px_to_bev(np.array([np.inf, 10.0]))).all()
        # an infinite row, and a column whose terms overflow
        for p in ([5.0, np.inf], [5.0, -np.inf], [1e300, 5.0], [-1e300, 5.0]):
            assert np.isnan(lh.px_to_bev(np.array(p))).all(), p
        # the finite row of the same call is untouched
        pts = np.array([[-np.inf, 10.0], [500.0, 100.0]])
        out = lh.px_to_bev(pts)
        assert np.isnan(out[0]).all()
        assert np.array_equal(out[1], lh.px_to_bev(pts[1]))


class TestInverseMap:
    def test_round_trip_grid(self, lh):
        uu, vv = np.meshgrid(np.linspace(0, 1919, 80), np.linspace(0, 1079, 80))
        pts = np.stack([uu.ravel(), vv.ravel()], axis=1)
        back = lh.bev_to_px(lh.px_to_bev(pts))
        assert np.abs(back - pts).max() < 1e-6

    def test_inverse_of_exact_region(self, true_h, lh, rng):
        bev = np.stack([rng.uniform(-8, 8, 100), rng.uniform(5, 15, 100)], axis=1)
        px = lh.bev_to_px(bev)
        assert np.allclose(true_h.apply(px), bev, atol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_infinite_point_is_invalid_without_warning(self, lh):
        px, valid = lh.try_bev_to_px(np.array([[np.inf, 5.0]]))
        assert valid.tolist() == [False] and np.isnan(px).all()
        # points whose homogeneous product overflows
        px, valid = lh.try_bev_to_px(np.array([[1e308, 1e308], [1e200, 5.0], [-1e308, 1e300]]))
        assert valid.tolist() == [False] * 3 and np.isnan(px).all()
        # the finite row of the same call is untouched
        pts = np.array([[np.nan, 5.0], [0.0, 10.0], [-np.inf, np.inf]])
        px, valid = lh.try_bev_to_px(pts)
        assert valid.tolist() == [False, True, False] and np.isnan(px[[0, 2]]).all()
        assert np.array_equal(px[1], lh.bev_to_px(pts[1]))

    def test_behind_camera_raises(self, lh):
        with pytest.raises(OutOfDomain):
            lh.bev_to_px(np.array([0.0, -5.0]))

    def test_far_field_uses_linear_piece(self, lh):
        # 300 m ahead is far beyond the exact-map footprint (threshold ~36 m);
        # the inverse must land above the threshold row, and round-trip.
        p = np.array([0.0, 300.0])
        px = lh.bev_to_px(p)
        u = px[0]
        vt = np.interp(u, np.arange(1920), lh.column_v_t)
        assert px[1] < vt
        assert np.allclose(lh.px_to_bev(px), p, atol=1e-6)


class TestAffineAndEdgeCases:
    def test_affine_needs_no_linearization(self):
        m = np.array([[0.02, 0.0, -5.0], [0.0, -0.02, 12.0], [0.0, 0.0, 1.0]])
        lh = linearize(Homography(m), (640, 480), 0.2)
        assert not lh.linearization_needed
        pts = np.array([[0.0, 0.0], [320.0, 240.0], [639.0, 479.0], [100.0, -50.0]])
        assert np.allclose(lh.px_to_bev(pts), Homography(m).apply(pts), atol=1e-12)
        back = lh.bev_to_px(lh.px_to_bev(pts))
        assert np.allclose(back, pts, atol=1e-9)

    def test_identity_mapping(self):
        lh = linearize(Homography(np.eye(3)), (100, 100), max_spacing=10.0)
        pts = np.array([[3.0, 7.0], [50.0, 99.0]])
        assert np.allclose(lh.px_to_bev(pts), pts)
        assert np.allclose(lh.bev_to_px(pts), pts)

    def test_steep_affine_column_warns_when_undefined(self):
        # c == 0 but u-dependent denominator: columns whose constant
        # derivative exceeds max_spacing have no threshold of their own and
        # borrow the nearest usable column, with a warning.
        m = np.array([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.05, 0.0, 1.0]])
        with pytest.warns(HorizonInsideFootprint):
            lh = linearize(Homography(m), (200, 100), max_spacing=0.05)
        # per-column derivative is 0.1 / (0.05 u + 1): columns u < 20 exceed
        # the budget and borrow from column 20, the first defined one.
        assert not lh.column_defined[:20].any()
        assert lh.column_defined[20:].all()
        assert np.allclose(lh.column_tangent[:20], lh.column_tangent[20])
        assert np.all(np.isfinite(lh.column_tangent))

    def test_max_spacing_validation(self, true_h):
        with pytest.raises(ValueError):
            linearize(true_h, (10, 10), max_spacing=0.0)

    def test_threshold_scales_with_max_spacing(self, true_h):
        # A larger allowed spacing pushes the threshold towards the horizon.
        a = linearize(true_h, (1920, 1080), 0.1)
        b = linearize(true_h, (1920, 1080), 0.4)
        assert np.all(b.column_v_t < a.column_v_t)


class TestBatchedCore:
    """try_bev_to_px on a batch agrees point for point with single-point bev_to_px."""

    @staticmethod
    def sample_bev(lh, rng, n=400):
        # Pixels in and far around the image, across the horizon: the exact
        # map sends those above the horizon behind the camera and those just
        # below it to the far field; px_to_bev covers the footprint and the
        # linear piece; a wide uniform box adds everything in between; the
        # BEV line whose preimage is at infinity (w == 0) adds the
        # non-finite case.
        w, ht = lh.image_size
        r = lh.h.inv[2]  # BEV points with r . (x, y, 1) == 0 have w == 0
        norm = np.hypot(r[0], r[1])
        line = np.zeros((0, 2))
        if norm > 0:
            n_hat = r[:2] / norm
            s = rng.uniform(-100, 100, (n // 4, 1))
            line = -r[2] / norm * n_hat + s * np.array([-n_hat[1], n_hat[0]])
        px = np.stack(
            [rng.uniform(-w, 2 * w, n), rng.uniform(-2 * ht, 2 * ht, n)], axis=1
        )
        with np.errstate(all="ignore"):
            exact = lh.h.apply(px)
        foot = lh.px_to_bev(px)
        span = np.abs(foot).max()
        box = rng.uniform(-span, span, (n, 2))
        pts = np.concatenate([exact, foot, foot + rng.normal(0, 1.0, foot.shape), box, line])
        return pts[np.all(np.isfinite(pts), axis=1)]

    @pytest.mark.parametrize("kind", ["camera", "calibrated", "affine_identity", "c_zero"])
    def test_randomized_agreement_with_single_point(self, kind, lh, rng):
        if kind == "calibrated":
            lh = calibrated_lh(generate(crossing_scenario()), RunConfig())
        elif kind == "affine_identity":
            lh = linearize(Homography(np.eye(3)), (1920, 1080), max_spacing=1e9)
        elif kind == "c_zero":
            # u-dependent denominator 0.05 u + 1: columns left of u = -20 lie
            # on the far side of the degenerate line
            m = np.array([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.05, 0.0, 1.0]])
            lh = linearize(Homography(m), (200, 100), max_spacing=1.0)
        pts = self.sample_bev(lh, rng)
        px, valid = lh.try_bev_to_px(pts)
        assert px.shape == pts.shape and valid.shape == (len(pts),)
        if kind != "affine_identity":
            assert 0 < valid.sum() < len(pts)  # both outcomes are exercised
        for p, q, ok in zip(pts, px, valid):
            try:
                single = lh.bev_to_px(p)
            except OutOfDomain:
                assert not ok
                assert np.isnan(q).all()
                continue
            assert ok
            assert np.array_equal(single, q)  # bit-identical, not approximately

    def test_raising_wrapper_names_invalid_indices(self, lh):
        pts = np.array([[0.0, 10.0], [0.0, -5.0], [1.0, 12.0], [0.0, -9.0]])
        px, valid = lh.try_bev_to_px(pts)
        assert valid.tolist() == [True, False, True, False]
        with pytest.raises(OutOfDomain, match=r"indices \[1, 3\]"):
            lh.bev_to_px(pts)

    def test_single_point_shape_kept(self, lh):
        p = np.array([0.0, 10.0])
        px, valid = lh.try_bev_to_px(p)
        assert px.shape == (1, 2) and valid.tolist() == [True]
        assert lh.bev_to_px(p).shape == (2,)
        assert np.array_equal(lh.bev_to_px(p), px[0])


class TestQueryShapes:
    """Every map takes one (2,) point or an (N, 2) array, N = 0 included, and refuses
    any other shape with a ValueError naming it, before it maps anything."""

    MAPS = ("px_to_bev", "try_bev_to_px", "bev_to_px")

    @pytest.mark.parametrize("name", MAPS)
    @pytest.mark.parametrize(
        "points",
        [np.full((3, 3), 500.0), np.full(3, 500.0), np.zeros(1), 5.0, np.zeros((0,)),
         np.zeros((2, 2, 2)), np.zeros((4, 1)), np.zeros((0, 3))],
        ids=["3x3", "3-vector", "1-vector", "scalar", "empty-vector", "2x2x2", "4x1", "0x3"],
    )
    def test_other_shapes_raise(self, lh, name, points):
        shape = re.escape(str(np.shape(points)))
        with pytest.raises(ValueError, match=rf"\(2,\) point or an \(N, 2\) array, got shape {shape}$"):
            getattr(lh, name)(points)

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_n_by_two_arrays_map(self, lh, n):
        pixels = np.stack([np.linspace(0.0, 1919.0, n), np.linspace(300.0, 1079.0, n)], axis=1)
        bev = lh.px_to_bev(pixels)
        assert bev.shape == (n, 2)
        px, valid = lh.try_bev_to_px(bev)
        assert px.shape == (n, 2) and valid.shape == (n,) and valid.dtype == bool
        assert lh.bev_to_px(bev).shape == (n, 2)
        if n:  # a list of rows maps as the array does
            assert np.array_equal(lh.px_to_bev(pixels.tolist()), bev)

    def test_one_point_maps_to_one_point(self, lh):
        assert lh.px_to_bev([960.0, 900.0]).shape == (2,)
        assert lh.bev_to_px(lh.px_to_bev([960.0, 900.0])).shape == (2,)
