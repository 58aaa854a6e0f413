import functools
import math
import re

import numpy as np
import pytest

from bevtrack.egomotion import EgomotionTrack
from bevtrack.errors import DegenerateInput, OutOfDomain, ParseError
from bevtrack.experiments import calibrated_homography, crossing_scenario
from bevtrack.homography import (
    Homography,
    estimate_homography,
    load_homography,
    save_homography,
)
from bevtrack.simulator import CameraSpec, generate, true_homography
from bevtrack.tracker import SceneModel


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
        save_homography(path, h)
        assert np.array_equal(h.m, load_homography(path).m)

    def test_the_file_is_the_tag_and_three_rows(self, tmp_path):
        path = tmp_path / "h.txt"
        save_homography(path, Homography(np.diag([0.5, 2.0, 1.0])))
        assert path.read_text() == "H\n0.5 0 0\n0 2 0\n0 0 1\n"

    def test_a_six_line_file_loads_the_same_matrix(self, tmp_path, rng):
        # Files once carried "max_spacing <m>" and "image <w> <h>" lines after the
        # matrix; lines after the fourth are ignored, whatever they hold.
        h = Homography(random_homography(rng))
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        save_homography(new, h)
        old.write_text(new.read_text() + "max_spacing 0.20000000000000001\nimage 1920 1080\n")
        assert np.array_equal(load_homography(old).m, h.m)
        old.write_text(new.read_text() + "max_spacing 0\nimage wide 1080\n")
        assert np.array_equal(load_homography(old).m, h.m)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("H\n1 0 0\n0 oops 0\n0 0 1\n")
        with pytest.raises(ParseError) as ei:
            load_homography(path)
        assert "3" in str(ei.value)

    @pytest.mark.parametrize(
        "text, line",
        [("G\n1 0 0\n0 1 0\n0 0 1\n", 1), ("H 1\n1 0 0\n0 1 0\n0 0 1\n", 1),
         ("H\n1 0\n0 1 0\n0 0 1\n", 2), ("H\n1 0 0\n0 1 0\n0 0 1 0\n", 4)],
    )
    def test_wrong_layout_reports_its_line(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=rf"bad\.txt:{line}: expected "):
            load_homography(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("\nH\n1 0 0\n0 1 x\n0 0 1\n")
        with pytest.raises(ParseError, match=r"bad\.txt:4: "):
            load_homography(path)
        path.write_text("H\n\n1 0 0\n0 1 0\n\n0 0 x\n")
        with pytest.raises(ParseError, match=r"bad\.txt:6: "):
            load_homography(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("\nH\n1 0 0\n\n0 1 0\n0 0 1\n\n")
        assert np.array_equal(load_homography(path).m, np.eye(3))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_entry_reports_its_line(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"H\n\n1 0 0\n0 {value} 0\n0 0 1\n")
        with pytest.raises(ParseError, match=r"bad\.txt:4: non-finite value$"):
            load_homography(path)

    def test_singular_matrix_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("H\n1 0 0\n2 0 0\n0 0 1\n")
        with pytest.raises(ParseError, match=r"bad\.txt: homography matrix is singular"):
            load_homography(path)

    def test_missing_sections(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("H\n1 0 0\n0 1 0\n")
        with pytest.raises(ParseError, match=r"short\.txt: expected 4 lines, got 3"):
            load_homography(path)


# -- the exact map: px_to_bev, try_bev_to_px, bev_to_px -------------------------------


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _rigid(angle, shift):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, shift[0]], [s, c, shift[1]], [0.0, 0.0, 1.0]])


@functools.lru_cache(maxsize=None)
def _calibrated():
    return calibrated_homography(generate(crossing_scenario()))


def map_of(kind, seed=0):
    """(homography, image width, image height) of one map kind, drawn from the seed.

    camera: a pinhole camera's ground map, whose denominator varies along each
    column (m21 != 0); rolled: the same with a pixel roll and a BEV pose, so
    m20 != 0 too; upside_down: rows counted upwards, so m21 changes sign;
    calibrated: the map estimated from the crossing scene's cloud;
    affine_identity: pixels as BEV; c_zero: m21 == 0 and a denominator that
    varies across columns, zero at column -1 / g.
    """
    rng = np.random.default_rng(seed)
    w, ht = int(rng.integers(64, 2000)), int(rng.integers(48, 1100))
    if kind in ("camera", "rolled", "upside_down"):
        cam = CameraSpec(
            height=float(rng.uniform(1.5, 12.0)),
            tilt_deg=float(rng.uniform(8.0, 60.0)),
            focal=float(rng.uniform(0.6, 1.6) * w),
            image_width=w,
            image_height=ht,
        )
        m = true_homography(cam).m
        if kind == "rolled":
            centre = np.array([w / 2.0, ht / 2.0])
            roll = _rigid(rng.uniform(-0.3, 0.3), (0.0, 0.0))
            roll[:2, 2] = centre - roll[:2, :2] @ centre
            m = _rigid(rng.uniform(-math.pi, math.pi), rng.uniform(-5, 5, 2)) @ m @ roll
        elif kind == "upside_down":
            m = m @ np.diag([1.0, -1.0, 1.0])
        return Homography(m), w, ht
    if kind == "calibrated":
        cam = crossing_scenario().camera
        return _calibrated(), cam.image_width, cam.image_height
    if kind == "affine_identity":
        return Homography(np.eye(3)), w, ht
    if kind == "c_zero":
        g, s = float(rng.uniform(0.02, 0.08)), float(rng.uniform(0.05, 0.15))
        m = np.array([[s, 0.0, rng.uniform(-1, 1)], [0.0, s, rng.uniform(-1, 1)], [g, 0.0, 1.0]])
        return Homography(m), w, ht
    raise ValueError(kind)


KINDS = ("camera", "rolled", "upside_down", "calibrated", "affine_identity", "c_zero")
SEEDS = range(6)


def ground_side(m, px):
    """(N,) bool, by array operations: which finite pixels lie on the ground side."""
    with np.errstate(all="ignore"):
        w = px[:, 0] * m[2, 0] + px[:, 1] * m[2, 1] + m[2, 2]
        if abs(m[2, 1]) > 1e-15:
            side = np.sign(m[2, 1])
        else:
            side = np.sign(px[:, 0] * m[2, 0] + m[2, 2])
        return np.isfinite(px).all(axis=1) & (side * w > 0)


def query_pixels(h, w, ht, rng, n=300):
    """Pixels in and far around the image, near and at the horizon, and non-finite ones."""
    inside = np.stack([rng.uniform(0, w, n), rng.uniform(0, ht, n)], axis=1)
    beyond = np.stack([rng.uniform(-w, 2 * w, n), rng.uniform(-2 * ht, 2 * ht, n)], axis=1)
    m = h.m
    u = rng.uniform(-w / 2, 1.5 * w, n)
    near = np.zeros((0, 2))
    if abs(m[2, 1]) > 1e-15:  # the horizon row solves m20 u + m21 v + m22 == 0
        v_h = -(m[2, 0] * u + m[2, 2]) / m[2, 1]
        near = np.stack([u, v_h + rng.choice([-1, 1], n) * 10.0 ** rng.uniform(-6, 2, n)], axis=1)
        near = np.concatenate([near, np.stack([u, v_h], axis=1)])
    nan, inf = np.nan, np.inf
    odd = [[nan, 1.0], [5.0, nan], [inf, 10.0], [-inf, 0.0], [5.0, inf], [5.0, -inf]]
    return np.concatenate([inside, beyond, near, odd])


def query_bev(h, rng, pixels):
    """BEV points in the footprint, behind the camera, near and on the line whose
    preimage is at infinity, and non-finite ones."""
    with np.errstate(all="ignore"):
        exact = h.apply(pixels)  # off the ground side this lands behind the camera
    foot = h.px_to_bev(pixels)
    foot = foot[np.isfinite(foot).all(axis=1)]
    span = np.abs(foot).max()
    box = rng.uniform(-span, span, (200, 2))
    r = h.inv[2]  # BEV points with r . (x, y, 1) == 0 have no finite preimage
    norm = math.hypot(r[0], r[1])
    line = np.zeros((0, 2))
    if norm > 0:
        n_hat = r[:2] / norm
        s = rng.uniform(-100, 100, (50, 1))
        line = -r[2] / norm * n_hat + s * np.array([-n_hat[1], n_hat[0]])
    pts = np.concatenate([exact, foot, foot + rng.normal(0, 1.0, foot.shape), box, line])
    pts = pts[np.isfinite(pts).all(axis=1)]
    return np.concatenate([pts, [[np.nan, 1.0], [np.inf, 5.0], [-np.inf, -np.inf]]])


def reference_px_to_bev(h, px):
    """The forward map by array operations: apply on the ground side, NaN elsewhere."""
    with np.errstate(all="ignore"):
        return np.where(ground_side(h.m, px)[:, None], h.apply(px), np.nan)


def reference_try_bev_to_px(h, bev):
    """The inverse by array operations: each point's own (1, 3) @ (3, 3) product,
    valid where finite, away from infinity and on the ground side."""
    with np.errstate(all="ignore"):
        q = np.stack([np.array([[x, y, 1.0]]) @ h.inv.T for x, y in bev])[:, 0]
    finite = np.isfinite(bev).all(axis=1) & np.isfinite(q).all(axis=1)
    ok = finite & (np.abs(q[:, 2]) > 1e-12 * np.abs(q).max(axis=1))
    px = q[:, :2] / np.where(ok, q[:, 2], 1.0)[:, None]
    ok &= ground_side(h.m, np.where(ok[:, None], px, 0.0))
    return np.where(ok[:, None], px, np.nan), ok


@pytest.mark.filterwarnings("error")
class TestExactMap:
    """px_to_bev is apply on the ground side and NaN elsewhere; try_bev_to_px
    inverts it where a ground-side preimage exists; neither warns."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_px_to_bev_is_apply_on_ground_side_rows(self, kind, seed):
        h, w, ht = map_of(kind, seed)
        rng = np.random.default_rng(100 + seed)
        px = query_pixels(h, w, ht, rng)
        got = h.px_to_bev(px)
        on = ground_side(h.m, px)
        with np.errstate(all="ignore"):
            want = h.apply(px[on])
        assert same_bytes(got[on], want)  # bit for bit, not approximately
        assert np.isnan(got[~on]).all()
        if kind not in ("affine_identity", "c_zero"):
            assert on[:-6].any() and (~on[:-6]).any()  # both outcomes on finite rows

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_try_bev_to_px_matches_the_array_reference(self, kind, seed):
        h, w, ht = map_of(kind, seed)
        rng = np.random.default_rng(200 + seed)
        bev = query_bev(h, rng, query_pixels(h, w, ht, rng))
        px, valid = h.try_bev_to_px(bev)
        with np.errstate(all="ignore"):
            want_px, want_valid = reference_try_bev_to_px(h, bev)
        assert same_bytes(px, want_px) and same_bytes(valid, want_valid)
        if kind != "affine_identity":
            assert 0 < valid.sum() < len(bev)  # both outcomes are exercised
        for i in rng.choice(len(bev), 40, replace=False):  # a point alone maps alike
            one_px, one_valid = h.try_bev_to_px(bev[i])
            assert same_bytes(one_px[0], px[i]) and one_valid.tolist() == [valid[i]]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_map_alone(self, kind, seed):
        # A batch lifts each row to the bits it lifts to alone, whatever the other
        # rows are: Tracker.step lifts several tracks and frames in one call.
        h, w, ht = map_of(kind, seed)
        rng = np.random.default_rng(300 + seed)
        px = query_pixels(h, w, ht, rng, n=40)
        px = px[rng.permutation(len(px))]
        batch = h.px_to_bev(px)
        for i, p in enumerate(px):
            assert same_bytes(batch[i], h.px_to_bev(p))
        assert np.isnan(batch).any() and np.isfinite(batch).any()

    @pytest.mark.parametrize("kind", KINDS)
    def test_per_row_frames_equal_per_frame_calls(self, kind, rng):
        h, w, ht = map_of(kind)
        px = query_pixels(h, w, ht, rng, n=40)
        ego = EgomotionTrack(np.vstack([[0.0, 0.0], rng.normal(0.0, 3.0, (5, 2))]))
        scene = SceneModel(h, fps=10.0, ego=ego)
        frames = rng.integers(0, len(ego), len(px))
        got = scene.px_to_world(px, frames)
        for f in range(len(ego)):
            rows = frames == f
            assert rows.any()
            assert same_bytes(got[rows], scene.px_to_world(px[rows], f))
        with pytest.raises(ValueError, match="frame 6 outside egomotion track of length 6"):
            scene.px_to_world(px[:3], [0, 6, -1])

    def test_nan_at_and_above_the_horizon(self, true_h):
        # The default camera's horizon is the row v = 540 - 1000 tan(30 deg), near -37.
        m = true_h.m
        v_h = -m[2, 2] / m[2, 1]
        assert -38.0 < v_h < -37.0
        out = true_h.px_to_bev(np.array([[960.0, v_h - 1.0], [5.0, -500.0], [960.0, v_h + 1.0]]))
        assert np.isnan(out[:2]).all() and np.isfinite(out[2]).all()
        # a denominator of exactly 0: w = 1 - v / 2 on row 2, the ground below it
        h = Homography([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, -0.5, 1.0]])
        out = h.px_to_bev(np.array([[0.0, 2.0], [0.0, 1.0], [4.0, 3.0]]))
        assert np.isnan(out[:2]).all() and out[2].tolist() == [8.0, 6.0]

    def test_nan_for_non_finite_rows(self, true_h):
        for p in ([np.inf, 10.0], [5.0, np.inf], [5.0, -np.inf], [np.nan, 500.0]):
            assert np.isnan(true_h.px_to_bev(np.array(p))).all(), p
        pts = np.array([[-np.inf, 10.0], [500.0, 100.0]])
        out = true_h.px_to_bev(pts)
        assert np.isnan(out[0]).all()
        assert same_bytes(out[1], true_h.px_to_bev(pts[1]))

    def test_non_finite_or_overflowing_points_are_invalid(self, true_h):
        px, valid = true_h.try_bev_to_px(np.array([[np.inf, 5.0]]))
        assert valid.tolist() == [False] and np.isnan(px).all()
        px, valid = true_h.try_bev_to_px(np.array([[1e308, 1e308], [1e200, 5.0], [-1e308, 1e300]]))
        assert valid.tolist() == [False] * 3 and np.isnan(px).all()
        pts = np.array([[np.nan, 5.0], [0.0, 10.0], [-np.inf, np.inf]])
        px, valid = true_h.try_bev_to_px(pts)
        assert valid.tolist() == [False, True, False] and np.isnan(px[[0, 2]]).all()
        assert same_bytes(px[1], true_h.bev_to_px(pts[1]))

    def test_pixel_grid_round_trip(self, true_h):
        uu, vv = np.meshgrid(np.linspace(0, 1919, 80), np.linspace(0, 1079, 80))
        pts = np.stack([uu.ravel(), vv.ravel()], axis=1)
        back = true_h.bev_to_px(true_h.px_to_bev(pts))
        assert np.abs(back - pts).max() < 1e-6

    def test_behind_the_camera_is_invalid_and_raises(self, true_h):
        pts = np.array([[0.0, 10.0], [0.0, -5.0], [1.0, 12.0], [0.0, -9.0], [0.0, 300.0]])
        px, valid = true_h.try_bev_to_px(pts)
        assert valid.tolist() == [True, False, True, False, True]
        assert np.isnan(px[[1, 3]]).all()
        with pytest.raises(OutOfDomain, match=r"indices \[1, 3\]"):
            true_h.bev_to_px(pts)
        with pytest.raises(OutOfDomain):
            true_h.bev_to_px(np.array([0.0, -5.0]))
        # 300 m ahead maps a few rows below the horizon (near -37), and back
        assert -38.0 < px[4, 1] < 0.0
        assert np.allclose(true_h.px_to_bev(px[4]), pts[4], rtol=1e-9)

    def test_affine_maps_invert_everywhere(self):
        m = np.array([[0.02, 0.0, -5.0], [0.0, -0.02, 12.0], [0.0, 0.0, 1.0]])
        h = Homography(m)
        pts = np.array([[0.0, 0.0], [320.0, 240.0], [639.0, 479.0], [100.0, -50.0]])
        assert same_bytes(h.px_to_bev(pts), h.apply(pts))
        assert np.allclose(h.bev_to_px(h.px_to_bev(pts)), pts, atol=1e-9)
        eye = Homography(np.eye(3))
        assert np.array_equal(eye.px_to_bev(pts), pts) and np.array_equal(eye.bev_to_px(pts), pts)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_ground_side_round_trip(self, kind, seed):
        # Pixels in and around the image, on the ground side and clear of the
        # horizon by more than rounding, lift and come back to within 1e-9 of
        # their own size.
        h, w, ht = map_of(kind, seed)
        rng = np.random.default_rng(400 + seed)
        px = np.stack([rng.uniform(-w, 2 * w, 2000), rng.uniform(-4 * ht, 8 * ht, 2000)], axis=1)
        m = h.m
        terms = np.abs(px[:, :1] * m[2, 0]) + np.abs(px[:, 1:] * m[2, 1]) + abs(m[2, 2])
        w_px = px[:, 0] * m[2, 0] + px[:, 1] * m[2, 1] + m[2, 2]
        px = px[ground_side(m, px) & (np.abs(w_px) > 1e-6 * terms[:, 0])]
        assert len(px) > 100
        back, valid = h.try_bev_to_px(h.px_to_bev(px))
        assert valid.all()
        assert (np.abs(back - px).max(axis=1) <= 1e-9 * (1.0 + np.abs(px).max(axis=1))).all()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_bev_to_px_is_try_bev_to_px_where_valid(self, kind, seed):
        h, w, ht = map_of(kind, seed)
        rng = np.random.default_rng(500 + seed)
        bev = query_bev(h, rng, query_pixels(h, w, ht, rng, n=60))
        px, valid = h.try_bev_to_px(bev)
        assert same_bytes(h.bev_to_px(bev[valid]), px[valid])
        for i in np.flatnonzero(valid)[:10]:
            assert same_bytes(h.bev_to_px(bev[i]), px[i])  # one point keeps its shape
        bad = np.flatnonzero(~valid)
        assert len(bad)  # every kind has points on the line at infinity, or not finite
        pick = np.sort(np.concatenate([bad[:3], np.flatnonzero(valid)[:5]]))
        want = [int(i) for i in np.flatnonzero(~valid[pick])]
        with pytest.raises(OutOfDomain, match=re.escape(f"at indices {want}")):
            h.bev_to_px(bev[pick])


# batch sizes: one point, either side of 16, the benchmark's largest call (28
# points) and a batch of 100
SIZES = (1, 16, 17, 28, 100)


@pytest.mark.filterwarnings("error")
class TestBatches:
    """Batches of every size in SIZES, mixing ground-side rows with rows off the
    ground side, non-finite rows and rows whose products overflow: each map gives
    the array reference's bytes, and no call warns."""

    @staticmethod
    def rows(h, w, ht, seed):
        """(ground-side pixels, other pixels, BEV points): every other pixel is
        off the ground side or not finite; the BEV points are of every outcome."""
        rng = np.random.default_rng(600 + seed)
        px = query_pixels(h, w, ht, rng, n=100)
        on = ground_side(h.m, px)
        return px[on], px[~on], query_bev(h, rng, px)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_batches_of_every_size_match_the_reference(self, kind, seed):
        h, w, ht = map_of(kind, seed)
        ground, other, bev = self.rows(h, w, ht, seed)
        rng = np.random.default_rng(700 + seed)
        for size in SIZES:
            for _ in range(20):
                k = int(rng.integers(0, size + 1))
                px = np.concatenate([ground[rng.choice(len(ground), k)],
                                     other[rng.choice(len(other), size - k)]])
                px = px[rng.permutation(size)]
                points = bev[rng.choice(len(bev), size)]
                assert same_bytes(h.px_to_bev(px), reference_px_to_bev(h, px))
                got_px, got_valid = h.try_bev_to_px(points)
                want_px, want_valid = reference_try_bev_to_px(h, points)
                assert same_bytes(got_px, want_px) and same_bytes(got_valid, want_valid)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_that_overflow_follow_the_rule(self, kind):
        # finite rows whose terms or products overflow to inf or NaN: a pixel on
        # the ground side maps with apply's operations, whatever they give, and a
        # BEV point whose product is not finite is invalid
        h, _, _ = map_of(kind)
        big = [[1e300, 5.0], [-1e300, 5.0], [1e155, 1e155], [5.0, 1e300], [5.0, -1e300],
               [1e200, -1e200], [-1e-300, 1e300], [1.7e308, -1.7e308]]
        for row in big:
            rows = np.array([row, [1.0, 2.0]])  # as pixels, then as BEV points
            assert same_bytes(h.px_to_bev(rows), reference_px_to_bev(h, rows)), row
            got, want = h.try_bev_to_px(rows), reference_try_bev_to_px(h, rows)
            assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1]), row
            assert not got[1][0] or np.isfinite(got[0][0]).all(), row

    def test_a_column_with_no_ground_side(self):
        # m21 == 0 and a denominator u / 16 + 1 that is exactly 0 at u = -16: that
        # column has no ground side, so each of its pixels maps to NaN, while the
        # columns either side map wholly as apply does
        m = np.array([[0.1, 0.0, 0.3], [0.0, 0.1, -0.5], [1.0 / 16, 0.0, 1.0]])
        h = Homography(m)
        v = np.array([-1e6, -100.0, 0.0, 5.0, 12.0, 5e3])
        columns = ((-16.0, False), (-17.0, True), (-15.0, True), (np.nextafter(-16.0, 0), True))
        for u, ground in columns:
            px = np.stack([np.full(len(v), u), v], axis=1)
            out = h.px_to_bev(px)
            assert same_bytes(out, reference_px_to_bev(h, px))
            assert np.isfinite(out).all() if ground else np.isnan(out).all(), u
        # the BEV line x = 1.6 is that column's image at infinity: no preimage
        r = h.inv[2]
        assert r[1] == 0.0 and abs(-r[2] / r[0] - 1.6) < 1e-12
        line = np.array([[1.6, -5.0], [1.6, 0.0], [1.6, 7.5]])
        px, valid = h.try_bev_to_px(line)
        assert not valid.any() and np.isnan(px).all()
        with pytest.raises(OutOfDomain, match=r"indices \[0, 1, 2\]"):
            h.bev_to_px(line)
        assert h.try_bev_to_px(np.array([1.7, 0.0]))[1].tolist() == [True]

    def test_columns_whose_terms_overflow(self):
        # at |u| >= 1e308 the denominator overflows: a ground-side row maps to
        # apply's inf or NaN, not to a borrowed value, and the call does not warn
        m = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [2.0, 1.0, 1.0]])
        h = Homography(m)
        u = np.resize([1e308, -1e308, 1.7e308, -1.7e308], 40)
        px = np.stack([u, np.resize([-5.0, -1e3, 5.0, 1e3, -50.0], 40)], axis=1)
        for size in SIZES:
            rows = np.resize(px, (size, 2))
            out = h.px_to_bev(rows)
            assert same_bytes(out, reference_px_to_bev(h, rows))
            assert not np.isfinite(out).all(axis=1).any()


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
    def test_other_shapes_raise(self, true_h, name, points):
        shape = re.escape(str(np.shape(points)))
        with pytest.raises(ValueError, match=rf"\(2,\) point or an \(N, 2\) array, got shape {shape}$"):
            getattr(true_h, name)(points)

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_n_by_two_arrays_map(self, true_h, n):
        pixels = np.stack([np.linspace(0.0, 1919.0, n), np.linspace(300.0, 1079.0, n)], axis=1)
        bev = true_h.px_to_bev(pixels)
        assert bev.shape == (n, 2)
        px, valid = true_h.try_bev_to_px(bev)
        assert px.shape == (n, 2) and valid.shape == (n,) and valid.dtype == bool
        assert true_h.bev_to_px(bev).shape == (n, 2)
        if n:  # a list of rows maps as the array does
            assert np.array_equal(true_h.px_to_bev(pixels.tolist()), bev)

    def test_one_point_maps_to_one_point(self, true_h):
        assert true_h.px_to_bev([960.0, 900.0]).shape == (2,)
        assert true_h.bev_to_px(true_h.px_to_bev([960.0, 900.0])).shape == (2,)
        px, valid = true_h.try_bev_to_px(np.array([0.0, 10.0]))
        assert px.shape == (1, 2) and valid.tolist() == [True]
