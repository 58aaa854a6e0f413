"""The pixel<->BEV map against the per-point closed forms it replaced.

The reference_* functions are the map as it was when every query built the
threshold row, anchor and tangent of every point (``_analytic_pieces`` and
``_pieces``), and chose the ground side with ``_ground_sign``. Today's map
builds them point by point in Python floats, whatever the call's size, and
fills undefined columns from the cache. On seeded random homographies of all
three camera cases (a denominator varying along columns, an affine map, and
a denominator constant along each column but not across them) both must give
the same bytes: BEV points, pixels (NaN included) and valid flags. The one
exception is a pixel whose column is not finite: the reference borrowed the
cached piece of the column it cast to, today's map gives NaN.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bevtrack.egomotion import EgomotionTrack
from bevtrack.errors import HorizonInsideFootprint
from bevtrack.homography import Homography
from bevtrack.linearized import LinearizedHomography, _nearest_defined, linearize
from bevtrack.simulator import CameraSpec, true_homography
from bevtrack.tracker import SceneModel

_EDGE_TOL = 1e-9


# -- the reference map ------------------------------------------------------------


def reference_column_coeffs(m, u):
    a1, a2, c = m[0, 1], m[1, 1], m[2, 1]
    b1 = m[0, 0] * u + m[0, 2]
    b2 = m[1, 0] * u + m[1, 2]
    d = m[2, 0] * u + m[2, 2]
    alpha = a1 * d - b1 * c
    beta = a2 * d - b2 * c
    return a1, a2, c, b1, b2, d, alpha, beta


def reference_analytic_pieces(lh, u):
    u = np.asarray(u, dtype=float)
    m = lh.h.m
    a1, a2, c, b1, b2, d, alpha, beta = reference_column_coeffs(m, u)
    k = alpha * alpha + beta * beta
    v_t = np.full(u.shape, -np.inf)
    anchor = np.zeros(u.shape + (2,))
    tangent = np.zeros(u.shape + (2,))
    defined = k > 1e-30

    if abs(m[2, 0]) <= 1e-15 and abs(m[2, 1]) <= 1e-15:
        v_t[:] = 0.0
        w0 = d
        tangent[..., 0] = np.where(defined, alpha / (w0 * w0), 0.0)
        tangent[..., 1] = np.where(defined, beta / (w0 * w0), 0.0)
        anchor[..., 0] = b1 / w0
        anchor[..., 1] = b2 / w0
        return v_t, anchor, tangent, defined

    if abs(c) > 1e-15:
        sigma = 1.0 if c > 0 else -1.0
        with np.errstate(invalid="ignore", divide="ignore"):
            w_t = sigma * np.sqrt(np.sqrt(k) / lh.max_spacing)
            vt = (w_t - d) / c
            ax = (a1 * vt + b1) / w_t
            ay = (a2 * vt + b2) / w_t
            tx = alpha / (w_t * w_t)
            ty = beta / (w_t * w_t)
        v_t = np.where(defined, vt, -np.inf)
        anchor[..., 0] = np.where(defined, ax, 0.0)
        anchor[..., 1] = np.where(defined, ay, 0.0)
        tangent[..., 0] = np.where(defined, tx, 0.0)
        tangent[..., 1] = np.where(defined, ty, 0.0)
        return v_t, anchor, tangent, defined

    with np.errstate(invalid="ignore", divide="ignore"):
        deriv = np.sqrt(k) / (d * d)
        ok = defined & (np.abs(d) > 1e-15) & (deriv <= lh.max_spacing)
        tangent[..., 0] = np.where(ok, alpha / (d * d), 0.0)
        tangent[..., 1] = np.where(ok, beta / (d * d), 0.0)
        anchor[..., 0] = np.where(ok, b1 / d, 0.0)
        anchor[..., 1] = np.where(ok, b2 / d, 0.0)
    return v_t, anchor, tangent, ok


def reference_columns(lh):
    """The cached (v_t, anchor, tangent, defined) of every integer column."""
    cols = np.arange(lh.image_size[0], dtype=float)
    v_t, anchor, tangent, defined = reference_analytic_pieces(lh, cols)
    if not np.all(defined):
        good = np.flatnonzero(defined)
        bad = np.flatnonzero(~defined)
        nearest = good[np.argmin(np.abs(good[None, :] - bad[:, None]), axis=1)]
        v_t[bad] = v_t[nearest]
        tangent[bad] = tangent[nearest]
        anchor[bad] = anchor[nearest]
    return v_t, anchor, tangent, defined


def reference_nearest(defined):
    """(bad, nearest) of reference_columns: an argmin over the (bad, good) distances."""
    good = np.flatnonzero(defined)
    bad = np.flatnonzero(~defined)
    return bad, good[np.argmin(np.abs(good[None, :] - bad[:, None]), axis=1)]


def reference_pieces(lh, cache, u, seen):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v_t, anchor, tangent, defined = reference_analytic_pieces(lh, u)
    bad = ~defined & np.isfinite(u)  # a column that is not finite maps to NaN or invalid
    if bad.any():
        seen.add("fallback")
        idx = np.clip(np.rint(u[bad]), 0, lh.image_size[0] - 1).astype(int)
        v_t[bad] = cache[0][idx]
        anchor[bad] = cache[1][idx]
        tangent[bad] = cache[2][idx]
    return v_t, anchor, tangent


def reference_ground_sign(lh, u):
    m = lh.h.m
    c = m[2, 1]
    if abs(c) > 1e-15:
        return np.full(np.shape(u), 1.0 if c > 0 else -1.0)
    d = m[2, 0] * np.asarray(u, dtype=float) + m[2, 2]
    return np.sign(d)


def reference_px_to_bev(lh, cache, pixels, seen, ego=None, frame=0):
    p = np.asarray(pixels, dtype=float)
    single = p.ndim == 1
    pts = np.atleast_2d(p).astype(float)
    u, v = pts[:, 0], pts[:, 1]
    v_t, anchor, tangent = reference_pieces(lh, cache, u, seen)
    below = v >= v_t
    out = np.empty_like(pts)
    if np.any(below):
        seen.add("exact")
        out[below] = lh.h.apply(pts[below])
    if not np.all(below):
        seen.add("linear")
        up = ~below
        out[up] = anchor[up] + (v[up] - v_t[up])[:, None] * tangent[up]
    if ego is not None:
        out = out + ego.offset(frame)
    return out[0] if single else out


def reference_try_bev_to_px(lh, cache, bev, seen, ego=None, frame=0):
    pts = np.atleast_2d(np.asarray(bev, dtype=float)).astype(float)
    if ego is not None:
        pts = pts - ego.offset(frame)
    ones = np.ones((pts.shape[0], 1))
    q = (np.concatenate([pts, ones], axis=1)[:, None, :] @ lh.h.inv.T)[:, 0, :]
    wq = q[:, 2]
    finite = np.abs(wq) > 1e-12 * np.abs(q).max(axis=1)
    wq_safe = np.where(finite, wq, 1.0)
    u = q[:, 0] / wq_safe
    v = q[:, 1] / wq_safe

    v_t, anchor, tangent = reference_pieces(lh, cache, u, seen)
    m = lh.h.m
    w_img = m[2, 0] * u + m[2, 1] * v + m[2, 2]
    side_ok = reference_ground_sign(lh, u) * w_img > 0
    use_exact = finite & side_ok & (v >= v_t - _EDGE_TOL)

    diff = pts - anchor
    tt = np.sum(tangent * tangent, axis=1)
    tt_safe = np.where(tt > 0, tt, 1.0)
    t = np.sum(diff * tangent, axis=1) / tt_safe
    use_linear = finite & ~use_exact & (t <= _EDGE_TOL) & (tt > 0) & np.isfinite(v_t)

    valid = use_exact | use_linear
    for name, rows in (("exact", use_exact), ("linear", use_linear), ("invalid", ~valid)):
        if rows.any():
            seen.add(name)
    out = np.stack([u, np.where(use_exact, v, v_t + t)], axis=1)
    if not valid.all():
        out[~valid] = np.nan
    return out, valid


# -- seeded cameras and query points ----------------------------------------------


def _rigid(angle, shift):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, shift[0]], [s, c, shift[1]], [0.0, 0.0, 1.0]])


def random_camera(kind, seed):
    """The LinearizedHomography of one camera case, drawn from the seed."""
    rng = np.random.default_rng(seed)
    w, ht = int(rng.integers(64, 700)), int(rng.integers(48, 500))
    spacing = float(rng.uniform(0.05, 0.5))
    if kind in ("pinhole", "rolled", "upside_down"):
        cam = CameraSpec(
            height=float(rng.uniform(1.5, 12.0)),
            tilt_deg=float(rng.uniform(8.0, 60.0)),
            focal=float(rng.uniform(0.6, 1.6) * w),
            image_width=w,
            image_height=ht,
        )
        m = true_homography(cam).m
        if kind == "rolled":  # pixel roll about the centre and a BEV pose: h20 != 0
            centre = np.array([w / 2.0, ht / 2.0])
            roll = _rigid(rng.uniform(-0.3, 0.3), (0.0, 0.0))
            roll[:2, 2] = centre - roll[:2, :2] @ centre
            pose = _rigid(rng.uniform(-math.pi, math.pi), rng.uniform(-5, 5, 2))
            m = pose @ m @ roll
        elif kind == "upside_down":  # rows counted upwards: the sign of c flips
            m = m @ np.diag([1.0, -1.0, 1.0])
    elif kind == "affine":
        m = np.vstack([rng.uniform(-0.05, 0.05, (2, 3)) + [[0, 0, 0], [0, 0, 10]], [0, 0, 1.0]])
        m[:2, :2] += np.diag([0.02, -0.02])
    elif kind == "c_zero":
        # Denominator g u + 1: with a small spacing budget the leftmost
        # columns have no threshold of their own and borrow the nearest one.
        g = float(rng.uniform(0.02, 0.08))
        s = float(rng.uniform(0.05, 0.15))
        m = np.array([[s, 0.0, rng.uniform(-1, 1)], [0.0, s, rng.uniform(-1, 1)], [g, 0.0, 1.0]])
        spacing = s / (g * rng.uniform(10.0, 40.0) + 1.0)
    else:
        raise ValueError(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonInsideFootprint)
        return linearize(Homography(m), (w, ht), spacing)


def query_pixels(lh, rng, n=300):
    """Pixels inside and far beyond the image, near and above the horizon, and non-finite."""
    w, ht = lh.image_size
    inside = np.stack([rng.uniform(0, w, n), rng.uniform(0, ht, n)], axis=1)
    beyond = np.stack([rng.uniform(-w, 2 * w, n), rng.uniform(-2 * ht, 2 * ht, n)], axis=1)
    m = lh.h.m
    u = rng.uniform(-w / 2, 1.5 * w, n)
    near = np.zeros((0, 2))
    if abs(m[2, 1]) > 1e-15:  # the horizon row solves m20 u + m21 v + m22 == 0
        v_h = -(m[2, 0] * u + m[2, 2]) / m[2, 1]
        near = np.stack([u, v_h + rng.choice([-1, 1], n) * 10.0 ** rng.uniform(-6, 2, n)], axis=1)
    # Integer columns and threshold rows hit the junction exactly.
    cols = rng.integers(0, w, n // 4)
    junction = np.stack([cols.astype(float), lh.column_v_t[cols]], axis=1)
    pts = np.concatenate([inside, beyond, near, junction])
    pts = pts[np.all(np.isfinite(pts), axis=1)]
    # Non-finite columns map to NaN (the reference borrows column 0's piece
    # for them); a finite column with a NaN row is NaN on either piece.
    nan, inf = np.nan, np.inf
    odd = [[nan, -1e6], [nan, 0.0], [nan, ht], [inf, -1e6], [-inf, 0.0], [0.0, nan]]
    return np.concatenate([pts, odd])


def query_bev(lh, rng, pixels):
    """BEV points in the footprint, the far field, behind the camera and at w == 0."""
    with np.errstate(all="ignore"):
        exact = lh.h.apply(pixels)  # above the horizon this lands behind the camera
        foot = lh.px_to_bev(pixels)
    span = np.abs(foot[np.all(np.isfinite(foot), axis=1)]).max()
    box = rng.uniform(-span, span, (200, 2))
    r = lh.h.inv[2]
    norm = math.hypot(r[0], r[1])
    line = np.zeros((0, 2))
    if norm > 0:
        n_hat = r[:2] / norm
        s = rng.uniform(-100, 100, (50, 1))
        line = -r[2] / norm * n_hat + s * np.array([-n_hat[1], n_hat[0]])
    pts = np.concatenate([exact, foot, foot + rng.normal(0, 1.0, foot.shape), box, line])
    pts = pts[np.all(np.isfinite(pts), axis=1)]
    # Non-finite points have undefined columns on every camera.
    return np.concatenate([pts, [[np.nan, 1.0], [np.inf, 5.0], [-np.inf, -np.inf]]])


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


KINDS = ("pinhole", "rolled", "upside_down", "affine", "c_zero")
SEEDS = range(6)


def compare_camera(kind, seed):
    """Assert byte-equal maps on one camera; return the pieces the queries reached."""
    lh = random_camera(kind, seed)
    cache = reference_columns(lh)
    for got, want in zip(
        (lh.column_v_t, lh.column_anchor, lh.column_tangent, lh.column_defined), cache
    ):
        assert same_bytes(got, want)
    rng = np.random.default_rng(1000 + seed)
    pixels = query_pixels(lh, rng)
    bev = query_bev(lh, rng, pixels)
    ego = EgomotionTrack(np.array([[0.0, 0.0], [0.4, -1.3], rng.normal(0, 3, 2)]))
    finite = np.isfinite(pixels[:, 0])
    seen = set()
    with np.errstate(all="ignore"):
        for frame, e in ((0, None), (2, ego)):
            # The map is camera-relative; the offset is applied here as
            # SceneModel applies it, with the reference's operations.
            got = lh.px_to_bev(pixels)
            got = got if e is None else got + e.offset(frame)
            want = reference_px_to_bev(lh, cache, pixels, seen, e, frame)
            assert same_bytes(got[finite], want[finite])
            assert np.isnan(got[~finite]).all()
            rel = bev if e is None else bev - e.offset(frame)
            got_px, got_valid = lh.try_bev_to_px(rel)
            want_px, want_valid = reference_try_bev_to_px(lh, cache, bev, seen, e, frame)
            assert same_bytes(got_px, want_px)
            assert same_bytes(got_valid, want_valid)
            for i in rng.choice(len(pixels), 25, replace=False):
                got = lh.px_to_bev(pixels[i])
                assert got.shape == (2,)
                got = got if e is None else got + e.offset(frame)
                want = reference_px_to_bev(lh, cache, pixels[i], seen, e, frame)
                assert same_bytes(got, want) if finite[i] else np.isnan(got).all()
            for i in rng.choice(len(bev), 25, replace=False):
                rel = bev[i] if e is None else bev[i] - e.offset(frame)
                got_px, got_valid = lh.try_bev_to_px(rel)
                want_px, want_valid = reference_try_bev_to_px(lh, cache, bev[i], seen, e, frame)
                assert same_bytes(got_px, want_px) and same_bytes(got_valid, want_valid)
    return seen


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_map_matches_reference(kind, seed):
    compare_camera(kind, seed)


def test_camera_cases_are_what_they_claim():
    for seed in SEEDS:
        for kind in ("pinhole", "rolled", "upside_down"):
            m = random_camera(kind, seed).h.m
            assert abs(m[2, 1]) > 1e-15
        flipped = random_camera("upside_down", seed).h.m[2, 1]
        assert np.sign(flipped) == -np.sign(random_camera("pinhole", seed).h.m[2, 1])
        assert abs(random_camera("rolled", seed).h.m[2, 0]) > 1e-15
        lh = random_camera("affine", seed)
        assert not lh.linearization_needed
        lh = random_camera("c_zero", seed)
        assert abs(lh.h.m[2, 1]) <= 1e-15 < abs(lh.h.m[2, 0])
        assert not lh.column_defined.all() and lh.column_defined.any()


def test_every_piece_occurs():
    seen = set()
    for kind in KINDS:
        seen |= compare_camera(kind, 0)
    assert seen == {"exact", "linear", "invalid", "fallback"}


def test_fallback_on_finite_columns():
    # The c_zero cameras borrow for finite, in-image columns, not only for
    # non-finite points.
    lh = random_camera("c_zero", 0)
    cache = reference_columns(lh)
    seen = set()
    u = np.arange(lh.image_size[0], dtype=float) + 0.25
    pixels = np.stack([u, np.full(u.shape, lh.image_size[1] / 2.0)], axis=1)
    assert same_bytes(lh.px_to_bev(pixels), reference_px_to_bev(lh, cache, pixels, seen))
    assert "fallback" in seen


class TestRowsLiftAlone:
    """px_to_bev maps row by row: a batch lifts each row to the bits it lifts to
    alone, whatever the other rows are. Tracker.step lifts the feet of several
    tracks and frames in one px_to_world call and gives the same points as one
    call per frame only because of it."""

    @staticmethod
    def mixed_pixels(lh, seed):
        """query_pixels shuffled, so rows of both pieces, borrowed columns and
        non-finite rows sit side by side in one batch."""
        rng = np.random.default_rng(3000 + seed)
        pixels = query_pixels(lh, rng, n=40)
        return pixels[rng.permutation(len(pixels))], rng

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_equals_rows_alone(self, kind, seed):
        lh = random_camera(kind, seed)
        pixels, _ = self.mixed_pixels(lh, seed)
        batch = lh.px_to_bev(pixels)
        for i, p in enumerate(pixels):
            assert same_bytes(batch[i], lh.px_to_bev(p))  # a (2,) point
            assert same_bytes(batch[i : i + 1], lh.px_to_bev(pixels[i : i + 1]))
        assert np.isnan(batch).any() and np.isfinite(batch).any()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_per_row_frames_equal_per_frame_calls(self, kind, seed):
        lh = random_camera(kind, seed)
        pixels, rng = self.mixed_pixels(lh, seed)
        ego = EgomotionTrack(np.vstack([[0.0, 0.0], rng.normal(0.0, 3.0, (5, 2))]))
        scene = SceneModel(lh, fps=10.0, ego=ego)
        frames = rng.integers(0, len(ego), len(pixels))
        got = scene.px_to_world(pixels, frames)
        for f in range(len(ego)):
            rows = frames == f
            assert rows.any()
            assert same_bytes(got[rows], scene.px_to_world(pixels[rows], f))
        with pytest.raises(ValueError, match="frame 6 outside egomotion track of length 6"):
            scene.px_to_world(pixels[:3], [0, 6, -1])
        with pytest.raises(ValueError, match="frame -1 outside egomotion track of length 6"):
            scene.px_to_world(pixels[:2], [-1, 2])

    def test_the_batches_reach_every_piece(self):
        # finite rows on the exact and the linear piece and in borrowed columns
        seen = set()
        for kind in KINDS:
            for seed in range(3):
                lh = random_camera(kind, seed)
                pixels = self.mixed_pixels(lh, seed)[0]
                with np.errstate(all="ignore"):
                    cache = reference_columns(lh)
                    reference_px_to_bev(lh, cache, pixels[np.isfinite(pixels).all(axis=1)], seen)
        assert {"exact", "linear", "fallback"} <= seen


# batch sizes: one point, either side of 16 (where px_to_bev once switched to numpy),
# the benchmark's largest call (28 points) and a batch past the floats' crossover
SIZES = (1, 16, 17, 28, 100)


@pytest.fixture
def threshold_calls(monkeypatch):
    """The number of columns of each LinearizedHomography._thresholds call from here on:
    the constructor makes one over the image's columns, and no query makes any."""
    calls = []
    thresholds = LinearizedHomography._thresholds
    monkeypatch.setattr(LinearizedHomography, "_thresholds",
                        lambda self, u: calls.append(len(u)) or thresholds(self, u))
    return calls


class TestBatchSizes:
    """px_to_bev and try_bev_to_px take every point through Python floats, whatever the
    call's size: a row, also one with a non-finite value or a borrowed column, maps to
    the reference's bytes, and no query builds the column arrays."""

    @staticmethod
    def rows(lh, seed):
        """(exact pixels, linear pixels, odd pixels, BEV points, odd BEV points): finite
        pixels on either piece, rows with a non-finite value or borrowed column, finite
        BEV points of every piece, and BEV points with a non-finite value."""
        rng = np.random.default_rng(5000 + seed)
        pixels = query_pixels(lh, rng, n=100)
        with np.errstate(all="ignore"):
            bev = query_bev(lh, rng, pixels)
            u = np.where(np.isfinite(pixels[:, 0]), pixels[:, 0], 0.0)
            _, _, _, defined = reference_analytic_pieces(lh, u)
        finite = np.isfinite(pixels).all(axis=1) & defined
        v_t = reference_columns(lh)[0][np.clip(np.rint(u), 0, lh.image_size[0] - 1).astype(int)]
        exact = finite & (pixels[:, 1] >= v_t + 1.0)  # clear of the junction either way
        linear = finite & (pixels[:, 1] <= v_t - 1.0)
        odd = ~finite & (np.isfinite(pixels[:, 0]) | ~defined)
        bev_finite = np.isfinite(bev).all(axis=1)
        return (pixels[exact], pixels[linear], pixels[odd | ~np.isfinite(pixels).all(axis=1)],
                bev[bev_finite], bev[~bev_finite])

    @staticmethod
    def batches(lh, seed, size):
        """(pixels, BEV points) batches of size rows: clean ones mixing both pieces, and
        ones with a non-finite row or a borrowed column."""
        exact, linear, odd, bev, odd_bev = TestBatchSizes.rows(lh, seed)
        linear = linear if len(linear) else exact  # c_zero maps have no linear piece
        rng = np.random.default_rng(6000 + seed)
        out = []
        for _ in range(30):
            k = int(rng.integers(1, size)) if size > 1 else int(rng.integers(2))
            pixels = np.concatenate([exact[rng.choice(len(exact), k)],
                                     linear[rng.choice(len(linear), size - k)]])
            points = bev[rng.choice(len(bev), size)]
            out.append((pixels[rng.permutation(size)], points))
            pixels, points = pixels.copy(), points.copy()
            pixels[rng.integers(size)] = odd[rng.integers(len(odd))]
            points[rng.integers(size)] = odd_bev[rng.integers(len(odd_bev))]
            out.append((pixels, points))
        return out

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_batches_of_every_size_match_the_reference(self, kind, seed, threshold_calls):
        lh = random_camera(kind, seed)
        assert threshold_calls == [lh.image_size[0]]  # the constructor's one pass
        cache = reference_columns(lh)
        seen = set()
        for size in SIZES:
            for pixels, points in self.batches(lh, seed, size):
                with np.errstate(all="ignore"):
                    got = lh.px_to_bev(pixels)
                    want = reference_px_to_bev(lh, cache, pixels, seen)
                    got_px, got_valid = lh.try_bev_to_px(points)
                    want_px, want_valid = reference_try_bev_to_px(lh, cache, points, seen)
                finite = np.isfinite(pixels[:, 0])
                assert same_bytes(got[finite], want[finite])
                assert np.isnan(got[~finite]).all()
                assert same_bytes(got_px, want_px) and same_bytes(got_valid, want_valid)
        assert {"exact", "linear", "invalid"} <= seen
        # no call of either map, of any size, on any map kind and whatever the rows,
        # built column arrays
        assert threshold_calls == [lh.image_size[0]]

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_that_overflow_match_the_reference(self, kind):
        # finite rows whose column terms or products overflow to inf or NaN
        lh = random_camera(kind, 0)
        cache = reference_columns(lh)
        big = [[1e300, 5.0], [-1e300, 5.0], [1e155, 1e155], [5.0, 1e300], [5.0, -1e300],
               [1e200, -1e200], [-1e-300, 1e300]]
        with np.errstate(all="ignore"):
            for row in big:
                rows = np.array([row, [1.0, 2.0]])  # as pixels, then as BEV points
                want = reference_px_to_bev(lh, cache, rows, set())
                assert same_bytes(lh.px_to_bev(rows), want)
                got, want = lh.try_bev_to_px(rows), reference_try_bev_to_px(lh, cache, rows, set())
                assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


class TestFloatPath:
    """Batches of every size in SIZES of what the float path once handed to numpy:
    non-finite values, undefined columns and zero divisors. Both maps take every row in
    floats; each gives the reference's bytes, no call warns, and no query builds the
    column arrays."""

    @staticmethod
    def assert_batches_match(lh, pixels, bev, threshold_calls):
        assert threshold_calls == [lh.image_size[0]]  # the constructor's one pass
        cache = reference_columns(lh)
        seen = set()
        for size in SIZES:
            for i in range(0, max(len(pixels), len(bev)), size):
                rows, points = pixels[i : i + size], bev[i : i + size]
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = lh.px_to_bev(rows)
                    got_px, got_valid = lh.try_bev_to_px(points)
                with np.errstate(all="ignore"):
                    want = reference_px_to_bev(lh, cache, rows, seen)
                    want_px, want_valid = reference_try_bev_to_px(lh, cache, points, seen)
                finite = np.isfinite(rows[:, 0])
                assert same_bytes(got[finite], want[finite])
                assert np.isnan(got[~finite]).all()
                assert same_bytes(got_px, want_px) and same_bytes(got_valid, want_valid)
        assert threshold_calls == [lh.image_size[0]]
        return seen

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_odd_rows_match_the_reference(self, kind, seed, threshold_calls):
        lh = random_camera(kind, seed)
        exact, linear, odd, bev, odd_bev = TestBatchSizes.rows(lh, seed)
        rng = np.random.default_rng(7000 + seed)
        pixels = np.concatenate([np.repeat(odd, 4, axis=0), exact[:80], linear[:80]])
        points = np.concatenate([np.repeat(odd_bev, 20, axis=0), bev[:60]])
        pixels, points = pixels[rng.permutation(len(pixels))], points[rng.permutation(len(points))]
        assert not np.isfinite(pixels).all() and not np.isfinite(points).all()
        assert min(len(pixels), len(points)) >= SIZES[-1]  # a batch of every size
        seen = self.assert_batches_match(lh, pixels, points, threshold_calls)
        if kind == "c_zero":  # finite columns that borrow their piece
            assert "fallback" in seen

    def test_an_exact_zero_divisor(self, threshold_calls):
        # d = u / 16 + 1 is 0 at u = -16: that column has no threshold of its own and
        # borrows column 0's v_t of -inf, so its rows take the exact piece with w == 0
        m = np.array([[0.1, 0.0, 0.3], [0.0, 0.1, -0.5], [1.0 / 16, 0.0, 1.0]])
        lh = linearize(Homography(m), (64, 48), 0.2)
        v = np.array([-100.0, 0.0, 5.0, 12.0, 5e3, np.nan])  # y = 0.1 v - 0.5 is 0 at v = 5
        pixels = np.stack([np.full(200, -16.0), np.resize(v, 200)], axis=1)
        rng = np.random.default_rng(11)
        points = rng.uniform(-50.0, 50.0, (200, 2))
        self.assert_batches_match(lh, pixels, points, threshold_calls)
        out = lh.px_to_bev(pixels[:6])
        assert np.isinf(out[:5, 0]).all() and np.isnan(out[2, 1]) and np.isnan(out[5]).all()

    def test_a_zero_denominator_in_the_piece(self, threshold_calls):
        # an affine map whose denominator u m20 + 1 is 0 at u = -2**60 while the column
        # still has a threshold: its anchor and tangent divide by 0
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0**-60, 2.0**-60, 1.0]])
        lh = linearize(Homography(m), (64, 48), 0.2)
        assert not lh.linearization_needed
        v = np.array([-5.0, 0.0, 3.0, -1e300])
        pixels = np.stack([np.full(200, -(2.0**60)), np.resize(v, 200)], axis=1)
        points = np.random.default_rng(12).uniform(-9, 9, (200, 2))
        self.assert_batches_match(lh, pixels, points, threshold_calls)
        out = lh.px_to_bev(pixels[:4])
        assert np.isinf(out[:2, 0]).all() and np.isnan(out[:2, 1]).all()

    def test_a_column_whose_terms_overflow_borrows(self, threshold_calls):
        # at u = 1e308 the column terms overflow and k is NaN: the column has no
        # threshold of its own and reads the cache, whose linear piece is finite
        m = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [2.0, 1.0, 1.0]])
        lh = linearize(Homography(m), (64, 48), 0.2)
        v = np.array([-5.0, -1e3, 5.0, 1e3, -50.0])
        u = np.resize([1e308, -1e308, 1.7e308, -1.7e308], 200)
        pixels = np.stack([u, np.resize(v, 200)], axis=1)
        points = np.random.default_rng(13).uniform(-9, 9, (200, 2))
        assert "fallback" in self.assert_batches_match(lh, pixels, points, threshold_calls)
        assert np.isfinite(lh.px_to_bev(pixels[:4])).all(axis=1).any()
        # such a column reads the cache of the nearest column: u = +1e308 and +1.7e308
        # the last column's linear piece, u = -1e308 the first's
        last = lh.image_size[0] - 1
        for u_far, col in ((1e308, last), (1.7e308, last), (-1e308, 0)):
            v_t = lh.column_v_t[col]
            rows = np.tile([u_far, v_t - 1000.0], (SIZES[-1], 1))
            want = lh.column_anchor[col] + (rows[0, 1] - v_t) * lh.column_tangent[col]
            assert same_bytes(lh.px_to_bev(rows[0]), want), u_far
            assert same_bytes(lh.px_to_bev(rows), np.tile(want, (len(rows), 1))), u_far


class TestNearestColumn:
    """The constructor gives each undefined column the cache of the nearest defined
    one, the lower on a tie, without a (bad, good) distance matrix."""

    def test_matches_the_argmin_formula(self):
        rng = np.random.default_rng(8)
        masks = [np.array(m, dtype=bool) for m in
                 ([1], [1, 0], [0, 1], [1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 0, 0, 0, 1, 0])]
        for _ in range(400):
            w = int(rng.integers(1, 400))
            defined = rng.random(w) < rng.uniform(0.01, 0.99)
            defined[rng.integers(w)] = True
            masks.append(defined)
            masks.append(np.repeat(defined, rng.integers(1, 6, w)))  # runs of each
        for defined in masks:
            got, want = _nearest_defined(defined), reference_nearest(defined)
            assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])

    def test_memory_is_linear_in_the_width(self):
        # d = 1 + u / 1024 and a derivative of 0.3 / d against a budget of 0.1: about
        # the 2,048 columns left of u = 2,048 have no threshold of their own. A
        # (bad, good) int64 distance matrix alone would take 32 MiB.
        m = np.array([[0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [1.0 / 1024, 0.0, 1.0]])
        h = Homography(m)
        tracemalloc.start()
        try:
            with pytest.warns(HorizonInsideFootprint):
                lh = linearize(h, (4096, 100), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2040 <= (~lh.column_defined).sum() <= 2050
        assert peak < 2**21
