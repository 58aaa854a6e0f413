"""Piecewise pixel<->BEV mapping that stays finite near the horizon.

A projective pixel->BEV homography blows up hyperbolically as the denominator
row approaches zero (the horizon). Along each pixel column the BEV image of
one pixel step grows without bound, so points near the horizon cannot be
localized meaningfully. This module replaces the map above a per-column
threshold row v_T(u) with its first-order Taylor extension in v, producing a
continuous, invertible map defined on the whole image:

* below v_T(u) (towards the camera) the exact projective map is used;
* at v_T(u) the norm of d(BEV)/dv equals ``max_spacing`` exactly, so in the
  linear region consecutive integer rows map to BEV points exactly
  ``max_spacing`` apart and the junction is C1.

v_T(u) has a closed form: with per-column denominators w(v) = c*v + d(u), the
derivative norm is sqrt(K(u)) / w(v)^2, so the threshold solves
w^2 = sqrt(K)/max_spacing on the ground side of the horizon.

The ground side is assumed below the horizon row, the standard orientation
for a camera above the plane looking forward.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import HorizonInsideFootprint, OutOfDomain
from .homography import MAX_IMAGE_SIDE, Homography

_EDGE_TOL = 1e-9  # slack when deciding which piece a query point belongs to


class LinearizedHomography:
    """Homography plus cached per-column linearization thresholds.

    Attributes:
        h: the underlying Homography (pixel -> BEV).
        max_spacing: target BEV spacing of consecutive pixel rows, meters.
        image_size: (width, height) in pixels.
        linearization_needed: False for affine homographies (no horizon).
        column_v_t / column_anchor / column_tangent / column_defined: cached
            threshold row, BEV anchor point, BEV tangent (d BEV / d v) and
            validity flag for each integer pixel column.
    """

    def __init__(self, h: Homography, image_size: tuple[int, int], max_spacing: float = 0.2):
        if max_spacing <= 0:
            raise ValueError("max_spacing must be positive")
        w, ht = int(image_size[0]), int(image_size[1])
        if w <= 0 or ht <= 0:
            raise ValueError("image size must be positive")
        if max(w, ht) > MAX_IMAGE_SIDE:
            raise ValueError(f"image size {w} x {ht} too large (at most {MAX_IMAGE_SIDE} a side)")
        self.h = h
        self.max_spacing = float(max_spacing)
        self.image_size = (w, ht)
        m = h.m
        self._affine = abs(m[2, 0]) <= 1e-15 and abs(m[2, 1]) <= 1e-15
        self.linearization_needed = not self._affine

        cols = np.arange(w, dtype=float)
        v_t, anchor, tangent, defined = self._analytic_pieces(cols)
        if not np.all(defined):
            n_bad = int((~defined).sum())
            good = np.flatnonzero(defined)
            if good.size == 0:
                raise OutOfDomain("no pixel column admits a linearization threshold")
            bad = np.flatnonzero(~defined)
            nearest = good[np.argmin(np.abs(good[None, :] - bad[:, None]), axis=1)]
            v_t[bad] = v_t[nearest]
            tangent[bad] = tangent[nearest]
            anchor[bad] = anchor[nearest]
            warnings.warn(
                f"{n_bad} pixel column(s) have no usable threshold; nearest column reused",
                HorizonInsideFootprint,
            )
        self.column_v_t = v_t
        self.column_anchor = anchor
        self.column_tangent = tangent
        self.column_defined = defined

    # -- per-column closed forms -------------------------------------------------

    def _column_coeffs(self, u: np.ndarray):
        m = self.h.m
        a1, a2, c = m[0, 1], m[1, 1], m[2, 1]
        b1 = m[0, 0] * u + m[0, 2]
        b2 = m[1, 0] * u + m[1, 2]
        d = m[2, 0] * u + m[2, 2]
        alpha = a1 * d - b1 * c
        beta = a2 * d - b2 * c
        return a1, a2, c, b1, b2, d, alpha, beta

    def _analytic_pieces(self, u: np.ndarray):
        """Threshold row, anchor and tangent for (possibly fractional) columns u."""
        u = np.asarray(u, dtype=float)
        a1, a2, c, b1, b2, d, alpha, beta = self._column_coeffs(u)
        k = alpha * alpha + beta * beta
        v_t = np.full(u.shape, -np.inf)
        anchor = np.zeros(u.shape + (2,))
        tangent = np.zeros(u.shape + (2,))
        defined = k > 1e-30

        if self._affine:
            # No horizon: the exact map is affine, the "linear piece" coincides
            # with it. The threshold is set to the top row by convention.
            v_t[:] = 0.0
            w0 = d  # c == 0
            tangent[..., 0] = np.where(defined, alpha / (w0 * w0), 0.0)
            tangent[..., 1] = np.where(defined, beta / (w0 * w0), 0.0)
            anchor[..., 0] = b1 / w0
            anchor[..., 1] = b2 / w0
            return v_t, anchor, tangent, defined

        if abs(c) > 1e-15:
            sigma = 1.0 if c > 0 else -1.0
            with np.errstate(invalid="ignore", divide="ignore"):
                w_t = sigma * np.sqrt(np.sqrt(k) / self.max_spacing)
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

        # c == 0 with a u-dependent denominator: each column maps affinely in v
        # with constant derivative sqrt(k)/d^2; columns whose derivative already
        # respects max_spacing never need the linear piece, the rest have no
        # threshold of their own.
        with np.errstate(invalid="ignore", divide="ignore"):
            deriv = np.sqrt(k) / (d * d)
            ok = defined & (np.abs(d) > 1e-15) & (deriv <= self.max_spacing)
            tangent[..., 0] = np.where(ok, alpha / (d * d), 0.0)
            tangent[..., 1] = np.where(ok, beta / (d * d), 0.0)
            anchor[..., 0] = np.where(ok, b1 / d, 0.0)
            anchor[..., 1] = np.where(ok, b2 / d, 0.0)
        return v_t, anchor, tangent, ok

    def _pieces(self, u: np.ndarray):
        """Like _analytic_pieces but falls back to the cached nearest defined column."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v_t, anchor, tangent, defined = self._analytic_pieces(u)
        if not np.all(defined):
            bad = ~defined
            idx = np.clip(np.rint(u[bad]).astype(int), 0, self.image_size[0] - 1)
            v_t[bad] = self.column_v_t[idx]
            anchor[bad] = self.column_anchor[idx]
            tangent[bad] = self.column_tangent[idx]
        return v_t, anchor, tangent

    def _ground_sign(self, u: np.ndarray) -> np.ndarray:
        m = self.h.m
        c = m[2, 1]
        if abs(c) > 1e-15:
            return np.full(np.shape(u), 1.0 if c > 0 else -1.0)
        d = m[2, 0] * np.asarray(u, dtype=float) + m[2, 2]
        return np.sign(d)

    # -- forward / inverse maps --------------------------------------------------

    def px_to_bev(self, pixels, ego=None, frame: int = 0) -> np.ndarray:
        """Map pixel points to BEV meters; total on the whole image plane.

        Above the per-column threshold (towards the horizon) the first-order
        Taylor extension is used, below it the exact projective map. When an
        egomotion track is given, its cumulative offset at ``frame`` is added
        so outputs are in the world-fixed BEV frame.
        """
        p = np.asarray(pixels, dtype=float)
        single = p.ndim == 1
        pts = np.atleast_2d(p).astype(float)
        u, v = pts[:, 0], pts[:, 1]
        v_t, anchor, tangent = self._pieces(u)
        below = v >= v_t  # exact projective region (towards the camera)
        out = np.empty_like(pts)
        if np.any(below):
            out[below] = self.h.apply(pts[below])
        if not np.all(below):
            up = ~below
            out[up] = anchor[up] + (v[up] - v_t[up])[:, None] * tangent[up]
        if ego is not None:
            out = out + ego.offset(frame)
        return out[0] if single else out

    def try_bev_to_px(self, bev, ego=None, frame: int = 0):
        """Inverse of px_to_bev for (N, 2) BEV points: (pixels (N, 2), valid (N,)).

        Never raises: a point with no pixel preimage (behind the horizon of the
        exact map and outside the linear piece's range, e.g. behind the
        camera) is not valid and its pixel is NaN.
        """
        pts = np.atleast_2d(np.asarray(bev, dtype=float)).astype(float)
        if ego is not None:
            pts = pts - ego.offset(frame)
        ones = np.ones((pts.shape[0], 1))
        # One (1, 3) @ (3, 3) product per point: an (N, 3) @ (3, 3) product may
        # take another BLAS kernel and round differently from a lone point.
        q = (np.concatenate([pts, ones], axis=1)[:, None, :] @ self.h.inv.T)[:, 0, :]
        wq = q[:, 2]
        finite = np.abs(wq) > 1e-12 * np.abs(q).max(axis=1)
        wq_safe = np.where(finite, wq, 1.0)
        u = q[:, 0] / wq_safe
        v = q[:, 1] / wq_safe

        v_t, anchor, tangent = self._pieces(u)
        m = self.h.m
        w_img = m[2, 0] * u + m[2, 1] * v + m[2, 2]
        side_ok = self._ground_sign(u) * w_img > 0
        use_exact = finite & side_ok & (v >= v_t - _EDGE_TOL)

        diff = pts - anchor
        tt = np.sum(tangent * tangent, axis=1)
        tt_safe = np.where(tt > 0, tt, 1.0)
        t = np.sum(diff * tangent, axis=1) / tt_safe
        use_linear = finite & ~use_exact & (t <= _EDGE_TOL) & (tt > 0) & np.isfinite(v_t)

        valid = use_exact | use_linear
        out = np.stack([u, np.where(use_exact, v, v_t + t)], axis=1)
        if not valid.all():
            out[~valid] = np.nan
        return out, valid

    def bev_to_px(self, bev, ego=None, frame: int = 0) -> np.ndarray:
        """Inverse of px_to_bev for one (2,) point or an (N, 2) array.

        Raises:
            OutOfDomain: a point is not valid in try_bev_to_px.
        """
        out, valid = self.try_bev_to_px(bev, ego=ego, frame=frame)
        if not valid.all():
            idx = np.flatnonzero(~valid).tolist()
            raise OutOfDomain(f"BEV points with no pixel preimage at indices {idx}")
        return out[0] if np.ndim(bev) == 1 else out


def linearize(h: Homography, image_size: tuple[int, int], max_spacing: float = 0.2) -> LinearizedHomography:
    """Build the piecewise-linearized mapping for an image of the given size."""
    return LinearizedHomography(h, image_size, max_spacing)
