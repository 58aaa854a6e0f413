"""Piecewise pixel<->camera-relative BEV mapping that stays finite near the horizon.

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

Cached once per integer pixel column: v_T, the anchor (the exact map at v_T),
the tangent (d BEV / dv there) and whether the column has a threshold of its
own. Per query point, with the same closed forms: v_T always, the anchor and
tangent only where the linear piece reads them (above v_T in px_to_bev, off
the exact piece in try_bev_to_px). A point of an undefined column takes all
three from the cached nearest integer column.
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
        self._projective = abs(m[2, 1]) > 1e-15  # the denominator varies along a column
        self._sigma = 1.0 if m[2, 1] > 0 else -1.0  # its sign on the ground side, if so
        self.linearization_needed = not self._affine

        cols = np.arange(w, dtype=float)
        v_t, defined, terms = self._thresholds(cols)
        anchor, tangent = self._linear_piece(terms, v_t, slice(None))
        bad = np.flatnonzero(~defined)
        if bad.size:
            good = np.flatnonzero(defined)
            if good.size == 0:
                raise OutOfDomain("no pixel column admits a linearization threshold")
            nearest = good[np.argmin(np.abs(good[None, :] - bad[:, None]), axis=1)]
            for values in (v_t, tangent, anchor):
                values[bad] = values[nearest]
            warnings.warn(
                f"{bad.size} pixel column(s) have no usable threshold; nearest column reused",
                HorizonInsideFootprint,
            )
        self.column_v_t = v_t
        self.column_anchor = anchor
        self.column_tangent = tangent
        self.column_defined = defined

    # -- per-column closed forms -------------------------------------------------

    def _thresholds(self, u: np.ndarray):
        """Threshold rows of (possibly fractional) columns u, before any fallback.

        Returns (v_t, defined, terms): terms holds, per point, the column
        values that _linear_piece reads: (b1, b2), (alpha, beta) and the
        denominator there (w_t, or d(u) when it is constant along the column).
        """
        m = self.h.m
        c = m[2, 1]
        coef = u[:, None] * m[:, 0] + m[:, 2]  # b1, b2, d: the row-wise m00 * u + m02
        b, d = coef[:, :2], coef[:, 2]
        ab = m[:2, 1] * d[:, None] - b * c  # alpha, beta: a1 * d - b1 * c
        sq = ab * ab
        k = sq[:, 0] + sq[:, 1]
        defined = k > 1e-30
        if self._projective:
            with np.errstate(invalid="ignore", divide="ignore"):
                w_t = self._sigma * np.sqrt(np.sqrt(k) / self.max_spacing)
                return (w_t - d) / c, defined, (b, ab, w_t)
        if self._affine:
            # No horizon: the linear piece is the exact, affine map; v_t is row 0 by convention.
            return np.zeros(u.shape), defined, (b, ab, d)
        # c == 0 with a u-dependent denominator: each column maps affinely in v
        # with constant derivative sqrt(k)/d^2; columns whose derivative already
        # respects max_spacing never need the linear piece, the rest have no
        # threshold of their own.
        with np.errstate(invalid="ignore", divide="ignore"):
            defined &= (np.abs(d) > 1e-15) & (np.sqrt(k) / (d * d) <= self.max_spacing)
        return np.full(u.shape, -np.inf), defined, (b, ab, d)

    def _linear_piece(self, terms, v_t: np.ndarray, rows):
        """(n, 2) anchor and tangent (d BEV / d v) at the given rows of a _thresholds result."""
        b, ab, den = (t[rows] for t in terms)
        with np.errstate(invalid="ignore", divide="ignore"):
            if self._projective:  # (a1 * v_t + b1) / w_t
                anchor = (self.h.m[:2, 1] * v_t[rows][:, None] + b) / den[:, None]
            else:
                anchor = b / den[:, None]
            return anchor, ab / (den * den)[:, None]

    def _borrow(self, u: np.ndarray, defined: np.ndarray, *pairs) -> None:
        """Give points of undefined columns each cache's values at the nearest integer column."""
        if not defined.all():
            bad = ~defined
            idx = np.clip(np.rint(u[bad]).astype(int), 0, self.image_size[0] - 1)
            for values, cache in pairs:
                values[bad] = cache[idx]

    def _query_pieces(self, u: np.ndarray):
        """Query columns' threshold rows and denominators, and their linear piece at some rows."""
        finite = np.isfinite(u)
        v_t, defined, terms = self._thresholds(np.where(finite, u, 0.0))
        if not finite.all():  # borrows nothing: a NaN threshold row makes the point NaN
            v_t[~finite] = np.nan
            defined = defined | ~finite
        self._borrow(u, defined, (v_t, self.column_v_t))

        def linear(rows):
            anchor, tangent = self._linear_piece(terms, v_t, rows)
            self._borrow(
                u[rows], defined[rows], (anchor, self.column_anchor), (tangent, self.column_tangent)
            )
            return anchor, tangent

        return v_t, terms[-1], linear

    # -- forward / inverse maps --------------------------------------------------

    def px_to_bev(self, pixels) -> np.ndarray:
        """Map pixel points to camera-relative BEV meters; total on the whole image plane.

        Above the per-column threshold (towards the horizon) the first-order
        Taylor extension is used, below it the exact projective map. A point
        whose column is not finite maps to NaN.
        """
        p = np.asarray(pixels, dtype=float)
        single = p.ndim == 1
        pts = np.atleast_2d(p).astype(float)
        u, v = pts[:, 0], pts[:, 1]
        v_t, _, linear = self._query_pieces(u)
        below = v >= v_t  # exact projective region (towards the camera)
        if below.all():
            out = self.h.apply(pts)
        else:
            up = ~below
            out = np.empty_like(pts)
            out[below] = self.h.apply(pts[below])
            anchor, tangent = linear(up)
            out[up] = anchor + (v[up] - v_t[up])[:, None] * tangent
        return out[0] if single else out

    def try_bev_to_px(self, bev):
        """Inverse of px_to_bev for (N, 2) BEV points: (pixels (N, 2), valid (N,)).

        Never raises: a point with no pixel preimage (behind the horizon of the
        exact map and outside the linear piece's range, e.g. behind the
        camera) is not valid and its pixel is NaN.
        """
        pts = np.atleast_2d(np.asarray(bev, dtype=float)).astype(float)
        given = np.isfinite(pts).all(axis=1)
        pts[~given] = 0.0  # a non-finite point is invalid; as 0 it keeps the product warning-free
        ones = np.ones((pts.shape[0], 1))
        # One (1, 3) @ (3, 3) product per point: an (N, 3) @ (3, 3) product may
        # take another BLAS kernel and round differently from a lone point.
        q = (np.concatenate([pts, ones], axis=1)[:, None, :] @ self.h.inv.T)[:, 0, :]
        wq = q[:, 2]
        finite = given & (np.abs(wq) > 1e-12 * np.abs(q).max(axis=1))
        wq_safe = np.where(finite, wq, 1.0)
        u = q[:, 0] / wq_safe
        v = q[:, 1] / wq_safe

        v_t, den, linear = self._query_pieces(u)
        m = self.h.m
        w_img = m[2, 0] * u + m[2, 1] * v + m[2, 2]
        ground_sign = self._sigma if self._projective else np.sign(den)
        valid = finite & (ground_sign * w_img > 0) & (v >= v_t - _EDGE_TOL)  # exact piece
        out = np.stack([u, v], axis=1)
        rest = ~valid
        if rest.any():
            anchor, tangent = linear(rest)
            diff = pts[rest] - anchor
            tt = np.sum(tangent * tangent, axis=1)
            tt_safe = np.where(tt > 0, tt, 1.0)
            t = np.sum(diff * tangent, axis=1) / tt_safe
            vt = v_t[rest]
            valid[rest] = finite[rest] & (t <= _EDGE_TOL) & (tt > 0) & np.isfinite(vt)
            out[rest, 1] = vt + t
            out[~valid] = np.nan
        return out, valid

    def bev_to_px(self, bev) -> np.ndarray:
        """Inverse of px_to_bev for one (2,) point or an (N, 2) array.

        Raises:
            OutOfDomain: a point is not valid in try_bev_to_px.
        """
        out, valid = self.try_bev_to_px(bev)
        if not valid.all():
            idx = np.flatnonzero(~valid).tolist()
            raise OutOfDomain(f"BEV points with no pixel preimage at indices {idx}")
        return out[0] if np.ndim(bev) == 1 else out


def linearize(h: Homography, image_size: tuple[int, int], max_spacing: float = 0.2) -> LinearizedHomography:
    """Build the piecewise-linearized mapping for an image of the given size."""
    return LinearizedHomography(h, image_size, max_spacing)
