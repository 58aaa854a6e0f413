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
own. A query point of an undefined column reads the cache of its nearest
integer column. Both maps take every point, whatever the call's size, on
Python floats (_piece) with the operations of the array closed forms in their
order, so with their bits; the column arrays are built once, by the
constructor, and no query builds them. A non-finite value maps to NaN, and to
invalid in the inverse.

Per point, floats cost more than one numpy pass over the batch once a call
holds more than about 40 points (README has the timings). The tracker lifts one
frame's detections per call: on the benchmark's crowd scenes the largest call
holds 28 points, and 21 of 860 calls hold more than 16. A call of a whole file
(``bevtrack forecast``) pays about 1 ms per 1,000 points.
"""

from __future__ import annotations

import warnings
from math import inf, isfinite, nan, sqrt

import numpy as np

from .errors import HorizonInsideFootprint, OutOfDomain
from .homography import MAX_IMAGE_SIDE, Homography

_EDGE_TOL = 1e-9  # slack when deciding which piece a query point belongs to
# The maps' arithmetic itself makes a non-finite or overflowing query NaN or
# invalid; the queries run it under these settings, so it warns of nothing.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _points(points):
    """(N, 2) float array of one (2,) point or an (N, 2) array, and whether it was one point."""
    p = np.asarray(points, dtype=float)
    if p.shape != (2,) and (p.ndim != 2 or p.shape[1] != 2):
        raise ValueError(f"expected one (2,) point or an (N, 2) array, got shape {p.shape}")
    return p.reshape(-1, 2), p.ndim == 1


def _nearest_defined(defined: np.ndarray):
    """(bad, nearest): the undefined columns and the defined column nearest each, the
    lower one on a tie. Needs a defined column."""
    bad, good = np.flatnonzero(~defined), np.flatnonzero(defined)
    after = np.searchsorted(good, bad)  # the first defined column right of each
    lo = good[np.maximum(after - 1, 0)]
    hi = good[np.minimum(after, good.size - 1)]
    return bad, np.where(bad - lo <= hi - bad, lo, hi)


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
        self._m = tuple(m.ravel().tolist())  # the float paths' coefficients
        self._affine = abs(m[2, 0]) <= 1e-15 and abs(m[2, 1]) <= 1e-15
        self._projective = abs(m[2, 1]) > 1e-15  # the denominator varies along a column
        self._sigma = 1.0 if m[2, 1] > 0 else -1.0  # its sign on the ground side, if so
        self.linearization_needed = not self._affine

        with np.errstate(invalid="ignore", divide="ignore"):
            v_t, defined, terms = self._thresholds(np.arange(w, dtype=float))
            anchor, tangent = self._linear_piece(terms, v_t)
        if not defined.all():
            if not defined.any():
                raise OutOfDomain("no pixel column admits a linearization threshold")
            bad, nearest = _nearest_defined(defined)
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
        """Threshold rows of (possibly fractional) columns u, before any fallback. It and
        _linear_piece divide by zero and take roots of NaN: callers silence those warnings.

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
            w_t = self._sigma * np.sqrt(np.sqrt(k) / self.max_spacing)
            return (w_t - d) / c, defined, (b, ab, w_t)
        if self._affine:
            # No horizon: the linear piece is the exact, affine map; v_t is row 0 by convention.
            return np.zeros(u.shape), defined, (b, ab, d)
        # c == 0 with a u-dependent denominator: each column maps affinely in v
        # with constant derivative sqrt(k)/d^2; columns whose derivative already
        # respects max_spacing never need the linear piece, the rest have no
        # threshold of their own.
        defined &= (np.abs(d) > 1e-15) & (np.sqrt(k) / (d * d) <= self.max_spacing)
        return np.full(u.shape, -np.inf), defined, (b, ab, d)

    def _linear_piece(self, terms, v_t: np.ndarray):
        """(n, 2) anchor and tangent (d BEV / d v) of a _thresholds result."""
        b, ab, den = terms
        if self._projective:  # (a1 * v_t + b1) / w_t
            anchor = (self.h.m[:2, 1] * v_t[:, None] + b) / den[:, None]
        else:
            anchor = b / den[:, None]
        return anchor, ab / (den * den)[:, None]

    def _column(self, u):
        """The cached column an undefined (finite) column u reads: the nearest integer
        column, clipped to the image in floats so that no |u| overflows the cast."""
        return np.clip(np.rint(u), 0, self.image_size[0] - 1).astype(int)

    def _piece(self, u: float):
        """(v_t, anchor x, anchor y, tangent x, tangent y) of a finite column u, as
        Python floats from the operations of _thresholds and _linear_piece in their
        order, so with their bits; an undefined column reads the cache of its
        nearest integer column.
        """
        m00, m01, m02, m10, m11, m12, m20, c, m22 = self._m
        b1, b2, d = u * m00 + m02, u * m10 + m12, u * m20 + m22
        alpha, beta = m01 * d - b1 * c, m11 * d - b2 * c
        k = alpha * alpha + beta * beta
        if self._projective:
            den = self._sigma * sqrt(sqrt(k) / self.max_spacing)
            v_t = (den - d) / c
            b1, b2 = m01 * v_t + b1, m11 * v_t + b2
            defined = k > 1e-30
        else:  # the denominator is constant along the column
            den, v_t = d, (0.0 if self._affine else -inf)
            defined = k > 1e-30 and (self._affine or abs(d) > 1e-15
                                     and sqrt(k) / (d * d) <= self.max_spacing)
        if not defined:
            with np.errstate(**_QUIET):
                i = self._column(u)
            return (self.column_v_t.item(i), *self.column_anchor[i].tolist(),
                    *self.column_tangent[i].tolist())
        dd = den * den
        if not dd:  # a zero divisor: numpy's inf or NaN
            with np.errstate(**_QUIET):
                return v_t, *np.divide([b1, b2, alpha, beta], [den, den, dd, dd]).tolist()
        return v_t, b1 / den, b2 / den, alpha / dd, beta / dd

    # -- forward / inverse maps --------------------------------------------------

    def px_to_bev(self, pixels) -> np.ndarray:
        """Map pixel points to camera-relative BEV meters; total on the whole image plane.

        Above the per-column threshold (towards the horizon) the first-order
        Taylor extension is used, below it the exact projective map. A point
        whose column or row is not finite maps to NaN. Every point maps in
        Python floats, whatever the call's size (see the module docstring).
        Takes one (2,) point or an (N, 2) array, and raises ValueError on any
        other shape.
        """
        pts, single = _points(pixels)
        m00, m01, m02, m10, m11, m12, m20, c, m22 = self._m
        out = []  # x, y of each row in turn: flat lists of floats, no list per row
        flat = iter(pts.ravel().tolist())
        for u, v in zip(flat, flat):
            if not (isfinite(u) and isfinite(v)):
                out += nan, nan
                continue
            v_t, ax, ay, tx, ty = self._piece(u)
            if not v >= v_t:  # the linear piece
                out += ax + (v - v_t) * tx, ay + (v - v_t) * ty
                continue
            # the operations of Homography.apply
            x, y, w = u * m00 + v * m01 + m02, u * m10 + v * m11 + m12, u * m20 + v * c + m22
            if w:
                out += x / w, y / w
                continue
            with np.errstate(**_QUIET):  # a zero divisor: numpy's inf or NaN
                out += np.divide([x, y], w).tolist()
        out = np.array(out).reshape(-1, 2)
        return out[0] if single else out

    def try_bev_to_px(self, bev):
        """Inverse of px_to_bev for (N, 2) BEV points: (pixels (N, 2), valid (N,)).

        Never raises on values: a point with no pixel preimage (behind the
        horizon of the exact map and outside the linear piece's range, e.g.
        behind the camera) or with a non-finite value is not valid and its
        pixel is NaN. Every point maps in Python floats. Raises ValueError on a
        shape other than one (2,) point or an (N, 2) array.
        """
        pts, _ = _points(bev)
        with np.errstate(**_QUIET):
            # One (1, 3) @ (3, 3) product per point: an (N, 3) @ (3, 3) product may
            # take another BLAS kernel and round differently from a lone point.
            rows = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)[:, None]
            q = (rows @ self.h.inv.T)[:, 0]
        *_, m20, c, m22 = self._m
        out, valid = [], []
        for (x, y), (q0, q1, wq) in zip(pts.tolist(), q.tolist()):
            if not (isfinite(x) and isfinite(y) and isfinite(q0) and isfinite(q1)
                    and isfinite(wq) and abs(wq) > 1e-12 * max(abs(q0), abs(q1), abs(wq))):
                out.append((nan, nan))  # a non-finite value, or no preimage
                valid.append(False)
                continue
            u, v = q0 / wq, q1 / wq
            v_t, ax, ay, tx, ty = self._piece(u)
            d = u * m20 + m22  # the ground side: sigma, or the sign of a column's denominator
            side = self._sigma if self._projective else (d > 0) - (d < 0)
            if side * (u * m20 + v * c + m22) > 0 and v >= v_t - _EDGE_TOL:  # exact
                out.append((u, v))
                valid.append(True)
                continue
            tt = 0.0 + tx * tx + ty * ty  # np.sum starts from 0.0
            t = (0.0 + (x - ax) * tx + (y - ay) * ty) / tt if tt > 0 else nan
            ok = t <= _EDGE_TOL and isfinite(v_t)
            out.append((u, v_t + t) if ok else (nan, nan))
            valid.append(ok)
        return np.array(out).reshape(-1, 2), np.array(valid, dtype=bool)

    def bev_to_px(self, bev) -> np.ndarray:
        """Inverse of px_to_bev for one (2,) point or an (N, 2) array.

        Raises:
            OutOfDomain: a point is not valid in try_bev_to_px.
            ValueError: bev is not one (2,) point or an (N, 2) array.
        """
        out, valid = self.try_bev_to_px(bev)
        if not valid.all():
            idx = np.flatnonzero(~valid).tolist()
            raise OutOfDomain(f"BEV points with no pixel preimage at indices {idx}")
        return out[0] if np.ndim(bev) == 1 else out


def linearize(h: Homography, image_size: tuple[int, int], max_spacing: float = 0.2) -> LinearizedHomography:
    """Build the piecewise-linearized mapping for an image of the given size."""
    return LinearizedHomography(h, image_size, max_spacing)
