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

On a projective map a call of at most FEW_POINTS points runs the same
operations, in the same order, on Python floats, which costs less than the
array path's fixed numpy calls below that size and gives the same bits. A
call with a non-finite point, a point of an undefined column or a zero
divisor takes the array path.
"""

from __future__ import annotations

import warnings
from math import isfinite, sqrt

import numpy as np

from .errors import HorizonInsideFootprint, OutOfDomain
from .homography import MAX_IMAGE_SIDE, Homography

_EDGE_TOL = 1e-9  # slack when deciding which piece a query point belongs to
# The maps' arithmetic itself makes a non-finite or overflowing query NaN or
# invalid; the queries run it under these settings, so it warns of nothing.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")
# px_to_bev and try_bev_to_px map up to this many points of a projective map in
# Python floats, more with numpy: below the measured crossovers (README).
FEW_POINTS = 16


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
        self._m = tuple(m.ravel().tolist())  # the few-point paths' coefficients
        self._affine = abs(m[2, 0]) <= 1e-15 and abs(m[2, 1]) <= 1e-15
        self._projective = abs(m[2, 1]) > 1e-15  # the denominator varies along a column
        self._sigma = 1.0 if m[2, 1] > 0 else -1.0  # its sign on the ground side, if so
        self.linearization_needed = not self._affine

        with np.errstate(invalid="ignore", divide="ignore"):
            v_t, defined, terms = self._thresholds(np.arange(w, dtype=float))
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

    def _linear_piece(self, terms, v_t: np.ndarray, rows):
        """(n, 2) anchor and tangent (d BEV / d v) at the given rows of a _thresholds result."""
        b, ab, den = (t[rows] for t in terms)
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

    # -- few points in Python floats ---------------------------------------------

    def _few_piece(self, u):
        """(v_t, anchor x, anchor y, tangent x, tangent y) of a finite column u of a
        projective map, as Python floats from the operations of _thresholds and
        _linear_piece in their order, so with their bits; None for a column that
        borrows, or a zero divisor.
        """
        m00, m01, m02, m10, m11, m12, m20, c, m22 = self._m
        b1, b2, d = u * m00 + m02, u * m10 + m12, u * m20 + m22
        alpha, beta = m01 * d - b1 * c, m11 * d - b2 * c
        k = alpha * alpha + beta * beta
        w_t = self._sigma * sqrt(sqrt(k) / self.max_spacing)
        ww = w_t * w_t
        if not (k > 1e-30 and ww != 0.0):
            return None
        v_t = (w_t - d) / c
        return v_t, (m01 * v_t + b1) / w_t, (m11 * v_t + b2) / w_t, alpha / ww, beta / ww

    def _few_px_to_bev(self, rows):
        """px_to_bev of a projective map's [u, v] rows in Python floats, with the bits of
        the array path (the operations of Homography.apply and _few_piece); None where a
        row needs that path: a non-finite value, a column that borrows, or a zero divisor.
        """
        m00, m01, m02, m10, m11, m12, m20, c, m22 = self._m
        out = []
        for u, v in rows:
            piece = self._few_piece(u) if isfinite(u) and isfinite(v) else None
            if piece is None:
                return None
            v_t, ax, ay, tx, ty = piece
            if not v >= v_t:  # the linear piece, as in px_to_bev
                out.append((ax + (v - v_t) * tx, ay + (v - v_t) * ty))
                continue
            w = u * m20 + v * c + m22
            if w == 0.0:
                return None
            out.append(((u * m00 + v * m01 + m02) / w, (u * m10 + v * m11 + m12) / w))
        return out

    def _few_bev_to_px(self, points, qs):
        """try_bev_to_px of a projective map's [x, y] points in Python floats, given each
        point's [x, y, 1] @ inv.T row q, with the array path's operations in its order;
        None where a point needs that path (see _few_px_to_bev). q stays numpy's, as a
        scalar sum need not round like its product.
        """
        *_, m20, c, m22 = self._m
        out, valid = [], []
        for (x, y), (q0, q1, wq) in zip(points, qs):
            if not (isfinite(x) and isfinite(y) and isfinite(q0) and isfinite(q1)
                    and isfinite(wq)):
                return None
            if not abs(wq) > 1e-12 * max(abs(q0), abs(q1), abs(wq)):  # no preimage
                out.append((np.nan, np.nan))
                valid.append(False)
                continue
            u, v = q0 / wq, q1 / wq
            piece = self._few_piece(u)
            if piece is None:
                return None
            v_t, ax, ay, tx, ty = piece
            if self._sigma * (u * m20 + v * c + m22) > 0 and v >= v_t - _EDGE_TOL:  # exact
                out.append((u, v))
                valid.append(True)
                continue
            tt = 0.0 + tx * tx + ty * ty  # np.sum starts from 0.0
            if tt == 0.0:
                return None
            t = (0.0 + (x - ax) * tx + (y - ay) * ty) / tt
            ok = t <= _EDGE_TOL and isfinite(v_t)
            out.append((u, v_t + t) if ok else (np.nan, np.nan))
            valid.append(ok)
        return out, valid

    # -- forward / inverse maps --------------------------------------------------

    def px_to_bev(self, pixels) -> np.ndarray:
        """Map pixel points to camera-relative BEV meters; total on the whole image plane.

        Above the per-column threshold (towards the horizon) the first-order
        Taylor extension is used, below it the exact projective map. A point
        whose column or row is not finite maps to NaN.
        """
        p = np.asarray(pixels, dtype=float)
        single = p.ndim == 1
        pts = np.atleast_2d(p).astype(float)
        if self._projective and 0 < len(pts) <= FEW_POINTS and pts.shape[1:] == (2,):
            few = self._few_px_to_bev(pts.tolist())
            if few is not None:
                out = np.array(few)
                return out[0] if single else out
        u, v = pts[:, 0], pts[:, 1]
        with np.errstate(**_QUIET):
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
        out[~np.isfinite(v)] = np.nan  # not an infinite point on either piece
        return out[0] if single else out

    def try_bev_to_px(self, bev):
        """Inverse of px_to_bev for (N, 2) BEV points: (pixels (N, 2), valid (N,)).

        Never raises: a point with no pixel preimage (behind the horizon of the
        exact map and outside the linear piece's range, e.g. behind the
        camera) is not valid and its pixel is NaN.
        """
        pts = np.atleast_2d(np.asarray(bev, dtype=float)).astype(float)
        ones = np.ones((pts.shape[0], 1))
        with np.errstate(**_QUIET):
            # One (1, 3) @ (3, 3) product per point: an (N, 3) @ (3, 3) product may
            # take another BLAS kernel and round differently from a lone point.
            q = (np.concatenate([pts, ones], axis=1)[:, None, :] @ self.h.inv.T)[:, 0, :]
            if self._projective and 0 < len(pts) <= FEW_POINTS:
                few = self._few_bev_to_px(pts.tolist(), q.tolist())
                if few is not None:
                    return np.array(few[0]), np.array(few[1])
            wq = q[:, 2]
            finite = np.isfinite(pts).all(axis=1) & (np.abs(wq) > 1e-12 * np.abs(q).max(axis=1))
            u = q[:, 0] / wq
            v = q[:, 1] / wq

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
                t = np.sum(diff * tangent, axis=1) / tt
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
