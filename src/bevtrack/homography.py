"""The pixel<->BEV homography: the exact map both ways, its estimation (normalized DLT)
and its file I/O.

The maps take every point in Python floats, one row at a time, so a row maps to
the same bits whatever else its call holds. A pixel maps only from the ground
side of the horizon (Homography's docstring): at or above the horizon, or with a
coordinate that is not finite, it maps to NaN, and a BEV point whose preimage
is not on the ground side is invalid in the inverse.
"""

from __future__ import annotations

from math import isfinite, nan
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInput, OutOfDomain, ParseError
from .mot_io import _lines, _numbers, _write_rows

RANK_RTOL = 1e-9  # relative cutoff on the second-smallest singular value of the DLT system


def _points(points):
    """(N, 2) float array of one (2,) point or an (N, 2) array, and whether it was one point."""
    p = np.asarray(points, dtype=float)
    if p.shape != (2,) and (p.ndim != 2 or p.shape[1] != 2):
        raise ValueError(f"expected one (2,) point or an (N, 2) array, got shape {p.shape}")
    return p.reshape(-1, 2), p.ndim == 1


class Homography:
    """3x3 projective map from pixel coordinates to metric BEV coordinates.

    The matrix is normalized so h33 == 1 when |h33| > 1e-12, otherwise to unit
    Frobenius norm. The matrix must be invertible.

    The ground side: a pixel (u, v) sees the ground when its denominator
    w = m20 u + m21 v + m22 has the sign of m21, for a map whose denominator
    varies along a column (|m21| > 1e-15, the horizon is a row of each
    column), or else the sign of m20 u + m22, its column's constant part.
    """

    __slots__ = ("m", "_inv", "_coef", "_sigma")

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("homography must be 3x3")
        if not np.all(np.isfinite(m)):
            raise ValueError("homography has non-finite entries")
        if abs(m[2, 2]) > 1e-12:
            m = m / m[2, 2]
        else:
            m = m / np.linalg.norm(m)
        if abs(np.linalg.det(m)) <= 1e-12:
            raise DegenerateInput("homography matrix is singular")
        self.m = m
        self._inv = None
        self._coef = tuple(m.ravel().tolist())  # the float maps' coefficients
        # the denominator's sign on the ground side, if it varies along a column
        self._sigma = (1.0 if m[2, 1] > 0 else -1.0) if abs(m[2, 1]) > 1e-15 else None

    @property
    def inv(self) -> np.ndarray:
        if self._inv is None:
            self._inv = np.linalg.inv(self.m)
        return self._inv

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        """Projective map, pixels (..., 2) -> BEV (..., 2), with no ground-side rule."""
        p = np.asarray(pixels, dtype=float)
        # Row i of m as m[i, 0] * u + m[i, 1] * v + m[i, 2], all three rows at once.
        q = p[..., 0:1] * self.m[:, 0] + p[..., 1:2] * self.m[:, 1] + self.m[:, 2]
        return q[..., :2] / q[..., 2:]

    def _on_ground(self, u: float, w: float) -> bool:
        """Whether a pixel of column u whose denominator is w lies on the ground side."""
        if self._sigma is not None:
            return self._sigma * w > 0
        d = u * self._coef[6] + self._coef[8]
        return ((d > 0) - (d < 0)) * w > 0

    def px_to_bev(self, pixels) -> np.ndarray:
        """Map pixel points to camera-relative BEV meters, with apply's operations.

        A point off the ground side, or with a coordinate that is not finite,
        maps to NaN. Takes one (2,) point or an (N, 2) array, and raises
        ValueError on any other shape.
        """
        pts, single = _points(pixels)
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = self._coef
        out = []  # x, y of each row in turn: flat lists of floats, no list per row
        flat = iter(pts.ravel().tolist())
        for u, v in zip(flat, flat):
            w = u * m20 + v * m21 + m22
            if isfinite(u) and isfinite(v) and self._on_ground(u, w):
                out += (u * m00 + v * m01 + m02) / w, (u * m10 + v * m11 + m12) / w
            else:
                out += nan, nan
        out = np.array(out).reshape(-1, 2)
        return out[0] if single else out

    def try_bev_to_px(self, bev):
        """Inverse of px_to_bev for (N, 2) BEV points: (pixels (N, 2), valid (N,)).

        Never raises on values: a point with no pixel preimage on the ground
        side (behind the camera, or with a preimage at infinity) or with a
        non-finite value is not valid and its pixel is NaN. Raises ValueError
        on a shape other than one (2,) point or an (N, 2) array.
        """
        pts, _ = _points(bev)
        # A non-finite or overflowing point makes its own row invalid below: no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            # One (1, 3) @ (3, 3) product per point: an (N, 3) @ (3, 3) product may
            # take another BLAS kernel and round differently from a lone point.
            rows = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)[:, None]
            q = (rows @ self.inv.T)[:, 0]
        m20, m21, m22 = self._coef[6:]
        out, valid = [], []
        for (x, y), (q0, q1, wq) in zip(pts.tolist(), q.tolist()):
            ok = (isfinite(x) and isfinite(y) and isfinite(q0) and isfinite(q1)
                  and isfinite(wq) and abs(wq) > 1e-12 * max(abs(q0), abs(q1), abs(wq)))
            if ok:
                u, v = q0 / wq, q1 / wq
                ok = self._on_ground(u, u * m20 + v * m21 + m22)
            out.append((u, v) if ok else (nan, nan))
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

    def __repr__(self):
        return f"Homography({self.m.tolist()!r})"


class HomographyFit(NamedTuple):
    homography: Homography
    rmse: float  # meters, over the input correspondences


def _normalize_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Similarity transform bringing the centroid to 0 and mean distance to sqrt(2)."""
    centroid = points.mean(axis=0)
    dist = np.linalg.norm(points - centroid, axis=1).mean()
    if dist < 1e-15:
        raise DegenerateInput("correspondence points are coincident")
    s = np.sqrt(2.0) / dist
    t = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
    return (points - centroid) * s, t


def estimate_homography(pixels: np.ndarray, bev: np.ndarray) -> HomographyFit:
    """Estimate the pixel->BEV homography from >= 4 correspondences.

    Direct linear transform on points normalized Hartley-style (isotropic,
    centroid at the origin, mean distance sqrt(2)); the solution is the
    smallest right singular vector of the stacked 2N x 9 system.

    Args:
        pixels: (N, 2) pixel points.
        bev: (N, 2) metric BEV points, same order.

    Returns:
        HomographyFit(homography, rmse): rmse is the BEV reprojection RMSE over
        the inputs, meters.

    Raises:
        DegenerateInput: fewer than 4 pairs, or a rank-deficient system
            (e.g. 3 of 4 points collinear).
    """
    px = np.asarray(pixels, dtype=float)
    bv = np.asarray(bev, dtype=float)
    if px.ndim != 2 or px.shape[1] != 2 or px.shape != bv.shape:
        raise ValueError("pixels and bev must both be (N, 2)")
    n = px.shape[0]
    if n < 4:
        raise DegenerateInput("need at least 4 correspondences")

    pn, t_px = _normalize_points(px)
    bn, t_bev = _normalize_points(bv)

    # Rows [0, -p, y' p] and [p, 0, -x' p] per pair, p the homogeneous pixel.
    ph = np.column_stack([pn, np.ones(n)])
    a = np.zeros((2 * n, 9))
    a[0::2, 3:6] = -ph
    a[0::2, 6:] = bn[:, 1:] * ph
    a[1::2, :3] = ph
    a[1::2, 6:] = -bn[:, :1] * ph

    # The reduced SVD skips the unused 2N x 2N U; with N == 4 the system is
    # 8 x 9 and only the full V^T holds the null vector.
    _, svals, vt = np.linalg.svd(a, full_matrices=n == 4)
    if svals[-2] <= RANK_RTOL * svals[0]:
        raise DegenerateInput("correspondences are degenerate (rank-deficient system)")
    hn = vt[-1].reshape(3, 3)
    h = Homography(np.linalg.inv(t_bev) @ hn @ t_px)
    err = h.apply(px) - bv
    rmse = float(np.sqrt(np.mean(np.sum(err * err, axis=1))))
    return HomographyFit(h, rmse)


# The homography file, line by line: literal words, and <...> for a number.
_HOMOGRAPHY_LINES = ("H", *["<h> <h> <h>"] * 3)
_HOMOGRAPHY_FMT = "H" + "\n%.17g %.17g %.17g" * 3


def save_homography(path, h: Homography) -> None:
    """Write the homography text format.

    Line 1 is the literal tag "H", lines 2-4 the matrix rows. Floats use 17
    significant digits so the matrix round-trips bit-exactly.
    """
    _write_rows(path, _HOMOGRAPHY_FMT, [h.m.ravel().tolist()])


def load_homography(path) -> Homography:
    """Read the homography text format.

    Blank lines are skipped and lines after the fourth ignored, so a file that
    also carries the former max_spacing and image lines loads the same; an
    error names the file and, where it is one line's fault, the line's number
    in the file.
    """
    lines = list(_lines(path))
    if len(lines) < 4:
        raise ParseError(f"{path}: expected 4 lines, got {len(lines)}")
    matrix = []
    for (n, parts), pattern in zip(lines, _HOMOGRAPHY_LINES):
        want = pattern.split()
        if len(parts) != len(want) or any(p != w for p, w in zip(parts, want) if w[0] != "<"):
            raise ParseError(f"{path}:{n}: expected '{pattern}'")
        if pattern[0] == "<":
            matrix.append(_numbers(path, n, parts))
    try:
        return Homography(np.array(matrix))
    except (DegenerateInput, ValueError) as e:
        raise ParseError(f"{path}: {e}") from e
