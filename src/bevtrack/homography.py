"""Pixel-to-BEV homography estimation (normalized DLT) and file I/O."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateInput, ParseError

RANK_RTOL = 1e-9  # relative cutoff on the second-smallest singular value of the DLT system


class Homography:
    """3x3 projective map from pixel coordinates to metric BEV coordinates.

    The matrix is normalized so h33 == 1 when |h33| > 1e-12, otherwise to unit
    Frobenius norm. The matrix must be invertible.
    """

    __slots__ = ("m", "_inv")

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

    @property
    def inv(self) -> np.ndarray:
        if self._inv is None:
            self._inv = np.linalg.inv(self.m)
        return self._inv

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        """Exact projective map, pixels (..., 2) -> BEV (..., 2). No linearization."""
        p = np.asarray(pixels, dtype=float)
        u, v = p[..., 0], p[..., 1]
        w = self.m[2, 0] * u + self.m[2, 1] * v + self.m[2, 2]
        x = (self.m[0, 0] * u + self.m[0, 1] * v + self.m[0, 2]) / w
        y = (self.m[1, 0] * u + self.m[1, 1] * v + self.m[1, 2]) / w
        return np.stack([x, y], axis=-1)

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

    a = np.zeros((2 * n, 9))
    x, y = pn[:, 0], pn[:, 1]
    xp, yp = bn[:, 0], bn[:, 1]
    a[0::2, 3] = -x
    a[0::2, 4] = -y
    a[0::2, 5] = -1.0
    a[0::2, 6] = yp * x
    a[0::2, 7] = yp * y
    a[0::2, 8] = yp
    a[1::2, 0] = x
    a[1::2, 1] = y
    a[1::2, 2] = 1.0
    a[1::2, 6] = -xp * x
    a[1::2, 7] = -xp * y
    a[1::2, 8] = -xp

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


def save_homography(path, h: Homography, max_spacing: float, image_size: tuple[int, int]) -> None:
    """Write the homography text format.

    Line 1 is the literal tag "H", lines 2-4 the matrix rows, line 5
    "max_spacing <meters>", line 6 "image <width> <height>". Floats use 17
    significant digits so the matrix round-trips bit-exactly.
    """
    lines = ["H"]
    for row in h.m:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    lines.append(f"max_spacing {max_spacing:.17g}")
    lines.append(f"image {int(image_size[0])} {int(image_size[1])}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_homography(path) -> tuple[Homography, float, tuple[int, int]]:
    """Read the homography text format; returns (homography, max_spacing, (w, h))."""
    with open(path) as f:
        lines = [ln.strip() for ln in f.read().splitlines() if ln.strip()]
    if len(lines) < 6:
        raise ParseError(f"{path}: expected 6 lines, got {len(lines)}")
    if lines[0] != "H":
        raise ParseError(f"{path}:1: expected header 'H', got {lines[0]!r}")
    rows = []
    for i in (1, 2, 3):
        parts = lines[i].split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{i + 1}: expected 3 numbers")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as e:
            raise ParseError(f"{path}:{i + 1}: {e}") from e
    sp = lines[4].split()
    if len(sp) != 2 or sp[0] != "max_spacing":
        raise ParseError(f"{path}:5: expected 'max_spacing <m>'")
    im = lines[5].split()
    if len(im) != 3 or im[0] != "image":
        raise ParseError(f"{path}:6: expected 'image <w> <h>'")
    try:
        spacing = float(sp[1])
        size = (int(im[1]), int(im[2]))
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e
    return Homography(np.array(rows)), spacing, size
