"""Pixel-to-BEV homography estimation (normalized DLT) and file I/O."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateInput, ParseError
from .mot_io import _lines, _numbers, _write_rows

RANK_RTOL = 1e-9  # relative cutoff on the second-smallest singular value of the DLT system
MAX_IMAGE_SIDE = 65536  # pixels; the linearized map keeps arrays one entry per column


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
        # Row i of m as m[i, 0] * u + m[i, 1] * v + m[i, 2], all three rows at once.
        q = p[..., 0:1] * self.m[:, 0] + p[..., 1:2] * self.m[:, 1] + self.m[:, 2]
        return q[..., :2] / q[..., 2:]

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
_HOMOGRAPHY_LINES = ("H", *["<h> <h> <h>"] * 3, "max_spacing <m>", "image <w> <h>")
_HOMOGRAPHY_FMT = "H\n" + "%.17g %.17g %.17g\n" * 3 + "max_spacing %.17g\nimage %d %d"


def save_homography(path, h: Homography, max_spacing: float, image_size: tuple[int, int]) -> None:
    """Write the homography text format.

    Line 1 is the literal tag "H", lines 2-4 the matrix rows, line 5
    "max_spacing <meters>", line 6 "image <width> <height>". Floats use 17
    significant digits so the matrix round-trips bit-exactly.
    """
    _write_rows(path, _HOMOGRAPHY_FMT, [(*h.m.ravel().tolist(), max_spacing, *image_size)])


def load_homography(path) -> tuple[Homography, float, tuple[int, int]]:
    """Read the homography text format; returns (homography, max_spacing, (w, h)).

    Blank lines are skipped and lines after the sixth ignored; an error names
    the file and, where it is one line's fault, the line's number in the file.
    """
    lines = list(_lines(path))
    if len(lines) < 6:
        raise ParseError(f"{path}: expected 6 lines, got {len(lines)}")
    values = []
    for (n, parts), pattern in zip(lines, _HOMOGRAPHY_LINES):
        want = pattern.split()
        if len(parts) != len(want) or any(p != w for p, w in zip(parts, want) if w[0] != "<"):
            raise ParseError(f"{path}:{n}: expected '{pattern}'")
        numbers = [p for p, w in zip(parts, want) if w[0] == "<"]
        # max_spacing and the image size get range checks of their own below
        values.append(_numbers(path, n, numbers, finite=pattern[0] == "<"))
    _, *matrix, (spacing,), size = values
    (n_sp, sp), (n_im, im) = lines[4:6]
    if not 0 < spacing < np.inf:
        raise ParseError(f"{path}:{n_sp}: max_spacing must be positive and finite, got {sp[1]}")
    if not all(v.is_integer() and v > 0 for v in size):
        raise ParseError(
            f"{path}:{n_im}: image size must be positive integers, got {im[1]} {im[2]}"
        )
    if max(size) > MAX_IMAGE_SIDE:
        raise ParseError(f"{path}:{n_im}: image size {im[1]} {im[2]} too large")
    try:
        return Homography(np.array(matrix)), spacing, (int(size[0]), int(size[1]))
    except (DegenerateInput, ValueError) as e:
        raise ParseError(f"{path}: {e}") from e
