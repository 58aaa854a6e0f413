"""Ground-plane fitting and alignment.

A plane is stored as a unit normal plus offset so that ``normal @ p == offset``
for points p on the plane. Fitting is RANSAC over 3-point samples (the first
candidate with the most inliers wins), followed by a total-least-squares
refinement on the consensus set. The first sample is drawn and scored alone:
if its plane holds every point, no later sample can win and none is drawn.
Otherwise the rest are drawn with one call and scored in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput

COLLINEAR_RTOL = 1e-9  # relative singular-value cutoff for "all points on a line"
DISTANCE_CELLS = 2**15  # candidate-point distances per product, so they stay in cache


@dataclass(frozen=True)
class GroundPlane:
    """Plane normal @ p = offset with unit normal, z-component oriented positive."""

    normal: np.ndarray  # (3,)
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.shape != (3,):
            raise ValueError("normal must be a 3-vector")
        norm = float(np.linalg.norm(n))
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-6:
            raise ValueError("normal must be unit length")
        if n[2] < 0:
            raise ValueError("normal must have a non-negative z component")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    def distances(self, points: np.ndarray) -> np.ndarray:
        """Signed point-to-plane distances."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.normal - self.offset


def _orient(normal: np.ndarray, offset: float) -> tuple[np.ndarray, float]:
    # Prefer positive z; fall back to y then x for (near-)vertical planes.
    for axis in (2, 1, 0):
        if normal[axis] > 0:
            return normal, offset
        if normal[axis] < 0:
            return -normal, -offset
    return normal, offset


def _tls_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Total-least-squares plane: normal is the smallest right singular vector."""
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1] / np.linalg.norm(vt[-1])
    return _orient(normal, float(normal @ centroid))


def _check_not_collinear(points: np.ndarray) -> None:
    svals = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    if svals[1] <= COLLINEAR_RTOL * svals[0]:
        raise DegenerateInput("points are collinear (or coincident) within tolerance")


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two (B, 3) arrays, rounded as a[i] @ b[i] is."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _samples(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(k, 3) indices, row i the i-th of k calls rng.choice(n, size=3, replace=False),
    leaving rng in the same state.

    numpy picks 3 of n by Floyd's algorithm and then shuffles them: five bounded
    draws a sample, in [0, n - 3], [0, n - 2], [0, n - 1], [0, 2] and [0, 1], which one
    integers call with an array of bounds makes in the same order.
    """
    draws = rng.integers(0, np.tile([n - 3, n - 2, n - 1, 2, 1], k), endpoint=True)
    first, second, third, swap2, swap1 = draws.reshape(k, 5).T
    # Floyd: a draw already taken is replaced by the top of its range.
    second[second == first] = n - 2
    third[(third == first) | (third == second)] = n - 1
    idx = np.stack([first, second, third], axis=1)
    rows = np.arange(k)
    for pos, swap in ((2, swap2), (1, swap1)):  # the shuffle's two swaps, in its order
        held = idx[rows, swap]
        idx[rows, swap] = idx[rows, pos]
        idx[rows, pos] = held
    return idx


def _candidates(pts: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals and offsets of the (k, 3) samples' planes. A collinear sample gives
    none, nor does one whose normal overflows (points near the float range)."""
    p0, p1, p2 = pts[idx].transpose(1, 0, 2)  # (k, 3) each
    with np.errstate(over="ignore", invalid="ignore"):  # such a sample is dropped below
        a, b = p1 - p0, p2 - p0
        # a x b in np.cross's own products and order, without its fixed cost
        cand = a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]
        norm = np.sqrt(_row_dots(cand, cand))
    keep = (norm >= 1e-12) & (norm < np.inf)
    cand = cand[keep] / norm[keep, None]
    return cand, _row_dots(cand, p0[keep])


def _support(pts: np.ndarray, cand: np.ndarray, off: np.ndarray, tol: float) -> np.ndarray:
    """How many points lie within tol of each candidate plane, counted over point chunks."""
    counts = np.zeros(len(cand), dtype=np.int64)
    step = max(1, DISTANCE_CELLS // max(len(cand), 1))
    for lo in range(0, len(pts), step):
        # Per-candidate matrix-vector products round as pts @ cand; a matrix product may not.
        dist = np.matmul(pts[lo : lo + step], cand[:, :, None])[:, :, 0]
        dist -= off[:, None]
        # A chunk's counts fit int32, which sums bools faster than count_nonzero does.
        counts += (np.abs(dist, out=dist) <= tol).sum(axis=1, dtype=np.int32)
    return counts


def fit_ground_plane(
    points: np.ndarray,
    inlier_tol: float = 0.05,
    max_iterations: int = 200,
    seed: int = 0,
) -> GroundPlane:
    """Fit a plane to a 3D point cloud, robust to outliers.

    Args:
        points: (N, 3) array of 3D points, N >= 3.
        inlier_tol: absolute point-to-plane distance for inlier counting, meters.
        max_iterations: RANSAC samples: the first scored alone, and the rest, unless
            the first holds every point, drawn with one call and scored in one pass.
        seed: RNG seed; identical inputs and seed give identical output.

    Returns:
        GroundPlane refined on the best consensus set by total least squares.

    Raises:
        ValueError: points not (N, 3), or not finite.
        DegenerateInput: fewer than 3 points, all points collinear, or no sample
            with a plane (every one collinear, or its normal overflows).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (N, 3)")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if pts.shape[0] < 3:
        raise DegenerateInput("need at least 3 points to fit a plane")
    _check_not_collinear(pts)

    n, k = pts.shape[0], max(max_iterations, 0)
    rng = np.random.default_rng(seed)
    cand, off = _candidates(pts, _samples(rng, n, min(k, 1)))
    counts = _support(pts, cand, off, inlier_tol)
    if k > 1 and not np.any(counts == n):  # a full first sample wins every tie after it
        more, more_off = _candidates(pts, _samples(rng, n, k - 1))
        cand, off = np.concatenate([cand, more]), np.concatenate([off, more_off])
        counts = np.concatenate([counts, _support(pts, more, more_off, inlier_tol)])
    if np.max(counts, initial=-1) < 3:
        raise DegenerateInput("RANSAC found no non-degenerate sample")

    i = int(np.argmax(counts))  # the first of tied candidates, as in sequence
    consensus = np.abs(pts @ cand[i] - off[i]) <= inlier_tol
    normal, offset = _tls_plane(pts[consensus])
    # One consolidation round: re-collect inliers under the refined plane, refit
    # unless they are the same points, which give the same plane.
    inliers = np.abs(pts @ normal - offset) <= inlier_tol
    if inliers.sum() >= 3 and not np.array_equal(inliers, consensus):
        normal, offset = _tls_plane(pts[inliers])
    return GroundPlane(normal, offset)


def align_to_xy(plane: GroundPlane, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation taking the plane normal onto +z, applied to the given points.

    The normal is first oriented towards the coordinate origin (the sensor),
    so the resulting in-plane frame is right-handed when viewed from the
    sensor side; two alignments of the same plane then differ only by an
    in-plane rigid motion, never a reflection. Returns
    (rotation, aligned_points); BEV coordinates are the first two columns of
    the aligned points (z is constant at minus the plane distance).
    """
    pts = np.asarray(points, dtype=float)
    n = plane.normal
    if plane.offset > 0:  # origin on the negative side: flip towards it
        n = -n
    v = np.cross(n, np.array([0.0, 0.0, 1.0]))
    s2 = float(v @ v)
    c = float(n[2])
    if s2 < 1e-30:
        rotation = np.eye(3)
    else:
        vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
        rotation = np.eye(3) + vx + vx @ vx * ((1.0 - c) / s2)
    aligned = pts @ rotation.T
    return rotation, aligned
