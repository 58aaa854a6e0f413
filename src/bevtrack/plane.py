"""Ground-plane fitting and alignment.

A plane is stored as a unit normal plus offset so that ``normal @ p == offset``
for points p on the plane. Fitting is RANSAC over 3-point samples followed by
a total-least-squares refinement on the consensus set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput

COLLINEAR_RTOL = 1e-9  # relative singular-value cutoff for "all points on a line"


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
    normal = vt[-1]
    normal = normal / np.linalg.norm(normal)
    normal, offset = _orient(normal, float(normal @ centroid))
    return normal, offset


def _check_not_collinear(points: np.ndarray) -> None:
    centered = points - points.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] <= COLLINEAR_RTOL * svals[0]:
        raise DegenerateInput("points are collinear (or coincident) within tolerance")


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
        max_iterations: number of RANSAC samples.
        seed: RNG seed; identical inputs and seed give identical output.

    Returns:
        GroundPlane refined on the best consensus set by total least squares.

    Raises:
        DegenerateInput: fewer than 3 points, or all points collinear.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (N, 3)")
    if pts.shape[0] < 3:
        raise DegenerateInput("need at least 3 points to fit a plane")
    _check_not_collinear(pts)

    rng = np.random.default_rng(seed)
    n = pts.shape[0]
    best_count = -1
    best_inliers = None
    for _ in range(max_iterations):
        idx = rng.choice(n, size=3, replace=False)
        p0, p1, p2 = pts[idx]
        cand = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(cand)
        if norm < 1e-12:
            continue  # collinear sample, no plane
        cand = cand / norm
        dist = np.abs(pts @ cand - cand @ p0)
        inliers = dist <= inlier_tol
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers

    if best_inliers is None or best_count < 3:
        raise DegenerateInput("RANSAC found no non-degenerate sample")

    normal, offset = _tls_plane(pts[best_inliers])
    # One consolidation round: re-collect inliers under the refined plane, refit.
    dist = np.abs(pts @ normal - offset)
    inliers = dist <= inlier_tol
    if inliers.sum() >= 3:
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
