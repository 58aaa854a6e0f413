"""The RANSAC plane fit against the candidate-at-a-time loop it replaced.

``reference_fit`` is ``fit_ground_plane`` as it was when each candidate plane
was built and scored on its own, ten small numpy calls per sample. Today's
fit draws, builds and scores the first sample alone and stops there if its
plane holds every point; otherwise it draws the other samples with one call
and scores them in one pass. On seeded clouds of every shape that decides the
winner (tiny clouds, clouds scored in several point chunks, noise at the
inlier tolerance, heavy outliers, duplicated points, integer grids and two
planes of equal support, which tie) both must give the same bytes, or raise
``DegenerateInput`` with the same message. The cases must reach every branch
of the stop rule: full support at the first sample or only later, a
collinear first sample, and a first sample that a later one ties.
"""

import numpy as np
import pytest

from bevtrack.errors import DegenerateInput
from bevtrack.plane import (
    DISTANCE_CELLS,
    GroundPlane,
    _check_not_collinear,
    _tls_plane,
    fit_ground_plane,
)

# -- the reference fit ---------------------------------------------------------------


def reference_fit(points, inlier_tol, max_iterations, seed, seen):
    """The loop fit; adds to ``seen`` the ties the first-maximum rule decided and where
    the fit's stop rule (a first sample that holds every point wins) applies."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise DegenerateInput("need at least 3 points to fit a plane")
    _check_not_collinear(pts)

    rng = np.random.default_rng(seed)
    n = pts.shape[0]
    best_count = -1
    best_inliers = best_i = None
    kept = 0
    for i in range(max_iterations):
        idx = rng.choice(n, size=3, replace=False)
        p0, p1, p2 = pts[idx]
        cand = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(cand)
        if norm < 1e-12:
            seen.add("collinear sample")
            if i == 0:
                seen.add("first sample collinear")
            continue
        cand = cand / norm
        kept += 1
        dist = np.abs(pts @ cand - cand @ p0)
        inliers = dist <= inlier_tol
        count = int(inliers.sum())
        if count == n > best_count:  # the first sample that holds every point
            seen.add("full support at the first sample" if i == 0 else "full support only later")
        if count == best_count and not np.array_equal(inliers, best_inliers):
            seen.add("tie")
            if best_i == 0:
                seen.add("first sample ties a later one")
        if count > best_count:
            best_count = count
            best_inliers = inliers
            best_i = i
    if n > DISTANCE_CELLS // max(kept, 1):  # the fit scores these points in several chunks
        seen.add("several point chunks")
    if n > DISTANCE_CELLS and max_iterations > 0:  # even the first sample, scored alone
        seen.add("first sample in several point chunks")

    if best_inliers is None or best_count < 3:
        raise DegenerateInput("RANSAC found no non-degenerate sample")

    normal, offset = _tls_plane(pts[best_inliers])
    dist = np.abs(pts @ normal - offset)
    inliers = dist <= inlier_tol
    if inliers.sum() >= 3:
        normal, offset = _tls_plane(pts[inliers])
    return GroundPlane(normal, offset)


# -- seeded clouds -------------------------------------------------------------------


def plane_points(rng, n, extent=10.0):
    """n points on a random tilted plane, and its unit normal."""
    normal = rng.normal(size=3)
    normal[2] = abs(normal[2]) + 1.0
    normal /= np.linalg.norm(normal)
    e1 = np.cross(normal, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    uv = rng.uniform(-extent, extent, (n, 2))
    return rng.uniform(-2, 2) * normal + uv[:, :1] * e1 + uv[:, 1:] * e2, normal


def make_cloud(kind, n, tol, rng):
    if kind == "plane":
        return plane_points(rng, n)[0]
    if kind == "noise at tol":  # offsets of exactly, or near, the tolerance
        pts, normal = plane_points(rng, n)
        # At exactly tol, rounding decides which side a point falls on.
        scale = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.97, 1.03, n))
        off = tol * scale * rng.choice([-1.0, 1.0, 0.0], n)
        return pts + off[:, None] * normal
    if kind == "outliers":  # 40 to 60% of the cloud off the plane
        pts, _ = plane_points(rng, n)
        bad = rng.random(n) < rng.uniform(0.4, 0.6)
        pts[bad] = rng.uniform(-10, 10, (int(bad.sum()), 3))
        return pts
    if kind == "duplicates":  # few distinct points: many samples are collinear
        base = np.concatenate([plane_points(rng, max(3, n // 8))[0], rng.normal(0, 3, (2, 3))])
        return base[rng.integers(0, len(base), n)]
    if kind == "grid":  # integer points on z = 0 and z = 1: counts tie exactly
        xy = rng.integers(-6, 7, (n, 2))
        return np.column_stack([xy, (rng.random(n) < 0.3)]).astype(float)
    if kind == "two planes":  # mirror halves on z = 0 and x = 0: their counts tie
        half = rng.integers(-5, 6, (n // 2, 3)).astype(float)
        half[:, 2] = 0.0
        return np.concatenate([half, half[:, ::-1], np.full((n % 2, 3), 3.0)])
    raise ValueError(kind)


KINDS = ("plane", "noise at tol", "outliers", "duplicates", "grid", "two planes")
ITERATIONS = (0, 1, 15, 16, 17, 200)
TOLS = (0.01, 0.05, 0.5)
CASES_PER_KIND = 50


def cases(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for i in range(CASES_PER_KIND):
        big = int(rng.integers(1001, 3001)), int(rng.integers(4097, 8192))
        n = (3, 4, 5, 9, 40, 300, *big)[i % 8]
        tol = TOLS[i % 3]
        iterations = ITERATIONS[i % len(ITERATIONS)]
        yield make_cloud(kind, n, tol, rng), tol, iterations, int(rng.integers(0, 2**31))
    # One cloud past DISTANCE_CELLS points, drawn after the others so they stay as they were.
    n = DISTANCE_CELLS + int(rng.integers(1, 4097))
    yield make_cloud(kind, n, 0.05, rng), 0.05, 200, int(rng.integers(0, 2**31))


def outcome(fit, *args):
    try:
        plane = fit(*args)
    except DegenerateInput as e:
        return ("error", str(e))
    return ("plane", plane.normal.tobytes(), np.float64(plane.offset).tobytes())


@pytest.mark.parametrize("kind", KINDS)
def test_fit_equals_the_loop_bit_for_bit(kind):
    for pts, tol, iterations, seed in cases(kind):
        want = outcome(reference_fit, pts, tol, iterations, seed, set())
        got = outcome(fit_ground_plane, pts, tol, iterations, seed)
        assert got == want, (kind, len(pts), tol, iterations, seed)


def test_the_cases_hold_every_case():
    seen = set()
    n_cases = 0
    for kind in KINDS:
        for pts, tol, iterations, seed in cases(kind):
            n_cases += 1
            n = len(pts)
            size = n if n < 5 else ("> 4096" if n > 4096 else "> 1000" if n > 1000 else "")
            seen |= {f"n {size}", f"iterations {iterations}"}
            seen.add(outcome(reference_fit, pts, tol, iterations, seed, seen)[0])
    assert n_cases >= 200
    want = {"n 3", "n 4", "n > 1000", "n > 4096", "plane", "error", "collinear sample"}
    want |= {f"iterations {i}" for i in ITERATIONS}
    want |= {"tie", "several point chunks", "first sample in several point chunks"}
    want |= {"full support at the first sample", "full support only later"}
    want |= {"first sample collinear", "first sample ties a later one"}
    assert want <= seen, want - seen
