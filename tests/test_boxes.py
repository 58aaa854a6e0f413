import numpy as np
import pytest

from bevtrack.boxes import (
    PixelBox,
    bottom_centers,
    covered_fraction,
    covered_fractions,
    iou,
    iou_matrix,
    ltwh,
)


def grid_covered_fraction(box, covers, n=400):
    """Independent oracle: dense grid rasterization of the covered area."""
    xs = np.linspace(box.left, box.right, n, endpoint=False) + box.width / (2 * n)
    ys = np.linspace(box.top, box.bottom, n, endpoint=False) + box.height / (2 * n)
    xx, yy = np.meshgrid(xs, ys)
    hit = np.zeros_like(xx, dtype=bool)
    for l, t, r, b in covers:
        hit |= (xx >= l) & (xx < r) & (yy >= t) & (yy < b)
    return hit.mean()


def reference_covered_fraction(box, covers) -> float:
    """The scalar sweep: distinct clipped x-edges, spans sorted by (t, b), added one by one."""
    clipped = []
    for l, t, r, b in covers:
        l2, r2 = max(l, box.left), min(r, box.right)
        t2, b2 = max(t, box.top), min(b, box.bottom)
        if r2 > l2 and b2 > t2:
            clipped.append((l2, t2, r2, b2))
    if not clipped:
        return 0.0
    xs = sorted({v for l, _, r, _ in clipped for v in (l, r)})
    covered = 0.0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        spans = sorted((t, b) for l, t, r, b in clipped if l <= x0 and r >= x1)
        y_end = None
        length = 0.0
        for t, b in spans:
            if y_end is None or t > y_end:
                length += b - t
                y_end = b
            elif b > y_end:
                length += b - y_end
                y_end = b
        covered += length * (x1 - x0)
    return covered / box.area


def pooled_case(rng, n_covers: int, overlapping: bool):
    """A box and n_covers rectangles whose edges come from 8 random values per axis.

    Edges repeat, so covers share and touch edges with each other and the
    box, repeat, nest and reach past the box. With ``overlapping`` every
    cover clips against the box to a positive area.
    """
    xs, ys = np.sort(rng.uniform(-5.0, 25.0, (2, 8)), axis=1)
    box = PixelBox(xs[2], ys[2], xs[5] - xs[2], ys[5] - ys[2])
    covers = []
    while len(covers) < n_covers:
        (a, b), (c, d) = np.sort(rng.choice(8, (2, 2), replace=True), axis=1)
        rect = (xs[a], ys[c], xs[b], ys[d])
        if covers and rng.random() < 0.1:
            rect = covers[int(rng.integers(len(covers)))]
        clips = min(rect[2], box.right) > max(rect[0], box.left)
        clips &= min(rect[3], box.bottom) > max(rect[1], box.top)
        if clips or not overlapping:
            covers.append(rect)
    return box, covers


class TestPixelBox:
    def test_properties(self):
        b = PixelBox(10.0, 20.0, 30.0, 40.0)
        assert b.right == 40.0
        assert b.bottom == 60.0
        assert b.area == 1200.0
        assert b.bottom_center == (25.0, 60.0)

    def test_bottom_centers_is_the_scalar_formula(self):
        rng = np.random.default_rng(3)
        boxes = np.column_stack([rng.uniform(-1e3, 1e3, (200, 2)), rng.uniform(0.1, 300, (200, 2))])
        want = [[left + w / 2.0, top + h] for left, top, w, h in boxes.tolist()]
        assert bottom_centers(boxes).tolist() == want
        assert bottom_centers(np.zeros((0, 4))).shape == (0, 2)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            PixelBox(0.0, 0.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            PixelBox(0.0, 0.0, 5.0, -1.0)

    @pytest.mark.parametrize("w, h", [(float("nan"), 1.0), (1.0, float("nan"))])
    def test_nan_size_rejected(self, w, h):
        with pytest.raises(ValueError, match="must be positive"):
            PixelBox(0.0, 0.0, w, h)

    def test_with_bottom_center_moves_box(self):
        b = PixelBox(10.0, 20.0, 30.0, 40.0, confidence=0.7)
        m = b.with_bottom_center(100.0, 200.0)
        assert m.bottom_center == (100.0, 200.0)
        assert (m.width, m.height) == (b.width, b.height)
        assert m.confidence == 0.7


class TestIou:
    def test_identical(self):
        b = PixelBox(0.0, 0.0, 10.0, 10.0)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(PixelBox(0, 0, 10, 10), PixelBox(20, 20, 5, 5)) == 0.0

    def test_touching_edges_is_zero(self):
        assert iou(PixelBox(0, 0, 10, 10), PixelBox(10, 0, 10, 10)) == 0.0

    def test_half_overlap_value(self):
        # 10x10 boxes offset by 5 horizontally: inter 50, union 150.
        got = iou(PixelBox(0, 0, 10, 10), PixelBox(5, 0, 10, 10))
        assert got == pytest.approx(50.0 / 150.0, abs=1e-12)

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = PixelBox(*rng.uniform(1, 50, size=4))
            b = PixelBox(*rng.uniform(1, 50, size=4))
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0


def scalar_iou_matrix(a, b):
    return np.array([[iou(x, y) for y in b] for x in a], dtype=float).reshape(len(a), len(b))


class TestIouMatrix:
    def test_random_boxes_bit_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, m = rng.integers(0, 12, 2)
            a = [PixelBox(*rng.uniform(0, 60, 2), *rng.uniform(0.5, 30, 2)) for _ in range(n)]
            b = [PixelBox(*rng.uniform(0, 60, 2), *rng.uniform(0.5, 30, 2)) for _ in range(m)]
            got = iou_matrix(ltwh(a), ltwh(b))
            assert got.shape == (n, m)
            assert np.array_equal(got, scalar_iou_matrix(a, b))

    def test_disjoint_touching_and_identical_pairs(self):
        rng = np.random.default_rng(8)
        a, b, kinds = [], [], []
        for _ in range(200):
            x = PixelBox(*rng.uniform(0, 100, 2), *rng.uniform(0.1, 40, 2))
            shift = rng.choice(["identical", "touch_x", "touch_y", "far", "corner"])
            if shift == "identical":
                y = PixelBox(x.left, x.top, x.width, x.height)
            elif shift == "touch_x":
                y = PixelBox(x.right, x.top + rng.uniform(-5, 5), *rng.uniform(0.1, 40, 2))
            elif shift == "touch_y":
                y = PixelBox(x.left + rng.uniform(-5, 5), x.bottom, *rng.uniform(0.1, 40, 2))
            elif shift == "far":
                y = PixelBox(x.right + rng.uniform(1, 50), x.bottom + 1.0, 5.0, 5.0)
            else:
                y = PixelBox(x.right - 1e-9, x.bottom - 1e-9, 3.0, 3.0)
            a.append(x)
            b.append(y)
            kinds.append(shift)
        got = iou_matrix(ltwh(a), ltwh(b))
        assert np.array_equal(got, scalar_iou_matrix(a, b))
        diag = dict(zip(kinds, np.diag(got)))
        assert diag["far"] == diag["touch_x"] == diag["touch_y"] == 0.0
        assert diag["identical"] == pytest.approx(1.0, abs=1e-12)

    def test_nan_rows_overlap_nothing(self):
        a = np.array([[np.nan, np.nan, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
        got = iou_matrix(a, a[1:])
        assert np.array_equal(got, [[0.0], [1.0]])

    def test_empty(self):
        assert iou_matrix(ltwh([]), ltwh([PixelBox(0, 0, 1, 1)])).shape == (0, 1)

    def test_a_union_that_underflows_is_nan_in_both(self):
        # Positive sizes whose areas round to 0: 0 / 0 in both, not a ZeroDivisionError.
        tiny = PixelBox(0.0, 0.0, 1e-200, 1e-200)
        with np.errstate(invalid="ignore"):
            got = iou_matrix(ltwh([tiny]), ltwh([tiny]))
        assert np.isnan(got).all() and np.isnan(iou(tiny, tiny))


class TestCoveredFraction:
    def test_no_covers(self):
        assert covered_fraction(PixelBox(0, 0, 10, 10), []) == 0.0

    def test_full_cover(self):
        assert covered_fraction(PixelBox(2, 2, 6, 6), [(0, 0, 10, 10)]) == 1.0

    def test_half_cover_exact(self):
        assert covered_fraction(PixelBox(0, 0, 10, 10), [(0, 0, 5, 10)]) == 0.5

    def test_overlapping_covers_not_double_counted(self):
        box = PixelBox(0, 0, 10, 10)
        covers = [(0, 0, 6, 10), (4, 0, 8, 10)]  # union is x in [0, 8]
        assert covered_fraction(box, covers) == pytest.approx(0.8, abs=1e-12)

    def test_matches_grid_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            box = PixelBox(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(5, 20), rng.uniform(5, 20))
            covers = []
            for _ in range(rng.integers(1, 6)):
                l = rng.uniform(-5, 20)
                t = rng.uniform(-5, 20)
                covers.append((l, t, l + rng.uniform(1, 15), t + rng.uniform(1, 15)))
            exact = covered_fraction(box, covers)
            approx = grid_covered_fraction(box, covers)
            assert abs(exact - approx) < 0.01

    def test_degenerate_covers_ignored(self):
        box = PixelBox(0, 0, 10, 10)
        assert covered_fraction(box, [(20, 20, 30, 30), (3, 3, 3, 9)]) == 0.0


class TestCoveredFractionsKernel:
    """The batched sweep against the scalar reference, compared with ``==``."""

    @pytest.mark.parametrize("n_covers", range(1, 21))
    def test_matches_scalar_sweep_bit_for_bit(self, n_covers):
        rng = np.random.default_rng(n_covers)
        cases = [pooled_case(rng, n_covers, overlapping=True) for _ in range(40)]
        got = covered_fractions(
            ltwh([box for box, _ in cases]), np.array([covers for _, covers in cases])
        )
        want = [reference_covered_fraction(box, covers) for box, covers in cases]
        assert got.tolist() == want

    def test_batch_of_one_matches_scalar_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(400):
            box, covers = pooled_case(rng, int(rng.integers(0, 21)), overlapping=False)
            assert covered_fraction(box, covers) == reference_covered_fraction(box, covers)

    def test_cases_hold_the_edge_cases(self):
        rng = np.random.default_rng(5)
        cases = [pooled_case(rng, 20, overlapping=True) for _ in range(20)]
        pairs = [(b, p, q) for b, cs in cases for p in cs for q in cs]
        assert any(len(set(cs)) < len(cs) for _, cs in cases)  # duplicate covers
        assert any(p[0] == b.left or p[2] == b.right for b, p, _ in pairs)  # an edge of the box
        assert any(p[2] == q[0] for _, p, q in pairs)  # touching covers
        assert any(
            p != q and p[0] <= q[0] and q[2] <= p[2] and p[1] <= q[1] and q[3] <= p[3]
            for _, p, q in pairs
        )  # nested covers
        assert any(
            p[0] <= b.left and p[2] >= b.right and p[1] <= b.top and p[3] >= b.bottom
            for b, p, _ in pairs
        )  # a cover larger than the box
