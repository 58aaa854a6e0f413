"""Axis-aligned pixel bounding boxes."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class PixelBox:
    """left/top corner plus positive width/height, MOT convention (v grows down)."""

    left: float
    top: float
    width: float
    height: float
    confidence: float = 1.0

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("box width and height must be positive")

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def bottom_center(self) -> tuple[float, float]:
        """The box's ground contact point, used for BEV localization."""
        return (self.left + self.width / 2.0, self.top + self.height)

    def with_bottom_center(self, u: float, v: float) -> "PixelBox":
        """Same size, translated so the bottom-center lands on (u, v)."""
        return replace(self, left=u - self.width / 2.0, top=v - self.height)


def iou(a: PixelBox, b: PixelBox) -> float:
    """Intersection over union; 0 when disjoint."""
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def ltwh(boxes) -> np.ndarray:
    """(N, 4) left, top, width, height array of a sequence of PixelBoxes."""
    return np.array([(b.left, b.top, b.width, b.height) for b in boxes], dtype=float).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) pairwise iou of (N, 4) and (M, 4) left-top-width-height arrays.

    The same float operations as ``iou``, so every entry is bit-identical to
    the scalar result; rows with NaN coordinates overlap nothing.
    """
    al, at, aw, ah = np.asarray(a, dtype=float).T[:, :, None]
    bl, bt, bw, bh = np.asarray(b, dtype=float).T[:, None, :]
    iw = np.minimum(al + aw, bl + bw) - np.maximum(al, bl)
    ih = np.minimum(at + ah, bt + bh) - np.maximum(at, bt)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=(iw > 0) & (ih > 0))


def covered_fraction(box: PixelBox, covers: list[tuple[float, float, float, float]]) -> float:
    """Fraction of ``box`` covered by the union of (l, t, r, b) rectangles.

    Exact sweep over compressed x-coordinates; used by the simulator's
    visibility computation.
    """
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
        spans = sorted(
            (t, b) for l, t, r, b in clipped if l <= x0 and r >= x1
        )
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
