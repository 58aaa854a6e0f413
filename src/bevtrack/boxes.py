"""Axis-aligned pixel bounding boxes."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True, slots=True)  # slots: a detection table holds one per row
class PixelBox:
    """left/top corner plus positive width/height, MOT convention (v grows down)."""

    left: float
    top: float
    width: float
    height: float
    confidence: float = 1.0

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):  # NaN fails too
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
        """The box's ground contact point, used for BEV localization (``bottom_centers``)."""
        return tuple(bottom_centers(ltwh([self]))[0].tolist())

    def with_bottom_center(self, u: float, v: float) -> "PixelBox":
        """Same size, translated so the bottom-center lands on (u, v)."""
        return replace(self, left=u - self.width / 2.0, top=v - self.height)


def iou(a: PixelBox, b: PixelBox) -> float:
    """Intersection over union; 0 when disjoint."""
    return iou_ltwh((a.left, a.top, a.width, a.height), (b.left, b.top, b.width, b.height))


def iou_ltwh(a, b) -> float:
    """``iou`` of two (left, top, width, height) rows: the one scalar formula.

    0 when disjoint, NaN where the union underflows to 0, as in ``iou_matrix``.
    """
    al, at, aw, ah = a
    bl, bt, bw, bh = b
    ar, br, ab, bb = al + aw, bl + bw, at + ah, bt + bh
    # min and max spelled out as the builtins pick, at a third of their call cost
    iw = (br if br < ar else ar) - (bl if bl > al else al)
    ih = (bb if bb < ab else ab) - (bt if bt > at else at)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return inter / union if union else math.nan


def ltwh(boxes) -> np.ndarray:
    """(N, 4) left, top, width, height array of a sequence of PixelBoxes."""
    return np.array([(b.left, b.top, b.width, b.height) for b in boxes], dtype=float).reshape(-1, 4)


def bottom_centers(boxes: np.ndarray) -> np.ndarray:
    """(N, 2) bottom centres, ``(left + width / 2, top + height)``, of (N, 4) ltwh boxes."""
    return boxes[:, :2] + boxes[:, 2:] / (2.0, 1.0)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., N, M) pairwise iou of (..., N, 4) and (..., M, 4) left-top-width-height
    arrays, leading axes broadcast.

    The same float operations as ``iou``, so every entry is bit-identical to
    the scalar result; rows with NaN coordinates overlap nothing.
    """
    a = np.asarray(a, dtype=float)[..., :, None, :]
    b = np.asarray(b, dtype=float)[..., None, :, :]
    al, at, aw, ah = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bl, bt, bw, bh = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    iw = np.minimum(al + aw, bl + bw) - np.maximum(al, bl)
    ih = np.minimum(at + ah, bt + bh) - np.maximum(at, bt)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=(iw > 0) & (ih > 0))


def covered_fraction(box: PixelBox, covers) -> float:
    """Fraction of ``box`` covered by the union of (l, t, r, b) rectangles.

    A batch of one for ``covered_fractions``, given the covers that overlap the box.
    """
    c = np.asarray(covers, dtype=float).reshape(-1, 4)
    edges = np.array([box.left, box.top, box.right, box.bottom])
    c = c[(np.minimum(c[:, 2:], edges[2:]) > np.maximum(c[:, :2], edges[:2])).all(axis=1)]
    return float(covered_fractions(ltwh([box]), c[None])[0]) if len(c) else 0.0


def covered_fractions(boxes: np.ndarray, covers: np.ndarray) -> np.ndarray:
    """(K,) fraction of each (K, 4) left-top-width-height box covered by the
    union of its (K, c >= 1, 4) (l, t, r, b) covers, each overlapping its box.

    Exact sweep: one strip between each pair of neighbouring clipped x-edges.
    In a strip, the spans of the covers that cross it, in (t, b) order, add
    ``b - max(t, highest earlier b)`` when positive. Spans, then strips, are
    added in order (``cumsum``, not the pairwise ``sum``), so each result is
    the float a scalar sweep over the distinct edges gives.
    """
    left, top, width, height = np.asarray(boxes, dtype=float).T[:, :, None]
    c = np.asarray(covers, dtype=float)
    l, r = np.maximum(c[..., 0], left), np.minimum(c[..., 2], left + width)
    t, b = np.maximum(c[..., 1], top), np.minimum(c[..., 3], top + height)
    order = np.lexsort((b, t), axis=-1)
    l, t, r, b = (np.take_along_axis(v, order, axis=-1)[:, None, :] for v in (l, t, r, b))
    xs = np.sort(np.concatenate([l, r], axis=-1)[:, 0], axis=-1)
    x0, x1 = xs[:, :-1, None], xs[:, 1:, None]  # (K, strips, 1); a zero-width strip adds 0
    spans = (l <= x0) & (r >= x1)
    reach = np.maximum.accumulate(np.where(spans, b, -np.inf), axis=-1)
    below = np.concatenate([np.full(reach.shape[:2] + (1,), -np.inf), reach[..., :-1]], axis=-1)
    pieces = np.where(spans, np.maximum(b - np.maximum(t, below), 0.0), 0.0)
    strips = np.cumsum(pieces, axis=-1)[..., -1] * (x1 - x0)[..., 0]
    return np.cumsum(strips, axis=-1)[:, -1] / (width * height)[:, 0]
