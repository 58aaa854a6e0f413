"""Camera egomotion as per-frame BEV translations.

The camera is assumed to translate on the ground plane without rotating;
estimating only a translation between corresponding ground points is robust
to sparse, noisy correspondences.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput


class EgomotionTrack:
    """Cumulative 2D camera offsets, one per frame, offset[0] == (0, 0)."""

    __slots__ = ("offsets",)

    def __init__(self, offsets: np.ndarray):
        o = np.asarray(offsets, dtype=float)
        if o.ndim != 2 or o.shape[1] != 2 or o.shape[0] < 1:
            raise ValueError("offsets must be (F, 2) with F >= 1")
        if not np.allclose(o[0], 0.0, atol=1e-12):
            raise ValueError("offset at frame 0 must be (0, 0)")
        self.offsets = o

    @classmethod
    def identity(cls, n_frames: int) -> "EgomotionTrack":
        return cls(np.zeros((max(n_frames, 1), 2)))

    @classmethod
    def from_deltas(cls, deltas: np.ndarray) -> "EgomotionTrack":
        """Build from per-frame translations (frame f-1 -> f), prepending frame 0."""
        d = np.atleast_2d(np.asarray(deltas, dtype=float))
        cum = np.vstack([np.zeros((1, 2)), np.cumsum(d, axis=0)])
        return cls(cum)

    def __len__(self):
        return self.offsets.shape[0]

    def offset(self, frame) -> np.ndarray:
        """The (2,) offset at an int frame, or the (N, 2) offsets at (N,) frames."""
        f = np.asarray(frame)
        outside = f[(f < 0) | (f >= len(self))]
        if outside.size:
            raise ValueError(f"frame {outside[0]} outside egomotion track of length {len(self)}")
        return self.offsets[f]


def estimate_egomotion(prev_pixels, cur_pixels, lh, trim_fraction: float = 0.0) -> np.ndarray:
    """Estimate the camera translation between two frames from ground correspondences.

    Each ground point appears at prev_pixels[i] in the earlier frame and
    cur_pixels[i] in the later one. The camera translates without rotating,
    so one map serves both frames: lifting both gives camera-relative BEV
    positions whose mean displacement is the negated camera motion.

    Args:
        prev_pixels, cur_pixels: (N, 2) pixel points, N >= 1, same order.
        lh: the camera's LinearizedHomography.
        trim_fraction: optional fraction of the most deviant displacement
            vectors (by distance from the componentwise median) to drop before
            averaging, for outlier-laden correspondence sets.

    Returns:
        (2,) camera translation in BEV meters from the earlier to the later frame.
    """
    p0 = np.atleast_2d(np.asarray(prev_pixels, dtype=float))
    p1 = np.atleast_2d(np.asarray(cur_pixels, dtype=float))
    if p0.shape != p1.shape or p0.shape[0] < 1 or p0.shape[1] != 2:
        raise DegenerateInput("need matching, non-empty (N, 2) pixel arrays")
    if not 0.0 <= trim_fraction < 1.0:
        raise ValueError("trim_fraction must be in [0, 1)")
    disp = lh.px_to_bev(p1) - lh.px_to_bev(p0)
    if trim_fraction > 0.0 and disp.shape[0] > 2:
        med = np.median(disp, axis=0)
        dev = np.linalg.norm(disp - med, axis=1)
        keep = max(1, disp.shape[0] - int(np.ceil(trim_fraction * disp.shape[0])))
        disp = disp[np.argsort(dev, kind="stable")[:keep]]
    return -disp.mean(axis=0)
