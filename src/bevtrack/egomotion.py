"""Camera egomotion as per-frame BEV translations.

The camera is assumed to translate on the ground plane without rotating, so
one camera-relative map serves every frame: adding a frame's offset to a
lifted point makes it world-fixed. Offsets come from a scenario's camera path
or from an ``--ego`` file.
"""

from __future__ import annotations

import numpy as np



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
