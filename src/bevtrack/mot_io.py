"""Plain-text interchange formats.

Detections and tracker outputs use the 10-column MOT CSV layout
``frame,id,left,top,width,height,conf,x,y,z`` (id and world columns are -1
when unknown). Ground truth uses the 9-column layout
``frame,id,left,top,width,height,flag,class,visibility``. Point clouds are
``x y z`` rows; pixel/ground correspondences are ``u v x y z`` rows; camera
egomotion is one cumulative ``dx dy`` offset per frame. Floats round-trip
exactly (shortest repr that restores the value).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boxes import PixelBox
from .egomotion import EgomotionTrack
from .errors import NonPositiveBox, ParseError


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _read_rows(path, sep=None, n_fields=None):
    """(line number, finite floats) for each non-blank line, checking the field count."""
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            if n_fields is not None and len(parts) != n_fields:
                kind = "comma-separated fields" if sep == "," else "fields"
                raise ParseError(f"{path}:{lineno}: expected {n_fields} {kind}, got {len(parts)}")
            try:
                vals = [float(p) for p in parts]
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
            if not all(math.isfinite(v) for v in vals):
                raise ParseError(f"{path}:{lineno}: non-finite value")
            yield lineno, vals


def _box_rows(path, n_fields: int):
    """MOT CSV rows as floats; a box of non-positive size is dropped with a warning."""
    for lineno, vals in _read_rows(path, ",", n_fields):
        if vals[4] <= 0 or vals[5] <= 0:
            warnings.warn(
                f"{path}:{lineno}: dropping box with non-positive size", NonPositiveBox, stacklevel=3
            )
            continue
        yield vals


# -- detections / tracker outputs ----------------------------------------------------


@dataclass(frozen=True)
class MotRecord:
    frame: int
    track_id: int
    box: PixelBox
    world: tuple = (-1.0, -1.0, -1.0)


def records_from_outputs(outputs: Sequence) -> list:
    """Tracker ``(frame, id, box)`` triples to writable records."""
    return [MotRecord(frame=f, track_id=i, box=b) for f, i, b in outputs]


def write_detections(path, records: Sequence) -> None:
    rows = sorted(records, key=lambda r: (r.frame, r.track_id))
    with open(path, "w") as f:
        for r in rows:
            b = r.box
            f.write(
                ",".join(
                    [
                        str(int(r.frame)),
                        str(int(r.track_id)),
                        _fmt(b.left),
                        _fmt(b.top),
                        _fmt(b.width),
                        _fmt(b.height),
                        _fmt(b.confidence),
                        _fmt(r.world[0]),
                        _fmt(r.world[1]),
                        _fmt(r.world[2]),
                    ]
                )
                + "\n"
            )


def read_detections(path) -> list:
    """Rows with non-positive width or height are dropped with a warning."""
    out = []
    for vals in _box_rows(path, 10):
        out.append(
            MotRecord(
                frame=int(vals[0]),
                track_id=int(vals[1]),
                box=PixelBox(vals[2], vals[3], vals[4], vals[5], confidence=vals[6]),
                world=(vals[7], vals[8], vals[9]),
            )
        )
    return out


# -- ground truth ---------------------------------------------------------------------


@dataclass(frozen=True)
class GtRecord:
    frame: int
    track_id: int
    box: PixelBox
    visibility: float


def write_gt(path, records: Sequence) -> None:
    rows = sorted(records, key=lambda r: (r.frame, r.track_id))
    with open(path, "w") as f:
        for r in rows:
            b = r.box
            f.write(
                ",".join(
                    [
                        str(int(r.frame)),
                        str(int(r.track_id)),
                        _fmt(b.left),
                        _fmt(b.top),
                        _fmt(b.width),
                        _fmt(b.height),
                        "1",
                        "1",
                        _fmt(r.visibility),
                    ]
                )
                + "\n"
            )


def read_gt(path) -> list:
    out = []
    for vals in _box_rows(path, 9):
        out.append(
            GtRecord(
                frame=int(vals[0]),
                track_id=int(vals[1]),
                box=PixelBox(vals[2], vals[3], vals[4], vals[5]),
                visibility=vals[8],
            )
        )
    return out


def gt_from_sim(sim) -> list:
    return [
        GtRecord(frame=g.frame, track_id=g.agent_id, box=g.box, visibility=g.visibility)
        for g in sim.gt
    ]


# -- point clouds and correspondences -------------------------------------------------


def write_cloud(path, points: np.ndarray) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError("cloud points must be (N, 3)")
    with open(path, "w") as f:
        for p in pts:
            f.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")


def read_cloud(path) -> np.ndarray:
    rows = [vals for _, vals in _read_rows(path, None, 3)]
    if not rows:
        raise ParseError(f"{path}: empty point cloud")
    return np.array(rows)


def write_correspondences(path, pixels: np.ndarray, points: np.ndarray) -> None:
    """Rows of ``u v x y z``: a pixel and the 3D point it observes."""
    px = np.atleast_2d(np.asarray(pixels, dtype=float))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(px) != len(pts) or px.shape[1] != 2 or pts.shape[1] != 3:
        raise ValueError("need matching (N, 2) pixels and (N, 3) points")
    with open(path, "w") as f:
        for p, q in zip(px, pts):
            f.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(q[0])} {_fmt(q[1])} {_fmt(q[2])}\n")


def read_correspondences(path):
    rows = np.array([vals for _, vals in _read_rows(path, None, 5)])
    if not len(rows):
        raise ParseError(f"{path}: empty correspondence file")
    return rows[:, :2].copy(), rows[:, 2:].copy()


# -- appearance, egomotion, events ----------------------------------------------------


def write_appearance(path, vectors: Sequence) -> None:
    """One descriptor per detection row, same order as the detection file."""
    with open(path, "w") as f:
        for v in vectors:
            f.write(" ".join(_fmt(x) for x in np.asarray(v, dtype=float)) + "\n")


def read_appearance(path) -> list:
    out = [np.array(vals) for _, vals in _read_rows(path)]
    if out and any(len(v) != len(out[0]) for v in out):
        raise ParseError(f"{path}: inconsistent descriptor lengths")
    return out


def write_ego(path, ego: EgomotionTrack) -> None:
    with open(path, "w") as f:
        for row in ego.offsets:
            f.write(f"{_fmt(row[0])} {_fmt(row[1])}\n")


def read_ego(path) -> EgomotionTrack:
    rows = [vals for _, vals in _read_rows(path, None, 2)]
    if not rows:
        raise ParseError(f"{path}: empty egomotion file")
    return EgomotionTrack(np.array(rows))


def write_events(path, events: Sequence) -> None:
    with open(path, "w") as f:
        for ev in events:
            f.write(json.dumps(ev, sort_keys=True) + "\n")


def read_events(path) -> list:
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
    return out
