"""Plain-text interchange formats.

Detections and tracker outputs use the 10-column MOT CSV layout
``frame,id,left,top,width,height,conf,x,y,z`` (id and world columns are -1 when
unknown); ground truth uses ``frame,id,left,top,width,height,flag,class,
visibility``. Frame and id are integers. Both are tables of arrays, read in
file order and written column by column in (frame, id) order, ROW_BLOCK rows at
a time: ``GtTable``, and for detections the tracker's ``DetectionTable``, whose
``source_id`` and ``confidence`` hold the id and score (the world columns are
checked when read, then dropped, and written as -1). Point clouds are
``x y z`` rows, pixel/ground correspondences ``u v x y z`` rows, appearance one
unit-length descriptor per row, and camera egomotion one cumulative ``dx dy``
offset per frame from ``0 0``. ``_read_rows`` reads every row file: blank lines
are skipped, and a wrong field count or a non-finite number is
``ParseError("<file>:<line>: ...")``. ``_write_rows`` writes every one with a
``%`` format string per row kind, ``%.17g`` for floats so they round-trip
bit-exactly. Tracker events are one JSON object per line, one template over
exactly their six keys filled, ROW_BLOCK events at a time, with the text
``json.dumps(event, sort_keys=True)`` gives. Whole-file JSON goes through
``read_json``/``write_json``; a dataclass record is read from a JSON object by
``_record_from_dict``, which takes its keys and scalar types from the fields,
and written by ``_record_to_dict``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import numbers
import operator
import re
import warnings
from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

import numpy as np

from .boxes import PixelBox, bottom_centers, ltwh
from .egomotion import EgomotionTrack
from .errors import NonPositiveBox, ParseError


def _lines(path, sep=None):
    """(1-based line number, fields) for each non-blank line of the file."""
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                yield lineno, line.strip().split(sep)


def _numbers(path, lineno: int, parts, finite: bool = True) -> list:
    """The fields as floats, finite unless told otherwise, or ParseError naming the line."""
    try:
        vals = [float(p) for p in parts]
    except ValueError as e:
        raise ParseError(f"{path}:{lineno}: {e}") from e
    if finite and not all(map(math.isfinite, vals)):
        raise ParseError(f"{path}:{lineno}: non-finite value")
    return vals


def _read_rows(path, sep=None, n_fields=None):
    """(line number, finite floats) for each non-blank line, checking the field count."""
    for lineno, parts in _lines(path, sep):
        if n_fields is not None and len(parts) != n_fields:
            kind = "comma-separated fields" if sep == "," else "fields"
            raise ParseError(f"{path}:{lineno}: expected {n_fields} {kind}, got {len(parts)}")
        yield lineno, _numbers(path, lineno, parts)


def _write_rows(path, fmt: str, rows) -> None:
    """One line ``fmt % row`` per row (a tuple or list of values)."""
    line = fmt + "\n"
    with open(path, "w") as f:
        f.writelines(line % tuple(row) for row in rows)


def _read_array(path, k: int, what: str) -> tuple[int, np.ndarray]:
    """(first row's line number, non-empty (N, k) array) of a whitespace-separated file."""
    rows = list(_read_rows(path, None, k))
    if not rows:
        raise ParseError(f"{path}: empty {what}")
    return rows[0][0], np.array([vals for _, vals in rows])


def read_json(path):
    """A whole JSON file; bad JSON is ParseError("<path>: ...")."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: {e}") from e


def write_json(path, obj) -> None:
    """A whole JSON file: indent 2, sorted keys, a trailing newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _box_table(path, n_fields: int) -> tuple:
    """(frame (N,), id (N,), fields (N, n_fields)) arrays of a MOT CSV file's rows in
    file order; a box of non-positive size is dropped with a warning."""
    rows = []
    for lineno, vals in _read_rows(path, ",", n_fields):
        for name, v in (("frame", vals[0]), ("id", vals[1])):
            if not v.is_integer():
                raise ParseError(f"{path}:{lineno}: {name} must be an integer")
            if abs(v) > 2**53:  # beyond it a float skips integers
                raise ParseError(f"{path}:{lineno}: {name} must be at most 2**53 in size")
        if vals[4] <= 0 or vals[5] <= 0:
            warnings.warn(  # stacklevel 3 names the reader's caller
                f"{path}:{lineno}: dropping box with non-positive size", NonPositiveBox, stacklevel=3
            )
            continue
        if not (math.isfinite(vals[2] + vals[4]) and math.isfinite(vals[3] + vals[5])):
            raise ParseError(f"{path}:{lineno}: left + width or top + height is not finite")
        rows.append(vals)
    table = np.array(rows, dtype=float).reshape(-1, n_fields)
    return table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table


ROW_BLOCK = 4096  # rows a writer turns into text together; bounds its column lists


def _row_blocks(n: int):
    """Slices of range(n), ROW_BLOCK rows each."""
    return (slice(lo, lo + ROW_BLOCK) for lo in range(0, n, ROW_BLOCK))


def _write_table(path, fmt: str, frame: np.ndarray, ids: np.ndarray, *columns) -> None:
    """One ``fmt`` row per table row, in (frame, id) order, ROW_BLOCK rows at a time;
    rows of one (frame, id) keep the table's order. A column after the id whose rows
    all hold the same bits (so 0.0 never stands for -0.0) is formatted once, into fmt."""
    parts, kept = re.split(r"(%[^%a-z]*[a-z])", fmt), [frame, ids]  # conversion k: parts[2k + 1]
    for k, c in enumerate(columns, start=2):
        bits = c.view(f"u{c.itemsize}")
        if len(c) and (bits == bits[0]).all():
            parts[2 * k + 1] %= c[:1].tolist()[0]
        else:
            kept.append(c)
    order = np.lexsort((ids, frame))
    blocks = (zip(*(c[order[s]].tolist() for c in kept)) for s in _row_blocks(len(order)))
    _write_rows(path, "".join(parts), itertools.chain.from_iterable(blocks))


# -- dataclass records as JSON objects -------------------------------------------------


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# A field's accepted values and what an error says it expects, keyed by its annotation:
# a string, as every module that defines a record postpones evaluating annotations.
_TYPE_CHECKS = {
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "float": (_is_number, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple": (lambda v: isinstance(v, tuple) and all(map(_is_number, v)), "a list of numbers"),
}


def _scalar(kind: str, v, where: str):
    """v checked against a "float" or "int" annotation, and made that type."""
    accepts, expected = _TYPE_CHECKS[kind]
    if not accepts(v):
        raise ParseError(f"{where} must be {expected}, got {v!r}")
    return {"float": float, "int": int}[kind](v)


def _check_keys(d, cls, where: str, required=()) -> None:
    """ParseError unless d is a JSON object with every field of cls that has no
    default, and every name in required, and no key that is not a field of cls."""
    if not isinstance(d, dict):
        raise ParseError(f"{where}: expected a JSON object")
    fields = dataclasses.fields(cls)
    no_default = (f for f in fields if f.default is f.default_factory is dataclasses.MISSING)
    missing = ({f.name for f in no_default} | set(required)) - set(d)
    if missing:
        raise ParseError(f"{where}: missing field '{sorted(missing)[0]}'")
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ParseError(f"{where}: unknown field '{sorted(unknown)[0]}'")


def _record_from_dict(cls, d, where: str, parsers=None, required=()):
    """cls from the JSON object d, checked by ``_check_keys``; each present field, in
    field order, read by ``parsers[name](value, f"{where}.{name}")`` or else as the
    scalar its annotation names ("float" or "int"), each absent one left at its default."""
    _check_keys(d, cls, where, required)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in d:
            parse = (parsers or {}).get(f.name) or functools.partial(_scalar, f.type)
            kwargs[f.name] = parse(d[f.name], f"{where}.{f.name}")
    return cls(**kwargs)


def _record_to_dict(v):
    """A dataclass record as ``asdict`` gives it, with a list for every tuple or array in it."""
    if dataclasses.is_dataclass(v):
        v = dataclasses.asdict(v)
    if isinstance(v, dict):
        return {k: _record_to_dict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_record_to_dict(x) for x in v]
    return v


# -- detections / tracker outputs and ground truth ------------------------------------

_DET_FMT = "%d,%d," + ",".join(["%.17g"] * 5) + ",-1,-1,-1"
_GT_FMT = "%d,%d,%.17g,%.17g,%.17g,%.17g,1,1,%.17g"


def _read_only(column, dtype):
    """A read-only view of the column as an array of dtype; the column itself stays writable."""
    view = np.asarray(column, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _refuse(bad: np.ndarray, message: str) -> None:
    """ValueError naming the first row where bad holds."""
    if bad.any():
        raise ValueError(f"row {np.argmax(bad)}: {message}")


@dataclass(eq=False)
class DetectionTable:
    """Detections or tracker outputs as read-only columns, one row per box, in row order.

    A row's descriptor may be NaN throughout: that detection has none, and
    skips the appearance gate. A source id below 0 is no upstream id; a
    confidence of None is 1.0 for every row. The check, on by default, makes
    each column a read-only view, raises ValueError naming the first row whose
    frame or id is not an integer of magnitude at most 2**53 (a float's exact
    range, which forecasts read), whose box has a non-positive size or a
    non-finite value or edge (left + width, top + height), whose confidence is
    not finite, or whose descriptor's norm is not 1 within 1e-6, and fills
    ``foot`` with ``bottom_centers(box)``; ``check=False`` is for rows taken
    from checked tables, as parts of one or as tracker outputs.
    """

    frame: np.ndarray  # (N,) int
    box: np.ndarray  # (N, 4) left, top, width, height
    appearance: Optional[np.ndarray] = None  # (N, D) unit rows; None: no descriptors
    source_id: Optional[np.ndarray] = None  # (N,) int upstream ids; None: no ids
    confidence: Optional[np.ndarray] = None  # (N,) detector scores; None: 1.0 for every row
    agent_id: Optional[np.ndarray] = None  # (N,) int simulated agent; None outside the simulator
    foot: Optional[np.ndarray] = None  # (N, 2) the boxes' bottom centres, set by the check
    pixel_boxes: Optional[tuple] = None  # each row's PixelBox; None until boxes() builds them
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if not check:
            return
        for name, dtype in (("frame", np.int64), ("box", float), ("appearance", float),
                            ("source_id", np.int64), ("confidence", float),
                            ("agent_id", np.int64)):
            column = getattr(self, name)
            if column is None:
                continue
            if dtype is np.int64:
                column = np.asarray(column)
                v = column.astype(float)
                _refuse(~(np.isfinite(v) & (v == np.floor(v))), f"{name} must be an integer")
                # beyond 2**53 a float skips integers; compared as given, 2**53 + 1 is refused
                big = (column > 2**53) | (column < -2**53)
                _refuse(big, f"{name} must be at most 2**53 in size")
            setattr(self, name, _read_only(column, dtype))
        n, a = len(self.frame), self.appearance
        sized = (self.source_id, self.confidence, self.agent_id, self.pixel_boxes)
        if (self.frame.ndim != 1 or self.box.shape != (n, 4)
                or any(c is not None and len(c) != n for c in sized)
                or (a is not None and (a.ndim != 2 or len(a) != n or a.shape[1] < 1))):
            raise ValueError(f"need {n} rows in every column, (N, 4) boxes and (N, D >= 1) "
                             "descriptors")
        _refuse(~(self.box[:, 2:] > 0).all(axis=1), "box width and height must be positive")
        with np.errstate(over="ignore"):
            edges = np.concatenate([self.box, self.box[:, :2] + self.box[:, 2:]], axis=1)
        _refuse(~np.isfinite(edges).all(axis=1), "box values and edges must be finite")
        if self.confidence is not None:
            _refuse(~np.isfinite(self.confidence), "confidence must be finite")
        self.foot = _read_only(bottom_centers(self.box), float)
        if a is not None:
            # stacked (1, D) @ (D, 1) products round like each row's own dot, as linalg.norm
            unit = np.abs(np.sqrt(a[:, None, :] @ a[:, :, None])[:, 0, 0] - 1.0) <= 1e-6
            _refuse(~(unit | np.isnan(a).all(axis=1)), "appearance descriptor must be unit length")

    def __len__(self) -> int:
        return len(self.frame)

    def rows(self, index) -> DetectionTable:
        """The rows ``index`` selects (a slice or a sequence of row numbers), read-only."""
        columns = (self.frame, self.box, self.appearance, self.source_id, self.confidence,
                   self.agent_id, self.foot)
        boxes = self.boxes()
        if isinstance(index, slice):  # views of read-only columns, read-only too
            parts = [None if c is None else c[index] for c in columns]
            return DetectionTable(*parts, boxes[index], check=False)
        index = np.asarray(index, dtype=np.intp)
        parts = [None if c is None else _read_only(c[index], c.dtype) for c in columns]
        return DetectionTable(*parts, tuple(map(boxes.__getitem__, index.tolist())), check=False)

    def boxes(self) -> tuple:
        """Each row's PixelBox, with its confidence: pixel_boxes, built from the box and
        confidence columns on first read."""
        if self.pixel_boxes is None:
            scores = () if self.confidence is None else (self.confidence.tolist(),)
            self.pixel_boxes = tuple(map(PixelBox, *self.box.T.tolist(), *scores))
        return self.pixel_boxes

    def by_frame(self) -> dict:
        """{frame: the frame's rows}, in row order; each part holds its rows' boxes()."""
        table = self
        if (np.diff(self.frame) < 0).any():
            table = self.rows(np.argsort(self.frame, kind="stable"))
        cuts = [0, *(np.flatnonzero(np.diff(table.frame)) + 1).tolist(), len(table)]
        frames = table.frame[cuts[:-1]].tolist() if len(table) else []
        return {f: table.rows(slice(lo, hi)) for f, lo, hi in zip(frames, cuts, cuts[1:])}


def box_records(records: Sequence) -> tuple:
    """(frame (N,), id (N,), box (N, 4)) arrays of (frame, id, PixelBox) triples."""
    frames, ids, boxes = zip(*records) if records else ((), (), ())
    return np.array(frames, dtype=np.int64), np.array(ids, dtype=np.int64), ltwh(boxes)


def records_from_outputs(outputs: Sequence) -> DetectionTable:
    """Tracker ``(frame, id, PixelBox)`` triples as a table, the id in source_id. It is
    not checked again: every box comes from a checked table."""
    frame, ids, box = box_records(outputs)
    confidence = np.array([b.confidence for _, _, b in outputs], dtype=float)
    return DetectionTable(frame, box, source_id=ids, confidence=confidence, check=False)


def write_detections(path, dets: DetectionTable) -> None:
    """MOT detection rows: id -1 without source ids, confidence 1 without confidences,
    and -1 in every world column."""
    n = len(dets)
    ids = np.full(n, -1) if dets.source_id is None else dets.source_id
    confidence = np.ones(n) if dets.confidence is None else dets.confidence
    _write_table(path, _DET_FMT, dets.frame, ids, *dets.box.T, confidence)


def read_detections(path) -> DetectionTable:
    """The file's rows in file order, the id column in source_id; the world columns
    must be finite and are dropped. Rows with non-positive width or height are
    dropped with a warning."""
    frame, ids, vals = _box_table(path, 10)
    return DetectionTable(frame, vals[:, 2:6], source_id=ids, confidence=vals[:, 6])


@dataclass
class GtTable:
    """Ground truth, one row per (frame, agent) entry, as a struct of arrays."""

    frame: np.ndarray  # (N,) int
    agent_id: np.ndarray  # (N,) int
    box: np.ndarray  # (N, 4) left, top, width, height
    bev: np.ndarray  # (N, 2) world-fixed ground point; NaN when read from a file
    visibility: np.ndarray  # (N,) unoccluded fraction of the box

    def __len__(self) -> int:
        return len(self.frame)


def write_gt(path, gt: GtTable) -> None:
    _write_table(path, _GT_FMT, gt.frame, gt.agent_id, *gt.box.T, gt.visibility)


def read_gt(path) -> GtTable:
    """The file's rows in file order; the file has no BEV column, so bev is NaN."""
    frame, agent_id, vals = _box_table(path, 9)
    return GtTable(frame, agent_id, vals[:, 2:6], np.full((len(frame), 2), np.nan), vals[:, 8])


# -- point clouds and correspondences -------------------------------------------------


def write_cloud(path, points: np.ndarray) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError("cloud points must be (N, 3)")
    _write_rows(path, "%.17g %.17g %.17g", pts.tolist())


def read_cloud(path) -> np.ndarray:
    return _read_array(path, 3, "point cloud")[1]


def write_correspondences(path, pixels: np.ndarray, points: np.ndarray) -> None:
    """Rows of ``u v x y z``: a pixel and the 3D point it observes."""
    px = np.atleast_2d(np.asarray(pixels, dtype=float))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(px) != len(pts) or px.shape[1] != 2 or pts.shape[1] != 3:
        raise ValueError("need matching (N, 2) pixels and (N, 3) points")
    _write_rows(path, "%.17g %.17g %.17g %.17g %.17g", np.hstack([px, pts]).tolist())


def read_correspondences(path):
    rows = _read_array(path, 5, "correspondence file")[1]
    return rows[:, :2].copy(), rows[:, 2:].copy()


# -- appearance, egomotion, events ----------------------------------------------------


def write_appearance(path, vectors: Sequence) -> None:
    """One descriptor per detection row, same order as the detection file."""
    rows = [np.asarray(v, dtype=float).tolist() for v in vectors]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("descriptors must all have one length")
    _write_rows(path, " ".join(["%.17g"] * (len(rows[0]) if rows else 0)), rows)


def read_appearance(path) -> np.ndarray:
    """(N, D) unit-length descriptors, one per row, all of one length; (0, 0) for none."""
    out = []
    for lineno, vals in _read_rows(path):
        if out and len(vals) != len(out[0]):
            raise ParseError(
                f"{path}:{lineno}: inconsistent descriptor lengths "
                f"({len(vals)} values, earlier rows have {len(out[0])})"
            )
        out.append(np.array(vals))
        if abs(math.sqrt(out[-1].dot(out[-1])) - 1.0) > 1e-6:  # np.linalg.norm's operations
            raise ParseError(f"{path}:{lineno}: descriptor is not unit length")
    return np.array(out).reshape(len(out), len(out[0]) if out else 0)


def write_ego(path, ego: EgomotionTrack) -> None:
    _write_rows(path, "%.17g %.17g", ego.offsets.tolist())


def read_ego(path) -> EgomotionTrack:
    first, offsets = _read_array(path, 2, "egomotion file")
    try:
        return EgomotionTrack(offsets)
    except ValueError as e:
        raise ParseError(f"{path}:{first}: {e}") from e


_EVENT_KEYS = ("branch_id", "detection_index", "frame", "reason", "score", "track_id")
_EVENT_FMT = "{" + ", ".join(f'"{k}": %s' for k in _EVENT_KEYS) + "}"
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(v) -> str:
    """None, a float (np.float64 too) or an integer (a numpy one too) as ``json.dumps``
    writes it."""
    if v is None:
        return "null"
    if isinstance(v, float):
        text = float.__repr__(v)
        return _NON_FINITE.get(text, text)
    return int.__repr__(operator.index(v))


def write_events(path, events: Sequence) -> None:
    """Tracker events, one per line: one template over the six keys, filled column by
    column, ROW_BLOCK events at a time (``_event_rows``). An event with other keys is a
    ValueError, so no field is left out unseen."""
    keys = set(_EVENT_KEYS)
    for i, ev in enumerate(events):
        if ev.keys() != keys:
            raise ValueError(f"event {i} has keys {sorted(ev)}, expected {list(_EVENT_KEYS)}")
    blocks = (_event_rows(events[s]) for s in _row_blocks(len(events)))
    _write_rows(path, _EVENT_FMT, itertools.chain.from_iterable(blocks))


def _event_rows(events: Sequence) -> zip:
    """The template's values of each event, each with the text ``json.dumps(event,
    sort_keys=True)`` gives: null, integers (numpy ones too) or floats, and the reason
    as a JSON string."""
    columns = []
    for key in _EVENT_KEYS:
        values = [ev[key] for ev in events]
        if key == "reason":
            text = {r: json.dumps(r) for r in set(values)}
            columns.append([text[r] for r in values])
        else:
            columns.append([_json_value(v) for v in values])
    return zip(*columns)


def write_json_lines(path, objects: Sequence) -> None:
    """One JSON object per line, keys sorted: the ``forecast`` rows."""
    _write_rows(path, "%s", ((json.dumps(obj, sort_keys=True),) for obj in objects))
