import json
from collections import namedtuple

import numpy as np
import pytest

from bevtrack import mot_io
from bevtrack.boxes import PixelBox
from bevtrack.config import RunConfig
from bevtrack.egomotion import EgomotionTrack
from bevtrack.errors import NonPositiveBox, ParseError
from bevtrack.experiments import crossing_scenario, run_tracker, sim_detections_by_frame
from bevtrack.homography import Homography, save_homography
from bevtrack.simulator import generate
from bevtrack.tracker import Tracker
from bevtrack.mot_io import (
    DetectionTable,
    box_records,
    read_appearance,
    read_cloud,
    read_correspondences,
    read_detections,
    read_ego,
    read_gt,
    read_json,
    records_from_outputs,
    write_appearance,
    write_cloud,
    write_correspondences,
    write_detections,
    write_ego,
    write_events,
    write_gt,
    write_json,
)
from test_evaluation_reference import table_of

GtRow = namedtuple("GtRow", "frame track_id box visibility")
DetRow = namedtuple("DetRow", "frame track_id box world", defaults=[(-1.0, -1.0, -1.0)])


def rec(frame, tid, left=10.0, top=20.0, w=30.0, h=60.0, conf=0.9):
    return DetRow(frame=frame, track_id=tid, box=PixelBox(left, top, w, h, conf))


def det_table(rows) -> DetectionTable:
    """The DetectionTable of DetRows, in their order, unchecked as tracker outputs are:
    the writer's tests reach edges that overflow. The world is not a column; every
    DetRow keeps the default, which the writer writes."""
    frame, track_id, box = box_records([(r.frame, r.track_id, r.box) for r in rows])
    confidence = np.array([r.box.confidence for r in rows], dtype=float)
    return DetectionTable(frame, box, source_id=track_id, confidence=confidence, check=False)


OVERFLOW = r"left \+ width or top \+ height is not finite"


class TestDetections:
    def test_round_trip_exact(self, tmp_path):
        # values with no short decimal representation survive exactly, -1 ids too
        records = [
            rec(0, 1, left=1.0 / 3.0, top=np.pi, w=2.0 / 7.0 + 30.0, h=61.123456789012345),
            rec(1, 2, conf=1.0 / 7.0),
            rec(1, -1, left=-0.0, conf=-0.0),
        ]
        table = det_table(records)
        p = tmp_path / "det.txt"
        write_detections(p, table)
        back = read_detections(p)
        assert len(back) == 3
        assert back.frame.tolist() == [0, 1, 1] and back.source_id.tolist() == [1, -1, 2]
        order = [0, 2, 1]  # written in (frame, id) order
        for name in ("frame", "source_id", "box", "confidence"):
            want = getattr(table, name)[order]
            assert getattr(back, name).tobytes() == want.astype(getattr(back, name).dtype).tobytes()
        assert back.boxes() == tuple(records[k].box for k in order)
        assert p.read_text().count(",-1,-1,-1\n") == 3  # the world columns

    def test_world_columns_read_and_dropped(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("0,4,10,20,30,60,0.25,1.5,-2,1e300\n")
        back = read_detections(p)
        assert back.source_id.tolist() == [4] and back.confidence.tolist() == [0.25]
        assert back.box.tolist() == [[10.0, 20.0, 30.0, 60.0]]
        assert not hasattr(back, "world")
        write_detections(tmp_path / "again.txt", back)
        assert (tmp_path / "again.txt").read_text() == "0,4,10,20,30,60,0.25,-1,-1,-1\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_confidence_refused(self, tmp_path, bad):
        box = [[10.0, 20.0, 30.0, 60.0]] * 3
        with pytest.raises(ValueError, match=r"^row 1: confidence must be finite$"):
            DetectionTable([0, 0, 1], box, confidence=[0.5, bad, 1.0])
        p = tmp_path / "det.txt"
        p.write_text(f"0,1,10,20,30,60,0.5,-1,-1,-1\n0,2,10,20,30,60,{bad},-1,-1,-1\n")
        with pytest.raises(ParseError, match=r"det\.txt:2: non-finite value$"):
            read_detections(p)

    def test_confidence_reaches_boxes_and_rows(self):
        table = DetectionTable([0, 1], [[1.0, 2.0, 3.0, 4.0]] * 2, confidence=[0.25, 0.5])
        assert [b.confidence for b in table.boxes()] == [0.25, 0.5]
        assert table.rows([1]).confidence.tolist() == [0.5]
        assert table.by_frame()[1].boxes() == (PixelBox(1.0, 2.0, 3.0, 4.0, 0.5),)
        assert not table.confidence.flags.writeable
        assert DetectionTable([0], [[1.0, 2.0, 3.0, 4.0]]).boxes()[0].confidence == 1.0

    def test_rows_sorted_by_frame_then_id(self, tmp_path):
        records = [rec(1, 2), rec(0, 9), rec(0, 3)]
        p = tmp_path / "det.txt"
        write_detections(p, det_table(records))
        back = read_detections(p)
        assert list(zip(back.frame.tolist(), back.source_id.tolist())) == [(0, 3), (0, 9), (1, 2)]

    def test_ten_fields_required(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("0,1,10,20,30,60,1,-1,-1\n")
        with pytest.raises(ParseError, match="det.txt:1: expected 10"):
            read_detections(p)

    def test_parse_error_reports_line_number(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("0,1,10,20,30,60,1,-1,-1,-1\n0,2,x,20,30,60,1,-1,-1,-1\n")
        with pytest.raises(ParseError, match="det.txt:2"):
            read_detections(p)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,2,nan,20,30,60,1,-1,-1,-1", "non-finite value"),
            ("0,2,inf,20,30,60,1,-1,-1,-1", "non-finite value"),
            ("0,2,-inf,20,30,60,1,-1,-1,-1", "non-finite value"),
            # finite fields whose box edges overflow
            ("5,-1,100,1e308,10,1e308,1,-1,-1,-1", OVERFLOW),
            ("5,-1,1e308,0,1e308,1,1,-1,-1,-1", OVERFLOW),
        ],
        ids=["nan", "inf", "-inf", "bottom_overflow", "right_overflow"],
    )
    def test_non_finite_value_rejected(self, tmp_path, row, message):
        p = tmp_path / "det.txt"
        p.write_text(f"0,1,10,20,30,60,1,-1,-1,-1\n{row}\n")
        with pytest.raises(ParseError, match=f"det.txt:2: {message}"):
            read_detections(p)

    def test_non_positive_box_warned_and_dropped(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("0,1,10,20,30,60,1,-1,-1,-1\n0,2,10,20,0,60,1,-1,-1,-1\n")
        with pytest.warns(NonPositiveBox):
            back = read_detections(p)
        assert back.source_id.tolist() == [1]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("\n0,1,10,20,30,60,1,-1,-1,-1\n\n")
        assert len(read_detections(p)) == 1

    @pytest.mark.parametrize(
        "row, name",
        [("0.5,1,10,20,30,60,1,-1,-1,-1", "frame"), ("3,-1.25,10,20,30,60,1,-1,-1,-1", "id")],
    )
    def test_frame_and_id_must_be_integers(self, tmp_path, row, name):
        p = tmp_path / "det.txt"
        p.write_text(f"0,1,10,20,30,60,1,-1,-1,-1\n\n{row}\n")
        with pytest.raises(ParseError, match=rf"det\.txt:3: {name} must be an integer$"):
            read_detections(p)

    def test_integer_valued_floats_accepted(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1.0,-1.0,10,20,30,60,1,-1,-1,-1\n2e1,7,10,20,30,60,1,-1,-1,-1\n")
        back = read_detections(p)
        assert list(zip(back.frame.tolist(), back.source_id.tolist())) == [(1, -1), (20, 7)]
        assert back.frame.dtype == back.source_id.dtype == np.int64

    def test_records_from_outputs(self):
        outs = [(3, 7, PixelBox(1.0, 2.0, 3.0, 4.0, confidence=0.5))]
        table = records_from_outputs(outs)
        assert table.frame.tolist() == [3] and table.source_id.tolist() == [7]
        assert table.box.tolist() == [[1.0, 2.0, 3.0, 4.0]]
        assert table.confidence.tolist() == [0.5]
        empty = records_from_outputs([])
        assert len(empty) == 0 and empty.box.shape == (0, 4) and empty.confidence.shape == (0,)


class TestGt:
    def test_round_trip(self, tmp_path):
        records = [
            GtRow(frame=0, track_id=1, box=PixelBox(5.0, 6.0, 7.0, 8.0), visibility=0.75),
            GtRow(frame=0, track_id=2, box=PixelBox(50.0, 60.0, 7.0, 8.0), visibility=1.0),
        ]
        p = tmp_path / "gt.txt"
        write_gt(p, table_of(records))
        back = read_gt(p)
        assert back.frame.tolist() == [0, 0] and back.agent_id.tolist() == [1, 2]
        assert back.box.tolist() == [[5.0, 6.0, 7.0, 8.0], [50.0, 60.0, 7.0, 8.0]]
        assert back.visibility.tolist() == [0.75, 1.0]
        assert np.isnan(back.bev).all() and back.bev.shape == (2, 2)

    def test_box_edge_overflow_refused(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,5,6,7,8,1,1,1\n2,1,5,1e308,7,1e308,1,1,1\n")
        with pytest.raises(ParseError, match=rf"gt\.txt:2: {OVERFLOW}$"):
            read_gt(p)

    def test_nine_fields_required(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("0,1,5,6,7,8,1,1\n")
        with pytest.raises(ParseError, match="expected 9"):
            read_gt(p)

    @pytest.mark.parametrize(
        "row, name", [("1.5,1,5,6,7,8,1,1,1", "frame"), ("1,0.1,5,6,7,8,1,1,1", "id")]
    )
    def test_frame_and_id_must_be_integers(self, tmp_path, row, name):
        p = tmp_path / "gt.txt"
        p.write_text(f"1,1,5,6,7,8,1,1,1\n{row}\n")
        with pytest.raises(ParseError, match=rf"gt\.txt:2: {name} must be an integer$"):
            read_gt(p)

    @pytest.mark.parametrize("row, name", [("1e300,1,5,6,7,8,1,1,1", "frame"),
                                           ("1,-9007199254740994,5,6,7,8,1,1,1", "id")])
    def test_frame_and_id_beyond_2_53_are_refused(self, tmp_path, row, name):
        p = tmp_path / "gt.txt"
        p.write_text(f"{row}\n")
        with pytest.raises(ParseError, match=rf"gt\.txt:1: {name} must be at most 2\*\*53"):
            read_gt(p)

    def test_flag_and_class_columns_written_as_one(self, tmp_path):
        p = tmp_path / "gt.txt"
        write_gt(p, table_of([GtRow(0, 1, PixelBox(5, 6, 7, 8), visibility=0.5)]))
        parts = p.read_text().strip().split(",")
        assert parts[6] == "1" and parts[7] == "1"
        assert parts[8] == "0.5"


class TestCloudAndCorrespondences:
    def test_cloud_round_trip(self, tmp_path, rng):
        pts = rng.normal(size=(20, 3))
        p = tmp_path / "cloud.txt"
        write_cloud(p, pts)
        assert np.array_equal(read_cloud(p), pts)

    def test_cloud_shape_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_cloud(tmp_path / "c.txt", np.zeros((4, 2)))
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n")
        with pytest.raises(ParseError, match="expected 3"):
            read_cloud(p)

    def test_empty_cloud_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("\n")
        with pytest.raises(ParseError, match="empty"):
            read_cloud(p)

    def test_correspondences_round_trip(self, tmp_path, rng):
        px = rng.uniform(0, 1000, (15, 2))
        pts = rng.normal(size=(15, 3))
        p = tmp_path / "corr.txt"
        write_correspondences(p, px, pts)
        rpx, rpts = read_correspondences(p)
        assert np.array_equal(rpx, px)
        assert np.array_equal(rpts, pts)

    def test_correspondences_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_correspondences(tmp_path / "c.txt", np.zeros((3, 2)), np.zeros((4, 3)))
        p = tmp_path / "bad.txt"
        p.write_text("1 2 3 4\n")
        with pytest.raises(ParseError, match="expected 5"):
            read_correspondences(p)


class TestAppearance:
    def test_round_trip(self, tmp_path, rng):
        vecs = [rng.normal(size=8) for _ in range(5)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        p = tmp_path / "app.txt"
        write_appearance(p, vecs)
        back = read_appearance(p)
        assert back.shape == (5, 8)
        assert np.array_equal(back, vecs)

    def test_inconsistent_lengths_rejected(self, tmp_path):
        p = tmp_path / "app.txt"
        p.write_text("1 0 0\n0 1\n")
        with pytest.raises(ParseError, match="inconsistent"):
            read_appearance(p)

    def test_inconsistent_length_names_its_line(self, tmp_path):
        p = tmp_path / "app.txt"
        p.write_text("1 0\n\n0 1\n0 0 1\n")
        with pytest.raises(ParseError, match=r"app\.txt:4: inconsistent descriptor lengths"):
            read_appearance(p)

    def test_non_unit_descriptor_names_its_line(self, tmp_path):
        p = tmp_path / "app.txt"
        p.write_text("\n0 0 1\n2 0 0\n")
        with pytest.raises(ParseError, match=r"app\.txt:3: descriptor is not unit length$"):
            read_appearance(p)

    def test_empty_file_gives_no_rows(self, tmp_path):
        p = tmp_path / "app.txt"
        p.write_text("")
        assert read_appearance(p).shape == (0, 0)


class TestEgo:
    def test_round_trip(self, tmp_path):
        ego = EgomotionTrack.from_deltas(np.array([[0.1, 0.2], [0.3, -0.1]]))
        p = tmp_path / "ego.txt"
        write_ego(p, ego)
        back = read_ego(p)
        assert np.array_equal(back.offsets, ego.offsets)

    def test_two_fields_required(self, tmp_path):
        p = tmp_path / "ego.txt"
        p.write_text("0 0 0\n")
        with pytest.raises(ParseError, match="expected 2"):
            read_ego(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "ego.txt"
        p.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_ego(p)

    def test_first_offset_must_be_zero(self, tmp_path):
        p = tmp_path / "ego.txt"
        p.write_text("\n0.5 0\n1 0\n")
        with pytest.raises(ParseError, match=r"ego\.txt:2: offset at frame 0 must be \(0, 0\)"):
            read_ego(p)


class TestEvents:
    def test_one_sorted_object_per_line(self, tmp_path):
        events = [
            {"frame": 0, "track_id": 1, "detection_index": 0, "score": None, "branch_id": None, "reason": "new"},
            {"frame": 5, "track_id": 1, "detection_index": 2, "score": 3.25, "branch_id": 1, "reason": "reassociated"},
        ]
        p = tmp_path / "events.jsonl"
        write_events(p, events)
        lines = p.read_text().splitlines()
        assert [json.loads(line) for line in lines] == events
        assert lines[0].startswith('{"branch_id": null, "detection_index": 0, "frame": 0')

    def test_numpy_frames_written_as_integers(self, tmp_path):
        """A run over an np.arange of frames gives events whose frame is np.int64."""
        sim = generate(crossing_scenario())
        outputs, events, tracker = run_tracker(sim, RunConfig())
        frames = np.arange(sim.scenario.n_frames)
        rerun = Tracker(tracker.scene, tracker.config)
        np_outputs, np_events = rerun.run(sim_detections_by_frame(sim), frames)
        assert any(type(ev["frame"]) is np.int64 for ev in np_events)
        write_events(tmp_path / "np.jsonl", np_events)
        write_events(tmp_path / "int.jsonl", events)
        assert (tmp_path / "np.jsonl").read_bytes() == (tmp_path / "int.jsonl").read_bytes()
        write_detections(tmp_path / "np.txt", records_from_outputs(np_outputs))
        write_detections(tmp_path / "int.txt", records_from_outputs(outputs))
        assert (tmp_path / "np.txt").read_bytes() == (tmp_path / "int.txt").read_bytes()

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_other_keys_refused(self, tmp_path, change):
        """A key the template lacks would drop out of the file unseen; a missing one too."""
        ev = {"frame": 0, "track_id": 1, "detection_index": 0, "score": None, "branch_id": None, "reason": "new"}
        odd = {**ev, "weight": 0.5} if change == "extra" else {k: v for k, v in ev.items() if k != "score"}
        p = tmp_path / "events.jsonl"
        with pytest.raises(ValueError, match=r"^event 1 has keys \[.*\], expected \['branch_id'"):
            write_events(p, [ev, odd])
        assert not p.exists()

    def test_empty(self, tmp_path):
        write_events(tmp_path / "events.jsonl", [])
        assert (tmp_path / "events.jsonl").read_text() == ""


class TestJson:
    def test_layout(self, tmp_path):
        p = tmp_path / "x.json"
        write_json(p, {"b": [1, 2.5], "a": {"d": None, "c": "x"}})
        assert p.read_text() == (
            '{\n  "a": {\n    "c": "x",\n    "d": null\n  },\n'
            '  "b": [\n    1,\n    2.5\n  ]\n}\n'
        )
        assert read_json(p) == {"a": {"c": "x", "d": None}, "b": [1, 2.5]}

    def test_bad_json_names_the_file(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"a": 1,\n')
        with pytest.raises(ParseError, match=r"^.*x\.json: "):
            read_json(p)


# -- the writers before they shared one format string per row kind ---------------------
# Kept verbatim as the reference: every writer must produce these bytes.


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def ref_write_detections(path, records) -> None:
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


def record_write_detections(path, records) -> None:
    """The record writer the table writer replaced: a stable sort on (frame, id),
    then one ``%``-format row per record."""
    line = "%d,%d," + ",".join(["%.17g"] * 8) + "\n"
    rows = sorted(records, key=lambda r: (r.frame, r.track_id))
    with open(path, "w") as f:
        for r in rows:
            b = r.box
            f.write(line % (r.frame, r.track_id, b.left, b.top, b.width, b.height, b.confidence, *r.world))


def ref_write_gt(path, records) -> None:
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


def ref_write_cloud(path, points) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w") as f:
        for p in pts:
            f.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")


def ref_write_correspondences(path, pixels, points) -> None:
    px = np.atleast_2d(np.asarray(pixels, dtype=float))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w") as f:
        for p, q in zip(px, pts):
            f.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(q[0])} {_fmt(q[1])} {_fmt(q[2])}\n")


def ref_write_appearance(path, vectors) -> None:
    with open(path, "w") as f:
        for v in vectors:
            f.write(" ".join(_fmt(x) for x in np.asarray(v, dtype=float)) + "\n")


def ref_write_ego(path, ego) -> None:
    with open(path, "w") as f:
        for row in ego.offsets:
            f.write(f"{_fmt(row[0])} {_fmt(row[1])}\n")


def ref_write_events(path, events) -> None:
    with open(path, "w") as f:
        for ev in events:
            f.write(json.dumps(ev, sort_keys=True) + "\n")


def ref_save_homography(path, h) -> None:
    lines = ["H"]
    for row in h.m:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# Values whose text is easy to get wrong: signed zero, subnormals, the ends of the
# float range, integer-valued floats (printed without a point), and values that
# need all 17 digits.
SPECIAL = (-0.0, 0.0, 5e-324, -2.5e-320, 1e308, -1e308, 3.0, -7.0, 1e16, 2.0**53 + 2.0, 0.1, 1 / 3)
REASONS = ("active", "inactive", "terminated", "reassociated", "new", "removed_dead")
POSITIVE = (5e-324, 2.5e-320, 1e308, 3.0, 1e16, 0.1, 1 / 3)


class TestWritersMatchReference:
    """Byte equality with the reference writers on seeded random rows."""

    @staticmethod
    def value(rng, choices=SPECIAL):
        """A special value or a random one, as a Python float or an np.float64."""
        v = float(rng.choice(choices)) if rng.random() < 0.5 else float(rng.normal(0.0, 1e3))
        if choices is POSITIVE:
            v = abs(v) or 1.0
        return np.float64(v) if rng.random() < 0.5 else v

    def values(self, rng, n, choices=SPECIAL):
        return [self.value(rng, choices) for _ in range(n)]

    @staticmethod
    def frame_id(rng):
        """Integers as int, np.int64 or an integer-valued float."""
        kind = (int, np.int64, float)[int(rng.integers(3))]
        return kind(int(rng.integers(0, 500))), kind(int(rng.integers(-1, 50)))

    def box(self, rng, conf):
        left, top = self.values(rng, 2)
        w, h = self.values(rng, 2, POSITIVE)
        return PixelBox(left, top, w, h, confidence=conf)

    @staticmethod
    def assert_same(tmp_path, write, ref, *args):
        write(tmp_path / "new.txt", *args)
        ref(tmp_path / "ref.txt", *args)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_detections(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        records = []
        for _ in range(60):
            frame, tid = self.frame_id(rng)
            conf = 1.0 if rng.random() < 0.3 else self.value(rng)
            records.append(DetRow(frame, tid, self.box(rng, conf)))
        write_detections(tmp_path / "new.txt", det_table(records))
        for ref in (ref_write_detections, record_write_detections):
            ref(tmp_path / "ref.txt", records)
            assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_gt(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        records = []
        for _ in range(60):
            frame, tid = self.frame_id(rng)
            records.append(GtRow(frame, tid, self.box(rng, 1.0), self.value(rng)))
        write_gt(tmp_path / "new.txt", table_of(records))
        ref_write_gt(tmp_path / "ref.txt", records)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_cloud_and_correspondences(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        pts = np.array(self.values(rng, 90)).reshape(30, 3)
        px = np.array(self.values(rng, 60)).reshape(30, 2)
        self.assert_same(tmp_path, write_cloud, ref_write_cloud, pts)
        self.assert_same(tmp_path, write_cloud, ref_write_cloud, pts.tolist())
        self.assert_same(tmp_path, write_correspondences, ref_write_correspondences, px, pts)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [1, 16])
    def test_appearance(self, tmp_path, seed, dim):
        rng = np.random.default_rng(seed)
        vectors = [self.values(rng, dim) for _ in range(20)]
        vectors = [np.array(v) if i % 2 else v for i, v in enumerate(vectors)]
        self.assert_same(tmp_path, write_appearance, ref_write_appearance, vectors)

    @pytest.mark.parametrize("seed", range(4))
    def test_ego(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        ego = EgomotionTrack(np.vstack([[-0.0, 0.0], np.reshape(self.values(rng, 58), (29, 2))]))
        self.assert_same(tmp_path, write_ego, ref_write_ego, ego)

    def test_events(self, tmp_path):
        """Seeded events of every reason; scores are the special floats, NaN and the
        infinities, and random ones, as Python floats or np.float64."""
        rng = np.random.default_rng(0)
        events = []
        for k in range(480):  # json.dumps takes no numpy integer: those have their own test
            frame, tid = (int(v) for v in self.frame_id(rng))
            score = self.value(rng, SPECIAL + (float("nan"), float("inf"), float("-inf")))
            events.append(
                {
                    "frame": frame,
                    "track_id": tid,
                    "detection_index": None if rng.random() < 0.3 else int(rng.integers(0, 60)),
                    "score": None if rng.random() < 0.3 else score,
                    "branch_id": None if rng.random() < 0.5 else int(rng.integers(0, 3)),
                    "reason": REASONS[k % len(REASONS)],
                }
            )
        assert {type(ev["score"]) for ev in events} == {type(None), float, np.float64}
        self.assert_same(tmp_path, write_events, ref_write_events, events)

    @pytest.mark.parametrize("block", [1, 7])
    def test_rows_in_blocks(self, tmp_path, monkeypatch, block):
        """The bytes do not depend on how many rows a writer turns into text at once:
        60 table rows and 480 events end mid-block at 7."""
        monkeypatch.setattr(mot_io, "ROW_BLOCK", block)
        self.test_detections(tmp_path, 0)
        self.test_gt(tmp_path, 1)
        self.test_events(tmp_path)

    @pytest.mark.parametrize("seed", range(4))
    def test_homography(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        h = Homography(np.eye(3) + np.array(self.values(rng, 9)).reshape(3, 3) * 1e-3)
        self.assert_same(tmp_path, save_homography, ref_save_homography, h)


def per_row_write(path, fmt, frame, ids, *columns) -> None:
    """Every row formatted in full, in (frame, id) order: what folding a constant
    column into the row template must reproduce."""
    with open(path, "w") as f:
        for i in np.lexsort((ids, frame)):
            f.write(fmt % tuple(c[i].item() for c in (frame, ids, *columns)) + "\n")


DET_ROW = "%d,%d," + ",".join(["%.17g"] * 8)
GT_ROW = "%d,%d,%.17g,%.17g,%.17g,%.17g,1,1,%.17g"
NAN = float("nan")


class TestConstantColumnsFormattedOnce:
    """A column whose rows all hold the same bits is formatted once; the bytes are
    those of formatting every row, also where 0.0 and -0.0 or NaN and a number meet."""

    @staticmethod
    def column(rng, n, kind):
        if kind == "random":
            return rng.normal(0.0, 1e3, n)
        if kind == "signed_zeros":  # equal under ==, but not the same text
            return rng.choice([0.0, -0.0], n)
        if kind == "nan_and_numbers":
            return rng.choice([NAN, 1.0, -1.0], n)
        return np.full(n, kind)

    # None: a table with no confidence column, written as 1
    @pytest.mark.parametrize(
        "confidence", [1.0, "random", -0.0, NAN, 5e-324, "signed_zeros", "nan_and_numbers", None]
    )
    @pytest.mark.parametrize("with_ids", [True, False])
    @pytest.mark.parametrize("n", [0, 1, 2, 37])
    def test_detections(self, tmp_path, confidence, with_ids, n):
        rng = np.random.default_rng(n)
        frame, ids = rng.integers(0, 5, n), rng.integers(-1, 9, n) if with_ids else None
        box = rng.normal(0.0, 1e3, (n, 4))
        box[:, 2] = 3.0  # constant box columns too
        conf = None if confidence is None else self.column(rng, n, confidence)
        table = DetectionTable(frame, box, source_id=ids, confidence=conf, check=False)
        write_detections(tmp_path / "new.txt", table)
        ids = np.full(n, -1) if ids is None else ids
        conf = np.ones(n) if conf is None else conf
        per_row_write(tmp_path / "ref.txt", DET_ROW, frame, ids, *box.T, conf, *np.full((3, n), -1.0))
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("visibility", [1.0, -0.0, NAN, "signed_zeros", "nan_and_numbers"])
    def test_gt(self, tmp_path, visibility):
        rng = np.random.default_rng(5)
        frame, ids, box = rng.integers(0, 5, 40), rng.integers(0, 9, 40), rng.normal(0, 9, (40, 4))
        vis = self.column(rng, 40, visibility)
        write_gt(tmp_path / "new.txt", mot_io.GtTable(frame, ids, box, np.zeros((40, 2)), vis))
        per_row_write(tmp_path / "ref.txt", GT_ROW, frame, ids, *box.T, vis)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_mixed_columns_are_really_mixed(self):
        rng = np.random.default_rng(0)
        zeros, nans = self.column(rng, 37, "signed_zeros"), self.column(rng, 37, "nan_and_numbers")
        assert (zeros == 0.0).all() and len(set(np.signbit(zeros).tolist())) == 2
        assert np.isnan(nans).any() and not np.isnan(nans).all()
