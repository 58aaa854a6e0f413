import numpy as np
import pytest

from bevtrack.boxes import PixelBox
from bevtrack.egomotion import EgomotionTrack
from bevtrack.errors import NonPositiveBox, ParseError
from bevtrack.mot_io import (
    GtRecord,
    MotRecord,
    read_appearance,
    read_cloud,
    read_correspondences,
    read_detections,
    read_ego,
    read_events,
    read_gt,
    records_from_outputs,
    write_appearance,
    write_cloud,
    write_correspondences,
    write_detections,
    write_ego,
    write_events,
    write_gt,
)


def rec(frame, tid, left=10.0, top=20.0, w=30.0, h=60.0, conf=0.9):
    return MotRecord(frame=frame, track_id=tid, box=PixelBox(left, top, w, h, conf))


class TestDetections:
    def test_round_trip_exact(self, tmp_path):
        # values with no short decimal representation survive exactly
        records = [
            rec(0, 1, left=1.0 / 3.0, top=np.pi, w=2.0 / 7.0 + 30.0, h=61.123456789012345),
            rec(1, 2),
        ]
        p = tmp_path / "det.txt"
        write_detections(p, records)
        back = read_detections(p)
        assert len(back) == 2
        for a, b in zip(records, back):
            assert b.frame == a.frame and b.track_id == a.track_id
            assert b.box.left == a.box.left  # bit-exact via %.17g
            assert b.box.top == a.box.top
            assert b.box.width == a.box.width
            assert b.box.height == a.box.height
            assert b.box.confidence == a.box.confidence
            assert b.world == (-1.0, -1.0, -1.0)

    def test_rows_sorted_by_frame_then_id(self, tmp_path):
        records = [rec(1, 2), rec(0, 9), rec(0, 3)]
        p = tmp_path / "det.txt"
        write_detections(p, records)
        back = read_detections(p)
        assert [(r.frame, r.track_id) for r in back] == [(0, 3), (0, 9), (1, 2)]

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        p = tmp_path / "det.txt"
        p.write_text(f"0,1,10,20,30,60,1,-1,-1,-1\n0,2,{value},20,30,60,1,-1,-1,-1\n")
        with pytest.raises(ParseError, match="det.txt:2: non-finite value"):
            read_detections(p)

    def test_non_positive_box_warned_and_dropped(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("0,1,10,20,30,60,1,-1,-1,-1\n0,2,10,20,0,60,1,-1,-1,-1\n")
        with pytest.warns(NonPositiveBox):
            back = read_detections(p)
        assert [r.track_id for r in back] == [1]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("\n0,1,10,20,30,60,1,-1,-1,-1\n\n")
        assert len(read_detections(p)) == 1

    def test_records_from_outputs(self):
        outs = [(3, 7, PixelBox(1.0, 2.0, 3.0, 4.0))]
        recs = records_from_outputs(outs)
        assert recs[0].frame == 3 and recs[0].track_id == 7
        assert recs[0].box == outs[0][2]


class TestGt:
    def test_round_trip(self, tmp_path):
        records = [
            GtRecord(frame=0, track_id=1, box=PixelBox(5.0, 6.0, 7.0, 8.0), visibility=0.75),
            GtRecord(frame=0, track_id=2, box=PixelBox(50.0, 60.0, 7.0, 8.0), visibility=1.0),
        ]
        p = tmp_path / "gt.txt"
        write_gt(p, records)
        back = read_gt(p)
        assert back == records

    def test_nine_fields_required(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("0,1,5,6,7,8,1,1\n")
        with pytest.raises(ParseError, match="expected 9"):
            read_gt(p)

    def test_flag_and_class_columns_written_as_one(self, tmp_path):
        p = tmp_path / "gt.txt"
        write_gt(p, [GtRecord(frame=0, track_id=1, box=PixelBox(5, 6, 7, 8), visibility=0.5)])
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
        assert len(back) == 5
        for a, b in zip(vecs, back):
            assert np.array_equal(a, b)

    def test_inconsistent_lengths_rejected(self, tmp_path):
        p = tmp_path / "app.txt"
        p.write_text("1 2 3\n4 5\n")
        with pytest.raises(ParseError, match="inconsistent"):
            read_appearance(p)

    def test_empty_file_gives_empty_list(self, tmp_path):
        p = tmp_path / "app.txt"
        p.write_text("")
        assert read_appearance(p) == []


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


class TestEvents:
    def test_round_trip(self, tmp_path):
        events = [
            {"frame": 0, "track_id": 1, "detection_index": 0, "score": None, "branch_id": None, "reason": "new"},
            {"frame": 5, "track_id": 1, "detection_index": 2, "score": 3.25, "branch_id": 1, "reason": "reassociated"},
        ]
        p = tmp_path / "events.jsonl"
        write_events(p, events)
        assert read_events(p) == events

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "events.jsonl"
        p.write_text('{"frame": 0}\n{broken\n')
        with pytest.raises(ParseError, match="events.jsonl:2"):
            read_events(p)
