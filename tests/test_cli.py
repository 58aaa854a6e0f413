import copy
import json
import os
import subprocess
import sys
import time
from importlib import resources

import numpy as np
import pytest

from bevtrack.cli import main
from bevtrack.config import RunConfig
from bevtrack.forecast import forecast, preprocess
from bevtrack.homography import load_homography
from bevtrack.mot_io import read_detections, records_from_outputs, write_detections, write_events
from bevtrack.simulator import AgentSpec, CameraSpec, Occluder, Scenario, write_scenario
from bevtrack.tracker import DetectionTable, SceneModel, Tracker


def small_scenario():
    return Scenario(
        camera=CameraSpec(
            height=6.0, tilt_deg=30.0, focal=1000.0, image_width=1920, image_height=1080
        ),
        ground_extent=40.0,
        agents=(AgentSpec(id=1, waypoints=((-4.0, 10.0), (4.0, 10.0)), speed=2.0),),
        occluders=(Occluder(x_min=-1.0, x_max=1.0, y_min=8.0, y_max=8.3, height=3.3),),
        fps=10.0,
        duration=4.0,
        detection_noise=0.2,
        appearance_noise=0.02,
        cloud_points=400,
        seed=21,
    )


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("scn") / "small.json"
    write_scenario(p, small_scenario())
    return str(p)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory, scenario_path):
    out = str(tmp_path_factory.mktemp("sim"))
    assert main(["simulate", "--scenario", scenario_path, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def track_dir(tmp_path_factory, sim_dir):
    out = str(tmp_path_factory.mktemp("trk"))
    code = main(
        [
            "track",
            "--det", os.path.join(sim_dir, "det.txt"),
            "--appearance", os.path.join(sim_dir, "appearance.txt"),
            "--homography", os.path.join(sim_dir, "homography.txt"),
            "--fps", "10",
            "--out", out,
        ]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_writes_all_artifacts(self, sim_dir):
        for name in (
            "det.txt",
            "appearance.txt",
            "gt.txt",
            "cloud.txt",
            "correspondences.txt",
            "homography.txt",
            "scenario.json",
        ):
            assert os.path.exists(os.path.join(sim_dir, name)), name

    def test_detections_parse_and_appearance_aligns(self, sim_dir):
        dets = read_detections(os.path.join(sim_dir, "det.txt"))
        assert len(dets) > 0
        with open(os.path.join(sim_dir, "appearance.txt")) as f:
            rows = [l for l in f if l.strip()]
        assert len(rows) == len(dets)

    def test_ego_written_only_for_moving_camera(self, sim_dir, tmp_path):
        assert not os.path.exists(os.path.join(sim_dir, "ego.txt"))
        scn = small_scenario()
        from dataclasses import replace

        moving = replace(scn, camera_path=tuple([(0.05, 0.0)] * (scn.n_frames - 1)))
        p = tmp_path / "moving.json"
        write_scenario(p, moving)
        out = str(tmp_path / "simout")
        assert main(["simulate", "--scenario", str(p), "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "ego.txt"))

    def test_bundled_scenario_resolves(self, tmp_path, capsys):
        out = str(tmp_path / "crossing")
        assert main(["simulate", "--scenario", "crossing", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "frames: 280" in text

    def test_missing_scenario_is_error_code_1(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "nope.json", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCalibrate:
    def test_calibrates_from_sim_outputs(self, sim_dir, tmp_path, capsys):
        out = str(tmp_path / "homography_est.txt")
        code = main(
            [
                "calibrate",
                "--cloud", os.path.join(sim_dir, "cloud.txt"),
                "--correspondences", os.path.join(sim_dir, "correspondences.txt"),
                "--out", out,
            ]
        )
        assert code == 0
        assert os.path.exists(out)
        text = capsys.readouterr().out
        # camera 6 m above the plane: recovered offset is printed
        assert "plane offset: 6.000000" in text

    def calibrate(self, sim_dir, out, *extra):
        return main(
            [
                "calibrate",
                "--cloud", os.path.join(sim_dir, "cloud.txt"),
                "--correspondences", os.path.join(sim_dir, "correspondences.txt"),
                "--out", str(out),
                *extra,
            ]
        )

    def test_writes_the_tag_and_the_matrix_rows(self, sim_dir, tmp_path):
        out = tmp_path / "h.txt"
        assert self.calibrate(sim_dir, out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "H" and len(lines) == 4
        rows = [[float(v) for v in line.split()] for line in lines[1:]]
        assert np.array_equal(load_homography(str(out)).m, rows)


class TestTrack:
    def test_outputs_and_events(self, track_dir):
        recs = read_detections(os.path.join(track_dir, "track.txt"))
        assert len(recs) > 0
        assert set(recs.source_id.tolist()) == {1}  # the occluded walker keeps one identity
        with open(os.path.join(track_dir, "events.jsonl")) as f:
            events = [json.loads(line) for line in f]
        reasons = {e["reason"] for e in events}
        assert "new" in reasons and "reassociated" in reasons

    def test_fps_sets_time_base_without_scenario(self, sim_dir, tmp_path):
        def events(*extra):
            out = str(tmp_path / "_".join(("fps",) + extra))
            args = [
                "track",
                "--det", os.path.join(sim_dir, "det.txt"),
                "--appearance", os.path.join(sim_dir, "appearance.txt"),
                "--homography", os.path.join(sim_dir, "homography.txt"),
                "--out", out,
            ]
            assert main(args + list(extra)) == 0
            return open(os.path.join(out, "events.jsonl")).read()

        default = events()
        assert events("--fps", "20") == default
        # the patience tau_max * fps and the forecast speeds follow the frame rate
        assert events("--fps", "10") != default

    def test_no_forecast_fragments_identity(self, sim_dir, tmp_path):
        out = str(tmp_path / "nofc")
        code = main(
            [
                "track",
                "--det", os.path.join(sim_dir, "det.txt"),
                "--homography", os.path.join(sim_dir, "homography.txt"),
                "--out", out,
                "--no-forecast",
            ]
        )
        assert code == 0
        ids = set(read_detections(os.path.join(out, "track.txt")).source_id.tolist())
        assert len(ids) >= 2

    def test_idle_gap_is_skipped_not_stepped(self, sim_dir, tmp_path):
        """Detections at frames 0-2 and 10**9: the run jumps the idle gap, and
        writes what stepping every frame writes with the far frame at 20,000."""
        far = 10**9
        rows = open(os.path.join(sim_dir, "det.txt")).read().splitlines()
        near = [r for r in rows if int(r.split(",")[0]) <= 2]
        last = [r.split(",", 1)[1] for r in rows if int(r.split(",")[0]) == 3]
        det = tmp_path / "det.txt"
        det.write_text("\n".join(near + [f"{far},{r}" for r in last]) + "\n")
        out = tmp_path / "out"
        homography = os.path.join(sim_dir, "homography.txt")
        t0 = time.perf_counter()
        args = ["track", "--det", str(det), "--homography", homography, "--out", str(out)]
        assert main(args) == 0
        assert time.perf_counter() - t0 < 30.0  # stepping every frame would take hours

        cfg = RunConfig()
        tracker = Tracker(SceneModel(load_homography(homography), 20.0), cfg)
        dets = read_detections(det)
        by_frame = DetectionTable(np.where(dets.frame == far, 20000, dets.frame), dets.box).by_frame()
        outputs, events = [], []
        for f in range(20001):
            o, e = tracker.step(by_frame.get(f, []), f)
            outputs += [(far if fr == 20000 else fr, i, b) for fr, i, b in o]
            events += [{**ev, "frame": far if ev["frame"] == 20000 else ev["frame"]} for ev in e]
        assert any(ev["reason"].startswith("removed_") for ev in events)  # then idle
        write_detections(tmp_path / "track.txt", records_from_outputs(outputs))
        write_events(tmp_path / "events.jsonl", events)
        for name in ("track.txt", "events.jsonl"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_file_confidences_reach_track_txt(self, sim_dir, tmp_path):
        # Each output row is a detection's box and carries that detection's score from
        # the file; the world columns are read and dropped.
        rows = open(os.path.join(sim_dir, "det.txt")).read().splitlines()
        scored = [",".join([*r.split(",")[:6], repr((k % 9 + 1) / 10), "2.5", "-3", "0"])
                  for k, r in enumerate(rows)]
        det, out = tmp_path / "det.txt", tmp_path / "out"
        det.write_text("\n".join(scored) + "\n")
        homography = os.path.join(sim_dir, "homography.txt")
        args = ["track", "--det", str(det), "--homography", homography, "--out", str(out)]
        assert main(args + ["--fps", "10"]) == 0
        dets, track = read_detections(det), read_detections(out / "track.txt")
        score = {(f, *b): c for f, b, c in
                 zip(dets.frame.tolist(), dets.box.tolist(), dets.confidence.tolist())}
        want = [score[(f, *b)] for f, b in zip(track.frame.tolist(), track.box.tolist())]
        assert track.confidence.tolist() == want and len(set(want)) > 1

    def test_ingest_mode_heals_upstream_ids(self, sim_dir, tmp_path):
        # fabricate upstream ids that change across the occlusion gap
        recs = read_detections(os.path.join(sim_dir, "det.txt"))
        frames = sorted(set(recs.frame.tolist()))
        split = frames[len(frames) // 2]
        lines = []
        for frame, (left, top, width, height) in zip(recs.frame.tolist(), recs.box.tolist()):
            upstream = 50 if frame < split else 60
            lines.append(f"{frame},{upstream},{left},{top},{width},{height},1,-1,-1,-1")
        det_path = tmp_path / "upstream.txt"
        det_path.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "ingest")
        code = main(
            [
                "track",
                "--det", str(det_path),
                "--homography", os.path.join(sim_dir, "homography.txt"),
                "--fps", "10",
                "--out", out,
                "--ingest",
            ]
        )
        assert code == 0
        ids = set(read_detections(os.path.join(out, "track.txt")).source_id.tolist())
        assert ids == {1}


    def test_ingest_refuses_two_rows_of_one_upstream_id(self, sim_dir, tmp_path, capsys):
        # An inactive track keeps its upstream id, so an id must name one box a
        # frame. Rows with id -1 carry no id and may repeat.
        rows = open(os.path.join(sim_dir, "det.txt")).read().splitlines()  # ids are -1
        frame, rest = rows[3].split(",-1,", 1)
        args = ["track", "--homography", os.path.join(sim_dir, "homography.txt"), "--ingest"]
        cases = [("anonymous", rows[3:4], 0), ("upstream", [f"{frame},5,{rest}"] * 2, 1)]
        for name, extra, code in cases:
            det = tmp_path / f"{name}.txt"
            det.write_text("\n".join(rows + extra) + "\n")
            capsys.readouterr()
            assert main(args + ["--det", str(det), "--out", str(tmp_path / name)]) == code
        err = capsys.readouterr().err
        assert err == f"error: {det}: frame {frame}: id 5 has two rows in one frame\n"
        assert not (tmp_path / "upstream").exists()


class TestEvaluate:
    def test_report_written(self, sim_dir, track_dir, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        csv_out = str(tmp_path / "report.csv")
        code = main(
            [
                "evaluate",
                "--gt", os.path.join(sim_dir, "gt.txt"),
                "--hyp", os.path.join(track_dir, "track.txt"),
                "--out", out,
                "--csv", csv_out,
                "--fps", "10",
            ]
        )
        assert code == 0
        d = json.loads(open(out).read())
        assert d["idsw"] == 0
        recovered = sum(b["recovered"] for b in d["id_recall"])
        total = sum(b["total"] for b in d["id_recall"])
        assert total == 1 and recovered == 1  # the wall-pass event, healed
        assert os.path.exists(csv_out)
        assert "recall" in capsys.readouterr().out

    def test_a_pair_whose_union_rounds_to_0_is_no_match(self, tmp_path, capsys):
        # Areas 2 + 2 less an overlap that rounds to 4: the union is 0, so the IoU is 0,
        # not inf, and the boxes stay unmatched where the assignment once raised.
        box = "9007199254740992,9007199254740992,1.25,1.6"
        (tmp_path / "gt.txt").write_text(f"0,1,{box},1,1,1\n")
        (tmp_path / "hyp.txt").write_text(f"0,1,{box},1,-1,-1,-1\n")
        out = tmp_path / "report.json"
        args = ["evaluate", "--gt", str(tmp_path / "gt.txt"), "--hyp", str(tmp_path / "hyp.txt")]
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert (report["n_gt"], report["n_hyp"], report["n_matched"]) == (1, 1, 0)

    def test_custom_buckets(self, sim_dir, track_dir, tmp_path):
        out = str(tmp_path / "report.json")
        code = main(
            [
                "evaluate",
                "--gt", os.path.join(sim_dir, "gt.txt"),
                "--hyp", os.path.join(track_dir, "track.txt"),
                "--out", out,
                "--fps", "10",
                "--buckets", "0,2,inf",
            ]
        )
        assert code == 0
        d = json.loads(open(out).read())
        assert len(d["id_recall"]) == 2
        assert d["id_recall"][1]["hi"] == float("inf")

    def test_decreasing_buckets_is_code_1(self, sim_dir, track_dir, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--gt", os.path.join(sim_dir, "gt.txt"),
                "--hyp", os.path.join(track_dir, "track.txt"),
                "--out", str(tmp_path / "report.json"),
                "--buckets", "2,1",
            ]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: config: buckets must be strictly increasing with at least two edges"]

    def test_empty_buckets_is_code_1(self, sim_dir, track_dir, tmp_path, capsys):
        # an empty list is a bucket list, not an absent one: no fallback to the defaults
        out = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--gt", os.path.join(sim_dir, "gt.txt"),
                "--hyp", os.path.join(track_dir, "track.txt"),
                "--out", str(out),
                "--buckets", "",
            ]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invalid bucket list ''"), lines
        assert not out.exists()


def listed_points(state, fps, columns):
    """(k, n, 2) points of every branch at every frame after the state's last, as
    forecasts.jsonl once listed them: per frame, floats of the branch formula on one
    state's forecast columns."""
    (origin,), (velocity,), (end,) = columns
    frames = list(range(state[2] + 1, int(end) + 1))
    branch_pts = np.stack([origin + ((fr - state[2]) / fps) * velocity for fr in frames], axis=1)
    return np.array([[[float(a), float(b)] for a, b in pts] for pts in branch_pts])


class TestForecastCommand:
    @pytest.mark.parametrize("motion, k", [("static", 1), ("kalman_cv", 1), ("fan", 3)])
    def test_row_rebuilds_listed_points(self, sim_dir, track_dir, tmp_path, motion, k):
        track = os.path.join(track_dir, "track.txt")
        homography = os.path.join(sim_dir, "homography.txt")
        out = str(tmp_path / "forecasts.jsonl")
        code = main(
            [
                "forecast",
                "--det", track,
                "--homography", homography,
                "--fps", "10",
                "--motion", motion,
                "--horizon", "2.0",
                "--out", out,
            ]
        )
        assert code == 0
        rows = [json.loads(l) for l in open(out) if l.strip()]
        assert len(rows) == 1
        row = rows[0]
        assert sorted(row) == ["created_frame", "end_frame", "fps", "id", "origin", "velocities"]
        assert len(row["velocities"]) == k

        recs = read_detections(track)
        cfg = RunConfig(motion=motion)
        feet = [(left + w / 2.0, top + h) for left, top, w, h in recs.box.tolist()]
        points = load_homography(homography).px_to_bev(np.array(feet))
        state = preprocess(recs.frame, points, cfg, 10.0)
        expected = listed_points(state, 10.0, forecast([state], cfg, 10.0, 2.0))

        frames = np.arange(row["created_frame"] + 1, row["end_frame"] + 1)
        steps = (frames[:, None] - row["created_frame"]) / row["fps"]
        rebuilt = [np.array(row["origin"]) + steps * v for v in np.array(row["velocities"])]
        assert np.array_equal(np.array(rebuilt), expected)

    def test_long_finite_horizon_writes_a_small_file(self, sim_dir, track_dir, tmp_path):
        out = tmp_path / "fc.jsonl"
        code = main(
            [
                "forecast",
                "--det", os.path.join(track_dir, "track.txt"),
                "--homography", os.path.join(sim_dir, "homography.txt"),
                "--horizon", "1e9",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.stat().st_size < 1000
        row = json.loads(out.read_text())
        assert row["end_frame"] - row["created_frame"] == 2_500_000_000 * 8

    def test_requires_identities(self, sim_dir, tmp_path, capsys):
        out = str(tmp_path / "fc.jsonl")
        code = main(
            [
                "forecast",
                "--det", os.path.join(sim_dir, "det.txt"),  # ids are -1
                "--homography", os.path.join(sim_dir, "homography.txt"),
                "--out", out,
            ]
        )
        assert code == 1
        assert "identities" in capsys.readouterr().err

    def test_duplicate_frame_of_one_id_is_code_1(self, sim_dir, track_dir, tmp_path, capsys):
        rows = open(os.path.join(track_dir, "track.txt")).read().splitlines()
        det = tmp_path / "dup.txt"
        det.write_text("\n".join(rows + rows[:1]) + "\n")
        code = main(
            [
                "forecast",
                "--det", str(det),
                "--homography", os.path.join(sim_dir, "homography.txt"),
                "--out", str(tmp_path / "fc.jsonl"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "has two rows in one frame" in err

    def forecast_args(self, sim_dir, track_dir, tmp_path, horizon):
        return [
            "forecast",
            "--det", os.path.join(track_dir, "track.txt"),
            "--homography", os.path.join(sim_dir, "homography.txt"),
            "--horizon", horizon,
            "--out", str(tmp_path / "fc.jsonl"),
        ]

    @pytest.mark.parametrize("horizon", ["nan", "inf", "-1", "0", "soon"])
    def test_bad_horizon_is_usage_error(self, sim_dir, track_dir, tmp_path, horizon):
        with pytest.raises(SystemExit) as e:
            main(self.forecast_args(sim_dir, track_dir, tmp_path, horizon))
        assert e.value.code == 2

    def test_overflowing_horizon_is_code_1(self, sim_dir, track_dir, tmp_path, capsys):
        code = main(self.forecast_args(sim_dir, track_dir, tmp_path, "1e308"))
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith("error: --horizon: horizon 1e+308 s overflows the step count"), err

    def test_horizon_past_64_bit_end_frames_is_code_1(self, sim_dir, track_dir, tmp_path, capsys):
        # 1e300 s is a finite step count, but its end frame no frame column could hold
        code = main(self.forecast_args(sim_dir, track_dir, tmp_path, "1e300"))
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err == ("error: --horizon: dt 0.4 s at 20 fps puts a forecast's end frame "
                       "beyond 64-bit integers\n"), err
        assert not (tmp_path / "fc.jsonl").exists()

    def test_span_past_64_bit_end_frames_without_horizon_names_the_config(
        self, sim_dir, track_dir, tmp_path, capsys
    ):
        # dt 1e10 s at 1e308 fps: an infinite grid step, so the filter reads the last
        # frame alone, and the default horizon's end frame lies beyond 64-bit integers
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 1e10}))
        args = self.forecast_args(sim_dir, track_dir, tmp_path, "1")[:-4]
        code = main([*args, "--out", str(tmp_path / "fc.jsonl"), "--fps", "1e308",
                     "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == ("error: config: dt 1e+10 s at 1e+308 fps puts a "
                                           "forecast's end frame beyond 64-bit integers\n")
        assert not (tmp_path / "fc.jsonl").exists()


class TestPipeline:
    def test_end_to_end_and_deterministic(self, scenario_path, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["pipeline", "--scenario", scenario_path, "--out", a]) == 0
        assert main(["pipeline", "--scenario", scenario_path, "--out", b]) == 0
        for name in ("det.txt", "track.txt", "report.json", "events.jsonl"):
            wa = open(os.path.join(a, name), "rb").read()
            wb = open(os.path.join(b, name), "rb").read()
            assert wa == wb, f"{name} differs between identical runs"
        d = json.loads(open(os.path.join(a, "report.json")).read())
        assert d["idsw"] == 0

    def test_estimated_homography_variant(self, scenario_path, tmp_path):
        out = str(tmp_path / "est")
        code = main(
            ["pipeline", "--scenario", scenario_path, "--out", out, "--estimate-homography"]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "homography_estimated.txt"))
        d = json.loads(open(os.path.join(out, "report.json")).read())
        assert d["idsw"] == 0

    def test_evaluate_defaults_reproduce_pipeline_report(self, tmp_path):
        out = str(tmp_path / "crossing")
        assert main(["pipeline", "--scenario", "crossing", "--out", out]) == 0
        scored = ["evaluate", "--gt", os.path.join(out, "gt.txt"),
                  "--hyp", os.path.join(out, "track.txt")]
        report = tmp_path / "report.json"
        assert main(scored + ["--out", str(report)]) == 0
        assert report.read_bytes() == open(os.path.join(out, "report.json"), "rb").read()
        # a lower cutoff hides fewer frames: both wall passes end on a frame with no detection
        low = tmp_path / "low.json"
        assert main(scored + ["--vis-threshold", "0.1", "--out", str(low)]) == 0
        buckets = json.loads(low.read_text())["id_recall"]
        assert [(b["recovered"], b["total"]) for b in buckets if b["total"]] == [(0, 2)]

    @pytest.mark.parametrize("pan", [None, (0.0, 0.02)])
    def test_pipeline_equals_simulate_then_track(self, tmp_path, pan):
        # pipeline tracks a moving camera with the scenario's own camera path;
        # track takes the same offsets from the ego.txt that simulate writes,
        # and needs no scenario: both track with the map, frame rate and ego alone.
        scenario = "crossing"
        if pan is not None:
            d = crossing_dict()
            n_frames = round(d["duration"] * d["fps"])
            d["camera_path"] = [list(pan)] * (n_frames - 1)
            scenario = str(tmp_path / "panned.json")
            with open(scenario, "w") as f:
                json.dump(d, f)
        piped, sim, trk = (str(tmp_path / name) for name in ("pipe", "sim", "trk"))
        assert main(["pipeline", "--scenario", scenario, "--out", piped]) == 0
        assert main(["simulate", "--scenario", scenario, "--out", sim]) == 0
        ego = os.path.join(sim, "ego.txt")
        assert os.path.exists(ego) == (pan is not None)
        files = {"det": "det.txt", "appearance": "appearance.txt", "homography": "homography.txt"}
        if pan is not None:
            files["ego"] = "ego.txt"
        args = [a for k, name in files.items() for a in ("--" + k, os.path.join(sim, name))]
        assert main(["track", *args, "--out", trk]) == 0
        for name in ("track.txt", "events.jsonl"):
            got = open(os.path.join(trk, name), "rb").read()
            assert got == open(os.path.join(piped, name), "rb").read(), name


class TestInputErrors:
    def track_args(self, sim_dir, tmp_path, det, appearance=None):
        args = [
            "track",
            "--det", str(det),
            "--homography", os.path.join(sim_dir, "homography.txt"),
            "--out", str(tmp_path / "o"),
        ]
        if appearance is not None:
            args += ["--appearance", str(appearance)]
        return args

    def test_non_finite_detection_is_code_1(self, sim_dir, tmp_path, capsys):
        lines = open(os.path.join(sim_dir, "det.txt")).read().splitlines()
        fields = lines[3].split(",")
        fields[2] = "nan"
        lines[3] = ",".join(fields)
        det = tmp_path / "det.txt"
        det.write_text("\n".join(lines) + "\n")
        code = main(self.track_args(sim_dir, tmp_path, det))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {det}:4: non-finite value")
        assert "Traceback" not in err

    def test_non_unit_appearance_is_code_1(self, sim_dir, tmp_path, capsys):
        rows = open(os.path.join(sim_dir, "appearance.txt")).read().splitlines()
        rows[2] = " ".join(str(2.0 * float(x)) for x in rows[2].split())
        app = tmp_path / "appearance.txt"
        app.write_text("\n".join(rows) + "\n")
        det = os.path.join(sim_dir, "det.txt")
        code = main(self.track_args(sim_dir, tmp_path, det, appearance=app))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {app}:3: descriptor is not unit length")
        assert "Traceback" not in err

    def evaluate(self, gt, hyp, tmp_path):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--gt", str(gt), "--hyp", str(hyp), "--out", str(out)])
        assert not out.exists()
        return code

    def test_evaluate_hypotheses_without_identities_is_code_1(self, sim_dir, tmp_path, capsys):
        # det.txt has id -1 on every row: scored, it read as one identity
        gt, det = (os.path.join(sim_dir, name) for name in ("gt.txt", "det.txt"))
        assert self.evaluate(gt, det, tmp_path) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        first = read_detections(det).frame[0]
        assert err.startswith(f"error: {det}: frame {first} has id -1: needs identities"), err

    @pytest.mark.parametrize("side", ["gt", "hyp"])
    def test_evaluate_two_rows_of_one_frame_and_id_is_code_1(
        self, sim_dir, track_dir, tmp_path, capsys, side
    ):
        files = {"gt": os.path.join(sim_dir, "gt.txt"), "hyp": os.path.join(track_dir, "track.txt")}
        rows = open(files[side]).read().splitlines()
        frame, tid = rows[5].split(",")[:2]
        files[side] = tmp_path / f"{side}.txt"
        files[side].write_text("\n".join(rows + rows[5:6]) + "\n")
        assert self.evaluate(files["gt"], files["hyp"], tmp_path) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err == f"error: {files[side]}: frame {frame}: id {tid} has two rows in one frame\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["agents"][0].update(speed="fast"), "scenario.agents[0].speed"),
            (lambda d: d.update(fps="fast"), "scenario.fps"),
            (lambda d: d["agents"][0]["waypoints"].__setitem__(0, [1.0]),
             "scenario.agents[0].waypoints"),
            (lambda d: d.update(agents=5), "scenario.agents"),
            (lambda d: d.update(cloud_points=0), "scenario.cloud_points"),
            (lambda d: d["agents"][1].update(height=0), "scenario.agents[1].height"),
            (lambda d: d["agents"][0].update(width=-1), "scenario.agents[0].width"),
            (lambda d: d["agents"][0].update(speed=float("nan")), "scenario.agents[0].speed"),
            (lambda d: d["camera"].update(focal=-100), "scenario.camera.focal"),
            (lambda d: d.update(duration=1e308), "scenario.duration * fps"),
            (lambda d: d.update(ground_extent=0.25), "scenario.ground_extent must be at least"),
            (lambda d: d["agents"][1]["waypoints"][0].__setitem__(1, 1e308),
             "scenario.agents[1] has no image box"),
            # a head so high that the box's height overflows to inf
            (lambda d: d["agents"][0].update(height=1e308), "scenario.agents[0] has no image box"),
        ],
    )
    def test_bad_scenario_field_is_code_1(self, tmp_path, capsys, edit, message):
        ref = resources.files("bevtrack").joinpath("data", "crossing.json")
        d = json.loads(ref.read_text())
        edit(d)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(d))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith(f"error: {message} ")
        assert not out.exists()

    @pytest.mark.parametrize("agent, waypoint", [(0, 0), (1, 0)])
    def test_far_waypoint_prints_only_the_error_line(self, tmp_path, agent, waypoint):
        # Run in a fresh process: stderr holds exactly what a user sees,
        # numpy warnings included, with no warning capture in between.
        d = crossing_dict()
        d["agents"][agent]["waypoints"][waypoint][1] = 1e308
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(d))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "bevtrack.cli", "simulate", "--scenario", str(scenario),
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            f"error: scenario.agents[{agent}] has no image box (zero, NaN or infinite size) at "
            "frame 0"
        ]

    def test_camera_seeing_too_little_ground_is_code_1(self, tmp_path, capsys):
        # tilted up until about 1 in 220 ground draws lands in the image: fewer
        # than 1500 of the 200 * 1500 draws the cloud sampler may make
        d = crossing_dict()
        d["camera"]["tilt_deg"] = -19.8
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(d))
        code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith("error: scenario: camera sees too little ground")

    @pytest.mark.parametrize("seed", range(40))
    def test_fuzzed_scenario_gives_output_or_one_error(self, tmp_path, capsys, seed):
        rng = np.random.default_rng(seed)
        d = crossing_dict()
        for _ in range(int(rng.integers(1, 3))):
            mutate_json(d, rng)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(d))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            assert os.path.exists(out / "det.txt") and os.path.exists(out / "gt.txt")
        else:
            assert code == 1
            assert_one_error_line(err)
            assert err.startswith("error: scenario"), err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("cell_size", 0, "unknown field 'cell_size'"),
            ("cell_size", -0.5, "unknown field 'cell_size'"),
            ("max_spacing", 0.2, "unknown field 'max_spacing'"),
            ("dt", 0, "dt must be positive"),
            ("obs_len", 0, "obs_len must be at least 1"),
            ("k", 0, "k must be at least 1"),
            ("motion", "transformer", "motion must be one of"),
            ("dt", "x", "dt must be a number"),
            ("tau_l2", "2", "tau_l2 must be a number"),
            ("fan_angles", ["a"], "fan_angles must be a list of numbers"),
            ("fan_angles", 3, "fan_angles must be a list of numbers"),
            ("obs_len", 2.5, "obs_len must be an integer"),
            ("window", 0, "window must be at least 1"),
            ("buckets", [2, 1], "buckets must be strictly increasing"),
            ("forecast_enabled", "no", "forecast_enabled must be true or false"),
            ("seed", 5, "unknown field 'seed'"),
            ("horizons", [0.5, 3.0], "unknown field 'horizons'"),
            ("tau_max", 1e308, "tau_max is too long for dt"),
            ("dt", 1e-300, "dt is too small for obs_noise"),
        ],
    )
    def test_bad_config_value_is_code_1(
        self, scenario_path, tmp_path, capsys, field, value, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        code = main(
            [
                "pipeline",
                "--scenario", scenario_path,
                "--config", str(cfg),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: config: {message}")


def test_track_rejects_overflowing_tau_max(sim_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_max": 1e308}))
    code = main(
        [
            "track",
            "--det", os.path.join(sim_dir, "det.txt"),
            "--homography", os.path.join(sim_dir, "homography.txt"),
            "--config", str(cfg),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: config: tau_max is too long for dt: tau_max / dt overflows"]


def test_pipeline_rejects_a_dt_whose_forecast_overflows(tmp_path, capsys):
    # 1e20 s at the crossing's 20 fps: a forecast's end lies beyond 64-bit frames.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dt": 1e20}))
    code = main(["pipeline", "--scenario", "crossing", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith("error: config: dt 1e+20 s at 20 fps puts a forecast's end frame"), err


def crossing_dict() -> dict:
    return json.loads(resources.files("bevtrack").joinpath("data", "crossing.json").read_text())


# Values a fuzzed field may take: wrong types, out-of-range and non-finite
# numbers. Sizes stay small: a large frame count, cloud or descriptor is a
# valid input whose cost grows with it.
FUZZ_VALUES = (
    None, True, "x", [], {}, [1.0], [[1.0, 2.0]],
    -1, 0, 0.25, 3, 2.5, 1e308, -1e308, float("nan"), float("inf"),
)


def mutate_json(d, rng) -> None:
    """Delete a field or list entry of d, add an unknown field, flip or scale
    a float, or set a field or entry to one of FUZZ_VALUES."""
    def paths(node, path=()):
        yield path
        children = enumerate(node) if isinstance(node, list) else ()
        for k, v in node.items() if isinstance(node, dict) else children:
            yield from paths(v, path + (k,))

    every = list(paths(d))[1:]
    path = every[int(rng.integers(len(every)))]
    parent = d
    for k in path[:-1]:
        parent = parent[k]
    op = rng.random()
    if op < 0.15:
        del parent[path[-1]]
    elif op < 0.2 and isinstance(parent, dict):
        parent["colour"] = 1
    elif op < 0.5 and isinstance(parent[path[-1]], float):
        parent[path[-1]] *= float(rng.choice([-1.0, 0.5, 1.5]))
    else:
        parent[path[-1]] = copy.deepcopy(FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))])


def assert_one_error_line(err: str) -> None:
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1, err


class TestArgumentErrors:
    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    @pytest.mark.parametrize("fps", ["0", "-10", "nan", "inf", "fast"])
    def test_non_positive_fps_exits_2(self, sim_dir, tmp_path, fps):
        with pytest.raises(SystemExit) as e:
            main(
                [
                    "track",
                    "--det", os.path.join(sim_dir, "det.txt"),
                    "--homography", os.path.join(sim_dir, "homography.txt"),
                    "--out", str(tmp_path / "o"),
                    "--fps", fps,
                ]
            )
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "flag", [("--seed", "-1"), ("--seed", "x"), ("--max-spacing", "0.2"),
                 ("--image", "1920", "1080")],
    )
    def test_calibrate_bad_seed_or_removed_flag_exits_2(self, sim_dir, tmp_path, capsys, flag):
        out = tmp_path / "h.txt"
        with pytest.raises(SystemExit) as e:
            main(
                [
                    "calibrate",
                    "--cloud", os.path.join(sim_dir, "cloud.txt"),
                    "--correspondences", os.path.join(sim_dir, "correspondences.txt"),
                    "--out", str(out),
                    *flag,
                ]
            )
        assert e.value.code == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "-0.1", "1.5", "inf", "low"])
    def test_vis_threshold_outside_unit_interval_exits_2(
        self, sim_dir, track_dir, tmp_path, capsys, threshold
    ):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as e:
            main(
                [
                    "evaluate",
                    "--gt", os.path.join(sim_dir, "gt.txt"),
                    "--hyp", os.path.join(track_dir, "track.txt"),
                    "--out", str(out),
                    "--vis-threshold", threshold,
                ]
            )
        assert e.value.code == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, value", [(1, "G"), (2, "1 0"), (3, "0 abc 0"), (4, "0 0 nan")],
    )
    def test_bad_homography_file_is_code_1(self, sim_dir, tmp_path, capsys, line, value):
        with open(os.path.join(sim_dir, "homography.txt")) as f:
            lines = f.read().splitlines()
        lines[line - 1] = value
        bad = tmp_path / "homography.txt"
        bad.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "track",
                "--det", os.path.join(sim_dir, "det.txt"),
                "--homography", str(bad),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"homography.txt:{line}:" in err

    @pytest.mark.parametrize(
        "command, required",
        [("track", ["--det", "d", "--homography", "h"]),
         ("evaluate", ["--gt", "g", "--hyp", "h"]),
         ("forecast", ["--det", "d", "--homography", "h"])],
    )
    def test_seed_only_on_commands_it_acts_on(self, command, required, capsys):
        with pytest.raises(SystemExit) as e:
            main([command, *required, "--out", "o", "--seed", "3"])
        assert e.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, required",
        [("simulate", ["--scenario", "crossing"]),
         ("calibrate", ["--cloud", "c", "--correspondences", "p"])],
    )
    def test_config_only_on_commands_it_acts_on(self, command, required, capsys):
        # no setting applies to simulate or calibrate
        with pytest.raises(SystemExit) as e:
            main([command, *required, "--out", "o", "--config", "c.json"])
        assert e.value.code == 2
        assert "unrecognized arguments: --config c.json" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--scenario", "x", "--out", "y", "--bogus"])
        assert e.value.code == 2

    def test_missing_input_file_is_code_1(self, tmp_path, capsys):
        code = main(
            [
                "track",
                "--det", str(tmp_path / "absent.txt"),
                "--homography", str(tmp_path / "none.txt"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_start_up_imports_no_scipy(tmp_path):
    # scipy.optimize is most of the import time; only an assignment (tracker.assign,
    # evaluation.match_frames) imports it, so simulate, calibrate and forecast never do
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys, bevtrack.cli\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        "assert bevtrack.cli.main(['simulate', '--scenario', 'crossing', '--out', 'o']) == 0\n"
        "rows = [f'{f},1,{900 + 4 * f},400,50,120,1,-1,-1,-1' for f in range(12)]\n"
        "open('track.txt', 'w').write('\\n'.join(rows) + '\\n')\n"
        "assert bevtrack.cli.main(['forecast', '--det', 'track.txt', '--homography',\n"
        "                          'o/homography.txt', '--out', 'f.jsonl']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
        "from bevtrack.tracker import assign\n"
        "assert assign([[1.0]]) == [(0, 0)] and 'scipy.optimize' in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
    )
    assert done.returncode == 0, done.stderr


def test_work_follows_the_history_not_obs_len(tmp_path):
    # On crossing, an obs_len of 10**8 grids each history as one of 1000 does: track and
    # forecast write the same bytes. In a subprocess, so work sized by obs_len fails
    # the timeout instead of holding up the suite.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert main(["simulate", "--scenario", "crossing", "--out", str(tmp_path / "sim")]) == 0
    for obs_len in (1000, 10**8):
        (tmp_path / f"{obs_len}.json").write_text(json.dumps({"obs_len": obs_len}))
    code = (
        "import sys\n"
        "from bevtrack.cli import main\n"
        "obs_len = sys.argv[1]\n"
        "common = ['--homography', 'sim/homography.txt', '--config', f'{obs_len}.json']\n"
        "assert main(['track', '--det', 'sim/det.txt', '--out', obs_len, *common]) == 0\n"
        "assert main(['forecast', '--det', f'{obs_len}/track.txt', *common,\n"
        "             '--out', f'{obs_len}/forecasts.jsonl']) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for obs_len in (1000, 10**8):
        done = subprocess.run([sys.executable, "-c", code, str(obs_len)], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
    for name in ("track.txt", "events.jsonl", "forecasts.jsonl"):
        want = (tmp_path / "1000" / name).read_bytes()
        assert (tmp_path / str(10**8) / name).read_bytes() == want, name
