import json
import math
import random
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from bevtrack import simulator
from bevtrack.cli import main
from bevtrack.config import (
    DEFAULT_BUCKETS,
    VISIBILITY_CUTOFF,
    RunConfig,
    config_from_dict,
    read_config,
    write_config,
)
from bevtrack.errors import ParseError
from bevtrack.forecast import forecast
from bevtrack.tracker import Tracker

from test_tracker import cost_matrix, det_at, inactive_track, make_scene, table, walker_dets


class TestDefaults:
    def test_reference_operating_point(self):
        cfg = RunConfig()
        assert cfg.motion == "kalman_cv" and cfg.k == 1
        assert cfg.obs_len == 8 and cfg.dt == 0.4
        assert cfg.tau_l2 == 2.5 and cfg.tau_app == 0.8 and cfg.tau_iou == 0.2
        assert cfg.tau_max == 6.0 and cfg.base_iou == 0.5
        assert cfg.max_spacing == 0.2
        assert cfg.buckets == DEFAULT_BUCKETS
        assert cfg.forecast_enabled and not cfg.ingest_ids

    def test_one_visibility_cutoff(self):
        # evaluation counts as occluded exactly the frames the simulator emits no detection for
        assert RunConfig().vis_threshold == VISIBILITY_CUTOFF == 0.25
        assert simulator.VISIBILITY_CUTOFF is VISIBILITY_CUTOFF

    def test_thresholds_view(self):
        # the matching gates are read straight off RunConfig
        th = RunConfig()
        assert th.tau_l2 == 2.5 and th.tau_iou == 0.2 and th.tau_app == 0.8
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = table(det_at(1, 52, 100))
        for tau_l2 in (2.5, 4.0):
            cfg = RunConfig(tau_l2=tau_l2)
            scores, _ = cost_matrix([tr], det, [(52.0, 100.0)], cfg, make_scene(), 1)
            # identical boxes: IoU 1 plus the full distance bonus tau_l2
            assert scores[0, 0] == pytest.approx(1.0 + tau_l2, abs=1e-12)

    def test_tracker_config_view(self):
        cfg = RunConfig(motion="static", dt=0.5, obs_len=6)
        assert cfg.tracker_config() is cfg

    def test_tracker_reads_run_config(self):
        assert Tracker(make_scene()).config == RunConfig()
        cfg = RunConfig(motion="static", dt=0.5, obs_len=6, tau_max=3.0)
        tk = Tracker(make_scene(fps=10.0), cfg)
        assert tk.config is cfg
        for f in range(3):
            tk.step(walker_dets(f), f)
        tk.step([], 3)
        t = tk.tracks
        # static: one zero-velocity branch; ceil(3.0 / 0.5) = 6 steps of 5 frames
        assert t.active.tolist() == [False] and t.velocity.tolist() == [[[0.0, 0.0]]]
        assert t.end.tolist() == [2 + 6 * 5]


class TestMotionRules:
    """How motion, k and fan_angles together pick the forecast branches."""

    STATE = (np.array([1.0, 2.0]), np.array([1.0, 0.0]), 10)

    def branches(self, config) -> int:
        return forecast([self.STATE], config, 20.0)[1].shape[1]

    def test_single_branch_models_reject_k_above_1(self):
        for motion in ("static", "kalman_cv"):
            _, velocity, _ = forecast([self.STATE], RunConfig(motion=motion, k=1), 20.0)
            assert velocity.shape == (1, 1, 2), motion
            for k in (2, 3):
                with pytest.raises(ParseError, match=r"^config: k > 1 needs motion fan$"):
                    RunConfig(motion=motion, k=k)

    def test_single_branch_k_above_1_is_cli_code_1(self, tmp_path, capsys):
        config = tmp_path / "k3.json"
        config.write_text('{"k": 3}')
        code = main(
            ["pipeline", "--scenario", "crossing", "--motion", "kalman_cv", "--config", str(config),
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: config: k > 1 needs motion fan"]
        assert not (tmp_path / "o").exists()

    def test_fan_k1_means_every_angle(self):
        assert self.branches(RunConfig(motion="fan")) == 3
        cfg = RunConfig(motion="fan", k=1, fan_angles=(-45.0, -15.0, 15.0, 45.0))
        assert self.branches(cfg) == 4

    def test_fan_k_matching_angles(self):
        cfg = RunConfig(motion="fan", k=2, fan_angles=(-15.0, 15.0))
        assert self.branches(cfg) == 2

    def test_fan_k_mismatch_rejected(self):
        with pytest.raises(ParseError, match=r"config: fan requires k == len\(fan_angles\)"):
            RunConfig(motion="fan", k=2)
        with pytest.raises(ParseError, match="config: fan requires k"):
            RunConfig(motion="fan", k=4, fan_angles=(-15.0, 15.0))

    def test_unknown_motion_rejected(self):
        with pytest.raises(ParseError, match="config: motion must be one of static, kalman_cv"):
            RunConfig(motion="transformer")
        with pytest.raises(ParseError, match="config: motion"):
            RunConfig(motion="rnn")


class TestOverride:
    def test_override_returns_new_config(self):
        base = RunConfig()
        mod = base.override(tau_l2=5.0, motion="fan")
        assert mod.tau_l2 == 5.0 and mod.motion == "fan"
        assert base.tau_l2 == 2.5  # original untouched

    def test_override_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            RunConfig().override(nonexistent=1)


class TestSerialization:
    def test_dict_round_trip(self):
        cfg = RunConfig(motion="fan", fan_angles=(-10.0, 10.0), tau_l2=3.0)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_named(self):
        with pytest.raises(ParseError, match="unknown field 'tau_12'"):
            config_from_dict({"tau_12": 2.5})

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            config_from_dict([1, 2, 3])

    def test_partial_dict_fills_defaults(self):
        cfg = config_from_dict({"motion": "static", "window": 7})
        assert cfg.motion == "static" and cfg.window == 7
        assert cfg.tau_l2 == 2.5

    def test_file_round_trip_with_infinite_bucket(self, tmp_path):
        cfg = RunConfig(buckets=(0.0, 2.0, float("inf")), fan_angles=(-15.0, 15.0))
        p = tmp_path / "config.json"
        write_config(p, cfg)
        # the file is valid strict JSON: "inf" is stored as a string
        raw = json.loads(p.read_text())
        assert raw["buckets"] == [0.0, 2.0, "inf"]
        back = read_config(p)
        assert back == cfg
        assert math.isinf(back.buckets[-1])

    def test_invalid_json_reports_path(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{oops")
        with pytest.raises(ParseError, match="broken.json"):
            read_config(p)

    def test_tuple_fields_from_lists(self):
        cfg = config_from_dict({"fan_angles": [-20, 0, 20], "buckets": [0, 1, "inf"]})
        assert cfg.fan_angles == (-20.0, 0.0, 20.0)
        assert cfg.buckets == (0.0, 1.0, math.inf)


class TestEagerValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_spacing": math.inf}, "config: max_spacing must be positive and finite"),
            ({"max_spacing": -0.2}, "config: max_spacing must be positive"),
            ({"dt": float("nan")}, "config: dt must be positive"),
            ({"obs_len": 0}, "config: obs_len must be at least 1"),
            ({"k": 0}, "config: k must be at least 1"),
            ({"motion": "transformer"}, "config: motion must be one of"),
            ({"motion": "fan", "k": 2}, "config: fan requires k == len"),
            ({"process_noise": -1.0}, "config: process_noise must be non-negative"),
            ({"tau_l2": -0.1}, "config: tau_l2 must be non-negative"),
            ({"tau_app": 1.5}, "config: tau_app is a cosine similarity"),
            ({"tau_max": 0.0}, "config: tau_max must be positive"),
            ({"vis_threshold": 1.5}, "config: vis_threshold must be in \\[0, 1\\]"),
            ({"tau_iou": -0.5}, "config: tau_iou must be non-negative"),
            ({"tau_l2": math.inf}, "config: tau_l2 must be non-negative and finite"),
            ({"obs_noise": 0.0}, "config: obs_noise must be positive"),
            ({"base_iou": 1.5}, "config: base_iou must be in \\[0, 1\\]"),
            ({"window": 0}, "config: window must be at least 1"),
            ({"buckets": (2.0, 1.0)}, "config: buckets must be strictly increasing"),
            ({"buckets": (0.0,)}, "config: buckets must be strictly increasing"),
            ({"fan_angles": ()}, "config: fan_angles must be a non-empty list"),
            ({"dt": "x"}, "config: dt must be a number"),
            ({"k": True}, "config: k must be an integer"),
            ({"forecast_enabled": "no"}, "config: forecast_enabled must be true or false"),
            ({"fan_angles": [0.0]}, "config: fan_angles must be a list of numbers"),
            ({"tau_max": 1e308}, "config: tau_max is too long for dt"),
            ({"tau_max": 1e300, "dt": 1e-10}, "config: tau_max is too long for dt"),
            ({"dt": 1e-300}, "config: dt is too small for obs_noise"),
            ({"dt": 1e-150, "obs_noise": 1e10}, "config: dt is too small for obs_noise"),
            ({"dt": 1.2e77}, "config: dt is too large: dt\\*\\*4 overflows"),
        ],
    )
    def test_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ParseError, match=message):
            RunConfig(**kwargs)

    def test_override_is_validated(self):
        with pytest.raises(ParseError, match="max_spacing"):
            RunConfig().override(max_spacing=-1.0)

    def test_cell_size_is_not_a_field(self):
        # A read-only class attribute, kept for the benchmark's set-up call.
        assert RunConfig().cell_size == 0.5
        assert "cell_size" not in RunConfig().to_dict()
        with pytest.raises(TypeError):
            RunConfig(cell_size=1.0)
        with pytest.raises(FrozenInstanceError):
            RunConfig().cell_size = 1.0
        with pytest.raises(ParseError, match="unknown field 'cell_size'"):
            config_from_dict({"cell_size": 0.5})

    def test_from_dict_is_validated(self):
        with pytest.raises(ParseError, match="obs_len"):
            config_from_dict({"obs_len": 0})


BAD_VALUES = (
    "x", "", None, [], [1.0], ["a"], [math.nan], {"a": 1},
    True, False, math.nan, math.inf, -1, -0.5, 0, 0.0,
)


class TestConfigFuzz:
    def test_random_bad_values_fail_naming_the_field(self, tmp_path, capsys):
        """Any one bad field value either gives a well-typed config or a
        ParseError that starts with the field's name; a few of the rejected
        ones also go through the CLI, which must exit 1 with one error line."""
        rng = random.Random(1729)
        defaults = RunConfig()
        names = [f.name for f in fields(RunConfig)]
        rejected = []
        for _ in range(400):
            name, value = rng.choice(names), rng.choice(BAD_VALUES)
            try:
                cfg = config_from_dict({name: value})
            except ParseError as e:
                assert str(e).startswith(f"config: {name} "), (name, value, str(e))
                rejected.append((name, value))
                continue
            default, got = getattr(defaults, name), getattr(cfg, name)
            if isinstance(default, bool):
                assert isinstance(got, bool), (name, value)
            elif isinstance(default, (int, float)):
                assert type(got) in (int, float) and math.isfinite(got), (name, value)
                assert isinstance(default, float) or isinstance(got, int), (name, value)
            elif isinstance(default, tuple):
                assert isinstance(got, tuple) and all(type(v) is float for v in got)
            else:
                assert got in ("static", "kalman_cv", "fan"), (name, value)
        assert len(rejected) > 200

        path = tmp_path / "cfg.json"
        for name, value in rng.sample(rejected, 6):
            path.write_text(json.dumps({name: value}))
            code = main(
                ["pipeline", "--scenario", "crossing", "--config", str(path),
                 "--out", str(tmp_path / "out")]
            )
            err = capsys.readouterr().err
            assert code == 1, (name, value)
            assert "Traceback" not in err and len(err.splitlines()) == 1
            assert err.startswith(f"error: config: {name} "), (name, value, err)
