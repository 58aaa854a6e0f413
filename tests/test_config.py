import json
import math
import random
from dataclasses import fields

import numpy as np
import pytest

from bevtrack.cli import main
from bevtrack.config import RunConfig, config_from_dict, read_config, write_config
from bevtrack.errors import ParseError
from bevtrack.evaluation import DEFAULT_BUCKETS
from bevtrack.tracker import Tracker, build_cost_matrix

from test_tracker import det_at, inactive_track, make_scene, walker_dets


class TestDefaults:
    def test_reference_operating_point(self):
        cfg = RunConfig()
        assert cfg.motion == "kalman_cv" and cfg.k == 1
        assert cfg.obs_len == 8 and cfg.dt == 0.4
        assert cfg.tau_l2 == 2.5 and cfg.tau_app == 0.8 and cfg.tau_iou == 0.2
        assert cfg.tau_max == 6.0 and cfg.tau_vis == 1.0
        assert cfg.occlusion_iou == 0.25 and cfg.base_iou == 0.5
        assert cfg.max_spacing == 0.2 and cfg.cell_size == 0.5
        assert cfg.buckets == DEFAULT_BUCKETS
        assert cfg.forecast_enabled and not cfg.ingest_ids

    def test_thresholds_view(self):
        # the matching gates are read straight off RunConfig
        th = RunConfig()
        assert th.tau_l2 == 2.5 and th.tau_vis == 1.0 and th.occlusion_iou == 0.25
        tr = inactive_track(1, 50, 100, [(52.0, 100.0)])
        det = det_at(1, 52, 100)
        det.bev = np.array([52.0, 100.0])
        for tau_l2 in (2.5, 4.0):
            scores, _ = build_cost_matrix([tr], [det], RunConfig(tau_l2=tau_l2), make_scene(), 1)
            # identical boxes: IoU 1 plus the full distance bonus tau_l2
            assert scores[0, 0] == pytest.approx(1.0 + tau_l2, abs=1e-12)

    def test_tracker_config_view(self):
        cfg = RunConfig(motion="static", dt=0.5, obs_len=6)
        tc = cfg.tracker_config()
        assert tc is cfg
        assert tc.motion_spec().kind == "static" and tc.motion_spec().k == 1
        assert tc.dt == 0.5 and tc.obs_len == 6
        assert tc.tau_max == 6.0

    def test_tracker_reads_run_config(self):
        assert Tracker(make_scene()).config == RunConfig()
        cfg = RunConfig(motion="static", dt=0.5, obs_len=6, tau_max=3.0)
        tk = Tracker(make_scene(fps=10.0), cfg)
        assert tk.config is cfg
        for f in range(3):
            tk.step(walker_dets(f), f)
        tk.step([], 3)
        fc = tk.tracks[1].forecast
        # static: one zero-velocity branch; ceil(3.0 / 0.5) = 6 steps of 5 frames
        assert fc.velocities.tolist() == [[0.0, 0.0]]
        assert fc.end_frame == 2 + 6 * 5


class TestMotionSpec:
    def test_single_branch_models(self):
        assert RunConfig(motion="kalman_cv").motion_spec().k == 1
        assert RunConfig(motion="static").motion_spec().kind == "static"

    def test_fan_k_defaults_to_angle_count(self):
        spec = RunConfig(motion="fan").motion_spec()
        assert spec.kind == "fan" and spec.k == 3
        assert spec.fan_angles == (-30.0, 0.0, 30.0)

    def test_fan_custom_angles(self):
        cfg = RunConfig(motion="fan", fan_angles=(-45.0, -15.0, 15.0, 45.0))
        spec = cfg.motion_spec()
        assert spec.k == 4

    def test_unknown_motion_rejected_at_spec_time(self):
        with pytest.raises(ValueError):
            RunConfig(motion="transformer").motion_spec()


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
        cfg = config_from_dict({"motion": "static", "seed": 7})
        assert cfg.motion == "static" and cfg.seed == 7
        assert cfg.tau_l2 == 2.5

    def test_file_round_trip_with_infinite_bucket(self, tmp_path):
        cfg = RunConfig(buckets=(0.0, 2.0, float("inf")), horizons=(0.5, 1.5))
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
        cfg = config_from_dict({"fan_angles": [-20, 0, 20], "horizons": [1, 2, 4]})
        assert cfg.fan_angles == (-20.0, 0.0, 20.0)
        assert cfg.horizons == (1.0, 2.0, 4.0)


class TestEagerValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"cell_size": 0.0}, "config: cell_size must be positive"),
            ({"max_spacing": -0.2}, "config: max_spacing must be positive"),
            ({"dt": float("nan")}, "config: dt must be positive"),
            ({"obs_len": 0}, "config: obs_len must be at least 1"),
            ({"k": 0}, "config: k must be at least 1"),
            ({"motion": "transformer"}, "config: motion must be one of"),
            ({"motion": "fan", "k": 2}, "config: fan requires k == len"),
            ({"tau_vis": 10.0}, "config: tau_vis cannot exceed tau_max"),
            ({"tau_l2": -0.1}, "config: tau_l2 must be non-negative"),
            ({"tau_app": 1.5}, "config: tau_app is a cosine similarity"),
            ({"tau_max": 0.0}, "config: tau_max must be positive"),
            ({"tau_vis": 7.0, "tau_max": 6.0}, "config: tau_vis cannot exceed tau_max"),
            ({"tau_iou": -0.5}, "config: tau_iou must be non-negative"),
            ({"occlusion_iou": math.inf}, "config: occlusion_iou must be non-negative and finite"),
            ({"obs_noise": 0.0}, "config: obs_noise must be positive"),
            ({"base_iou": 1.5}, "config: base_iou must be in \\[0, 1\\]"),
            ({"window": 0}, "config: window must be at least 1"),
            ({"seed": -1}, "config: seed must be non-negative"),
            ({"buckets": (2.0, 1.0)}, "config: buckets must be strictly increasing"),
            ({"buckets": (0.0,)}, "config: buckets must be strictly increasing"),
            ({"horizons": (0.0,)}, "config: horizons must be positive"),
            ({"fan_angles": ()}, "config: fan_angles must be a non-empty list"),
            ({"dt": "x"}, "config: dt must be a number"),
            ({"k": True}, "config: k must be an integer"),
            ({"forecast_enabled": "no"}, "config: forecast_enabled must be true or false"),
            ({"fan_angles": [0.0]}, "config: fan_angles must be a list of numbers"),
        ],
    )
    def test_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ParseError, match=message):
            RunConfig(**kwargs)

    def test_override_is_validated(self):
        with pytest.raises(ParseError, match="cell_size"):
            RunConfig().override(cell_size=-1.0)

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
