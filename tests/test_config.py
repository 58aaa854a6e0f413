import json
import math

import pytest

from bevtrack.config import RunConfig, config_from_dict, read_config, write_config
from bevtrack.errors import ParseError
from bevtrack.evaluation import DEFAULT_BUCKETS


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
        th = RunConfig().thresholds()
        assert th.tau_l2 == 2.5 and th.tau_vis == 1.0 and th.occlusion_iou == 0.25

    def test_tracker_config_view(self):
        tc = RunConfig(motion="static", dt=0.5, obs_len=6).tracker_config()
        assert tc.motion.kind == "static" and tc.motion.k == 1
        assert tc.dt == 0.5 and tc.obs_len == 6
        assert tc.thresholds.tau_max == 6.0


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
