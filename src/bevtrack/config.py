"""Run configuration: one flat record covering tracking and evaluation knobs.

Defaults reproduce the reference operating point: eight observed steps at
0.4 s spacing, a 6 s reassociation window, a 1 s visibility patience, and the
geometric/appearance gates used throughout the experiments. Configs load from
JSON; unknown keys are rejected so typos fail loudly. The motion, geometry
and gate fields are checked at construction, so an out-of-range value fails
with ParseError before any run starts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ParseError
from .evaluation import DEFAULT_BUCKETS
from .forecast import MOTION_KINDS, MotionModelSpec
from .tracker import MatchThresholds, TrackerConfig


@dataclass(frozen=True)
class RunConfig:
    # motion / forecasting
    motion: str = "kalman_cv"
    k: int = 1
    fan_angles: tuple = (-30.0, 0.0, 30.0)
    obs_len: int = 8
    dt: float = 0.4
    process_noise: float = 0.1
    obs_noise: float = 0.25
    forecast_enabled: bool = True
    # association gates
    tau_l2: float = 2.5
    tau_app: float = 0.8
    tau_iou: float = 0.2
    tau_max: float = 6.0
    tau_vis: float = 1.0
    occlusion_iou: float = 0.25
    base_iou: float = 0.5
    ingest_ids: bool = False
    # geometry
    max_spacing: float = 0.2
    cell_size: float = 0.5
    # evaluation
    iou_threshold: float = 0.5
    vis_threshold: float = 0.1
    window: int = 5
    buckets: tuple = DEFAULT_BUCKETS
    horizons: tuple = (1.0, 2.0)
    seed: int = 0

    def __post_init__(self):
        for name in ("cell_size", "max_spacing", "dt"):
            if not getattr(self, name) > 0:
                raise ParseError(f"config: {name} must be positive")
        for name in ("obs_len", "k"):
            if getattr(self, name) < 1:
                raise ParseError(f"config: {name} must be at least 1")
        if self.motion not in MOTION_KINDS:
            raise ParseError(f"config: motion must be one of {', '.join(MOTION_KINDS)}")
        try:
            self.tracker_config()
        except ValueError as e:
            raise ParseError(f"config: {e}") from e

    def thresholds(self) -> MatchThresholds:
        return MatchThresholds(
            tau_l2=self.tau_l2,
            tau_app=self.tau_app,
            tau_iou=self.tau_iou,
            tau_max=self.tau_max,
            tau_vis=self.tau_vis,
            occlusion_iou=self.occlusion_iou,
        )

    def motion_spec(self) -> MotionModelSpec:
        if self.motion == "fan":
            angles = tuple(self.fan_angles)
            k = self.k if self.k > 1 else len(angles)
            return MotionModelSpec(kind="fan", k=k, fan_angles=angles)
        return MotionModelSpec(kind=self.motion, k=1)

    def tracker_config(self) -> TrackerConfig:
        return TrackerConfig(
            thresholds=self.thresholds(),
            motion=self.motion_spec(),
            obs_len=self.obs_len,
            dt=self.dt,
            base_iou=self.base_iou,
            forecast_enabled=self.forecast_enabled,
            ingest_ids=self.ingest_ids,
            process_noise=self.process_noise,
            obs_noise=self.obs_noise,
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fan_angles"] = list(self.fan_angles)
        d["buckets"] = list(self.buckets)
        d["horizons"] = list(self.horizons)
        return d

    def override(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


_FIELDS = {f.name for f in fields(RunConfig)}
_TUPLE_FIELDS = {"fan_angles", "buckets", "horizons"}


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ParseError("config: expected a JSON object")
    unknown = set(d) - _FIELDS
    if unknown:
        raise ParseError(f"config: unknown field '{sorted(unknown)[0]}'")
    kwargs = dict(d)
    for name in _TUPLE_FIELDS & set(kwargs):
        kwargs[name] = tuple(
            float("inf") if v in ("inf", "Infinity") else float(v) for v in kwargs[name]
        )
    return RunConfig(**kwargs)


def read_config(path) -> RunConfig:
    with open(path) as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: {e}") from e
    return config_from_dict(d)


def write_config(path, cfg: RunConfig) -> None:
    d = cfg.to_dict()
    d["buckets"] = [("inf" if b == float("inf") else b) for b in d["buckets"]]
    with open(path, "w") as f:
        json.dump(d, f, indent=2, sort_keys=True)
        f.write("\n")
