"""Run configuration: one flat record covering tracking and evaluation knobs.

Defaults reproduce the reference operating point: eight observed steps at
0.4 s spacing, a 6 s reassociation window, a 1 s visibility patience, and the
geometric/appearance gates used throughout the experiments. Configs load from
JSON; unknown keys are rejected so typos fail loudly. Every field's type and
range is checked at construction, so a malformed value fails with
ParseError("config: <field> ...") before any run starts. The tracker reads
this record directly.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

from .errors import ParseError
from .evaluation import DEFAULT_BUCKETS
from .forecast import MOTION_KINDS, MotionModelSpec


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# Each field's accepted values, keyed by the type of its default.
_TYPE_CHECKS = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, tuple) and all(map(_is_number, v)), "a list of numbers"),
}


@dataclass(frozen=True)
class RunConfig:
    """Every parameter of a run, for the tracker, forecaster and evaluation.

    Gates: tau_l2 caps the BEV distance bonus (meters), tau_app is the minimum
    appearance cosine similarity, tau_iou the minimum predicted-box IoU (0
    disables that gate), tau_max the inactive patience (seconds), tau_vis the
    time a branch may sit in visible freespace before it is pruned (seconds),
    occlusion_iou the overlap with a closer detection that counts as cover.
    """

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
        for f in fields(self):
            accepts, expected = _TYPE_CHECKS[type(f.default)]
            if not accepts(getattr(self, f.name)):
                raise ParseError(f"config: {f.name} must be {expected}")
        for name in ("cell_size", "max_spacing", "dt", "obs_noise", "tau_max", "tau_vis"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParseError(f"config: {name} must be positive and finite")
        for name in ("process_noise", "tau_l2", "tau_iou", "occlusion_iou"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParseError(f"config: {name} must be non-negative and finite")
        for name in ("base_iou", "iou_threshold", "vis_threshold"):
            if not 0 <= getattr(self, name) <= 1:
                raise ParseError(f"config: {name} must be in [0, 1]")
        if not -1 <= self.tau_app <= 1:
            raise ParseError("config: tau_app is a cosine similarity, must be in [-1, 1]")
        if self.tau_vis > self.tau_max:
            raise ParseError("config: tau_vis cannot exceed tau_max")
        for name in ("obs_len", "k", "window"):
            if getattr(self, name) < 1:
                raise ParseError(f"config: {name} must be at least 1")
        if self.seed < 0:
            raise ParseError("config: seed must be non-negative")
        if self.motion not in MOTION_KINDS:
            raise ParseError(f"config: motion must be one of {', '.join(MOTION_KINDS)}")
        if not self.fan_angles or not all(map(math.isfinite, self.fan_angles)):
            raise ParseError("config: fan_angles must be a non-empty list of finite angles")
        if not all(0 < h < math.inf for h in self.horizons):
            raise ParseError("config: horizons must be positive and finite")
        edges = self.buckets
        if len(edges) < 2 or not all(nxt > prev for prev, nxt in zip(edges, edges[1:])):
            raise ParseError("config: buckets must be strictly increasing with at least two edges")
        try:
            self.motion_spec()
        except ValueError as e:
            raise ParseError(f"config: {e}") from e

    def motion_spec(self) -> MotionModelSpec:
        if self.motion == "fan":
            angles = tuple(self.fan_angles)
            k = self.k if self.k > 1 else len(angles)
            return MotionModelSpec(kind="fan", k=k, fan_angles=angles)
        return MotionModelSpec(kind=self.motion, k=1)

    def tracker_config(self) -> "RunConfig":
        """Return self: the tracker reads RunConfig directly.

        Kept only because benchmarks/pipeline.py still calls it; delete it
        once that caller passes the config to Tracker itself.
        """
        return self

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
        if isinstance(kwargs[name], list):  # anything else is left for RunConfig to reject
            kwargs[name] = tuple(
                math.inf if v in ("inf", "Infinity") else float(v) if _is_number(v) else v
                for v in kwargs[name]
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
