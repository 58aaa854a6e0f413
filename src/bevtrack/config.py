"""Run configuration: one flat record covering tracking and evaluation knobs.

Defaults reproduce the reference operating point: eight observed steps at
0.4 s spacing, a 6 s reassociation window, and the geometric/appearance
gates used throughout the experiments. Configs load from JSON; unknown keys
are rejected so typos fail loudly. Every field's type and range is checked
at construction, so a malformed value fails with ParseError("config:
<field> ...") before any run starts. The tracker and the evaluation read
this record directly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

from .errors import ParseError
from .mot_io import _TYPE_CHECKS, _check_keys, _is_number, _record_to_dict, read_json, write_json

MOTION_KINDS = ("static", "kalman_cv", "fan")
DEFAULT_BUCKETS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, float("inf"))
# The simulator emits a detection at or above this visibility, and evaluation
# counts a frame below it as occluded, so an occlusion event's flanks are the
# frames with detections.
VISIBILITY_CUTOFF = 0.25


@dataclass(frozen=True)
class RunConfig:
    """Every parameter of a run, for the tracker, forecaster and evaluation.

    Motion: "static" and "kalman_cv" forecast one branch, "fan" one branch per
    fan_angles entry. Only a check reads k: with "fan" it is 1 or the number
    of fan_angles.

    Gates: tau_l2 caps the BEV distance bonus (meters), tau_app is the minimum
    appearance cosine similarity, tau_iou the minimum predicted-box IoU (0
    disables that gate). tau_max is the forecast horizon (seconds): an
    inactive track leaves on the frame after its forecast ends.
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
    base_iou: float = 0.5
    ingest_ids: bool = False
    # evaluation
    iou_threshold: float = 0.5
    vis_threshold: float = VISIBILITY_CUTOFF
    window: int = 5
    buckets: tuple = DEFAULT_BUCKETS
    # Not fields: they can't be set, and JSON rejects them. Only `benchmarks/` reads
    # them; ROADMAP item 1 step 2 deletes them.
    cell_size = 0.5
    max_spacing = 0.2

    def __post_init__(self):
        for f in fields(self):
            accepts, expected = _TYPE_CHECKS[f.type]
            if not accepts(getattr(self, f.name)):
                raise ParseError(f"config: {f.name} must be {expected}")
        for name in ("dt", "obs_noise", "tau_max"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParseError(f"config: {name} must be positive and finite")
        # The forecast filter starts from velocity variance (2 * obs_noise / dt)**2
        # and a forecast spans ceil(tau_max / dt) steps: both must be finite.
        if not 2.0 * self.obs_noise / self.dt < math.sqrt(sys.float_info.max):
            raise ParseError(
                "config: dt is too small for obs_noise: (2 * obs_noise / dt)**2 overflows"
            )
        try:
            self.dt**4  # the forecast filter's process noise reads dt**4
        except OverflowError:
            raise ParseError("config: dt is too large: dt**4 overflows") from None
        if self.tau_max / self.dt == math.inf:
            raise ParseError("config: tau_max is too long for dt: tau_max / dt overflows")
        for name in ("process_noise", "tau_l2", "tau_iou"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParseError(f"config: {name} must be non-negative and finite")
        for name in ("base_iou", "iou_threshold", "vis_threshold"):
            if not 0 <= getattr(self, name) <= 1:
                raise ParseError(f"config: {name} must be in [0, 1]")
        if not -1 <= self.tau_app <= 1:
            raise ParseError("config: tau_app is a cosine similarity, must be in [-1, 1]")
        for name in ("obs_len", "k", "window"):
            if getattr(self, name) < 1:
                raise ParseError(f"config: {name} must be at least 1")
        if self.motion not in MOTION_KINDS:
            raise ParseError(f"config: motion must be one of {', '.join(MOTION_KINDS)}")
        if not self.fan_angles or not all(map(math.isfinite, self.fan_angles)):
            raise ParseError("config: fan_angles must be a non-empty list of finite angles")
        edges = self.buckets
        if len(edges) < 2 or not all(nxt > prev for prev, nxt in zip(edges, edges[1:])):
            raise ParseError("config: buckets must be strictly increasing with at least two edges")
        if self.motion == "fan" and self.k not in (1, len(self.fan_angles)):
            raise ParseError("config: fan requires k == len(fan_angles)")

    def tracker_config(self) -> "RunConfig":
        """Return self: the tracker reads RunConfig directly.

        Kept only because benchmarks/pipeline.py still calls it; delete it
        once that caller passes the config to Tracker itself.
        """
        return self

    def to_dict(self) -> dict:
        return _record_to_dict(self)

    def override(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


def config_from_dict(d: dict) -> RunConfig:
    _check_keys(d, RunConfig, "config")
    kwargs = dict(d)
    for f in fields(RunConfig):
        # a list for a tuple field becomes a tuple; anything else is left for RunConfig to reject
        if f.type == "tuple" and isinstance(d.get(f.name), list):
            kwargs[f.name] = tuple(
                math.inf if v in ("inf", "Infinity") else float(v) if _is_number(v) else v
                for v in d[f.name]
            )
    return RunConfig(**kwargs)


def read_config(path) -> RunConfig:
    return config_from_dict(read_json(path))


def write_config(path, cfg: RunConfig) -> None:
    d = cfg.to_dict()
    d["buckets"] = [("inf" if b == float("inf") else b) for b in d["buckets"]]
    write_json(path, d)
