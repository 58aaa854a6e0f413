"""The JSON records read and written through their dataclass fields, against
reference copies of the hand-written reader and writers they replaced.

``reference_scenario_from_dict``, ``reference_scenario_to_dict`` and
``reference_eval_report_to_dict`` are kept verbatim, with their helpers. On
seeded random scenarios the field-derived writer must give the same JSON bytes,
both readers must return equal Scenarios, and every single-fault corruption of
the JSON must give the same exception class and message from both readers.
"""

import copy
import json
import math
import numbers
from dataclasses import replace

import numpy as np
import pytest

from bevtrack.errors import BevTrackError, InvalidScenario, ParseError
from bevtrack.evaluation import EvalReport, RecallBucket
from bevtrack.experiments import crossing_scenario, junction_suite, linear_suite
from bevtrack.mot_io import write_json
from bevtrack.simulator import (
    AgentSpec,
    CameraSpec,
    Occluder,
    Scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from test_simulator_reference import random_scenario

# -- the reader and writers as they were, kept verbatim as the reference ------------------

_CAMERA_FIELDS = {"height", "tilt_deg", "focal", "image_width", "image_height"}
_AGENT_FIELDS = {"id", "waypoints", "speed", "height", "width", "appearance_seed"}
_OCCLUDER_FIELDS = {"x_min", "x_max", "y_min", "y_max", "height"}
_SCENARIO_REQUIRED = {"camera", "ground_extent", "agents", "fps", "duration"}
_SCENARIO_OPTIONAL = {
    "occluders",
    "detection_noise",
    "appearance_noise",
    "seed",
    "camera_path",
    "cloud_points",
    "cloud_noise",
    "appearance_dim",
}


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_keys(d: dict, required: set, optional: set, where: str):
    if not isinstance(d, dict):
        raise ParseError(f"{where}: expected a JSON object")
    missing = required - set(d)
    if missing:
        raise ParseError(f"{where}: missing field '{sorted(missing)[0]}'")
    unknown = set(d) - required - optional
    if unknown:
        raise ParseError(f"{where}: unknown field '{sorted(unknown)[0]}'")


def _field(d: dict, key: str, where: str, kind=float, default=None):
    v = d.get(key, default)
    if kind is int and not (isinstance(v, numbers.Integral) and not isinstance(v, bool)):
        raise ParseError(f"{where}.{key} must be an integer, got {v!r}")
    if kind is float and not _is_number(v):
        raise ParseError(f"{where}.{key} must be a number, got {v!r}")
    return kind(v)


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ParseError(f"{where} must be a list, got {v!r}")
    return v


def _pairs(v, where: str) -> tuple:
    for p in _list(v, where):
        if not (isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))):
            raise ParseError(f"{where} must hold [x, y] number pairs, got {p!r}")
    return tuple((float(x), float(y)) for x, y in v)


def reference_scenario_from_dict(d: dict) -> Scenario:
    _check_keys(d, _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL, "scenario")
    camd = d["camera"]
    _check_keys(camd, _CAMERA_FIELDS, set(), "scenario.camera")
    agents = []
    for i, ad in enumerate(_list(d["agents"], "scenario.agents")):
        where = f"scenario.agents[{i}]"
        _check_keys(ad, {"id", "waypoints", "speed"}, _AGENT_FIELDS, where)
        agents.append(
            AgentSpec(
                id=_field(ad, "id", where, int),
                waypoints=_pairs(ad["waypoints"], f"{where}.waypoints"),
                speed=_field(ad, "speed", where),
                height=_field(ad, "height", where, default=1.7),
                width=_field(ad, "width", where, default=0.6),
                appearance_seed=_field(ad, "appearance_seed", where, int, ad["id"]),
            )
        )
    occluders = []
    for i, od in enumerate(_list(d.get("occluders", []), "scenario.occluders")):
        where = f"scenario.occluders[{i}]"
        _check_keys(od, _OCCLUDER_FIELDS, set(), where)
        occluders.append(Occluder(**{k: _field(od, k, where) for k in _OCCLUDER_FIELDS}))
    path = d.get("camera_path")
    return Scenario(
        camera=CameraSpec(
            height=_field(camd, "height", "scenario.camera"),
            tilt_deg=_field(camd, "tilt_deg", "scenario.camera"),
            focal=_field(camd, "focal", "scenario.camera"),
            image_width=_field(camd, "image_width", "scenario.camera", int),
            image_height=_field(camd, "image_height", "scenario.camera", int),
        ),
        ground_extent=_field(d, "ground_extent", "scenario"),
        agents=tuple(agents),
        occluders=tuple(occluders),
        fps=_field(d, "fps", "scenario"),
        duration=_field(d, "duration", "scenario"),
        detection_noise=_field(d, "detection_noise", "scenario", default=0.0),
        appearance_noise=_field(d, "appearance_noise", "scenario", default=0.0),
        seed=_field(d, "seed", "scenario", int, 0),
        camera_path=_pairs(path, "scenario.camera_path") if path is not None else None,
        cloud_points=_field(d, "cloud_points", "scenario", int, 2000),
        cloud_noise=_field(d, "cloud_noise", "scenario", default=0.0),
        appearance_dim=_field(d, "appearance_dim", "scenario", int, 16),
    )


def reference_scenario_to_dict(s: Scenario) -> dict:
    d = {
        "camera": {
            "height": s.camera.height,
            "tilt_deg": s.camera.tilt_deg,
            "focal": s.camera.focal,
            "image_width": s.camera.image_width,
            "image_height": s.camera.image_height,
        },
        "ground_extent": s.ground_extent,
        "agents": [
            {
                "id": a.id,
                "waypoints": [list(w) for w in a.waypoints],
                "speed": a.speed,
                "height": a.height,
                "width": a.width,
                "appearance_seed": a.appearance_seed,
            }
            for a in s.agents
        ],
        "occluders": [
            {
                "x_min": o.x_min,
                "x_max": o.x_max,
                "y_min": o.y_min,
                "y_max": o.y_max,
                "height": o.height,
            }
            for o in s.occluders
        ],
        "fps": s.fps,
        "duration": s.duration,
        "detection_noise": s.detection_noise,
        "appearance_noise": s.appearance_noise,
        "seed": s.seed,
        "cloud_points": s.cloud_points,
        "cloud_noise": s.cloud_noise,
        "appearance_dim": s.appearance_dim,
    }
    if s.camera_path is not None:
        d["camera_path"] = [list(p) for p in s.camera_path]
    return d


def reference_eval_report_to_dict(self) -> dict:
    return {
        "idsw": self.idsw,
        "idtr": self.idtr,
        "id_lost_short": self.id_lost_short,
        "id_lost_long": self.id_lost_long,
        "n_gt": self.n_gt,
        "n_hyp": self.n_hyp,
        "n_matched": self.n_matched,
        "id_recall": [
            {
                "lo": b.lo,
                "hi": b.hi,
                "total": b.total,
                "recovered": b.recovered,
                "recall": b.recall,
            }
            for b in self.buckets
        ],
    }


# -- scenarios and their corruptions ------------------------------------------------------

SEEDS = range(40)
SUITES = [crossing_scenario()] + linear_suite(20) + junction_suite()
INT_KEYS = {"id", "appearance_seed", "seed", "cloud_points", "appearance_dim",
            "image_width", "image_height"}


def nodes(v, path=()):
    """(path, value) for every node of a parsed JSON tree, the root first."""
    yield path, v
    if isinstance(v, dict):
        for k, x in v.items():
            yield from nodes(x, path + (k,))
    elif isinstance(v, list):
        for i, x in enumerate(v):
            yield from nodes(x, path + (i,))


def is_pair(path, v) -> bool:
    return isinstance(v, list) and len(path) >= 2 and path[-2] in ("waypoints", "camera_path")


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def drop_key(node: dict, rng) -> dict:
    del node[list(node)[rng.integers(len(node))]]
    return node


def add_key(node: dict, rng) -> dict:
    node["bogus"] = 1.0
    return node


NON_LISTS = (5, "a", {"x": 1})
NON_OBJECTS = ([], 5, "a")

# Each kind: (the nodes it may hit, by path and value; what it makes of a hit node)
KINDS = {
    "dropped key": (lambda p, v: isinstance(v, dict) and len(v) > 0, drop_key),
    "unknown key": (lambda p, v: isinstance(v, dict), add_key),
    "string for number": (lambda p, v: is_number(v), lambda v, rng: str(v)),
    "bool for number": (lambda p, v: is_number(v), lambda v, rng: bool(rng.integers(2))),
    "float id": (lambda p, v: len(p) > 0 and p[-1] in INT_KEYS, lambda v, rng: v + 0.5),
    "non-list": (lambda p, v: isinstance(v, list), lambda v, rng: NON_LISTS[rng.integers(3)]),
    "non-object": (lambda p, v: isinstance(v, dict), lambda v, rng: NON_OBJECTS[rng.integers(3)]),
    "one-number pair": (is_pair, lambda v, rng: v[:1]),
    "negative number": (lambda p, v: is_number(v), lambda v, rng: -abs(v) - 1),
    "camera_path null": (lambda p, v: p == (), lambda v, rng: {**v, "camera_path": None}),
}


def corrupted(d: dict, kind: str, rng):
    """A copy of d with one fault of the kind, or None when d has no node it can hit."""
    d = copy.deepcopy(d)
    hits, fault = KINDS[kind]
    paths = [p for p, v in nodes(d) if hits(p, v)]
    if not paths:
        return None
    path = paths[rng.integers(len(paths))]
    if not path:
        return fault(d, rng)
    parent = d
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = fault(parent[path[-1]], rng)
    return d


def outcome(read, d):
    """The Scenario read from d, or the class and message of the error it raised."""
    try:
        return read(copy.deepcopy(d))
    except BevTrackError as e:
        return type(e), str(e)


def corruptions(seed: int):
    rng = np.random.default_rng(seed)
    d = json.loads(json.dumps(scenario_to_dict(random_scenario(seed))))
    for kind in KINDS:
        bad = corrupted(d, kind, rng)
        if bad is not None:
            yield kind, bad


# -- the checks ---------------------------------------------------------------------------


def test_writer_gives_the_reference_bytes(tmp_path):
    for i, sc in enumerate(SUITES + [random_scenario(s) for s in SEEDS]):
        d = scenario_to_dict(sc)
        assert d == reference_scenario_to_dict(sc)
        write_json(tmp_path / "new.json", d)
        write_json(tmp_path / "ref.json", reference_scenario_to_dict(sc))
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes(), i


def test_array_points_are_written_as_lists(tmp_path):
    """Arrays for waypoints and camera_path, which Scenario accepts, write as before."""
    sc = random_scenario(2)
    assert sc.agents and sc.camera_path is not None
    agent = replace(sc.agents[0], waypoints=np.asarray(sc.agents[0].waypoints))
    sc = replace(sc, agents=(agent,), camera_path=np.asarray(sc.camera_path))
    write_json(tmp_path / "new.json", scenario_to_dict(sc))
    write_json(tmp_path / "ref.json", reference_scenario_to_dict(sc))
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_readers_agree_on_clean_and_corrupted_json(seed):
    d = json.loads(json.dumps(scenario_to_dict(random_scenario(seed))))
    assert scenario_from_dict(d) == reference_scenario_from_dict(d) == random_scenario(seed)
    for kind, bad in corruptions(seed):
        got, want = outcome(scenario_from_dict, bad), outcome(reference_scenario_from_dict, bad)
        assert got == want, (kind, bad)


def test_every_corruption_kind_occurs_and_faults_are_reported():
    seen, errors = set(), set()
    for seed in SEEDS:
        for kind, bad in corruptions(seed):
            seen.add(kind)
            result = outcome(scenario_from_dict, bad)
            if not isinstance(result, Scenario):
                errors.add(result[0])
    assert seen == set(KINDS)
    assert errors == {ParseError, InvalidScenario}


def test_defaults_and_the_two_json_rules():
    d = {
        "camera": {"height": 6, "tilt_deg": 30, "focal": 1000, "image_width": 640,
                   "image_height": 480},
        "ground_extent": 40,
        "agents": [{"id": 3, "waypoints": [[0, 10]], "speed": 1}],
        "fps": 10,
        "duration": 1,
    }
    got = scenario_from_dict(d)
    assert got == reference_scenario_from_dict(d)
    assert got.agents[0].appearance_seed == 3
    assert isinstance(got.fps, float) and isinstance(got.camera.image_width, int)
    for key in ("fps", "duration"):
        short = {k: v for k, v in d.items() if k != key}
        with pytest.raises(ParseError, match=f"^scenario: missing field '{key}'$"):
            scenario_from_dict(short)


def test_eval_report_dict_matches_reference():
    recalls = set()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inner = sorted(set(rng.uniform(0.0, 8.0, int(rng.integers(1, 8))).tolist()))
        edges = [0.0] + inner + [math.inf]
        buckets = []
        for lo, hi in zip(edges, edges[1:]):
            total = int(rng.integers(0, 4))
            buckets.append(RecallBucket(lo, hi, total, int(rng.integers(0, total + 1))))
            recalls.add(buckets[-1].recall is None)
        counts = [int(v) for v in rng.integers(0, 500, 7)]
        report = EvalReport(*counts[:4], buckets, *counts[4:])
        # the same keys in the same order, which the CSV writer takes for its columns
        assert json.dumps(report.to_dict()) == json.dumps(reference_eval_report_to_dict(report))
    assert recalls == {True, False}
