"""Synthetic scene generator for end-to-end tracking experiments.

A pinhole camera sits at a configurable height above a flat ground plane,
tilted downwards. Agents walk waypoint polylines at constant speed; BEV
rectangles with heights act as occluders. Every frame each agent projects to
an image box; its visibility is one minus the fraction of box area covered by
the image boxes of occluders and of agents standing closer to the camera
(larger bottom edge). Detections are emitted above a visibility cutoff with
Gaussian pixel noise and noisy per-identity appearance descriptors. The
generator also emits the exact ground-plane homography, the camera egomotion
track, and a ground point cloud in camera coordinates for calibration.

Generation works on blocks of FRAME_BLOCK * max(1, BLOCK_AGENTS // agents)
frames, which bounds its arrays: FRAME_BLOCK frames for a crowd, and for a
smaller scene no more agent-frames than FRAME_BLOCK frames of BLOCK_AGENTS
agents, so a scene of few agents is one block. Walker paths are computed once
for the scene, and occluder rectangles once for each run of frames whose
camera offsets are equal bit for bit. Per block, one stacked product projects
every agent box, one array test keeps for each box the covers that stand lower and overlap it, one exact sweep
(``covered_fractions``) per cover count gives the covered boxes' visibility,
and one ``rng.normal`` call draws the noise of every detection, in the order
one detection at a time draws it. The detections are one read-only
DetectionTable (frame, box, appearance, agent id) in (frame, agent id) order,
whose rows each block appends as arrays; every descriptor's unit norm is
checked once, over the whole table. ``SimOutput.detections`` views the table
as SimDetection records, built on first read around the table's own PixelBoxes;
nothing in the library reads them. The ground truth is one GtTable, a struct
of arrays with a row per agent and frame in (frame, agent id) order; each
block fills its rows' boxes and visibility, and no object is built per row.
The ground cloud is rejection-sampled in blocks of draws; with cloud noise,
one draw at a time, so each kept point's noise still follows its pair.
Every output is bit-identical to one frame, one agent and one draw at a time.

Everything is deterministic for a fixed scenario seed. A JSON scenario holds
the fields of the dataclasses below, which its reader and writer take from the
classes themselves; every value is checked before any frame is generated, and
``read_scenario`` also takes the name of a bundled scenario.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

# covered_fraction goes uncalled here; the benchmark tracer wraps it as this module's.
from .boxes import PixelBox, covered_fraction, covered_fractions  # noqa: F401
from .config import VISIBILITY_CUTOFF
from .egomotion import EgomotionTrack
from .errors import InvalidScenario, ParseError
from .homography import MAX_IMAGE_SIDE, Homography
from .mot_io import (
    GtTable,
    _is_number,
    _record_from_dict,
    _record_to_dict,
    read_json,
    write_json,
)
from .tracker import DetectionTable, SceneModel

FRAME_BLOCK = 32  # frames generated together by more than BLOCK_AGENTS // 2 agents
BLOCK_AGENTS = 64  # fewer agents' blocks hold at most FRAME_BLOCK frames of this many


@dataclass(frozen=True)
class CameraSpec:
    height: float
    tilt_deg: float
    focal: float
    image_width: int
    image_height: int

    @property
    def principal_point(self) -> tuple[float, float]:
        return (self.image_width / 2.0, self.image_height / 2.0)


@dataclass(frozen=True)
class AgentSpec:
    id: int
    waypoints: tuple  # ((x, y), ...), BEV meters
    speed: float  # m/s
    height: float = 1.7
    width: float = 0.6
    appearance_seed: int = 0


@dataclass(frozen=True)
class Occluder:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    height: float


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidScenario(f"scenario.{message}")


def _finite_pairs(points) -> bool:
    return all(len(p) == 2 and all(map(math.isfinite, p)) for p in points)


@dataclass(frozen=True)
class Scenario:
    camera: CameraSpec
    ground_extent: float  # ground plane x in [-E/2, E/2], y in [0, E]
    agents: tuple
    occluders: tuple = ()
    fps: float = 20.0
    duration: float = 10.0
    detection_noise: float = 0.0  # pixel sigma on box coordinates
    appearance_noise: float = 0.0  # sigma added to unit descriptors
    seed: int = 0
    camera_path: Optional[tuple] = None  # per-frame (dx, dy) BEV deltas
    cloud_points: int = 2000
    cloud_noise: float = 0.0  # sigma on camera-frame cloud coordinates
    appearance_dim: int = 16

    def __post_init__(self):
        cam = self.camera
        for name in ("height", "focal"):
            _check(0 < getattr(cam, name) < math.inf, f"camera.{name} must be positive and finite")
        _check(math.isfinite(cam.tilt_deg), "camera.tilt_deg must be finite")
        for name in ("image_width", "image_height"):
            v = getattr(cam, name)
            _check(1 <= v <= MAX_IMAGE_SIDE, f"camera.{name} must be in [1, {MAX_IMAGE_SIDE}]")
        for name in ("fps", "duration", "ground_extent"):
            _check(0 < getattr(self, name) < math.inf, f"{name} must be positive and finite")
        _check(math.isfinite(self.duration * self.fps), "duration * fps must be finite")
        _check(self.ground_extent >= 0.5, "ground_extent must be at least 0.5 (the cloud's nearest y)")
        for name in ("detection_noise", "appearance_noise", "cloud_noise"):
            _check(0 <= getattr(self, name) < math.inf, f"{name} must be non-negative and finite")
        _check(self.cloud_points >= 4, "cloud_points must be at least 4 for a homography fit")
        _check(self.appearance_dim >= 1, "appearance_dim must be at least 1")
        _check(self.seed >= 0, "seed must be non-negative")
        ids = [a.id for a in self.agents]
        _check(len(set(ids)) == len(ids), "agents: ids must be unique")
        for i, a in enumerate(self.agents):
            for name in ("speed", "height", "width"):
                v = getattr(a, name)
                _check(0 < v < math.inf, f"agents[{i}].{name} must be positive and finite, got {v}")
            _check(len(a.waypoints) > 0, f"agents[{i}].waypoints needs at least one point")
            _check(_finite_pairs(a.waypoints), f"agents[{i}].waypoints must be finite pairs")
            _check(a.appearance_seed >= 0, f"agents[{i}].appearance_seed must be non-negative")
        for i, o in enumerate(self.occluders):
            bounds = (o.x_min, o.x_max, o.y_min, o.y_max, o.height)
            _check(all(map(math.isfinite, bounds)), f"occluders[{i}]: every field must be finite")
        if self.camera_path is not None:
            _check(
                len(self.camera_path) == self.n_frames - 1,
                f"camera_path must have n_frames-1 = {self.n_frames - 1} entries",
            )
            _check(_finite_pairs(self.camera_path), "camera_path must be finite (dx, dy) pairs")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration * self.fps))

    def ego_track(self) -> EgomotionTrack:
        """Per-frame camera offsets: camera_path accumulated, or all zero when static."""
        if self.camera_path is None:
            return EgomotionTrack.identity(self.n_frames)
        return EgomotionTrack.from_deltas(np.asarray(self.camera_path, dtype=float))


@dataclass(frozen=True)
class SimDetection:
    """One row of a SimOutput's table; the table has checked it."""

    frame: int
    box: PixelBox
    appearance: np.ndarray  # unit descriptor
    agent_id: int  # the agent shown; hidden in the MOT export


@dataclass
class SimOutput:
    scenario: Scenario
    table: DetectionTable  # every detection, in (frame, agent id) order
    gt: GtTable  # every agent at every frame, in (frame, agent id) order
    cloud: np.ndarray  # (N, 3) camera-frame ground points
    cloud_pixels: np.ndarray  # (N, 2) pixels of the same points
    homography: Homography  # exact pixel -> camera-foot BEV
    ego: EgomotionTrack

    @functools.cached_property
    def detections(self) -> list:
        """The table's rows as SimDetections, built on first read; each holds the
        table's PixelBox and a view of its descriptor row."""
        t = self.table
        rows = zip(t.frame.tolist(), t.boxes(), t.appearance, t.agent_id.tolist())
        return [SimDetection(*row) for row in rows]


# -- camera geometry --------------------------------------------------------------


def _rotation_world_to_cam(tilt_deg: float) -> np.ndarray:
    t = math.radians(tilt_deg)
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, -math.sin(t), -math.cos(t)],
            [0.0, math.cos(t), -math.sin(t)],
        ]
    )


def project_points(cam: CameraSpec, world: np.ndarray, cam_xy=(0.0, 0.0)):
    """World points (..., 3) -> (pixels (..., 2), camera-frame coords (..., 3)).

    cam_xy is one (2,) camera offset, or offsets that broadcast against the
    leading axes of world. Each stack of points is rotated by its own
    (k, 3) @ (3, 3) product, so a stack rounds exactly as it would alone.
    """
    rot = _rotation_world_to_cam(cam.tilt_deg)
    xy = np.asarray(cam_xy, dtype=float)
    center = np.concatenate([xy, np.full(xy.shape[:-1] + (1,), float(cam.height))], axis=-1)
    pc = (np.atleast_2d(world) - center) @ rot.T
    cx, cy = cam.principal_point
    u = cam.focal * pc[..., 0] / pc[..., 2] + cx
    v = cam.focal * pc[..., 1] / pc[..., 2] + cy
    return np.stack([u, v], axis=-1), pc


def true_homography(cam: CameraSpec) -> Homography:
    """Exact pixel -> BEV map for ground points, camera foot at the origin."""
    t = math.radians(cam.tilt_deg)
    cx, cy = cam.principal_point
    f, h = cam.focal, cam.height
    g = np.array(
        [
            [f, cx * math.cos(t), cx * h * math.sin(t)],
            [0.0, -f * math.sin(t) + cy * math.cos(t), f * h * math.cos(t) + cy * h * math.sin(t)],
            [0.0, math.cos(t), h * math.sin(t)],
        ]
    )
    return Homography(np.linalg.inv(g))


# -- agents and occluders ----------------------------------------------------------


def agent_position(agent: AgentSpec, t) -> np.ndarray:
    """Constant-speed position along the waypoint polyline, clamped at the end.

    t is one time, giving a (2,) position, or an (F,) array of times, giving
    (F, 2) positions with the same float operations as one time at a time.
    """
    wps = np.asarray(agent.waypoints, dtype=float)
    s = agent.speed * np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((len(s), 2))
    out[:] = wps[0]
    seg = np.diff(wps, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        seg_len = np.linalg.norm(seg, axis=1)
        far = np.isinf(seg_len)  # squares past the float range: measure scaled down
        scale = np.abs(seg[far]).max(axis=1, initial=0.0)
        seg_len[far] = np.linalg.norm(seg[far] / scale[:, None], axis=1) * scale
    todo = np.ones(len(s), dtype=bool)
    for i, L in enumerate(seg_len):
        here = todo & (s <= L) if i < len(seg_len) - 1 else todo
        if L < 1e-12:
            out[here] = wps[i]
        else:
            out[here] = wps[i] + np.minimum(s[here] / L, 1.0)[:, None] * seg[i]
        todo &= ~here
        s = s - L
    return out if np.ndim(t) else out[0]


def _occluder_rects(cam: CameraSpec, occluders, cam_xy) -> np.ndarray:
    """(..., m, 4) image rectangles (u0, v0, u1, v1) of the occluders' corners.

    One rectangle per occluder and per camera offset in cam_xy (one (2,)
    offset or (F, 2) of them). Only corners in front of the camera count; an
    occluder with none in front gets (0, 0, 0, 0).
    """
    b = np.array(
        [(o.x_min, o.x_max, o.y_min, o.y_max, o.height) for o in occluders], dtype=float
    ).reshape(-1, 5)
    upper = np.arange(8) % 2 == 1  # corners run x-major, then y, then z
    x, y, z = b[:, [0, 0, 0, 0, 1, 1, 1, 1]], b[:, [2, 2, 3, 3, 2, 2, 3, 3]], b[:, 4:]
    corners = np.stack([x, y, np.where(upper, z, 0.0)], axis=-1)
    px, pc = project_points(cam, corners, np.asarray(cam_xy, dtype=float)[..., None, None, :])
    front = (pc[..., 2] > 1e-9)[..., None]
    rects = np.concatenate(
        [np.where(front, px, np.inf).min(axis=-2), np.where(front, px, -np.inf).max(axis=-2)],
        axis=-1,
    )
    rects[~front.any(axis=(-2, -1))] = 0.0
    return rects


def _occluder_rects_by_offset(cam: CameraSpec, occluders, offsets) -> np.ndarray:
    """(F, m, 4) occluder rectangles for (F, 2) offsets, projected once per run.

    A run is a stretch of frames whose offset rows are equal bit for bit (a
    cumulative sum can give -0.0 where a neighbour has 0.0); its first frame
    is projected and its rectangles repeated over the run.
    """
    bits = offsets.view(np.uint64)
    first = np.ones(len(offsets), dtype=bool)
    first[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    rects = _occluder_rects(cam, occluders, offsets[starts])
    return np.repeat(rects, np.diff(starts, append=len(offsets)), axis=0)


# -- generation --------------------------------------------------------------------


def generate(scenario: Scenario) -> SimOutput:
    """Run the scenario; deterministic for a fixed seed."""
    cam = scenario.camera
    rng = np.random.default_rng(scenario.seed)
    n_frames = scenario.n_frames
    ego = scenario.ego_track()
    agents = sorted(scenario.agents, key=lambda a: a.id)
    dim = scenario.appearance_dim
    base_appearance = np.empty((len(agents), dim))
    for i, a in enumerate(agents):
        vec = np.random.default_rng(a.appearance_seed).normal(size=dim)
        base_appearance[i] = vec / np.linalg.norm(vec)
    # the noise of one detection: four box jitters, then its descriptor's
    scales = np.array([scenario.detection_noise] * 4 + [scenario.appearance_noise] * dim)
    noisy = scales > 0

    agent_ids = np.array([a.id for a in agents], dtype=np.int64)
    # (frames, boxes, descriptors, agent ids) of each block's detections, after an empty block
    blocks = [(agent_ids[:0], np.zeros((0, 4)), np.zeros((0, dim)), agent_ids[:0])]
    times = np.arange(n_frames) / scenario.fps
    paths = np.array([agent_position(a, times) for a in agents]).reshape(len(agents), n_frames, 2)
    boxes_ltwh = np.empty((n_frames, len(agents), 4))  # filled block by block
    visibilities = np.empty((n_frames, len(agents)))
    half_w = np.array([a.width for a in agents], dtype=float) / 2.0
    # z of each agent's four box corners: two at the feet, two at the head
    corner_z = np.array([a.height for a in agents], dtype=float)[:, None] * [0.0, 0.0, 1.0, 1.0]
    occ_rects = _occluder_rects_by_offset(cam, scenario.occluders, ego.offsets[:n_frames])
    block = FRAME_BLOCK * max(1, BLOCK_AGENTS // max(1, len(agents)))

    for f0 in range(0, n_frames, block):
        frames = range(f0, min(f0 + block, n_frames))
        x, y = paths[:, frames].transpose(2, 1, 0)  # (frames, agents)
        corner_x = np.stack([x - half_w, x + half_w] * 2, axis=-1)
        corners = np.stack(np.broadcast_arrays(corner_x, y[..., None], corner_z), axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):  # far off: no finite box, an error below
            px, _ = project_points(cam, corners, ego.offsets[frames, None, None])
            lo, hi = px.min(axis=-2), px.max(axis=-2)
            ltwh = np.concatenate([lo, hi - lo], axis=-1)  # (frames, agents, 4)
            rects = np.concatenate([lo, lo + ltwh[..., 2:]], axis=-1)
        sized = (ltwh[..., 2:] > 0).all(axis=-1) & np.isfinite(rects).all(axis=-1)
        if not sized.all():
            f, i = np.argwhere(~sized)[0]
            name = f"scenario.agents[{scenario.agents.index(agents[i])}]"
            raise InvalidScenario(f"{name} has no image box (zero, NaN or infinite size) at frame "
                                  f"{f0 + f}")
        # Covers of box i: occluders and agents lower in the image (cb > bb) whose
        # clip against the box has positive area; no other cover changes the sweep.
        # The clip test min(r) > max(l), in u and in v, is spelled out pairwise to
        # build no float temporaries; for boxes of positive size five terms are left.
        covers = np.concatenate([occ_rects[frames], rects], axis=1)
        cl, ct, cr, cb = np.moveaxis(covers, -1, 0)[:, :, None]
        bl, _, br, bb = np.moveaxis(rects, -1, 0)[..., None]
        hit = (cb > bb) & (bb > ct) & (cr > bl) & (br > cl) & (cr > cl)
        count = hit.sum(axis=-1)
        visibility = np.ones(count.shape)
        for c in np.unique(count[count > 0]):  # boxes of one cover count sweep together
            fi, ai = np.nonzero(count == c)
            rows, ci = np.nonzero(hit[fi, ai])
            chosen = covers[fi[rows], ci].reshape(-1, c, 4)
            visibility[fi, ai] = 1.0 - covered_fractions(ltwh[fi, ai], chosen)
        boxes_ltwh[frames] = ltwh
        visibilities[frames] = visibility

        in_frame = (rects[..., 2:] > 0).all(-1) & (lo < [cam.image_width, cam.image_height]).all(-1)
        fe, ae = np.nonzero((visibility >= VISIBILITY_CUTOFF) & in_frame)
        # One draw for the block, in the order one detection at a time draws:
        # frame, then agent id, each detection's jitters before its descriptor.
        noise = np.zeros((len(fe), len(scales)))
        noise[:, noisy] = rng.normal(0.0, scales[noisy], size=(len(fe), noisy.sum()))
        boxes = ltwh[fe, ae] + noise[:, :4]
        boxes[:, 2:] = np.maximum(boxes[:, 2:], 1.0)
        app = base_appearance[ae] + noise[:, 4:]
        # stacked (1, D) @ (D, 1) products round like each row's own dot, as linalg.norm
        app /= np.sqrt(app[:, None, :] @ app[:, :, None])[:, 0]
        blocks.append((f0 + fe, boxes, app, agent_ids[ae]))

    cloud_cam, cloud_px = _sample_ground_cloud(
        scenario, rng, scenario.cloud_points, scenario.cloud_noise
    )
    gt = GtTable(
        frame=np.repeat(np.arange(n_frames), len(agents)),
        agent_id=np.tile(agent_ids, n_frames),
        box=boxes_ltwh.reshape(-1, 4),
        bev=paths.transpose(1, 0, 2).reshape(-1, 2),
        visibility=visibilities.ravel(),
    )
    frame, box, appearance, agent = (np.concatenate(c) for c in zip(*blocks))
    return SimOutput(
        scenario=scenario,
        table=DetectionTable(frame, box, appearance, agent_id=agent),
        gt=gt,
        cloud=cloud_cam,
        cloud_pixels=cloud_px,
        homography=true_homography(cam),
        ego=ego,
    )


def _sample_ground_cloud(scenario: Scenario, rng, n: int, noise: float):
    """Uniform BEV samples of the visible ground, as camera-frame 3D + pixels.

    Rejection sampling of at most 200 * n (x, y) pairs, drawn and projected in
    blocks that end by the n-th kept pair. Each point is projected as its own
    (1, 3) stack, as one point alone would be. With noise, a kept point's
    three normals follow its pair in the stream, so pairs are drawn one at a time.
    """
    cam = scenario.camera
    e = scenario.ground_extent
    low, high = [-e / 2.0, 0.5], [e / 2.0, e]
    pts, pixels = [], []
    kept = drawn = 0
    while kept < n and drawn < 200 * n:
        k = 1 if noise > 0 else min(200 * n - drawn, n - kept)
        xy = rng.uniform(low, high, size=(k, 2))
        px, pc = project_points(cam, np.column_stack([xy, np.zeros(k)])[:, None])
        px, pc = px[:, 0], pc[:, 0]
        u, v = px.T
        ok = (0 <= u) & (u < cam.image_width) & (0 <= v) & (v < cam.image_height) & (pc[:, 2] > 0)
        if noise > 0 and ok[0]:
            pc[0] += rng.normal(0.0, noise, size=3)
        drawn += k
        kept += int(ok.sum())
        pts.append(pc[ok])
        pixels.append(px[ok])
    if kept < n:
        raise InvalidScenario("scenario: camera sees too little ground to sample the point cloud")
    return np.concatenate(pts), np.concatenate(pixels)


def build_scene_model(scenario: Scenario, lh, *_) -> SceneModel:
    """The scenario's SceneModel: the map lh, its frame rate and its camera_path's ego_track().

    A third argument is ignored; benchmarks/pipeline.py still passes one.
    """
    ego = None if scenario.camera_path is None else scenario.ego_track()
    return SceneModel(lh=lh, fps=scenario.fps, ego=ego)


# -- scenario JSON ------------------------------------------------------------------


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ParseError(f"{where} must be a list, got {v!r}")
    return v


def _pairs(v, where: str) -> tuple:
    for p in _list(v, where):
        if not (isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))):
            raise ParseError(f"{where} must hold [x, y] number pairs, got {p!r}")
    return tuple((float(x), float(y)) for x, y in v)


def _each(parse):
    """A parser of a JSON list that reads item i with parse(item, f"{where}[{i}]")."""
    return lambda v, where: tuple(parse(x, f"{where}[{i}]") for i, x in enumerate(_list(v, where)))


def _agent(d, where: str) -> AgentSpec:
    if isinstance(d, dict) and "id" in d:
        d = {"appearance_seed": d["id"], **d}
    return _record_from_dict(AgentSpec, d, where, {"waypoints": _pairs})


_SCENARIO_PARSERS = {
    "camera": functools.partial(_record_from_dict, CameraSpec),
    "agents": _each(_agent),
    "occluders": _each(functools.partial(_record_from_dict, Occluder)),
    "camera_path": lambda v, where: None if v is None else _pairs(v, where),
}


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from parsed JSON.

    The keys are the fields of Scenario, CameraSpec, AgentSpec and Occluder, with
    their defaults, but for two rules: fps and duration are required, and an
    agent's appearance_seed defaults to its id. A malformed field raises
    ParseError and a value out of range InvalidScenario; either message starts
    with the field's path, such as ``scenario.agents[0].speed``.
    """
    return _record_from_dict(Scenario, d, "scenario", _SCENARIO_PARSERS, ("fps", "duration"))


def scenario_to_dict(s: Scenario) -> dict:
    """Every field of the scenario; camera_path only for a moving camera."""
    d = _record_to_dict(s)
    if s.camera_path is None:
        del d["camera_path"]
    return d


def read_scenario(path) -> Scenario:
    """A scenario JSON file, or the bundled scenario of that name (``crossing``)."""
    if not os.path.exists(path):
        name = os.fspath(path)
        ref = resources.files("bevtrack").joinpath("data", name.removesuffix(".json") + ".json")
        if not ref.is_file():
            raise ParseError(f"scenario {name!r}: no such file or bundled scenario")
        path = str(ref)
    return scenario_from_dict(read_json(path))


def write_scenario(path, s: Scenario) -> None:
    write_json(path, scenario_to_dict(s))
