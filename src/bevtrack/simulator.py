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

Generation works on arrays: every walker's path over the whole scene and
every occluder's rectangle per frame are computed once; each frame projects
all agent boxes in one stacked product. Visibility then takes two steps per
frame. An (agents x covers) array test keeps, for each box, the covers that
stand lower and whose clip against the box has positive area; the exact
area sweep ``covered_fraction`` runs only on boxes with such a cover, and the
rest are fully visible. The sweep depends only on the set of non-empty
clipped rectangles, so dropping the other covers changes no visibility, not
even in the last bit.

Everything is deterministic for a fixed scenario seed. A scenario from JSON
is checked field by field before any frame is generated.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .boxes import PixelBox, covered_fraction
from .config import _is_number
from .egomotion import EgomotionTrack
from .errors import InvalidScenario, ParseError
from .homography import Homography
from .tracker import SceneModel

VISIBILITY_CUTOFF = 0.25  # detections are emitted at or above this visibility


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
    ground_extent: float  # mask covers x in [-E/2, E/2], y in [0, E]
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
            _check(getattr(cam, name) >= 1, f"camera.{name} must be at least 1")
        for name in ("fps", "duration", "ground_extent"):
            _check(0 < getattr(self, name) < math.inf, f"{name} must be positive and finite")
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


@dataclass
class SimDetection:
    frame: int
    box: PixelBox
    appearance: np.ndarray
    agent_id: int  # for debugging only; hidden in the MOT export


@dataclass
class GtEntry:
    frame: int
    agent_id: int
    box: PixelBox
    bev: np.ndarray  # world-fixed ground point
    visibility: float


@dataclass
class SimOutput:
    scenario: Scenario
    detections: list
    gt: list
    cloud: np.ndarray  # (N, 3) camera-frame ground points
    cloud_pixels: np.ndarray  # (N, 2) pixels of the same points
    homography: Homography  # exact pixel -> camera-foot BEV
    ego: EgomotionTrack

    def visibility_records(self):
        return [(g.frame, g.agent_id, g.visibility) for g in self.gt]


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
    seg_len = np.linalg.norm(seg, axis=1)
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


# -- generation --------------------------------------------------------------------


def generate(scenario: Scenario) -> SimOutput:
    """Run the scenario; deterministic for a fixed seed."""
    cam = scenario.camera
    rng = np.random.default_rng(scenario.seed)
    n_frames = scenario.n_frames

    ego = scenario.ego_track()

    base_appearance = {}
    for a in scenario.agents:
        vec = np.random.default_rng(a.appearance_seed).normal(size=scenario.appearance_dim)
        base_appearance[a.id] = vec / np.linalg.norm(vec)

    detections: list[SimDetection] = []
    gt: list[GtEntry] = []
    img_w, img_h = cam.image_width, cam.image_height
    agents = sorted(scenario.agents, key=lambda a: a.id)
    times = np.arange(n_frames) / scenario.fps
    paths = np.array([agent_position(a, times) for a in agents]).reshape(len(agents), n_frames, 2)
    half_w = np.array([a.width for a in agents], dtype=float) / 2.0
    # z of each agent's four box corners: two at the feet, two at the head
    corner_z = np.array([a.height for a in agents], dtype=float)[:, None] * [0.0, 0.0, 1.0, 1.0]
    occ_rects = _occluder_rects(cam, scenario.occluders, ego.offsets[:n_frames])

    for f in range(n_frames):
        x, y = paths[:, f].T
        corner_x = np.stack([x - half_w, x + half_w] * 2, axis=1)
        corners = np.stack([corner_x, np.repeat(y[:, None], 4, 1), corner_z], axis=-1)
        px, _ = project_points(cam, corners, ego.offset(f))
        lo, hi = px.min(axis=1), px.max(axis=1)
        left, top = lo.T
        width, height = (hi - lo).T
        rects = np.stack([left, top, left + width, top + height], axis=1)
        # Covers of box i: occluders and agents whose bottom edge is lower in
        # the image. Only those whose clip against the box has positive area
        # can change the sweep, so the rest are dropped before it.
        covers = np.concatenate([occ_rects[f], rects])
        cl, ct, cr, cb = covers.T
        bl, bt, br, bb = rects.T[:, :, None]
        hit = (cb > bb) & (np.minimum(cr, br) > np.maximum(cl, bl))
        hit &= np.minimum(cb, bb) > np.maximum(ct, bt)
        covered = hit.any(axis=1)
        for i, a in enumerate(agents):
            box = PixelBox(left[i], top[i], width[i], height[i])
            visibility = 1.0 - covered_fraction(box, covers[hit[i]]) if covered[i] else 1.0
            bev = paths[i, f].copy()
            gt.append(GtEntry(frame=f, agent_id=a.id, box=box, bev=bev, visibility=visibility))
            in_frame = box.right > 0 and box.left < img_w and box.bottom > 0 and box.top < img_h
            if visibility >= VISIBILITY_CUTOFF and in_frame:
                if scenario.detection_noise > 0:
                    jit = rng.normal(0.0, scenario.detection_noise, size=4)
                else:
                    jit = np.zeros(4)
                noisy = PixelBox(
                    box.left + jit[0],
                    box.top + jit[1],
                    max(box.width + jit[2], 1.0),
                    max(box.height + jit[3], 1.0),
                )
                app = base_appearance[a.id]
                if scenario.appearance_noise > 0:
                    app = app + rng.normal(0.0, scenario.appearance_noise, size=app.shape)
                app = app / np.linalg.norm(app)
                detections.append(SimDetection(frame=f, box=noisy, appearance=app, agent_id=a.id))

    cloud_cam, cloud_px = _sample_ground_cloud(
        scenario, rng, scenario.cloud_points, scenario.cloud_noise
    )
    return SimOutput(
        scenario=scenario,
        detections=detections,
        gt=gt,
        cloud=cloud_cam,
        cloud_pixels=cloud_px,
        homography=true_homography(cam),
        ego=ego,
    )


def _sample_ground_cloud(scenario: Scenario, rng, n: int, noise: float):
    """Uniform BEV samples of the visible ground, as camera-frame 3D + pixels."""
    cam = scenario.camera
    e = scenario.ground_extent
    pts = []
    pixels = []
    guard = 0
    while len(pts) < n and guard < 200 * n:
        guard += 1
        x = rng.uniform(-e / 2.0, e / 2.0)
        y = rng.uniform(0.5, e)
        px, pc = project_points(cam, np.array([[x, y, 0.0]]), (0.0, 0.0))
        u, v = px[0]
        if 0 <= u < cam.image_width and 0 <= v < cam.image_height and pc[0, 2] > 0:
            p = pc[0]
            if noise > 0:
                p = p + rng.normal(0.0, noise, size=3)
            pts.append(p)
            pixels.append(px[0])
    if len(pts) < n:
        raise InvalidScenario("camera sees too little ground to sample the point cloud")
    return np.array(pts), np.array(pixels)


def sample_ground_correspondences(
    scenario: Scenario,
    frame_a: int,
    frame_b: int,
    n: int,
    seed: int = 0,
    world_noise: float = 0.0,
):
    """Pixel pairs of static ground points seen in two frames of a moving camera.

    world_noise perturbs each lifted point independently per frame (models
    localization noise of sigma meters in BEV).
    """
    cam = scenario.camera
    ego = scenario.ego_track()
    ca, cb = ego.offset(frame_a), ego.offset(frame_b)
    rng = np.random.default_rng(seed)
    e = scenario.ground_extent
    out_a, out_b = [], []
    guard = 0
    while len(out_a) < n and guard < 500 * n:
        guard += 1
        x = rng.uniform(-e / 2.0, e / 2.0)
        y = rng.uniform(0.5, e)
        base = np.array([x, y, 0.0])
        pa = base.copy()
        pb = base.copy()
        if world_noise > 0:
            pa[:2] += rng.normal(0.0, world_noise, size=2)
            pb[:2] += rng.normal(0.0, world_noise, size=2)
        ua, _ = project_points(cam, pa[None, :], ca)
        ub, _ = project_points(cam, pb[None, :], cb)
        ok_a = 0 <= ua[0, 0] < cam.image_width and 0 <= ua[0, 1] < cam.image_height
        ok_b = 0 <= ub[0, 0] < cam.image_width and 0 <= ub[0, 1] < cam.image_height
        if ok_a and ok_b:
            out_a.append(ua[0])
            out_b.append(ub[0])
    if len(out_a) < n:
        raise InvalidScenario("frames share too little visible ground for correspondences")
    return np.array(out_a), np.array(out_b)


def _cell_centres(origin, nx: int, ny: int, cell_size: float) -> np.ndarray:
    """(ny * nx, 2) centres of a grid's cells, row-major: cell (i, j) is row i * nx + j."""
    idx = np.stack(np.meshgrid(np.arange(nx), np.arange(ny)), axis=-1).reshape(-1, 2)
    return origin + (idx + 0.5) * cell_size


def _uncovered(px: np.ndarray, rects) -> np.ndarray:
    """True for each (N, 2) pixel that lies in none of the closed (u0, v0, u1, v1) rects."""
    u, v = px[:, 0], px[:, 1]
    free = np.ones(len(px), dtype=bool)
    for r in rects:
        free &= ~((r[0] <= u) & (u <= r[2]) & (r[1] <= v) & (v <= r[3]))
    return free


def build_scene_model(scenario: Scenario, lh, cell_size: float = 0.5) -> SceneModel:
    """Rasterize the camera's visible-ground footprint into a freespace mask.

    A cell is freespace when its center projects inside the image and the
    pixel is not covered by an occluder's silhouette (ground behind an
    occluder lands inside it). Built for the frame-0 camera position.
    """
    cam = scenario.camera
    e = scenario.ground_extent
    origin = np.array([-e / 2.0, 0.0])
    n = int(math.ceil(e / cell_size))
    occ_rects = _occluder_rects(cam, scenario.occluders, (0.0, 0.0))
    px, valid = lh.try_bev_to_px(_cell_centres(origin, n, n, cell_size))
    u, v = px[:, 0], px[:, 1]
    in_image = (0 <= u) & (u < cam.image_width) & (0 <= v) & (v < cam.image_height)
    mask = (valid & in_image & _uncovered(px, occ_rects)).reshape(n, n)
    return SceneModel(
        mask=mask, cell_size=cell_size, origin=origin, lh=lh, fps=scenario.fps, ego=None
    )


# -- scenario JSON ------------------------------------------------------------------

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
    """d[key], or default when absent, as a float or an int; ParseError naming it otherwise."""
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


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from parsed JSON.

    A malformed field raises ParseError and a value out of range raises
    InvalidScenario; either message starts with the field's path, such as
    ``scenario.agents[0].speed``.
    """
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


def scenario_to_dict(s: Scenario) -> dict:
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


def read_scenario(path) -> Scenario:
    with open(path) as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: {e}") from e
    return scenario_from_dict(d)


def write_scenario(path, s: Scenario) -> None:
    with open(path, "w") as f:
        json.dump(scenario_to_dict(s), f, indent=2, sort_keys=True)
        f.write("\n")
