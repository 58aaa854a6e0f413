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

Everything is deterministic for a fixed scenario seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .boxes import PixelBox, covered_fraction
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
        if self.fps <= 0:
            raise InvalidScenario("fps must be positive")
        if self.duration <= 0:
            raise InvalidScenario("duration must be positive")
        if self.ground_extent <= 0:
            raise InvalidScenario("ground_extent must be positive")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise InvalidScenario("agent ids must be unique")
        for a in self.agents:
            if a.speed <= 0:
                raise InvalidScenario(f"agent {a.id}: speed must be positive")
            if len(a.waypoints) == 0:
                raise InvalidScenario(f"agent {a.id}: needs at least one waypoint")
        if self.camera_path is not None and len(self.camera_path) != self.n_frames - 1:
            raise InvalidScenario(
                f"camera_path must have n_frames-1 = {self.n_frames - 1} entries"
            )

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
    """World points (N, 3) -> (pixels (N, 2), camera-frame coords (N, 3))."""
    rot = _rotation_world_to_cam(cam.tilt_deg)
    center = np.array([cam_xy[0], cam_xy[1], cam.height])
    pc = (np.atleast_2d(world) - center) @ rot.T
    cx, cy = cam.principal_point
    u = cam.focal * pc[:, 0] / pc[:, 2] + cx
    v = cam.focal * pc[:, 1] / pc[:, 2] + cy
    return np.stack([u, v], axis=1), pc


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


def agent_position(agent: AgentSpec, t: float) -> np.ndarray:
    """Constant-speed position along the waypoint polyline, clamped at the end."""
    wps = np.asarray(agent.waypoints, dtype=float)
    if len(wps) == 1:
        return wps[0].copy()
    seg = np.diff(wps, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    s = agent.speed * t
    for i, L in enumerate(seg_len):
        if s <= L or i == len(seg_len) - 1:
            if L < 1e-12:
                return wps[i].copy()
            frac = min(s / L, 1.0)
            return wps[i] + frac * seg[i]
        s -= L
    return wps[-1].copy()


def _agent_box(cam: CameraSpec, agent: AgentSpec, pos: np.ndarray, cam_xy) -> PixelBox:
    x, y = pos
    hw = agent.width / 2.0
    corners = np.array(
        [
            [x - hw, y, 0.0],
            [x + hw, y, 0.0],
            [x - hw, y, agent.height],
            [x + hw, y, agent.height],
        ]
    )
    px, _ = project_points(cam, corners, cam_xy)
    left, top = px[:, 0].min(), px[:, 1].min()
    return PixelBox(left, top, px[:, 0].max() - left, px[:, 1].max() - top)


def _occluder_rect(cam: CameraSpec, occ: Occluder, cam_xy) -> tuple[float, float, float, float]:
    corners = np.array(
        [
            [x, y, z]
            for x in (occ.x_min, occ.x_max)
            for y in (occ.y_min, occ.y_max)
            for z in (0.0, occ.height)
        ]
    )
    px, pc = project_points(cam, corners, cam_xy)
    px = px[pc[:, 2] > 1e-9]  # corners in front of the camera
    if len(px) == 0:
        return (0.0, 0.0, 0.0, 0.0)
    return (px[:, 0].min(), px[:, 1].min(), px[:, 0].max(), px[:, 1].max())


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

    for f in range(n_frames):
        t = f / scenario.fps
        cam_xy = ego.offset(f)
        occ_rects = [_occluder_rect(cam, o, cam_xy) for o in scenario.occluders]

        agents = sorted(scenario.agents, key=lambda a: a.id)
        boxes = {}
        positions = {}
        for a in agents:
            pos = agent_position(a, t)
            positions[a.id] = pos
            boxes[a.id] = _agent_box(cam, a, pos, cam_xy)

        for a in agents:
            box = boxes[a.id]
            covers = [r for r in occ_rects if r[3] > box.bottom]
            covers += [
                (b.left, b.top, b.right, b.bottom)
                for other, b in boxes.items()
                if other != a.id and b.bottom > box.bottom
            ]
            visibility = 1.0 - covered_fraction(box, covers)
            gt.append(
                GtEntry(
                    frame=f,
                    agent_id=a.id,
                    box=box,
                    bev=positions[a.id].copy(),
                    visibility=visibility,
                )
            )
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
    occ_rects = [_occluder_rect(cam, o, (0.0, 0.0)) for o in scenario.occluders]
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
    missing = required - set(d)
    if missing:
        raise ParseError(f"{where}: missing field '{sorted(missing)[0]}'")
    unknown = set(d) - required - optional
    if unknown:
        raise ParseError(f"{where}: unknown field '{sorted(unknown)[0]}'")


def scenario_from_dict(d: dict) -> Scenario:
    if not isinstance(d, dict):
        raise ParseError("scenario: expected a JSON object")
    _check_keys(d, _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL, "scenario")
    camd = d["camera"]
    _check_keys(camd, _CAMERA_FIELDS, set(), "scenario.camera")
    agents = []
    for i, ad in enumerate(d["agents"]):
        _check_keys(ad, {"id", "waypoints", "speed"}, _AGENT_FIELDS, f"scenario.agents[{i}]")
        agents.append(
            AgentSpec(
                id=int(ad["id"]),
                waypoints=tuple(tuple(map(float, w)) for w in ad["waypoints"]),
                speed=float(ad["speed"]),
                height=float(ad.get("height", 1.7)),
                width=float(ad.get("width", 0.6)),
                appearance_seed=int(ad.get("appearance_seed", ad["id"])),
            )
        )
    occluders = []
    for i, od in enumerate(d.get("occluders", [])):
        _check_keys(od, _OCCLUDER_FIELDS, set(), f"scenario.occluders[{i}]")
        occluders.append(Occluder(**{k: float(od[k]) for k in _OCCLUDER_FIELDS}))
    path = d.get("camera_path")
    return Scenario(
        camera=CameraSpec(
            height=float(camd["height"]),
            tilt_deg=float(camd["tilt_deg"]),
            focal=float(camd["focal"]),
            image_width=int(camd["image_width"]),
            image_height=int(camd["image_height"]),
        ),
        ground_extent=float(d["ground_extent"]),
        agents=tuple(agents),
        occluders=tuple(occluders),
        fps=float(d["fps"]),
        duration=float(d["duration"]),
        detection_noise=float(d.get("detection_noise", 0.0)),
        appearance_noise=float(d.get("appearance_noise", 0.0)),
        seed=int(d.get("seed", 0)),
        camera_path=tuple(tuple(map(float, p)) for p in path) if path is not None else None,
        cloud_points=int(d.get("cloud_points", 2000)),
        cloud_noise=float(d.get("cloud_noise", 0.0)),
        appearance_dim=int(d.get("appearance_dim", 16)),
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
