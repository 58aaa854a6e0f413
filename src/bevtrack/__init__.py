"""Ground-plane lifting, occlusion-bridging forecasts, and gated re-association.

The toolkit turns monocular 2D detections into metric bird's-eye-view tracks:
a homography estimated from a depth cloud lifts box feet onto the ground
plane (with a piecewise-linear far-field so distant pixels stay bounded),
occluded tracks keep moving under pluggable constant-velocity or multi-branch
motion models, and reappearing detections are re-associated through gated
geometric and appearance scores. A synthetic scene simulator and a metric
suite aimed at long-gap identity survival close the loop.
"""

from .boxes import PixelBox, covered_fraction, iou, iou_matrix, ltwh
from .config import DEFAULT_BUCKETS, RunConfig, config_from_dict, read_config, write_config
from .egomotion import EgomotionTrack
from .errors import (
    BevTrackError,
    DegenerateInput,
    HorizonInsideFootprint,
    InvalidScenario,
    NonMonotonicFrame,
    NonPositiveBox,
    OutOfDomain,
    ParseError,
)
from .evaluation import (
    EvalReport,
    OcclusionEvent,
    RecallBucket,
    count_lost,
    count_switches,
    evaluate_tracking,
    id_recall,
    match_frames,
    occlusion_components,
)
from .forecast import forecast, forecast_span, predicted_box, preprocess
from .homography import (
    Homography,
    HomographyFit,
    estimate_homography,
    load_homography,
    save_homography,
)
from .linearized import LinearizedHomography, linearize
from .plane import GroundPlane, align_to_xy, fit_ground_plane
from .simulator import (
    AgentSpec,
    CameraSpec,
    Occluder,
    Scenario,
    SimOutput,
    build_scene_model,
    generate,
    read_scenario,
    true_homography,
    write_scenario,
)
from .tracker import (
    DetectionTable,
    SceneModel,
    Tracker,
    TrackTable,
    assign,
    build_cost_matrix,
    frame_geometry,
)

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "BevTrackError",
    "CameraSpec",
    "DEFAULT_BUCKETS",
    "DegenerateInput",
    "DetectionTable",
    "EgomotionTrack",
    "EvalReport",
    "GroundPlane",
    "Homography",
    "HomographyFit",
    "HorizonInsideFootprint",
    "InvalidScenario",
    "LinearizedHomography",
    "NonMonotonicFrame",
    "NonPositiveBox",
    "Occluder",
    "OcclusionEvent",
    "OutOfDomain",
    "ParseError",
    "PixelBox",
    "RecallBucket",
    "RunConfig",
    "Scenario",
    "SceneModel",
    "SimOutput",
    "TrackTable",
    "Tracker",
    "align_to_xy",
    "assign",
    "build_cost_matrix",
    "build_scene_model",
    "config_from_dict",
    "count_lost",
    "count_switches",
    "covered_fraction",
    "estimate_homography",
    "evaluate_tracking",
    "fit_ground_plane",
    "forecast",
    "forecast_span",
    "frame_geometry",
    "generate",
    "id_recall",
    "iou",
    "iou_matrix",
    "linearize",
    "load_homography",
    "ltwh",
    "match_frames",
    "occlusion_components",
    "predicted_box",
    "preprocess",
    "read_config",
    "read_scenario",
    "save_homography",
    "true_homography",
    "write_config",
    "write_scenario",
]
