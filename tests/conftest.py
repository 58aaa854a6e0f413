import numpy as np
import pytest

from bevtrack.homography import Homography
from bevtrack.simulator import CameraSpec, true_homography


@pytest.fixture
def camera():
    return CameraSpec(height=6.0, tilt_deg=30.0, focal=1000.0, image_width=1920, image_height=1080)


@pytest.fixture
def true_h(camera) -> Homography:
    return true_homography(camera)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
