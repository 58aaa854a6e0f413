"""Former home of the pixel<->BEV map, now Homography itself.

Only ``benchmarks/`` reads these names; ROADMAP item 1 step 2 deletes this module.
"""

from .homography import Homography

LinearizedHomography = Homography


def linearize(h: Homography, image_size=None, max_spacing=None) -> Homography:
    """Return h: the map is the homography, whatever the image size or spacing."""
    return h
