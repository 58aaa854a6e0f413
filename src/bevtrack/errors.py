"""Exception and warning types shared across the package."""


class BevTrackError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(BevTrackError):
    """Input admits no unique solution (too few points, collinear, rank-deficient)."""


class OutOfDomain(BevTrackError):
    """A BEV point has no pixel preimage (behind the horizon, outside the linear range)."""


class NonMonotonicFrame(BevTrackError):
    """Tracker received a frame index not strictly greater than the last one."""


class ParseError(BevTrackError, ValueError):
    """A file or config could not be parsed; message carries the location.

    Also a ValueError: a bad RunConfig value is an invalid argument as much
    as a parse failure.
    """


class InvalidScenario(BevTrackError):
    """Scenario violates a structural invariant (bad fps, empty waypoints, ...)."""


class HorizonInsideFootprint(UserWarning):
    """Some pixel columns have no usable linearization threshold of their own."""


class NonPositiveBox(UserWarning):
    """A CSV row carried a non-positive box width/height and was skipped."""
