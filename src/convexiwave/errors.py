"""Exception types shared across the package."""


class ConvexiwaveError(Exception):
    """Base class for all package errors."""


class InvalidInput(ConvexiwaveError, ValueError):
    """Input data or a configuration value is malformed or out of range."""


class SingularSystem(ConvexiwaveError):
    """A linear solve failed or produced an unusable solution.

    Usually signals a degenerate grid-step combination or a regularization
    parameter too small for the conditioning at this sample count.
    """


class OffGridObservation(ConvexiwaveError):
    """The requested observation point is not a grid node."""


class HorizonTooShort(ConvexiwaveError):
    """The available time horizon does not cover the requested samples."""


class FloorViolation(ConvexiwaveError):
    """The initial-time trace of an iterate dropped below its admissible floor."""


class ZeroSignal(ConvexiwaveError):
    """A signal that must be nonzero (e.g. a calibration reference) is identically zero."""


class AmbiguousExtrema(ConvexiwaveError):
    """A trace does not expose the three alternating extrema needed for sign detection."""


class FixtureMissing(ConvexiwaveError):
    """A named golden fixture is not available."""
