"""Reconstruction of a 1D dielectric profile from backscattering wave data.

The pipeline: implicit forward wave simulation, wavefront re-clocking of the
data, a Carleman-weighted strictly convexifiable least-squares objective with
an exact discrete gradient, quasi-reversibility initialization and correction
solves, and radar-style trace preprocessing.
"""

from .convexify import (
    ConvexParams,
    ObjectiveContext,
    bregman_divergence,
    carleman_weight,
    convexity_scan,
    evaluate_J,
    gradient_J,
    make_context,
)
from .errors import (
    AmbiguousExtrema,
    ConvexiwaveError,
    FixtureMissing,
    FloorViolation,
    HorizonTooShort,
    InvalidInput,
    OffGridObservation,
    SingularSystem,
    ZeroSignal,
)
from .forward import (
    CorrectionBox,
    MediumProfile,
    SourceModel,
    add_noise,
    correct_near_origin,
    extract_boundary,
    simulate,
    tikhonov_differentiate,
)
from .grid import (
    Field2D,
    Signal,
    SpaceTimeGrid,
    h2_norm_sq,
    integrate,
)
from .preprocess import (
    CalibrationResult,
    ContrastSign,
    EnvelopeSide,
    MediumMode,
    RawTrace,
    calibrate,
    detect_contrast_sign,
    envelope,
    preprocess_pipeline,
    truncate_window,
)
from .solver import (
    DescentConfig,
    InversionResult,
    QRConfig,
    correction_step,
    descend,
    initial_guess,
    invert,
)
from .transform import (
    BoundaryData,
    QField,
    TravelTime,
    boundary_traces_from_data,
    c_from_q,
    q_from_u,
    residual_F,
    travel_time,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
