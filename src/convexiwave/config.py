"""JSON-backed run configuration with the production defaults baked in."""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from .convexify import ConvexParams
from .errors import InvalidInput
from .fixtures import DEFAULT_FORWARD_GRID, check_piece, is_finite_number
from .forward import BoundaryData, CorrectionBox, SourceModel
from .grid import SpaceTimeGrid
from .solver import DescentConfig, InversionResult, QRConfig, invert


@dataclass
class GridConfig:
    """The forward grid [-a, a] x [0, T] with nx x nt intervals; the defaults
    are the fixtures' ``DEFAULT_FORWARD_GRID``."""

    a: float = DEFAULT_FORWARD_GRID.x_max
    T: float = DEFAULT_FORWARD_GRID.t_max
    nx: int = DEFAULT_FORWARD_GRID.nx
    nt: int = DEFAULT_FORWARD_GRID.nt

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.T < math.inf) or self.nx < 2 or self.nt < 2:
            raise ValueError("grid parameters out of range")


@dataclass
class NoiseConfig:
    delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.delta < math.inf:
            raise ValueError("delta must be nonnegative and finite")


@dataclass
class ForwardConfig:
    medium: list = field(default_factory=list)
    grid: GridConfig = field(default_factory=GridConfig)
    source: SourceModel = field(default_factory=SourceModel)
    correction: CorrectionBox = field(default_factory=CorrectionBox)
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self):
        if not isinstance(self.medium, list):
            raise ValueError("medium must be a list of pieces")
        for piece in self.medium:
            check_piece(piece)


@dataclass
class InversionConfig:
    eps: float = 0.0
    M: float = 3.0
    T: float = 6.0
    nx: int = 60
    nt: int = 60
    c_upper: float = 15.0
    diff_reg: float = 1e-6
    freeze_time_derivative: bool = True

    def __post_init__(self):
        if not (0 <= self.eps < self.M < math.inf):
            raise ValueError("need 0 <= eps < M < inf")
        if not 0 < self.T < math.inf or self.nx < 2 or self.nt < 2:
            raise ValueError("inversion grid parameters out of range")
        if not 1.0 < self.c_upper < math.inf:
            raise ValueError("c_upper must be finite and exceed the background value 1")
        if not 0 < self.diff_reg < math.inf:
            raise ValueError("diff_reg must be positive and finite")


@dataclass
class PreprocessConfig:
    half_width_steps: int = 10
    diff_reg: float = 1e-6

    def __post_init__(self):
        if self.half_width_steps < 0 or not 0 < self.diff_reg < math.inf:
            raise ValueError("preprocess parameters out of range")


@dataclass
class RunConfig:
    forward: ForwardConfig = field(default_factory=ForwardConfig)
    inversion: InversionConfig = field(default_factory=InversionConfig)
    convex: ConvexParams = field(default_factory=ConvexParams)
    descent: DescentConfig = field(default_factory=DescentConfig)
    qr: QRConfig = field(default_factory=QRConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build a config from its JSON object; missing keys take their defaults.

        Raises InvalidInput, naming the section and key, for an unknown key,
        a value of the wrong JSON type (see ``_scalar``) or a value that a
        section rejects.
        """
        return _build(cls, data, "")

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number"}


def _scalar(name: str, value, kind):
    """Check a JSON value against the field type ``kind`` and return it.

    A ``bool`` field takes true/false only, an ``int`` field an integer only
    (a JSON boolean is not a number here) and a ``float`` field a finite
    number, returned as a float. Other field types are not checked. Raises
    InvalidInput, naming the key, for a value of the wrong type.
    """
    if kind not in _EXPECTED:
        return value
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = is_finite_number(value)
    if not ok:
        raise InvalidInput(f"config {name} must be {_EXPECTED[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _build(klass, data, section: str):
    """Instantiate a config dataclass from a JSON object, recursing into nested sections."""
    if data is None:
        return klass()
    where = section or "top level"
    if not isinstance(data, dict):
        raise InvalidInput(f"config {where} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(klass)}
    kinds = typing.get_type_hints(klass)
    kwargs = {}
    for key, value in data.items():
        name = f"{section}.{key}" if section else key
        if key not in fields:
            raise InvalidInput(f"unknown config key {name}")
        factory = fields[key].default_factory
        if dataclasses.is_dataclass(factory):
            kwargs[key] = _build(factory, value, name)
        else:
            kwargs[key] = _scalar(name, value, kinds[key])
    try:
        return klass(**kwargs)
    except (TypeError, ValueError) as exc:
        given = ", ".join(f"{key}={value!r}" for key, value in data.items())
        raise InvalidInput(f"config {where} ({given}): {exc}") from exc


def invert_from_config(data: BoundaryData, cfg: RunConfig) -> InversionResult:
    """Run ``solver.invert`` on the inversion grid and with the settings of ``cfg``."""
    inv = cfg.inversion
    return invert(
        data,
        SpaceTimeGrid(inv.eps, inv.M, inv.T, inv.nx, inv.nt),
        cfg.convex,
        cfg.qr,
        cfg.descent,
        diff_reg=inv.diff_reg,
        c_upper=inv.c_upper,
        freeze_time_derivative=inv.freeze_time_derivative,
    )


def load_config(path: str) -> RunConfig:
    with open(path) as f:
        return RunConfig.from_json(f.read())
