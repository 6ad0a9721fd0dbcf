"""JSON-backed run configuration with the production defaults baked in."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .convexify import ConvexParams
from .errors import InvalidInput
from .fixtures import check_piece
from .forward import CorrectionBox, SourceModel
from .grid import SpaceTimeGrid
from .solver import DescentConfig, InversionResult, QRConfig, invert
from .transform import BoundaryData


@dataclass
class GridConfig:
    a: float = 5.0
    T: float = 6.0
    nx: int = 3000
    nt: int = 300

    def __post_init__(self):
        if self.a <= 0 or self.T <= 0 or self.nx < 2 or self.nt < 2:
            raise ValueError("grid parameters out of range")


@dataclass
class NoiseConfig:
    delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


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
        if not (0 <= self.eps < self.M):
            raise ValueError("need 0 <= eps < M")
        if self.T <= 0 or self.nx < 2 or self.nt < 2:
            raise ValueError("inversion grid parameters out of range")
        if self.c_upper <= 1.0:
            raise ValueError("c_upper must exceed the background value 1")
        if self.diff_reg <= 0:
            raise ValueError("diff_reg must be positive")


@dataclass
class PreprocessConfig:
    half_width_steps: int = 10
    diff_reg: float = 1e-6

    def __post_init__(self):
        if self.half_width_steps < 0 or self.diff_reg <= 0:
            raise ValueError("preprocess parameters out of range")


@dataclass
class RunConfig:
    forward: ForwardConfig = field(default_factory=ForwardConfig)
    inversion: InversionConfig = field(default_factory=InversionConfig)
    convex: ConvexParams = field(default_factory=ConvexParams)
    descent: DescentConfig = field(default_factory=DescentConfig)
    qr: QRConfig = field(default_factory=QRConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build a config from its JSON object; missing keys take their defaults.

        Raises InvalidInput, naming the section and key, for an unknown key
        or a value that a section rejects.
        """
        return _build(cls, data, "")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _build(klass, data, section: str):
    """Instantiate a config dataclass from a JSON object, recursing into nested sections."""
    if data is None:
        return klass()
    where = section or "top level"
    if not isinstance(data, dict):
        raise InvalidInput(f"config {where} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(klass)}
    kwargs = {}
    for key, value in data.items():
        name = f"{section}.{key}" if section else key
        if key not in fields:
            raise InvalidInput(f"unknown config key {name}")
        factory = fields[key].default_factory
        kwargs[key] = _build(factory, value, name) if dataclasses.is_dataclass(factory) else value
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


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w") as f:
        f.write(cfg.to_json() + "\n")
