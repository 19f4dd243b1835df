"""Run configuration: presets, flat key = value parsing, unit conversion.

All dB fields are converted to linear scale exactly once, at load time;
every numerical module downstream sees linear units only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real

from .bottleneck import MAX_DIM
from .errors import (ConfigError, DegenerateInputError, _check_integer, _check_nonnegative,
                     _check_positive, _check_unit)
from .numerics import QuadratureRule

# The fields each preset sets; every other field keeps its RunConfig default.
_PRESET_FIELDS = {
    "tableI-dbm": {"preset": "tableI-dbm", "power": 0.01},
    "tableI-normalized": {"preset": "tableI-normalized", "power": 10.0},
}
PRESETS = tuple(_PRESET_FIELDS)

# Most points on the capacity axis of gaussian-sweep or the SNR axis of
# mimo-surface; both grids are built in full in memory.
MAX_GRID_POINTS = 10_000

# Largest magnitude of a dB field, so that its linear value (and the
# mimo-surface power scale, 10 dB lower) is a positive finite float.
MAX_DB = 3000.0
_DB = ("rician_k_db", "snr_min_db", "snr_max_db")
_POSITIVE = ("power", "noise_c", "noise_s", "gain_c", "gain_s", "prior_var", "c_step",
             "snr_step_db")


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def _axis_steps(lo: float, hi: float, step: float) -> int:
    """Steps of the axis lo, lo + step, ...: the most whose last point stays
    at or below hi, up to 1e-9 of a step of rounding, so that a step such
    as 0.1 still reaches hi."""
    return math.floor((hi - lo) / step + 1e-9)


def _axis(lo: float, hi: float, step: float) -> list[float]:
    return [lo + i * step for i in range(_axis_steps(lo, hi, step) + 1)]


@dataclass(frozen=True)
class RunConfig:
    """Defaults mirror the standard simulation table.

    power is stored linear; the tableI-dbm preset reads the 10 dBm transmit
    power as 0.01 W, while tableI-normalized keeps the dimensionless
    value 10 in the same unit as the 0.1 noise variances.

    Each float field must be a real number and not a bool, and each field
    passes the errors rule of the quantity it feeds, so every float must be
    finite, except alloc_c_ai = inf, the classical limit with no learning
    bottleneck; neither axis may exceed MAX_GRID_POINTS points,
    nor mimo_nt or mimo_nr the MAX_DIM of the matrix validator, nor a dB
    field MAX_DB in magnitude. Malformed values raise ConfigError.
    """

    preset: str = "tableI-dbm"
    power: float = 0.01
    noise_c: float = 0.1
    noise_s: float = 0.1
    gain_c: float = 1.0
    gain_s: float = 1.0
    prior_var: float = 1.0
    c_min: float = 0.0
    c_max: float = 8.0
    c_step: float = 0.25
    rician_k_db: float = 6.0
    snr_min_db: float = -5.0
    snr_max_db: float = 25.0
    snr_step_db: float = 1.0
    mimo_nt: int = 2
    mimo_nr: int = 2
    weight: float = 0.3
    alpha0: float = 0.4
    alloc_c_ai: float = 4.0
    quadrature_order: int = 20
    seed: int = 20240817
    mc_samples: int = 1_000_000

    def __post_init__(self) -> None:
        _check_types(self)
        _preset_fields(self.preset)  # an unknown preset raises there
        try:
            for name in _POSITIVE:
                _check_positive(getattr(self, name), name)
            if self.alloc_c_ai != math.inf:  # inf is the classical limit
                _check_positive(self.alloc_c_ai, "alloc_c_ai")
            QuadratureRule(self.quadrature_order)
            for name in ("c_min", "c_max"):
                _check_nonnegative(getattr(self, name), name)
            for name in ("weight", "alpha0"):
                _check_unit(getattr(self, name), name)
            for name in ("mimo_nt", "mimo_nr"):
                _check_integer(getattr(self, name), name, 1, MAX_DIM)
            _check_integer(self.seed, "seed")
            _check_integer(self.mc_samples, "mc_samples", 1)
        except DegenerateInputError as exc:
            raise ConfigError(str(exc)) from None
        for name in _DB:  # before any grid arithmetic; fails NaN and +-inf too
            if not abs(getattr(self, name)) <= MAX_DB:
                raise ConfigError(f"{name} must lie in [-{MAX_DB:g}, {MAX_DB:g}], "
                                  f"got {getattr(self, name)}")
        for axis, lo, hi, step, span in (
                ("capacity", self.c_min, self.c_max, self.c_step, "c_max must be >= c_min"),
                ("SNR", self.snr_min_db, self.snr_max_db, self.snr_step_db,
                 "snr_max_db must be >= snr_min_db")):
            if hi < lo:
                raise ConfigError(f"{span}, got {hi} < {lo}")
            # Counted without building the points; the first test keeps
            # floor() off a span of inf.
            if ((hi - lo) / step > MAX_GRID_POINTS
                    or _axis_steps(lo, hi, step) + 1 > MAX_GRID_POINTS):
                raise ConfigError(f"{axis} grid has more than {MAX_GRID_POINTS} "
                                  f"points; raise its step")

    @property
    def rician_k(self) -> float:
        return db_to_linear(self.rician_k_db)

    def capacity_axis(self) -> list[float]:
        """c_min, c_min + c_step, ..., up to c_max."""
        return _axis(self.c_min, self.c_max, self.c_step)

    def snr_axis_db(self) -> list[float]:
        """snr_min_db, snr_min_db + snr_step_db, ..., up to snr_max_db."""
        return _axis(self.snr_min_db, self.snr_max_db, self.snr_step_db)

    def mean_snr_c(self) -> float:
        """gaussian.link_snrs's communication SNR at no latent noise."""
        return self.gain_c * self.power / self.noise_c


_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


# The float fields, each held to _check_types' real-number rule.
_FLOATS = tuple(name for name, kind in _TYPES.items() if kind is float)


def _check_types(cfg: RunConfig) -> None:
    """ConfigError unless preset is a str and each float field a real number
    that is not a bool (True would pass every range rule as 1); the integer
    fields are left to _check_integer. A float passes on its type alone, as
    the Real test costs about 0.5 us a field."""
    if not isinstance(cfg.preset, str):
        raise ConfigError(f"preset must be a string, got {cfg.preset!r}")
    for name in _FLOATS:
        value = getattr(cfg, name)
        if type(value) is not float and (isinstance(value, bool)
                                         or not isinstance(value, Real)):
            raise ConfigError(f"{name} must be a real number, got {value!r}")


def _preset_fields(name: str) -> dict:
    if name not in _PRESET_FIELDS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
    return _PRESET_FIELDS[name]


def preset_config(name: str) -> RunConfig:
    """The named preset, read from the same table as a config's 'preset' key."""
    return RunConfig(**_preset_fields(name))


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse flat key = value text into a RunConfig.

    Lines beginning with '#' or ';' are comments; '[section]' headers are
    allowed for grouping and carry no meaning.  Unknown keys are errors.
    A 'preset' key, on any line, sets the base that every other key
    overrides, in place of base (RunConfig's defaults if None); each other
    value is read as the type of its RunConfig default.  The merged fields
    build and validate one RunConfig.
    """
    values = vars(base) if base is not None else {}
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key == "preset":
            values = _preset_fields(value)
            continue
        try:
            updates[key] = _TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    return RunConfig(**{**values, **updates})
