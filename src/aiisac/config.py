"""Run configuration: presets, flat key = value parsing, unit conversion.

All dB fields are converted to linear scale exactly once, at load time;
every numerical module downstream sees linear units only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .bottleneck import MAX_DIM
from .errors import ConfigError
from .numerics import MAX_QUADRATURE_ORDER

PRESETS = ("tableI-dbm", "tableI-normalized")

# Most points on the capacity axis of gaussian-sweep or the SNR axis of
# mimo-surface; both grids are built in full in memory.
MAX_GRID_POINTS = 10_000

# Largest magnitude of a dB field, so that its linear value (and the
# mimo-surface power scale, 10 dB lower) is a positive finite float.
MAX_DB = 3000.0


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class RunConfig:
    """Defaults mirror the standard simulation table.

    power is stored linear; the tableI-dbm preset reads the 10 dBm transmit
    power as 0.01 W, while tableI-normalized keeps the dimensionless
    value 10 in the same unit as the 0.1 noise variances.

    Every float must be finite, except alloc_c_ai = inf, the classical
    limit with no learning bottleneck; neither the capacity nor the SNR
    axis may exceed MAX_GRID_POINTS points, nor mimo_nt or mimo_nr the
    MAX_DIM of the matrix validator, nor a dB field MAX_DB in magnitude.
    Malformed values raise ConfigError.
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
    alpha_verify: float = 0.6
    weight: float = 0.3
    alpha0: float = 0.4
    alloc_c_ai: float = 4.0
    quadrature_order: int = 20
    seed: int = 20240817
    mc_samples: int = 1_000_000

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        for name, value in vars(self).items():
            if (isinstance(value, float) and not math.isfinite(value)
                    and not (name == "alloc_c_ai" and value == math.inf)):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.power <= 0 or self.noise_c <= 0 or self.noise_s <= 0:
            raise ConfigError("power and noise variances must be positive")
        if self.gain_c <= 0 or self.gain_s <= 0:
            raise ConfigError("channel gains must be positive")
        if self.alloc_c_ai <= 0:
            raise ConfigError("alloc_c_ai must be positive")
        if self.prior_var <= 0:
            raise ConfigError("prior variance must be positive")
        if not 1 <= self.quadrature_order <= MAX_QUADRATURE_ORDER:
            raise ConfigError(f"quadrature order must lie in [1, {MAX_QUADRATURE_ORDER}]")
        if self.c_min < 0 or self.c_step <= 0 or self.c_max < self.c_min:
            raise ConfigError("invalid capacity grid: need 0 <= c_min <= c_max "
                              "and c_step > 0")
        if self.snr_step_db <= 0 or self.snr_max_db < self.snr_min_db:
            raise ConfigError("invalid SNR grid: need snr_min_db <= snr_max_db "
                              "and snr_step_db > 0")
        for axis, lo, hi, step in (
                ("capacity", self.c_min, self.c_max, self.c_step),
                ("SNR", self.snr_min_db, self.snr_max_db, self.snr_step_db)):
            # round((hi - lo) / step) + 1 points, counted without building
            # them; the first test keeps round() off a span of inf.
            span = (hi - lo) / step
            if span > MAX_GRID_POINTS or round(span) + 1 > MAX_GRID_POINTS:
                raise ConfigError(f"{axis} grid has more than {MAX_GRID_POINTS} "
                                  f"points; raise its step")
        db = (self.rician_k_db, self.snr_min_db, self.snr_max_db)
        if max(map(abs, db)) > MAX_DB:
            raise ConfigError(f"dB values must lie in [-{MAX_DB:g}, {MAX_DB:g}]")
        if not (1 <= self.mimo_nt <= MAX_DIM and 1 <= self.mimo_nr <= MAX_DIM):
            raise ConfigError(f"mimo_nt and mimo_nr must lie in [1, {MAX_DIM}]")
        for name in ("weight", "alpha0", "alpha_verify"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], "
                                  f"got {getattr(self, name)}")

    @property
    def rician_k(self) -> float:
        return db_to_linear(self.rician_k_db)

    def mean_snr_c(self) -> float:
        return self.gain_c * self.power / self.noise_c

    def mean_snr_s(self) -> float:
        return self.gain_s * self.power / self.noise_s


def preset_config(name: str) -> RunConfig:
    if name == "tableI-dbm":
        return RunConfig(preset=name, power=0.01)
    if name == "tableI-normalized":
        return RunConfig(preset=name, power=10.0)
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse flat key = value text into a RunConfig.

    Lines beginning with '#' or ';' are comments; '[section]' headers are
    allowed for grouping and carry no meaning.  Unknown keys are errors.
    A 'preset' key, on any line, sets the base that every other key
    overrides; each other value is read as the type of its RunConfig default.
    """
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    cfg = base if base is not None else RunConfig()
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
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key == "preset":
            cfg = preset_config(value)
            continue
        try:
            updates[key] = types[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    try:
        return replace(cfg, **updates)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
