"""Performance theory for ISAC systems with a capacity-limited learning module.

Scalar and MIMO rate/distortion forms, fading averages, achievable
frontiers, and constrained resource allocation, plus a CSV-emitting CLI.
"""
from .bottleneck import (
    AiBudget,
    achieved_mi,
    covariance_map,
    enforce_mi_numerically,
    gaussian_mi,
    kappa,
)
from .errors import (
    AiIsacError,
    BracketError,
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    SingularMatrixError,
)
from .gaussian import (
    PerfPoint,
    ScalarScenario,
    distortion,
    effective_snrs,
    rate,
)
from .fading import (
    FadingModel,
    conditional_snr,
    ergodic_rate,
    monte_carlo_oracle,
    rayleigh_rate_exact,
)
from .mimo import MimoScenario, mimo_rate, rate_surface
from .numerics import QuadratureRule, RandomStream
from .region import Frontier, frontier, in_region, separated_baseline
from .allocate import (
    AllocationProblem,
    kkt_power_split,
    objective,
    optimize_alpha,
)
from .config import RunConfig, parse_config, preset_config

__version__ = "0.1.0"

__all__ = [
    "AiBudget", "AiIsacError", "AllocationProblem", "BracketError",
    "ConfigError", "ConvergenceError", "DegenerateInputError", "FadingModel",
    "Frontier", "MimoScenario", "PerfPoint", "QuadratureRule", "RandomStream",
    "RunConfig", "ScalarScenario", "SingularMatrixError", "achieved_mi",
    "conditional_snr", "covariance_map", "distortion", "effective_snrs",
    "enforce_mi_numerically", "ergodic_rate", "frontier", "gaussian_mi",
    "in_region", "kappa", "kkt_power_split", "mimo_rate", "monte_carlo_oracle",
    "objective", "optimize_alpha", "parse_config", "preset_config", "rate",
    "rate_surface", "rayleigh_rate_exact", "separated_baseline",
]
