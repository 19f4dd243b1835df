"""Closed-form Gaussian performance under a capacity-limited learning module.

All quantities are linear-scale; dB conversion belongs to the CLI layer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bottleneck import AiBudget, kappa
from .errors import DegenerateInputError, _check_nonnegative, _check_positive


@dataclass(frozen=True)
class ScalarScenario:
    """Single-antenna scenario: transmit power, link gains, noises, prior.

    Gains may be zero (blocked link); everything else must be positive.
    Every field must be finite; NaN and inf fail every check.
    """

    power: float
    gain_c: float
    gain_s: float
    noise_c: float
    noise_s: float
    prior_var: float

    def __post_init__(self) -> None:
        _check_positive(self.power, "power")
        _check_nonnegative(self.gain_c, "communication gain")
        _check_nonnegative(self.gain_s, "sensing gain")
        _check_positive(self.noise_c, "communication noise variance")
        _check_positive(self.noise_s, "sensing noise variance")
        _check_positive(self.prior_var, "prior variance")


@dataclass(frozen=True)
class PerfPoint:
    """A (rate, distortion) operating point, both >= 0 as on a Frontier."""

    rate: float
    distortion: float

    def __post_init__(self) -> None:
        if not (self.rate >= 0 and self.distortion >= 0):
            raise DegenerateInputError("rate and distortion must be >= 0, "
                                       f"got ({self.rate}, {self.distortion})")


def link_snrs(sc: ScalarScenario, nz: float) -> tuple[float, float]:
    """SNRs gamma_i = |h_i|^2 P / (N_i + |h_i|^2 N_z) of both links at latent
    noise N_z: the one scalar link model of the package."""
    return (sc.gain_c * sc.power / (sc.noise_c + sc.gain_c * nz),
            sc.gain_s * sc.power / (sc.noise_s + sc.gain_s * nz))


def latent_snrs(sc: ScalarScenario, kap: float) -> tuple[float, float]:
    """link_snrs at the latent noise N_z = P kappa of a kappa >= 0; per link,
    where kappa > 0 and g P or N + g N_z overflows (the link form reads 0, inf
    or NaN), the same SNR as 1 / (N / (g P) + kappa), which saturates at 1/kappa."""
    nz = sc.power * kap
    g_c, g_s = snrs = link_snrs(sc, nz)
    if (0.0 < g_c < math.inf and 0.0 < g_s < math.inf) or not kap:
        return snrs
    out = []
    for s, g, n in zip(snrs, (sc.gain_c, sc.gain_s), (sc.noise_c, sc.noise_s)):
        gp = g * sc.power
        if not (gp < math.inf and n + g * nz < math.inf):
            s = 1.0 / (n / gp + kap) if gp else 0.0  # g P is 0 at g = 0 or kappa = inf
        out.append(s)
    return tuple(out)


def effective_snrs(sc: ScalarScenario, budget: AiBudget) -> tuple[float, float]:
    """latent_snrs at kappa = 1/(2^C - 1) of the budget, the one scalar SNR
    path: the latent noise passes through the channel with the signal, so
    each SNR saturates at 1/kappa, also where P kappa overflows. Zero capacity
    gives (0, 0); an SNR that is not finite raises DegenerateInputError."""
    if budget.c_ai == 0:
        return 0.0, 0.0
    g_c, g_s = latent_snrs(sc, kappa(budget))
    if not (math.isfinite(g_c) and math.isfinite(g_s)):
        raise DegenerateInputError(f"effective SNRs ({g_c}, {g_s}) overflow")
    return g_c, g_s


def split_rate(g_c: float, alpha: float) -> float:
    """Rate log2(1 + alpha g_c) in bits at power split alpha (the sensing
    probe is known and cancelled at the receiver): the one scalar rate."""
    return math.log2(1.0 + alpha * g_c)


def split_distortion(g_s: float | np.ndarray, prior_var: float,
                     alpha: float | np.ndarray) -> float | np.ndarray:
    """MMSE prior_var / (1 + (1 - alpha) g_s) at power split alpha, where g_s
    or alpha may be a float64 array: the one scalar distortion."""
    return prior_var / (1.0 + (1.0 - alpha) * g_s)


def rate(sc: ScalarScenario, budget: AiBudget) -> float:
    """Achievable communication rate log2(1 + effective SNR), bits per use."""
    return split_rate(effective_snrs(sc, budget)[0], 1.0)


def distortion(sc: ScalarScenario, budget: AiBudget) -> float:
    """MMSE sensing distortion prior_var / (1 + effective sensing SNR)."""
    return split_distortion(effective_snrs(sc, budget)[1], sc.prior_var, 0.0)
