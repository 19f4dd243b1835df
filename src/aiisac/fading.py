"""Ergodic rate and average distortion over fading channels.

ergodic_rate and ergodic_distortion average the rate and the MMSE over the
channel power gain x: non-central chi-square with unit scattered power and
K-factor K (Rician, mean 1+K), which at K = 0 is the unit-mean exponential
(Rayleigh).  Both integrate by the order-M composite rule of the
QuadratureRule they are given (QuadratureRule.graded):
M // 2 Gauss-Legendre nodes on [0, a] in the graded variable x = a s^2,
and the rest Gauss-Laguerre nodes on [a, inf), where a is the mean gain
1 + K and the tail is stretched by the gain's standard deviation
sqrt(1 + 2K).  Plain Gauss-Laguerre cannot resolve log(1 + x snr) near
x = 1/snr at high mean SNR (the integrand is singular just left of the
origin) and missed the Rayleigh closed form by 3.3e-2 bits at M = 20 and
2.2e-3 bits at M = 128 for mean SNRs up to 25 dB; the composite rule
misses it by 3.8e-5 bits at M = 20, 8.5e-8 at M = 40 and 1e-11 at
M >= 80.  Every average checks that
its weights integrate the gain density to one; it warns where they miss by
a little and raises ConvergenceError where they miss by more than 1e-2.
An array of kappas is averaged as one column: the weights are built once
per (order, K) and cached, the check runs on every call, and each entry is
the float a scalar call gives.  ergodic_columns gives a rate column and a
distortion column in one evaluation per K: the integrands at both mean
SNRs come from one stacked array, and the inputs and weights are checked
once for both.  A seeded Monte-Carlo oracle provides an
independent route for validation.  The Bessel factor exp(-z) I0(z) and the
scaled exponential integral e^u E1(u) are evaluated here; nothing imports
SciPy.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DegenerateInputError
from .numerics import QuadratureRule, RandomStream

_MC_CHUNK = 1 << 20

# Largest error in a fading average, from weights that miss the gain
# density's unit mass, accepted without a warning: the 1e-4 accuracy
# acceptance criterion 1 states for the averages.
DENSITY_TOL = 1e-4

# Largest miss of the unit mass itself for which an average is returned at
# all; beyond it the rule has not resolved the density, and an average can
# land outside the range of its integrand (an MMSE above the prior).
DENSITY_FAIL = 1e-2

# Cephes' Chebyshev coefficients for exp(-z) I0(z) (S. L. Moshier, Cephes
# Math Library, i0.c), one column per range: z <= 8 in y = z/2 - 2
# (30 terms), and sqrt(z) exp(-z) I0(z) for z > 8 in y = 32/z - 2 (25 terms,
# led by five zeros, which leave the Clenshaw sums exactly as they start).
_I0E_CHEB = np.array([(
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
), (
    0.0, 0.0, 0.0, 0.0, 0.0,
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)]).T

_EULER_GAMMA = 0.5772156649015329
_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class FadingModel:
    """Channel gain distribution for the Monte-Carlo oracle: "rayleigh", or
    "rician" with a K-factor and unit scattered power, so mean gain 1 + K.
    """

    kind: str
    k_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("rayleigh", "rician"):
            raise DegenerateInputError(f"unknown fading kind {self.kind!r}")
        if self.kind == "rician" and not self.k_factor >= 0:
            raise DegenerateInputError("rician K-factor must be >= 0")


def _check_snr(gamma_bar: float) -> None:
    if not 0.0 < gamma_bar < math.inf:
        raise DegenerateInputError(
            f"mean SNR must be positive and finite, got {gamma_bar}")


def conditional_snr(x, gamma_bar: float, kappa: float | np.ndarray):
    """Effective SNR x*gamma / (1 + x*gamma*kappa) at channel gain x.

    Saturates at 1/kappa for kappa > 0.  Accepts scalars or arrays of x and
    kappa, which broadcast against each other.  Raises DegenerateInputError
    unless the mean SNR gamma is positive and finite.
    """
    _check_snr(gamma_bar)
    if not np.all(np.asarray(kappa) >= 0):
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    xg = np.asarray(x, dtype=float) * gamma_bar
    out = xg / (1.0 + xg * kappa)
    return float(out) if np.isscalar(x) and np.isscalar(kappa) else out


def _i0e(z: np.ndarray) -> np.ndarray:
    """exp(-z) I0(z) for an array of z >= 0, as Cephes' i0e evaluates it:
    one Clenshaw recurrence runs both Chebyshev series of _I0E_CHEB over
    the stacked arguments, and each z takes the series of its range. The
    operations are Cephes' own, in its order."""
    y = np.stack((np.minimum(z, 8.0) / 2.0 - 2.0, 32.0 / np.maximum(z, 8.0) - 2.0),
                 axis=-1)
    b0 = b1 = b2 = np.zeros_like(y)
    for c in _I0E_CHEB:
        b0, b1, b2 = y * b0 - b1 + c, b0, b1
    half = 0.5 * (b0 - b2)
    return np.where(z <= 8.0, half[..., 0], half[..., 1] / np.sqrt(np.maximum(z, 8.0)))


@lru_cache(maxsize=256)
def _weights(rule: QuadratureRule, k_factor: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Read-only nodes x and weights w of rule's composite rule for the
    Rician gain density with K-factor k_factor (K = 0 is Rayleigh), and the
    miss |sum(w) - 1| of the density's unit mass.

    The rule is split at the mean gain 1 + K, its tail scaled by the gain's
    standard deviation sqrt(1 + 2K). The density factor e^{-K} I0(2 sqrt(K x))
    is folded into the log-weights as log(i0e(z)) + z - K, so weights
    neither under- nor overflow at large K. Cached per (order, K): a
    gaussian-sweep needs two pairs, a process running many sweeps reuses
    them, and 256 entries of order 128 hold under 1 MB.
    """
    nodes, log_w = rule.graded(1.0 + k_factor, math.sqrt(1.0 + 2.0 * k_factor))
    if k_factor > 0:
        z = 2.0 * np.sqrt(k_factor * nodes)
        log_w = log_w + np.log(_i0e(z)) + z - k_factor
    w = np.exp(log_w)
    for arr in (nodes, w):
        arr.flags.writeable = False
    return nodes, w, abs(float(np.sum(w)) - 1.0)


def _average(values_at, k_factor: float, rule: QuadratureRule):
    """Average of values_at(x) over the Rician gain density with K-factor
    k_factor (K = 0 is Rayleigh), by the weights _weights caches for
    (rule.order, K).

    values_at maps the M nodes to M values (a float is returned) or to
    rows x M values (one np.dot(w, row) per row is returned). The weights
    must integrate the density to one: a miss of m shifts an average by
    about m times its values, so every call, cached weights or not, raises
    ConvergenceError where m exceeds DENSITY_FAIL, and otherwise issues a
    RuntimeWarning where m * max(1, max |values|) exceeds DENSITY_TOL.
    A value that is not finite raises DegenerateInputError, and a negative
    K-factor ValueError.
    """
    if not k_factor >= 0.0:
        raise ValueError(f"K-factor must be >= 0, got {k_factor}")
    nodes, w, miss = _weights(rule, k_factor)
    with np.errstate(over="ignore", invalid="ignore"):
        values = values_at(nodes)
    if not miss <= DENSITY_FAIL:
        raise ConvergenceError(
            f"order-{rule.order} fading rule misses the K = {k_factor:g} gain "
            f"density's unit mass by {miss:.2e}, more than {DENSITY_FAIL:g}; "
            f"raise the quadrature order or lower the K-factor")
    # NaN and inf carry through the max, so one reduction checks both.
    peak = float(np.abs(values).max())
    if not math.isfinite(peak):
        raise DegenerateInputError(
            f"the order-{rule.order} fading average overflows at the rule's "
            f"largest gains; lower the mean SNR")
    if miss * max(1.0, peak) > DENSITY_TOL:
        warnings.warn(
            f"order-{rule.order} fading rule misses the K = {k_factor:g} gain "
            f"density's unit mass by {miss:.2e}; averages may be off by more "
            f"than {DENSITY_TOL:g}, raise the quadrature order",
            RuntimeWarning, stacklevel=3)
    if values.ndim == 1:
        return float(np.dot(w, values))
    return np.array([np.dot(w, row) for row in values])


def ergodic_rate(
    gamma_bar: float, kappa: float | np.ndarray, k_factor: float, rule: QuadratureRule
) -> float | np.ndarray:
    """Ergodic rate E[log2(1 + snr(x))], bits per use, over the Rician gain
    with K-factor k_factor (K = 0 is Rayleigh), by the composite rule of
    order rule.order split at the mean gain 1 + K."""
    kap = np.asarray(kappa, dtype=float)[..., None]
    return _average(lambda x: np.log1p(conditional_snr(x, gamma_bar, kap)) / math.log(2.0),
                    k_factor, rule)


def ergodic_distortion(
    gamma_bar: float, kappa: float | np.ndarray, k_factor: float,
    prior_var: float, rule: QuadratureRule,
) -> float | np.ndarray:
    """Fading-averaged MMSE distortion E[prior_var / (1 + snr(x))] over the
    Rician gain with K-factor k_factor (K = 0 is Rayleigh), by the composite
    rule of order rule.order split at the mean gain 1 + K."""
    if not prior_var > 0:
        raise ValueError("prior variance must be positive")
    kap = np.asarray(kappa, dtype=float)[..., None]
    return _average(lambda x: prior_var / (1.0 + conditional_snr(x, gamma_bar, kap)),
                    k_factor, rule)


def ergodic_columns(
    g_c: float, g_s: float, kappa: float | np.ndarray, k_factor: float,
    prior_var: float, rule: QuadratureRule,
) -> tuple[np.ndarray, np.ndarray]:
    """Ergodic rates at mean SNR g_c and average distortions at mean SNR
    g_s, one entry per kappa, over the Rician gain with K-factor k_factor
    (K = 0 is Rayleigh): each entry is the float ergodic_rate(g_c, ...) or
    ergodic_distortion(g_s, ...) gives, with the same errors, but both
    columns come from one evaluation of the stacked SNRs x * [g_c, g_s]
    and one check of the inputs and of the weights, which warns at most
    once."""
    if not prior_var > 0:
        raise ValueError("prior variance must be positive")
    _check_snr(g_c)
    _check_snr(g_s)
    kap = np.asarray(kappa, dtype=float)[..., None]
    if not (kap >= 0).all():
        raise ValueError(f"kappa must be >= 0, got {kap}")
    gains = np.array([[g_c], [g_s]])

    def values_at(x):
        xg = (x * gains)[:, None, :]
        snr = xg / (1.0 + xg * kap)
        return np.concatenate((np.log1p(snr[0]) / math.log(2.0),
                               prior_var / (1.0 + snr[1])))

    both = _average(values_at, k_factor, rule)
    return both[:len(kap)], both[len(kap):]


def rayleigh_rate_exact(gamma_bar: float, kappa: float) -> float:
    """Closed-form Rayleigh ergodic rate via the exponential integral.

    With beta1 = gamma*(1+kappa) and beta2 = gamma*kappa the average of
    log(1 + x*gamma/(1+x*gamma*kappa)) over a unit-mean exponential gain
    is e^{1/beta1} E1(1/beta1) - e^{1/beta2} E1(1/beta2); the second term
    vanishes at kappa = 0. Raises DegenerateInputError where beta1
    overflows, and ValueError unless kappa >= 0.
    """
    _check_snr(gamma_bar)
    if not kappa >= 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if gamma_bar * (1.0 + kappa) == math.inf:
        raise DegenerateInputError(f"mean SNR {gamma_bar!r} times 1 + kappa overflows")

    def term(beta: float) -> float:
        # 1/beta overflows where beta is 0 or subnormal; e^u E1(u) ~ 1/u is
        # then beta itself.
        u = 1.0 / beta if beta else math.inf
        return _exp_e1(u) if u < math.inf else beta

    return (term(gamma_bar * (1.0 + kappa)) - term(gamma_bar * kappa)) / math.log(2.0)


def _exp_e1(u: float) -> float:
    """e^u E1(u) for finite u > 0, to about 3e-15 relative.

    For u <= 1 by the series E1(u) = -gamma - ln u - sum_k (-u)^k / (k k!)
    (Abramowitz & Stegun 5.1.11). For u > 1 by the continued fraction of
    A&S 5.1.22 in its even form, 1/(u+1 - 1/(u+3 - 4/(u+5 - ...))), which
    is e^u E1(u) itself, so nothing overflows at large u. It is summed by
    Steed's method, adding each convergent's correction until one moves
    the sum by at most an ulp (at most 89 steps, near u = 1); the modified
    Lentz method multiplies the same ~100 steps together instead, and its
    rounding reached 1e-14 relative.
    """
    if u <= 1.0:
        total, term, k = 0.0, 1.0, 0
        while True:
            k += 1
            term *= -u / k
            total += term / k
            if abs(term) / k <= _EPS * abs(total):
                return math.exp(u) * (-_EULER_GAMMA - math.log(u) - total)
    b = u + 1.0
    d = step = total = 1.0 / b
    n = 0
    while abs(step) > _EPS * total:
        n += 1
        b += 2.0
        d = 1.0 / (b - n * n * d)
        step *= b * d - 1.0
        total += step
    return total


class MonteCarloEstimate(NamedTuple):
    rate: float
    distortion: float
    rate_std_err: float
    distortion_std_err: float


def _sample_gains(model: FadingModel, n: int, rng: np.random.Generator) -> np.ndarray:
    if model.kind == "rayleigh":
        return rng.exponential(1.0, size=n)
    mu = math.sqrt(model.k_factor)
    re = rng.normal(mu, math.sqrt(0.5), size=n)
    im = rng.normal(0.0, math.sqrt(0.5), size=n)
    return re * re + im * im


def _chunked_mean(values: np.ndarray) -> tuple[float, float]:
    """Deterministic mean and mean-of-squares via fixed-order chunked sums."""
    n = values.size
    sums, sq_sums = [], []
    for start in range(0, n, _MC_CHUNK):
        chunk = values[start : start + _MC_CHUNK]
        sums.append(float(np.sum(chunk)))
        sq_sums.append(float(np.sum(chunk * chunk)))
    return math.fsum(sums) / n, math.fsum(sq_sums) / n


def monte_carlo_oracle(
    model: FadingModel,
    gamma_bar: float,
    kappa: float,
    prior_var: float,
    n_samples: int,
    stream: RandomStream,
) -> MonteCarloEstimate:
    """Sample-average rate and distortion over the fading distribution.

    Deterministic for a fixed stream: gains come from a counter-based
    generator and the reduction order is fixed regardless of chunking.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not prior_var > 0:
        raise ValueError("prior variance must be positive")
    rng = stream.generator()
    gains = _sample_gains(model, n_samples, rng)
    snr = conditional_snr(gains, gamma_bar, kappa)
    rates = np.log1p(snr) / math.log(2.0)
    dists = prior_var / (1.0 + snr)
    r_mean, r_sq = _chunked_mean(rates)
    d_mean, d_sq = _chunked_mean(dists)
    r_se = math.sqrt(max(r_sq - r_mean**2, 0.0) / n_samples)
    d_se = math.sqrt(max(d_sq - d_mean**2, 0.0) / n_samples)
    return MonteCarloEstimate(r_mean, d_mean, r_se, d_se)
