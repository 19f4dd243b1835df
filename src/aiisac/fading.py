"""Ergodic rate and average distortion over fading channels.

One kernel gives every fading average: ergodic_columns is one call into
it for every K-factor it is given, and ergodic_rate and ergodic_distortion
are its one-K cases.  It averages, over the channel power gain x, the rate
log2(1 + snr(x)) in bits or the MMSE prior_var / (1 + snr(x)) at each mean
SNR it is given, for every kappa of a column and every K-factor at once.
The gain is non-central chi-square with unit scattered power and K-factor
K (Rician, mean 1+K), which at K = 0 is the unit-mean exponential
(Rayleigh).  The kernel integrates by the order-M composite
rule of the QuadratureRule it is given (QuadratureRule.graded):
M // 2 Gauss-Legendre nodes on [0, a] in the graded variable x = a s^2,
and the rest Gauss-Laguerre nodes on [a, inf), where a is the mean gain
1 + K and the tail is stretched by the gain's standard deviation
sqrt(1 + 2K).  Plain Gauss-Laguerre cannot resolve log(1 + x snr) near
x = 1/snr at high mean SNR (the integrand is singular just left of the
origin) and missed the Rayleigh closed form by 3.3e-2 bits at M = 20 and
2.2e-3 bits at M = 128 for mean SNRs up to 25 dB; the composite rule
misses it by 3.8e-5 bits at M = 20, 8.5e-8 at M = 40 and 1e-11 at
M >= 80.  The kernel checks each input once, evaluates the SNRs at every
mean SNR, K-factor, kappa and node as one array, warns where its weights
miss the gain density's unit mass by a little and raises ConvergenceError
where they miss it by more than 1e-2, and sums every row with its K's
weights by one np.vecdot.  The weights are cached per (order, K); each
entry of a column is the float a scalar one-K call gives.  Where
x*gamma*kappa overflows, the SNR is taken in a form that saturates at
1/kappa.  A seeded Monte-Carlo oracle on the same rate and MMSE transforms
is an independent check.  The Bessel factor exp(-z) I0(z) and the scaled
exponential integral e^u E1(u) are evaluated here; nothing imports SciPy.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, DegenerateInputError, _check_integer, _check_nonnegative,
                     _check_positive)
from .numerics import QuadratureRule, RandomStream

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

    A "rayleigh" model checks its K-factor like a Rician one and then
    ignores it: FadingModel("rayleigh", k_factor=4.0) draws Rayleigh gains.
    """

    kind: str
    k_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("rayleigh", "rician"):
            raise DegenerateInputError(f"unknown fading kind {self.kind!r}")
        _check_nonnegative(self.k_factor, "K-factor")


def _check_kappa(kappa: float | np.ndarray) -> tuple[np.ndarray, float]:
    """kappa as a float array and its largest entry (0 where it is empty);
    raises unless every kappa is finite and >= 0."""
    kap = np.asarray(kappa, dtype=float)
    top = float(kap.max(initial=0.0))
    for end in (kap.min(initial=0.0), top):  # NaN carries through the min
        _check_nonnegative(float(end), "kappa")
    return kap, top


def _snr(xg: np.ndarray, kap: np.ndarray, bound: float) -> np.ndarray:
    """Effective SNR at gain times mean SNR xg: xg / (1 + xg*kappa), where
    bound, an upper bound on every product xg*kappa, is finite. Otherwise
    the entries whose product overflows but whose xg is finite take the
    same SNR as 1 / (1/xg + kappa), which saturates at 1/kappa; an infinite
    xg gives NaN either way."""
    if bound < math.inf:
        return xg / (1.0 + xg * kap)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        prod = xg * kap
        return np.where((prod == math.inf) & (xg < math.inf), 1.0 / (1.0 / xg + kap),
                        xg / (1.0 + prod))


def _integrand(snr: np.ndarray, prior_var: float | None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Rate log2(1 + snr) in bits where prior_var is None, else the MMSE
    prior_var / (1 + snr); written into out (which may be snr) if given."""
    if prior_var is None:
        out = np.log1p(snr, out=out)
        out /= math.log(2.0)
        return out
    out = np.add(snr, 1.0, out=out)
    return np.divide(prior_var, out, out=out)


def conditional_snr(x, gamma_bar: float, kappa: float | np.ndarray):
    """Effective SNR x*gamma / (1 + x*gamma*kappa) at channel gain x.

    Saturates at 1/kappa for kappa > 0, also where x*gamma*kappa overflows;
    x and kappa, scalars or arrays, broadcast.  Raises DegenerateInputError
    unless every gain x is >= 0 and x*gamma finite, the mean SNR gamma
    positive and finite and every kappa finite and >= 0.
    """
    _check_positive(gamma_bar, "mean SNR")
    xs = np.asarray(x, dtype=float)
    top = float(xs.max(initial=0.0)) * float(gamma_bar)
    if not (xs.min(initial=0.0) >= 0.0 and top < math.inf):
        raise DegenerateInputError(f"channel gain x must be >= 0 and x * mean SNR finite, got {x}")
    kap, kap_top = _check_kappa(kappa)
    out = _snr(xs * gamma_bar, kap, top * kap_top)
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
    miss |sum(w) - 1| of the density's unit mass. The nodes ascend, so the
    last is the largest.

    The rule is split at the mean gain 1 + K, its tail scaled by the gain's
    standard deviation sqrt(1 + 2K). The density factor e^{-K} I0(2 sqrt(K x))
    is folded into the log-weights as log(i0e(z)) + z - K, so weights
    neither under- nor overflow at large K. Cached per (order, K): a
    gaussian-sweep's one evaluation reads two entries (K = 0 and its Rician
    K), a process running many sweeps reuses them, and 256 entries of
    order 128 hold under 1 MB.
    """
    nodes, log_w = rule.graded(1.0 + k_factor, math.sqrt(1.0 + 2.0 * k_factor))
    # A K so large that the weights overflow gives a miss that is not finite.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if k_factor > 0:
            z = 2.0 * np.sqrt(k_factor * nodes)
            log_w = log_w + np.log(_i0e(z)) + z - k_factor
        w = np.exp(log_w)
    for arr in (nodes, w):
        arr.flags.writeable = False
    return nodes, w, abs(float(np.sum(w)) - 1.0)


def _average(gammas, priors, kappa: float | np.ndarray, k_factors,
             rule: QuadratureRule) -> list:
    """Fading averages for each K-factor of k_factors (K = 0 is Rayleigh)
    at each mean SNR gammas[i]: the rate in bits where priors[i] is None,
    else the MMSE at prior variance priors[i], by the weights _weights
    caches for (rule.order, K).

    Returns per K-factor, per mean SNR a column, a contiguous array with an
    entry per kappa, or a float where kappa is a scalar: one stacked SNR
    array over mean SNRs, K-factors, kappas and nodes, and one np.vecdot of
    it with the K-factors' stacked w, which sums each row by the dot w.dot
    runs, so each entry is the float a one-K call gives. A miss m of the
    density's unit mass shifts an average by about m times its values, so
    every call, cached weights or not, raises ConvergenceError where m
    exceeds DENSITY_FAIL, and otherwise warns once per K where
    m * max(1, peak) exceeds DENSITY_TOL, peak being its largest rate in
    bits or MMSE over the prior. An input outside its domain, a kappa of two
    or more axes, or a value that is not finite raises DegenerateInputError,
    as does a peak that (1 + m + M ulps) times overflows, which bounds every
    sum of M values >= 0 by weights summing to 1 + m, so no sum overflows.
    Every K is checked, and its unit mass tested, before any K's values are
    tested or warned of; the sums come after every check.
    """
    for g, prior_var in zip(gammas, priors):
        _check_positive(g, "mean SNR")
        if prior_var is not None:
            _check_positive(prior_var, "prior variance")
    kap, kap_top = _check_kappa(kappa)
    if kap.ndim > 1:
        raise DegenerateInputError(f"kappa must have at most one axis, got {kap.shape}")
    rules = []  # (K, nodes, w, miss) per K-factor
    for k_factor in k_factors:
        _check_nonnegative(k_factor, "K-factor")
        nodes, w, miss = _weights(rule, k_factor)
        if not miss <= DENSITY_FAIL:
            by = (f"{miss:.2e}, more than {DENSITY_FAIL:g}" if math.isfinite(miss)
                  else "an amount that is not finite")
            raise ConvergenceError(
                f"order-{rule.order} fading rule misses the K = {k_factor:g} gain "
                f"density's unit mass by {by}; "
                f"raise the quadrature order or lower the K-factor")
        rules.append((k_factor, nodes, w, miss))
    if not rules:
        return []
    nodes = np.array([r[1] for r in rules])
    gams = np.array(gammas, dtype=float)
    # The largest node times the largest mean SNR and kappa bounds every
    # product x*gamma*kappa, as rounding is monotone.
    bound = max(float(r[1][-1]) for r in rules) * float(max(gammas)) * kap_top
    with np.errstate(over="ignore", invalid="ignore"):
        # Mean SNR first, so each integrand fills one contiguous block.
        snr = _snr(gams[:, None, None, None] * nodes[:, None, :], kap.reshape(-1, 1), bound)
        for j, prior_var in enumerate(priors):
            _integrand(snr[j], prior_var, snr[j])
    # Every value is >= 0 or NaN, and NaN and inf carry through the max, so
    # one reduction per mean SNR and K checks both and bounds each sum by top
    # times the peak; an MMSE's peak is read over its prior.
    peaks = snr.reshape(len(gammas), len(rules), -1).max(axis=2, initial=0.0).T.tolist()
    for (k_factor, _, _, miss), peak in zip(rules, peaks):
        top = 1.0 + miss + rule.order * _EPS
        if not all(p * top < math.inf for p in peak):
            raise DegenerateInputError(
                f"the order-{rule.order} fading average overflows; "
                f"lower the mean SNR or the prior variance")
        if miss * max(1.0, *(v / (p or 1.0) for v, p in zip(peak, priors))) > DENSITY_TOL:
            warnings.warn(
                f"order-{rule.order} fading rule misses the K = {k_factor:g} gain "
                f"density's unit mass by {miss:.2e}; averages may be off by more "
                f"than {DENSITY_TOL:g}, raise the quadrature order",
                RuntimeWarning, stacklevel=3)
    # By w.dot's DOUBLE_dot loop, one sum per K, mean SNR and kappa.
    sums = np.vecdot(snr, np.array([r[2] for r in rules])[:, None, :]).swapaxes(0, 1)
    return sums[..., 0].tolist() if kap.ndim == 0 else list(sums)


def ergodic_rate(
    gamma_bar: float, kappa: float | np.ndarray, k_factor: float, rule: QuadratureRule
) -> float | np.ndarray:
    """Ergodic rate E[log2(1 + snr(x))], bits per use, over the Rician gain
    with K-factor k_factor (K = 0 is Rayleigh): a float for a scalar kappa,
    else one entry per kappa."""
    return _average((gamma_bar,), (None,), kappa, (k_factor,), rule)[0][0]


def ergodic_distortion(
    gamma_bar: float, kappa: float | np.ndarray, k_factor: float,
    prior_var: float, rule: QuadratureRule,
) -> float | np.ndarray:
    """Fading-averaged MMSE distortion E[prior_var / (1 + snr(x))] over the
    Rician gain with K-factor k_factor (K = 0 is Rayleigh): a float for a
    scalar kappa, else one entry per kappa."""
    return _average((gamma_bar,), (prior_var,), kappa, (k_factor,), rule)[0][0]


def ergodic_columns(
    g_c: float, g_s: float, kappa: float | np.ndarray, k_factors,
    prior_var: float, rule: QuadratureRule,
) -> list[tuple]:
    """One pair (ergodic_rate(g_c, kappa, K, rule), ergodic_distortion(g_s,
    kappa, K, prior_var, rule)) per K-factor K of the sequence k_factors, in
    order: the same floats, from one evaluation that warns at most once
    per K-factor."""
    return [tuple(pair) for pair in
            _average((g_c, g_s), (None, prior_var), kappa, k_factors, rule)]


def rayleigh_rate_exact(gamma_bar: float, kappa: float) -> float:
    """Closed-form Rayleigh ergodic rate via the exponential integral.

    With beta1 = gamma*(1+kappa) and beta2 = gamma*kappa the average of
    log(1 + x*gamma/(1+x*gamma*kappa)) over a unit-mean exponential gain
    is e^{1/beta1} E1(1/beta1) - e^{1/beta2} E1(1/beta2); the second term
    vanishes at kappa = 0. Raises DegenerateInputError where beta1
    overflows or kappa < 0.
    """
    _check_positive(gamma_bar, "mean SNR")
    _check_kappa(kappa)
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
    generator, and numpy's pairwise sums reduce them in a fixed order. Each
    standard error is the standard deviation over sqrt(n_samples), taken
    from deviations squared in place in the one integrand buffer.
    """
    _check_integer(n_samples, "n_samples", 1)
    _check_positive(prior_var, "prior variance")
    gains = _sample_gains(model, n_samples, stream.generator())
    snr = conditional_snr(gains, gamma_bar, kappa)
    vals = _integrand(snr, None)
    r_mean, r_se = _mean_and_std_err(vals)
    d_mean, d_se = _mean_and_std_err(_integrand(snr, prior_var, out=vals))
    return MonteCarloEstimate(r_mean, d_mean, r_se, d_se)


def _mean_and_std_err(vals: np.ndarray) -> tuple[float, float]:
    """Mean of vals and its standard error; overwrites vals with the squared
    deviations, so no second array of len(vals) is made."""
    mean = float(vals.mean())
    vals -= mean
    return mean, math.sqrt(float(np.square(vals, out=vals).mean()) / vals.size)
