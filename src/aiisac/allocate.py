"""Resource allocation under a learning-capacity constraint.

Splits total transmit power between communication and sensing to maximize
a scalarized rate/distortion objective.  The latent noise is set by the
total power, so the latent mutual-information constraint is enforced
numerically once per run.  The optimal split is in closed form: the KKT
stationarity condition is a quadratic in the sensing SNR.  kkt_power_split
finds the same point by Brent's method, as a reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bottleneck import AiBudget, achieved_mi, enforce_mi_numerically, kappa
from .errors import BracketError, DegenerateInputError
from .gaussian import ScalarScenario
from .numerics import find_root

LN2 = math.log(2.0)


@dataclass(frozen=True)
class AllocationProblem:
    """Total budgets, scalarization weight, capacity, and link parameters.

    The scenario supplies gains, noises, and the prior variance; its own
    power field is ignored in favor of total_power.  The objective mode is
    either "penalized" (J = R - weight * D) or "convex"
    (J = weight * R - (1 - weight) * D).  The equivalent noise is set by
    the total power.
    """

    total_power: float
    total_time: float
    weight: float
    budget: AiBudget
    scenario: ScalarScenario
    mode: str = "penalized"

    def __post_init__(self) -> None:
        if self.total_power <= 0 or self.total_time <= 0:
            raise ValueError("total power and time must be positive")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0,1], got {self.weight}")
        if self.mode not in ("penalized", "convex"):
            raise ValueError(f"unknown objective mode {self.mode!r}")


@dataclass(frozen=True)
class AllocationResult:
    alpha_star: float
    p_c: float
    p_s: float
    objective: float
    kkt_residual: float
    trace: tuple[tuple[int, float, float, float], ...]


def _link(problem: AllocationProblem, gain: float, noise: float,
          power: float) -> tuple[float, float]:
    """Effective SNR of a link at the given power and its slope d SNR / d power,
    with the latent noise N_z set by the total power."""
    nz = kappa(problem.budget) * problem.total_power
    slope = gain / (noise + gain * nz)
    return slope * power, slope


def _comm_rate_and_grad(problem: AllocationProblem, p_c: float) -> tuple[float, float]:
    """Rate R(P_c) in bits per use and its derivative dR/dP_c."""
    sc = problem.scenario
    snr, slope = _link(problem, sc.gain_c, sc.noise_c, p_c)
    return math.log2(1.0 + snr), slope / ((1.0 + snr) * LN2)


def _sense_dist_and_grad(problem: AllocationProblem, p_s: float) -> tuple[float, float]:
    """Distortion D(P_s) and its derivative dD/dP_s (negative)."""
    sc = problem.scenario
    snr, slope = _link(problem, sc.gain_s, sc.noise_s, p_s)
    u = 1.0 + snr  # u * u where u ** 2 would raise OverflowError
    return sc.prior_var / u, -sc.prior_var * slope / (u * u)


def _weights(problem: AllocationProblem) -> tuple[float, float]:
    if problem.mode == "penalized":
        return 1.0, problem.weight
    return problem.weight, 1.0 - problem.weight


def objective(problem: AllocationProblem, alpha: float) -> float:
    """Scalarized objective at power split alpha (communication fraction)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    w_r, w_d = _weights(problem)
    r, _ = _comm_rate_and_grad(problem, alpha * problem.total_power)
    d, _ = _sense_dist_and_grad(problem, (1.0 - alpha) * problem.total_power)
    return w_r * r - w_d * d


def _stationarity(problem: AllocationProblem, p_c: float) -> float:
    """dJ/dP_c = w_r dR/dP_c - w_d (-dD/dP_s) at the split (P_c, P - P_c)."""
    w_r, w_d = _weights(problem)
    _, dr = _comm_rate_and_grad(problem, p_c)
    _, dd = _sense_dist_and_grad(problem, problem.total_power - p_c)
    return w_r * dr - w_d * (-dd)


def objective_gradient(problem: AllocationProblem, alpha: float) -> float:
    """dJ/d(alpha), analytic."""
    return problem.total_power * _stationarity(problem, alpha * problem.total_power)


def kkt_residual_check(problem: AllocationProblem, p_c: float) -> float:
    """Absolute stationarity mismatch |w_r dR/dP_c - w_d (-dD/dP_s)|."""
    if not 0.0 <= p_c <= problem.total_power:
        raise ValueError("P_c must lie in [0, total power]")
    return abs(_stationarity(problem, p_c))


def kkt_power_split(problem: AllocationProblem) -> tuple[float, float, float]:
    """Interior stationarity root on P_c by Brent's method, or the better
    boundary point: the numerical reference for optimize_alpha's closed form.

    Returns (P_c, P_s, residual).  Since the rate's marginal value falls
    and the distortion's marginal value rises with the power moved, an
    interior sign change is a maximizer when it exists.
    """
    p = problem.total_power
    eps = 1e-12 * p
    try:
        p_c = find_root(lambda x: _stationarity(problem, x), eps, p - eps, tol=1e-14)
    except BracketError:
        # No interior root: J is monotone in the split, rising towards P_c = P
        # where the stationarity is positive (J at the two ends can round equal).
        p_c = p if _stationarity(problem, eps) > 0.0 else 0.0
    return p_c, p - p_c, kkt_residual_check(problem, p_c)


def _optimal_sensing_power(problem: AllocationProblem) -> float:
    """P_s that maximizes the objective: with r = s_c / s_s, k = w_d sigma^2 ln2
    and u = 1 + s_s P_s, the positive root of the stationarity condition
    w_r r u^2 + k r u - k (1 + s_c P + r) = 0, whose coefficients stay in
    range for any finite power or gain, clipped to [0, P].  The objective is
    concave in the split, so the clip is exact."""
    sc = problem.scenario
    p = problem.total_power
    w_r, w_d = _weights(problem)
    _, s_c = _link(problem, sc.gain_c, sc.noise_c, 0.0)
    _, s_s = _link(problem, sc.gain_s, sc.noise_s, 0.0)
    k = w_d * sc.prior_var * LN2
    if k == 0.0 or s_s == 0.0:
        return 0.0  # sensing power buys no objective
    r = s_c / s_s
    a, b, c = w_r * r, k * r, -k * (1.0 + s_c * p + r)
    den = b + math.sqrt(b * b - 4.0 * a * c)
    u = -2.0 * c / den if den > 0.0 else math.inf
    return min(max((u - 1.0) / s_s, 0.0), p)


def optimize_alpha(problem: AllocationProblem, alpha0: float) -> AllocationResult:
    """The optimal power split, from the closed-form stationarity root.

    The latent MI constraint is enforced once by root-finding, since the
    latent noise does not depend on the split.  The trace rows are alpha0 and
    the optimum, each with the MI that noise achieves.  Raises
    DegenerateInputError when that MI misses the budget by more than 1e-9
    bits (N_z = P/(2^C - 1) below the normal float range) or when the
    optimal sensing power is positive but too small a fraction of the total
    for alpha to resolve."""
    if not 0.0 <= alpha0 <= 1.0:
        raise ValueError(f"alpha0 must lie in [0,1], got {alpha0}")
    p = problem.total_power
    if problem.budget.is_classical:
        mi = math.inf
    else:
        c = problem.budget.c_ai
        mi = achieved_mi(p, enforce_mi_numerically(p, c, tol=1e-12))
        if abs(mi - c) > 1e-9:
            raise DegenerateInputError(f"latent noise at power {p!r} and {c!r} "
                                       f"bits underflows: its MI is {mi!r}")

    p_s = _optimal_sensing_power(problem)
    alpha = (p - p_s) / p
    if 0.0 < p_s < p and alpha in (0.0, 1.0):
        raise DegenerateInputError(f"optimal sensing power {p_s!r} is too small "
                                   f"a fraction of {p!r} for the split alpha")
    j0, j = objective(problem, alpha0), objective(problem, alpha)
    if j < j0:  # alpha0 is the optimum to rounding; keep it so J never falls
        alpha, j = alpha0, j0
    p_c = alpha * p
    return AllocationResult(
        alpha_star=alpha, p_c=p_c, p_s=p - p_c, objective=j,
        kkt_residual=kkt_residual_check(problem, p_c),
        trace=((0, alpha0, j0, mi), (1, alpha, j, mi)))


def grid_argmax(problem: AllocationProblem, n_points: int = 10_001) -> tuple[float, float]:
    """Dense-grid oracle: (best alpha, objective) over a uniform alpha grid."""
    alphas = np.linspace(0.0, 1.0, n_points)
    vals = [objective(problem, float(a)) for a in alphas]
    i = int(np.argmax(vals))
    return float(alphas[i]), vals[i]
