"""Resource allocation under a learning-capacity constraint.

Splits total power between communication and sensing to maximize a
scalarized rate/distortion objective of the SNRs gaussian.effective_snrs
gives at the total power (from kappa, saturated where N_z overflows), as
region.frontier does, so J at a grid alpha is the frontier's weighted point
bit for bit.  The optimal split is the root of the KKT stationarity
quadratic, in closed form or, where its coefficients overflow, by Brent's
method; kkt_power_split, the reference, always takes Brent's root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .bottleneck import AiBudget, achieved_mi, kappa
from .errors import BracketError, DegenerateInputError, _check_positive, _check_unit
from .gaussian import ScalarScenario, effective_snrs, split_distortion, split_rate
from .numerics import find_root

LN2 = math.log(2.0)


@dataclass(frozen=True)
class AllocationProblem:
    """Total budgets, scalarization weight, capacity, and link parameters.

    The scenario supplies gains, noises, and the prior variance; the link
    SNRs are gaussian.effective_snrs of it at total_power, in place of its
    own power field.  The objective mode is either "penalized"
    (J = R - weight * D) or "convex" (J = weight * R - (1 - weight) * D).
    """

    total_power: float
    total_time: float
    weight: float
    budget: AiBudget
    scenario: ScalarScenario
    mode: str = "penalized"

    def __post_init__(self) -> None:
        _check_positive(self.total_power, "total power")
        _check_positive(self.total_time, "total time")
        _check_unit(self.weight, "weight")
        if self.mode not in ("penalized", "convex"):
            raise DegenerateInputError(f"unknown objective mode {self.mode!r}")

    @cached_property
    def snrs(self) -> tuple[float, float]:
        """(g_c, g_s) of both links at the full power, computed on first use,
        which raises DegenerateInputError where they overflow."""
        return effective_snrs(replace(self.scenario, power=self.total_power),
                              self.budget)

    @property
    def weights(self) -> tuple[float, float]:
        """(w_r, w_d): the weights of rate and distortion in J."""
        if self.mode == "penalized":
            return 1.0, self.weight
        return self.weight, 1.0 - self.weight


@dataclass(frozen=True)
class AllocationResult:
    alpha_star: float
    objective: float
    kkt_residual: float
    trace: tuple[tuple[int, float, float, float], ...]


def objective(problem: AllocationProblem, alpha: float) -> float:
    """J = w_r R - w_d D at power split alpha (communication fraction), with
    R and D gaussian.split_rate and split_distortion of the problem's SNRs."""
    _check_unit(alpha, "alpha")
    w_r, w_d = problem.weights
    g_c, g_s = problem.snrs
    return (w_r * split_rate(g_c, alpha)
            - w_d * split_distortion(g_s, problem.scenario.prior_var, alpha))


def objective_gradient(problem: AllocationProblem, alpha: float) -> float:
    """dJ/d(alpha) = w_r g_c / ((1 + alpha g_c) ln2) - w_d sigma^2 g_s / u^2,
    with u = 1 + (1 - alpha) g_s."""
    w_r, w_d = problem.weights
    g_c, g_s = problem.snrs
    u = 1.0 + (1.0 - alpha) * g_s  # u * u where u ** 2 would raise OverflowError
    return (w_r * g_c / ((1.0 + alpha * g_c) * LN2)
            - w_d * problem.scenario.prior_var * g_s / (u * u))


def _residual(problem: AllocationProblem, alpha: float) -> float:
    """The projected stationarity mismatch per watt of the split: |dJ/dP_c|
    inside (0, 1), and at an end only a slope that points back into the
    split (J rising away from alpha = 0 or falling towards alpha = 1)."""
    slope = objective_gradient(problem, alpha)
    if alpha == 1.0:
        slope = min(slope, 0.0)
    elif alpha == 0.0:
        slope = max(slope, 0.0)
    return abs(slope) / problem.total_power


def kkt_residual_check(problem: AllocationProblem, p_c: float) -> float:
    """KKT mismatch at P_c: the stationarity mismatch
    |w_r dR/dP_c - w_d (-dD/dP_s)| for 0 < P_c < P, its positive part
    max(., 0) at P_c = 0 and its negative part at P_c = P, where a slope
    pointing out of [0, P] is no violation."""
    if not 0.0 <= p_c <= problem.total_power:
        raise DegenerateInputError("P_c must lie in [0, total power]")
    return _residual(problem, p_c / problem.total_power)


def _brent_alpha(problem: AllocationProblem) -> float:
    """Interior stationarity root in alpha by Brent's method, or the better
    end of the split, 1 on a tie as in _sensing_share.  The rate's marginal
    value falls and the distortion's rises with the power moved, so an
    interior sign change is a maximizer when it exists."""
    if objective_gradient(problem, 1.0 - 1e-12) >= 0.0:
        return 1.0
    try:
        return find_root(lambda a: objective_gradient(problem, a),
                         1e-12, 1.0 - 1e-12, tol=1e-14)
    except BracketError:
        return 0.0  # J falls across the whole split


def kkt_power_split(problem: AllocationProblem) -> tuple[float, float, float]:
    """The split by Brent's method, as (P_c, P_s, residual): the numerical
    reference for optimize_alpha's closed form."""
    p = problem.total_power
    alpha = _brent_alpha(problem)
    p_c = alpha * p
    return p_c, p - p_c, _residual(problem, alpha)


def _sensing_share(problem: AllocationProblem) -> float:
    """1 - alpha at the maximum of the objective: with r = g_c / g_s,
    k = w_d sigma^2 ln2 and u = 1 + (1 - alpha) g_s, the positive root of
    the stationarity condition w_r r u^2 + k r u - k (1 + g_c + r) = 0,
    clipped to [0, 1], or Brent's root where its coefficients overflow.
    The objective is concave in the split, so the clip is exact."""
    w_r, w_d = problem.weights
    g_c, g_s = problem.snrs
    k = w_d * problem.scenario.prior_var * LN2
    if k == 0.0 or g_s == 0.0:
        return 0.0  # sensing power buys no objective
    r = g_c / g_s
    a, b, c = w_r * r, k * r, -k * (1.0 + g_c + r)
    disc = b * b - 4.0 * a * c
    if not disc < math.inf:
        return 1.0 - _brent_alpha(problem)
    den = b + math.sqrt(disc)
    u = -2.0 * c / den if den > 0.0 else math.inf
    return min(max((u - 1.0) / g_s, 0.0), 1.0)


def optimize_alpha(problem: AllocationProblem, alpha0: float) -> AllocationResult:
    """The optimal power split, from the closed-form stationarity root.

    The trace rows are alpha0 and the optimum, each with the MI of the
    latent noise at the link SNRs' kappa: log2(1 + P/N_z), N_z = P kappa, or
    log2(1 + 1/kappa) where P kappa overflows (inf at C = inf).  Raises
    DegenerateInputError when that MI misses the budget by more than 1e-9
    bits (N_z below the normal float range) or when the optimal sensing
    share is positive but too small for alpha to resolve."""
    _check_unit(alpha0, "alpha0")
    p, c = problem.total_power, problem.budget.c_ai
    kap = kappa(problem.budget)
    mi = achieved_mi(p, p * kap) if p * kap < math.inf else achieved_mi(1.0, kap)
    if abs(mi - c) > 1e-9:  # inf - inf at C = inf is nan, which passes
        raise DegenerateInputError(f"latent noise at power {p!r} and {c!r} "
                                   f"bits underflows: its MI is {mi!r}")

    share = _sensing_share(problem)
    alpha = 1.0 - share
    if share > 0.0 and alpha == 1.0:
        raise DegenerateInputError(f"optimal sensing share {share!r} of the power "
                                   f"{p!r} is too small for the split alpha")
    j0, j = objective(problem, alpha0), objective(problem, alpha)
    if j < j0:  # alpha0 is the optimum to rounding; keep it so J never falls
        alpha, j = alpha0, j0
    return AllocationResult(
        alpha_star=alpha, objective=j, kkt_residual=_residual(problem, alpha),
        trace=((0, alpha0, j0, mi), (1, alpha, j, mi)))


def grid_argmax(problem: AllocationProblem, n_points: int = 10_001) -> tuple[float, float]:
    """Dense-grid oracle: (best alpha, objective) over a uniform alpha grid."""
    alphas = np.linspace(0.0, 1.0, n_points)
    vals = [objective(problem, a) for a in alphas.tolist()]
    i = int(np.argmax(vals))
    return float(alphas[i]), vals[i]
