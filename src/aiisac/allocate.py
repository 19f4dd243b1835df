"""Resource allocation under a learning-capacity constraint.

Splits total transmit power between communication and sensing to maximize
a scalarized rate/distortion objective.  The latent noise is set by the
total power, so the latent mutual-information constraint is enforced
numerically once per run.  Stationarity residuals use analytic marginal
values cross-checked against finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bottleneck import AiBudget, achieved_mi, enforce_mi_numerically, kappa
from .errors import BracketError
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
    converged: bool
    trace: tuple[tuple[int, float, float, float], ...] = field(default=())


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
    return sc.prior_var / (1.0 + snr), -sc.prior_var * slope / (1.0 + snr) ** 2


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


def objective_gradient(problem: AllocationProblem, alpha: float) -> float:
    """dJ/d(alpha), analytic."""
    w_r, w_d = _weights(problem)
    p = problem.total_power
    _, dr = _comm_rate_and_grad(problem, alpha * p)
    _, dd = _sense_dist_and_grad(problem, (1.0 - alpha) * p)
    return p * (w_r * dr + w_d * dd)


def kkt_residual_check(problem: AllocationProblem, p_c: float) -> float:
    """Absolute stationarity mismatch |w_r dR/dP_c - w_d (-dD/dP_s)|."""
    if not 0.0 <= p_c <= problem.total_power:
        raise ValueError("P_c must lie in [0, total power]")
    w_r, w_d = _weights(problem)
    _, dr = _comm_rate_and_grad(problem, p_c)
    _, dd = _sense_dist_and_grad(problem, problem.total_power - p_c)
    return abs(w_r * dr - w_d * (-dd))


def kkt_power_split(problem: AllocationProblem) -> tuple[float, float, float]:
    """Interior stationarity root on P_c, or the better boundary point.

    Returns (P_c, P_s, residual).  Since the rate's marginal value falls
    and the distortion's marginal value rises with the power moved, an
    interior sign change is a maximizer when it exists.
    """
    p = problem.total_power
    w_r, w_d = _weights(problem)

    def stationarity(p_c: float) -> float:
        _, dr = _comm_rate_and_grad(problem, p_c)
        _, dd = _sense_dist_and_grad(problem, p - p_c)
        return w_r * dr - w_d * (-dd)

    eps = 1e-12 * p
    try:
        p_c = find_root(stationarity, eps, p - eps, tol=1e-14)
    except BracketError:
        # No interior root: the objective is monotone in the split.
        a_best = max((0.0, 1.0), key=lambda a: objective(problem, a))
        p_c = a_best * p
    return p_c, p - p_c, kkt_residual_check(problem, p_c)


def optimize_alpha(
    problem: AllocationProblem,
    alpha0: float,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> AllocationResult:
    """Projected-gradient ascent on the power split with backtracking.

    The latent mutual-information constraint is enforced once by
    root-finding: the latent noise depends only on the total power and the
    budget, not on the split.  Every trace row records the MI that noise
    achieves, so constraint satisfaction is observable rather than assumed.
    """
    if not 0.0 <= alpha0 <= 1.0:
        raise ValueError(f"alpha0 must lie in [0,1], got {alpha0}")
    p = problem.total_power
    if problem.budget.is_classical:
        mi = math.inf
    else:
        mi = achieved_mi(p, enforce_mi_numerically(p, problem.budget.c_ai, tol=1e-12))

    alpha = alpha0
    j = objective(problem, alpha)
    trace = [(0, alpha, j, mi)]
    converged = False
    step0 = 0.5
    for it in range(1, max_iter + 1):
        grad = objective_gradient(problem, alpha)
        if abs(min(1.0, max(0.0, alpha + grad)) - alpha) <= tol:
            converged = True
            break
        step = step0
        moved = False
        while step > 1e-16:
            cand = min(1.0, max(0.0, alpha + step * grad))
            j_cand = objective(problem, cand)
            if cand != alpha and j_cand >= j:
                moved = True
                alpha, j = cand, j_cand
                break
            step *= 0.5
        if not moved:
            converged = True
            break
        trace.append((it, alpha, j, mi))
    p_c = alpha * p
    return AllocationResult(
        alpha_star=alpha,
        p_c=p_c,
        p_s=p - p_c,
        objective=j,
        kkt_residual=kkt_residual_check(problem, p_c),
        converged=converged,
        trace=tuple(trace),
    )


def grid_argmax(problem: AllocationProblem, n_points: int = 10_001) -> tuple[float, float]:
    """Dense-grid oracle: (best alpha, objective) over a uniform alpha grid."""
    alphas = np.linspace(0.0, 1.0, n_points)
    vals = [objective(problem, float(a)) for a in alphas]
    i = int(np.argmax(vals))
    return float(alphas[i]), vals[i]
