"""Achievable rate-distortion frontiers and region membership.

The joint design splits transmit power between a communication component
(fraction alpha) and a sensing probe; both pass through the same
capacity-limited latent, whose equivalent noise is set by the total power.
A time-sharing baseline gives the separated comparison curve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bottleneck import AiBudget
from .gaussian import PerfPoint, ScalarScenario, effective_snrs

DEFAULT_GRID = 201


@dataclass(frozen=True)
class FrontierPoint:
    alpha: float
    rate: float
    distortion: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {self.alpha}")
        if self.rate < 0 or self.distortion <= 0:
            raise ValueError("rate must be >= 0 and distortion positive")


@dataclass(frozen=True)
class Frontier:
    """Operating points ordered by ascending power split alpha.

    Rate is non-decreasing and distortion non-decreasing along the list:
    shifting power toward communication always costs sensing accuracy.
    """

    budget: AiBudget
    points: tuple[FrontierPoint, ...]

    def __post_init__(self) -> None:
        alphas = [p.alpha for p in self.points]
        if alphas != sorted(alphas):
            raise ValueError("frontier points must be ordered by alpha")

    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    def distortions(self) -> np.ndarray:
        return np.array([p.distortion for p in self.points])


def frontier(sc: ScalarScenario, budget: AiBudget, n_points: int = DEFAULT_GRID) -> Frontier:
    """Joint-design frontier over a uniform alpha grid.

    Communication rides on power alpha*P (the sensing probe is known and
    cancelled at the receiver); sensing uses the remaining (1-alpha)*P.
    """
    if n_points < 2:
        raise ValueError("need at least 2 frontier points")
    g_c, g_s = effective_snrs(sc, budget)
    pts = []
    for alpha in np.linspace(0.0, 1.0, n_points):
        a = float(alpha)
        pts.append(
            FrontierPoint(
                alpha=a,
                rate=math.log2(1.0 + a * g_c),
                distortion=sc.prior_var / (1.0 + (1.0 - a) * g_s),
            )
        )
    return Frontier(budget=budget, points=tuple(pts))


def separated_baseline(
    sc: ScalarScenario, budget: AiBudget, n_points: int = DEFAULT_GRID
) -> Frontier:
    """Time-sharing baseline: fraction tau of the frame is communication-only
    at full power, the rest sensing-only; rate scales by tau and the sensing
    SNR by the energy fraction 1 - tau."""
    if n_points < 2:
        raise ValueError("need at least 2 baseline points")
    g_c, g_s = effective_snrs(sc, budget)
    rate_full = math.log2(1.0 + g_c)
    pts = []
    for tau in np.linspace(0.0, 1.0, n_points):
        t = float(tau)
        pts.append(
            FrontierPoint(
                alpha=t,
                rate=t * rate_full,
                distortion=sc.prior_var / (1.0 + (1.0 - t) * g_s),
            )
        )
    return Frontier(budget=budget, points=tuple(pts))


class Membership(NamedTuple):
    inside: bool
    alpha: float
    rate_slack: float
    distortion_slack: float


def in_region(
    sc: ScalarScenario,
    budget: AiBudget,
    candidate: PerfPoint,
    n_points: int = 2001,
) -> Membership:
    """Whether some power split achieves the candidate point.

    Returns the best achieving alpha and the slack in each coordinate;
    inside means non-negative slack in both.
    """
    front = frontier(sc, budget, n_points)
    best = None
    for p in front.points:
        r_slack = p.rate - candidate.rate
        d_slack = candidate.distortion - p.distortion
        score = min(r_slack, d_slack)
        if best is None or score > best[0]:
            best = (score, p.alpha, r_slack, d_slack)
    score, alpha, r_slack, d_slack = best
    return Membership(score >= 0.0, alpha, r_slack, d_slack)
