"""Achievable rate-distortion frontiers and region membership.

The joint design splits transmit power between a communication component
(fraction alpha) and a sensing probe; both pass through the same
capacity-limited latent, whose equivalent noise is set by the total power.
A time-sharing baseline, derived from the frontier's arrays, gives the
separated comparison curve.

The frontier is computed in one pass over a uniform alpha grid and held as
three read-only float64 arrays (alphas, rates, distortions); a membership
query is one argmax over the grid. Rates are taken with math.log2 element
by element, so they equal the scalar closed form bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bottleneck import AiBudget
from .gaussian import PerfPoint, ScalarScenario, effective_snrs

DEFAULT_GRID = 201


class FrontierPoint(NamedTuple):
    alpha: float
    rate: float
    distortion: float


@dataclass(frozen=True, eq=False)
class Frontier:
    """Operating points on an ascending alpha grid, as three read-only
    float64 arrays of equal length: alphas, rates() and distortions().

    Rate is non-decreasing and distortion non-decreasing along the grid:
    shifting power toward communication always costs sensing accuracy.
    """

    budget: AiBudget
    alphas: np.ndarray
    _rates: np.ndarray
    _distortions: np.ndarray

    def __post_init__(self) -> None:
        bad = ~((self.alphas >= 0.0) & (self.alphas <= 1.0))
        if bad.any():
            raise ValueError(f"alpha must lie in [0,1], got {self.alphas[bad][0]}")
        if (~(self._rates >= 0)).any() or (~(self._distortions > 0)).any():
            raise ValueError("rate must be >= 0 and distortion positive")
        if (np.diff(self.alphas) < 0).any():
            raise ValueError("frontier points must be ordered by alpha")
        for arr in (self.alphas, self._rates, self._distortions):
            arr.flags.writeable = False

    def rates(self) -> np.ndarray:
        return self._rates

    def distortions(self) -> np.ndarray:
        return self._distortions

    @property
    def points(self) -> tuple[FrontierPoint, ...]:
        """The grid as (alpha, rate, distortion) points, built on each access."""
        return tuple(map(FrontierPoint, self.alphas.tolist(), self._rates.tolist(),
                         self._distortions.tolist()))


def frontier(sc: ScalarScenario, budget: AiBudget, n_points: int = DEFAULT_GRID) -> Frontier:
    """Joint-design frontier over a uniform alpha grid.

    Communication rides on power alpha*P (the sensing probe is known and
    cancelled at the receiver); sensing uses the remaining (1-alpha)*P, so
    the distortion is prior_var / (1 + (1 - alpha) * g_s).
    """
    if n_points < 2:
        raise ValueError("need at least 2 frontier points")
    g_c, g_s = effective_snrs(sc, budget)
    alphas = np.linspace(0.0, 1.0, n_points)
    rates = np.fromiter(map(math.log2, (1.0 + alphas * g_c).tolist()), float, n_points)
    return Frontier(budget, alphas, rates, sc.prior_var / (1.0 + (1.0 - alphas) * g_s))


def separated_baseline(front: Frontier) -> Frontier:
    """Time-sharing baseline on the frontier's grid: fraction tau of the frame
    is communication-only at full power, the rest sensing-only; rate scales
    by tau and the sensing SNR by the energy fraction 1 - tau.

    So the baseline shares the frontier's alphas and distortions arrays, and
    its rates are tau times the frontier's rate at alpha = 1 (linspace's
    exact endpoint, so that rate is log2(1 + g_c) to the bit).
    """
    return Frontier(front.budget, front.alphas, front.alphas * front.rates()[-1],
                    front.distortions())


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

    Returns the best achieving alpha (the first, on a tie) and the slack in
    each coordinate; inside means non-negative slack in both.
    """
    front = frontier(sc, budget, n_points)
    r_slack = front.rates() - candidate.rate
    d_slack = candidate.distortion - front.distortions()
    score = np.minimum(r_slack, d_slack)
    i = int(np.argmax(score))
    return Membership(bool(score[i] >= 0.0), float(front.alphas[i]),
                      float(r_slack[i]), float(d_slack[i]))
