"""Achievable rate-distortion frontiers and region membership.

The joint design splits transmit power between a communication component
(fraction alpha) and a sensing probe; both pass through the same
capacity-limited latent, whose equivalent noise is set by the total power.
A time-sharing baseline, derived from the frontier's arrays, gives the
separated comparison curve.

The frontier is one pass over a uniform 201-point alpha grid, held as three
read-only float64 arrays (alphas, rates, distortions); the alphas are one
grid, ALPHAS, built once and shared by every frontier. Rates are taken with
math.log2 element by element, so they equal gaussian.split_rate bit for
bit. Membership needs no grid: a bisection over the floats decides it exactly.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bottleneck import AiBudget
from .errors import DegenerateInputError, _check_unit
from .gaussian import (PerfPoint, ScalarScenario, effective_snrs, split_distortion,
                       split_rate)

DEFAULT_GRID = 201
# The one alpha grid, read-only, shared by every frontier and its baseline.
ALPHAS = np.linspace(0.0, 1.0, DEFAULT_GRID)
ALPHAS.flags.writeable = False
_ONE_BITS = 0x3FF0000000000000  # 1.0: non-negative doubles sort like their bits
_BITS, _FLOAT = struct.Struct("<q"), struct.Struct("<d")


class FrontierPoint(NamedTuple):
    alpha: float
    rate: float
    distortion: float


@dataclass(frozen=True, eq=False)
class Frontier:
    """Operating points on an ascending alpha grid, as three read-only
    float64 arrays of equal length: alphas, rates and distortions.

    Rate is non-decreasing and distortion non-decreasing along the grid:
    shifting power toward communication always costs sensing accuracy.
    """

    budget: AiBudget
    alphas: np.ndarray
    rates: np.ndarray
    distortions: np.ndarray

    def __post_init__(self) -> None:
        if not (self.alphas.ndim == 1
                and self.alphas.shape == self.rates.shape == self.distortions.shape):
            raise DegenerateInputError("alphas, rates and distortions must be "
                                       "1-D arrays of equal length")
        # The unit interval at the least and largest alpha, and PerfPoint's
        # rule at the least rate and distortion; NaN carries through each.
        # ALPHAS, built once at import, needs no unit or order check.
        own_grid = self.alphas is not ALPHAS
        if own_grid:
            for end in (self.alphas.min(initial=0.0), self.alphas.max(initial=0.0)):
                _check_unit(float(end), "alpha")
        PerfPoint(float(self.rates.min(initial=0.0)), float(self.distortions.min(initial=0.0)))
        if own_grid and (np.diff(self.alphas) < 0).any():
            raise DegenerateInputError("frontier points must be ordered by alpha")
        for arr in (self.alphas, self.rates, self.distortions):
            arr.flags.writeable = False

    @property
    def points(self) -> tuple[FrontierPoint, ...]:
        """The grid as (alpha, rate, distortion) points, built on each access."""
        return tuple(map(FrontierPoint, self.alphas.tolist(), self.rates.tolist(),
                         self.distortions.tolist()))


def frontier(sc: ScalarScenario, budget: AiBudget) -> Frontier:
    """gaussian.split_rate and split_distortion of the budget's effective
    SNRs at each split alpha of the shared grid ALPHAS."""
    g_c, g_s = effective_snrs(sc, budget)
    # split_rate per element, inlined: a call per element doubles this pass
    rates = np.fromiter(map(math.log2, (1.0 + ALPHAS * g_c).tolist()), float, DEFAULT_GRID)
    return Frontier(budget, ALPHAS, rates, split_distortion(g_s, sc.prior_var, ALPHAS))


def separated_baseline(front: Frontier) -> Frontier:
    """Time-sharing baseline on the frontier's grid: fraction tau of the frame
    is communication-only at full power, the rest sensing-only; rate scales
    by tau and the sensing SNR by the energy fraction 1 - tau.

    So the baseline shares the frontier's alphas and distortions arrays, and
    its rates are tau times the frontier's rate at alpha = 1 (linspace's
    exact endpoint, so that rate is log2(1 + g_c) to the bit).
    """
    return Frontier(front.budget, front.alphas, front.alphas * front.rates[-1],
                    front.distortions)


class Membership(NamedTuple):
    inside: bool
    alpha: float
    rate_slack: float
    distortion_slack: float


def in_region(sc: ScalarScenario, budget: AiBudget, candidate: PerfPoint) -> Membership:
    """Whether some power split achieves the candidate point, decided exactly.

    Rate and distortion are both non-decreasing in alpha, in float arithmetic
    too (IEEE rounding is monotone), so the candidate is inside iff the least
    float alpha in [0, 1] that meets its rate also meets its distortion.
    That alpha is found by bisection over the bit patterns of [0.0, 1.0]
    (62 steps, whatever the SNRs); where no split meets the rate, it is 1.
    Returns that alpha and the slack in each coordinate there; inside means
    both are non-negative, so alpha is then a witness split.
    """
    g_c, g_s = effective_snrs(sc, budget)
    lo, hi = 0, _ONE_BITS
    while lo < hi:
        mid = (lo + hi) // 2
        # split_rate(g_c, alpha at mid), inlined: a call per step doubles the loop
        if math.log2(1.0 + _FLOAT.unpack(_BITS.pack(mid))[0] * g_c) >= candidate.rate:
            hi = mid
        else:
            lo = mid + 1
    alpha = _FLOAT.unpack(_BITS.pack(lo))[0]
    r_slack = split_rate(g_c, alpha) - candidate.rate
    d_slack = candidate.distortion - split_distortion(g_s, sc.prior_var, alpha)
    return Membership(r_slack >= 0.0 and d_slack >= 0.0, alpha, r_slack, d_slack)
