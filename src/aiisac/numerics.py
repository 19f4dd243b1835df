"""Numerical building blocks: the graded composite quadrature rule,
Brent's bracketing root finder, and counter-based deterministic random
streams.

Everything here is a pure function of its inputs; the pieces of a
quadrature rule are cached by order and immutable. Nothing here imports
SciPy: the Gauss rules come from numpy.polynomial, and Brent's method is
implemented here.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (BracketError, ConvergenceError, DegenerateInputError, _check_integer,
                     _check_positive)

MAX_QUADRATURE_ORDER = 128


@dataclass(frozen=True)
class QuadratureRule:
    """Order M of the composite rule that fading averages integrate by, an
    integer in [1, MAX_QUADRATURE_ORDER] (else DegenerateInputError); graded()
    builds its nodes and weights."""

    order: int

    def __post_init__(self) -> None:
        _check_integer(self.order, "quadrature order", 1, MAX_QUADRATURE_ORDER)

    def graded(self, split: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes x and log-weights of the order-M composite rule on (0, inf):
        sum(exp(log_w) * f(x)) approximates the integral of exp(-x) f(x).

        order // 2 Gauss-Legendre nodes cover [0, split] in the graded
        variable x = split * s**2, which packs them towards the origin where
        log(1 + x snr) bends sharply at high SNR. The other nodes are
        Gauss-Laguerre nodes t mapped to x = split + scale * t on
        [split, inf); scale = 1 is a plain shift. Order 1 has no head, and
        its one Gauss-Laguerre node is not shifted. The weights are returned
        as logarithms so that a density factor can be folded in without
        under- or overflow. The unit pieces are cached per order; raises
        DegenerateInputError for a split or scale that is not positive and
        finite.
        """
        _check_positive(split, "split")
        _check_positive(scale, "scale")
        s, log_ws, t, log_wt = _graded_parts(int(self.order))
        if s.size == 0:
            return t, log_wt
        head = split * s * s
        tail = split + scale * t
        # dx = 2 split s ds on the head and scale dt on the tail; exp(-x) is
        # carried by the weights, less the exp(-t) the Laguerre weights hold.
        log_head = log_ws + np.log(2.0 * split * s) - head
        log_tail = log_wt + math.log(scale) + t - tail
        return np.concatenate((head, tail)), np.concatenate((log_head, log_tail))


@lru_cache(maxsize=None)
def _graded_parts(order: int) -> tuple[np.ndarray, ...]:
    """Unit pieces of the order-M composite rule: order // 2 Gauss-Legendre
    nodes and log-weights on s in [0, 1], and the remaining Gauss-Laguerre
    nodes and log-weights."""
    # Imported here, so commands that build no rule skip numpy.polynomial.
    from numpy.polynomial.laguerre import laggauss
    from numpy.polynomial.legendre import leggauss

    n_head = order // 2
    s, ws = leggauss(n_head) if n_head else (np.empty(0), np.empty(0))
    t, wt = laggauss(order - n_head)
    parts = (0.5 * (s + 1.0), np.log(0.5 * ws), t, np.log(wt))
    for arr in parts:
        arr.flags.writeable = False
    return parts


# Relative part of the root tolerance, and the iteration cap.
_RTOL = 4.0 * sys.float_info.epsilon
_MAX_ITER = 200


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ConvergenceError(f"the function value at x={x} is NaN; "
                               "the root finder cannot continue")
    return fx


def find_root(f, lo: float, hi: float, tol: float) -> float:
    """Root of f on [lo, hi] by Brent's method (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973); deterministic.

    Requires a sign change on the bracket, else raises BracketError.
    Returns the current best point once f vanishes there or the half-width
    of the bracket falls below (tol + 4 eps |x|) / 2. Raises
    ConvergenceError if f returns NaN or 200 iterations do not converge.
    Step for step this is SciPy's brentq with xtol = tol, maxiter = 200,
    so it returns the same point, bit for bit.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise DegenerateInputError(f"invalid bracket [{lo}, {hi}]")
    _check_positive(tol, "tol")
    xpre, xcur = lo, hi
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={fpre}, f(hi)={fcur}"
        )
    # xcur is the best point so far, xblk the other end of the bracket and
    # xpre the previous point; scur and spre are the last two steps.
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # Secant step.
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # Inverse quadratic interpolation.
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # brentq's C code gets inf or NaN here, so it bisects.
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur)
    raise ConvergenceError(
        f"root finder did not converge in {_MAX_ITER} iterations on "
        f"[{lo}, {hi}]; last point {xcur}"
    )


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random stream keyed by (seed, stream index).

    Backed by the Philox counter-based generator, so equal keys yield
    byte-identical sequences regardless of what other streams have done.
    Instances are value-like; derive one per independent work item.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        mask = (1 << 64) - 1
        key = (int(self.seed) & mask) | ((int(self.stream) & mask) << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, stream: int) -> "RandomStream":
        """Same seed, different stream index."""
        return RandomStream(seed=self.seed, stream=stream)
