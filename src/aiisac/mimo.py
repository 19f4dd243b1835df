"""MIMO rate with a capacity-limited learning module.

The latent-noise covariance follows the proportional mapping R_z = zeta * Q
from the transmit covariance.  Under that map the whitened link splits into
independent eigenmodes (Telatar, 1999): each mode of gain sigma_i is the
scalar link at SNR x / (1 + zeta x), x = scale * sigma_i, the saturating
form the fading kernel uses.  This module checks its inputs; overflow of
what it computes is decided in bottleneck.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bottleneck import (RANK_RTOL, AiBudget, _as_hermitian, _check_psd, _finite, _map_groups,
                         _zeta)
from .errors import DegenerateInputError, SingularMatrixError, _check_positive
from .fading import _snr

# An x past the float range is taken as its largest value: its SNR
# x / (1 + zeta x) is then 1 / zeta to within 2^-53 where zeta * max >= 2^53.
_SATURATING_ZETA = 2.0 ** 53 / sys.float_info.max


def _pow4(v: float) -> int:
    """The k with v / 4^k in [1/4, 1) for a v > 0: sqrt(v / 4^k) is sqrt(v) / 2^k."""
    return (math.frexp(v)[1] + 1) // 2


def _psd(a: np.ndarray, name: str) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """check_psd's Hermitian copy m of a, the scale s it tests m at, and the
    ascending eigenvalues and eigenvectors of m / s from that test's eigh."""
    m = _as_hermitian(a, name)
    scale = max(abs(m.real).max(), abs(m.imag).max(), 1.0)
    evals, evecs = _check_psd((m / scale)[None], name)
    return m, scale, evals[0], evecs[0]


def check_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validated Hermitian PSD copy of `a`: finite, and no eigenvalue below
    -PSD_RTOL (1e-10) times the largest eigenvalue magnitude (the zero
    matrix passes).  The rule is scale-free, so the eigenvalues tested are
    those of `a` over its largest real or imaginary part, where above 1."""
    return _psd(a, name)[0]


def _link(h: np.ndarray, r: np.ndarray, n: int, h_name: str, r_name: str
          ) -> tuple[np.ndarray, tuple[np.ndarray, float, np.ndarray, np.ndarray]]:
    """Validated link: a complex copy of the finite 2-D channel h with n
    columns, and _psd of its noise covariance r, with one row per channel row."""
    m = np.atleast_2d(np.asarray(h, complex))
    if m.ndim != 2 or m.shape[1] != n:
        raise DegenerateInputError(f"{h_name} must be 2-D with {n} columns "
                                   f"(Q's dimension), got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DegenerateInputError(f"{h_name} has non-finite entries")
    cov = _psd(r, r_name)
    if cov[0].shape[0] != m.shape[0]:
        raise DegenerateInputError(f"{r_name} has shape {cov[0].shape} but {h_name} "
                                   f"has {m.shape[0]} rows")
    return m, cov


@dataclass(frozen=True)
class MimoScenario:
    """Channels, transmit and noise covariances, sensing sensitivity, budget.

    dmu is the derivative of the noiseless sensing observation with respect
    to the scalar parameter of interest. Every field is checked on
    construction: finite entries, PSD covariances, and shapes that chain
    (channels have Q's dimension as columns; R_c, R_s and dmu have their
    channel's row count), each failure a DegenerateInputError naming the field.
    The sensing fields (H_s, R_s, dmu) are checked, but no library function
    reads them: mimo_rate reads the communication link and the budget.
    """

    h_c: np.ndarray
    h_s: np.ndarray
    q: np.ndarray
    r_c: np.ndarray
    r_s: np.ndarray
    dmu: np.ndarray
    budget: AiBudget

    def __post_init__(self) -> None:
        q = check_psd(self.q, "Q")
        h_c, (r_c, *_) = _link(self.h_c, self.r_c, q.shape[0], "H_c", "R_c")
        h_s, (r_s, *_) = _link(self.h_s, self.r_s, q.shape[0], "H_s", "R_s")
        dmu = np.atleast_1d(np.asarray(self.dmu, complex)).ravel()
        if dmu.size != h_s.shape[0]:
            raise DegenerateInputError(f"dmu has {dmu.size} entries but H_s has "
                                       f"{h_s.shape[0]} rows")
        if not np.isfinite(dmu).all():
            raise DegenerateInputError("dmu has non-finite entries")
        for name, value in (("q", q), ("h_c", h_c), ("r_c", r_c), ("h_s", h_s),
                            ("r_s", r_s), ("dmu", dmu)):
            object.__setattr__(self, name, value)


def mimo_rate(sc: MimoScenario) -> float:
    """log2 det(I + H_c Q H_c^H (R_c + H_c R_z H_c^H)^{-1}), bits per use:
    rate_surface at the scenario's one point."""
    return float(rate_surface(sc.h_c, sc.r_c, sc.q, [sc.budget.c_ai], [1.0])[0, 0])


def rate_surface(h_c: np.ndarray, r_c: np.ndarray, q: np.ndarray,
                 c_grid: Sequence[float], power_scales: Sequence[float]) -> np.ndarray:
    """Rates of the link (H_c, R_c) at transmit covariance scale * Q on the
    grid [capacity x power scale], row-major; any sequences serve as grids.

    H_c and R_c are checked as MimoScenario checks them, Q for finite
    Hermitian entries.  Three decompositions serve the whole grid: the eigh
    of R_c's PSD test, Q's eigh (with the capacity checks of _map_groups,
    which give the rank r of Q's active subspace U_r L_r U_r^H), and the
    singular values of the whitened link W = R_c^-1/2 H_c U_r L_r^1/2,
    whose squares sigma_i are the mode gains (their relative error grows
    with W's condition number, not with its square as a Gram matrix's
    eigenvalues would).  A cell is then sum_i log2(1 + x_i / (1 + zeta x_i))
    at x_i = scale * sigma_i and zeta = 1 / (2^(C/r) - 1), which is
    infinite at C = 0, so that row is 0.  Each factor of W is scaled by a
    power of 2 into [1/4, 1), and the scales are put back into x by ldexp,
    so nothing before x overflows and no rounding changes.  Where x overflows, its SNR
    saturates at 1 / zeta, exact to rounding while zeta >= _SATURATING_ZETA;
    at a smaller zeta (C = inf among them) the x that overflows raises
    DegenerateInputError.  Each cell is computed on its own, so a column
    does not depend on the other scales.  An R_c whose smallest eigenvalue
    is at most RANK_RTOL times its largest raises SingularMatrixError.
    """
    q = _as_hermitian(q, "Q")
    h_c, (_, scale, r_vals, r_vecs) = _link(h_c, r_c, q.shape[0], "H_c", "R_c")
    if not len(c_grid) or not len(power_scales):
        raise DegenerateInputError("grids must be non-empty")
    for s in power_scales:
        _check_positive(s, "power scale")
    [(_, vals, vecs)] = _map_groups(q[None], c_grid)
    if not r_vals[0] > RANK_RTOL * r_vals[-1]:
        raise SingularMatrixError("R_c is not positive definite")
    rank = vals.shape[1]
    rates = np.zeros((len(c_grid), len(power_scales)))
    if not rank:  # a zero Q at capacities that are all infinite
        return rates
    # W * 2^-k, up to a unitary factor on the left, which leaves its
    # singular values; each factor is scaled by a power of 2, so exactly.
    kh = math.frexp(max(abs(h_c.real).max(), abs(h_c.imag).max()))[1]
    kq, kr, ks = _pow4(vals[0, -1]), _pow4(r_vals[-1]), _pow4(scale)
    k = kh + kq - kr - ks
    h = np.ldexp(h_c.real, -kh) + 1j * np.ldexp(h_c.imag, -kh)
    w = ((r_vecs.conj().T @ h @ (vecs[0] * np.sqrt(np.ldexp(vals[0], -2 * kq))))
         / (np.sqrt(np.ldexp(r_vals, -2 * kr))
            * math.sqrt(math.ldexp(scale, -2 * ks)))[:, None])
    sigma = np.linalg.svd(w, compute_uv=False) ** 2
    sigma = sigma[sigma > 0.0]
    with np.errstate(over="ignore"):
        x = np.ldexp(np.multiply.outer(sigma, np.asarray(power_scales, float)), 2 * k)
    # C = 0 passes nothing, as the c = 0 rows of the scalar paths read 0 bits.
    zeta = np.array([math.inf if c == 0 else _zeta(c, rank) for c in c_grid])[:, None]
    if zeta.min() < _SATURATING_ZETA:
        _finite(x, "the SNR of a whitened mode")
    x = np.minimum(x, sys.float_info.max)[:, None, :]
    snr = _snr(x, zeta, float(x.max(initial=0.0)) * float(zeta.max()))
    # Modes summed in order, one cell at a time; a zeta of inf passes nothing.
    rates = sum(np.log1p(snr), rates) / math.log(2.0)
    rates[zeta[:, 0] == math.inf] = 0.0
    return rates
