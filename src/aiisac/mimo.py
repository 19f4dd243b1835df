"""MIMO rate and estimation bounds with a capacity-limited learning module.

The latent-noise covariance follows the proportional mapping R_z = zeta * Q
from the transmit covariance; rates are log-determinants against the
effective noise covariance and sensing performance is scalar Fisher
information / CRLB for a linear Gaussian parameter model.  This module
checks its inputs; overflow of what it computes is decided in bottleneck.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bottleneck import (AiBudget, _as_hermitian, _check_psd, _cholesky, _finite,
                         _hermitian_part, _logdet, proportional_maps)
from .errors import DegenerateInputError, _check_positive

# Most matrix entries (capacities x scales x n^2) in one stacked pass of
# rate_surface, which bounds its memory on large grids.
_BLOCK = 1 << 16


def check_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validated Hermitian PSD copy of `a`: finite, and no eigenvalue below
    -PSD_RTOL (1e-10) times the largest eigenvalue magnitude (the zero
    matrix passes).  The rule is scale-free, so the eigenvalues tested are
    those of `a` over its largest real or imaginary part, where above 1."""
    m = _as_hermitian(a, name)
    scale = max(abs(m.real).max(), abs(m.imag).max(), 1.0)
    _check_psd((m / scale)[None], name)
    return m


def _link(h: np.ndarray, r: np.ndarray, n: int, h_name: str,
          r_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validated link: a complex copy of the finite 2-D channel h with n
    columns, and its PSD noise covariance r with one row per channel row."""
    m = np.atleast_2d(np.asarray(h, complex))
    if m.ndim != 2 or m.shape[1] != n:
        raise DegenerateInputError(f"{h_name} must be 2-D with {n} columns "
                                   f"(Q's dimension), got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DegenerateInputError(f"{h_name} has non-finite entries")
    cov = check_psd(r, r_name)
    if cov.shape[0] != m.shape[0]:
        raise DegenerateInputError(f"{r_name} has shape {cov.shape} but {h_name} "
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
        h_c, r_c = _link(self.h_c, self.r_c, q.shape[0], "H_c", "R_c")
        h_s, r_s = _link(self.h_s, self.r_s, q.shape[0], "H_s", "R_s")
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


def fisher_info(sc: MimoScenario) -> float:
    """Fisher information dmu^H (R_s + H_s R_z H_s^H)^{-1} dmu, real >= 0;
    raises DegenerateInputError where it or that covariance overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        rz = proportional_maps(sc.q[None], [sc.budget.c_ai])[0, 0]
        cov = _hermitian_part(sc.r_s + sc.h_s @ rz @ sc.h_s.conj().T)
    y = np.linalg.solve(_cholesky(cov, "effective sensing covariance"), sc.dmu)
    return _finite(float(np.real(np.vdot(y, y))), "the Fisher information")


def crlb(sc: MimoScenario) -> float:
    """Cramér-Rao bound 1 / fisher_info; raises if the parameter is unobservable."""
    info = fisher_info(sc)
    if info <= 0.0:
        raise DegenerateInputError("Fisher information is zero")
    return 1.0 / info


def rate_surface(h_c: np.ndarray, r_c: np.ndarray, q: np.ndarray,
                 c_grid: Sequence[float], power_scales: Sequence[float]) -> np.ndarray:
    """Rates of the link (H_c, R_c) at transmit covariance scale * Q on the
    grid [capacity x power scale], row-major; any sequences serve as grids.

    H_c and R_c are checked as MimoScenario checks them, Q for finite
    Hermitian entries.  Each block of scaled Q's is one stacked eigh in
    proportional_maps, which tests them for PSD and overflow and checks the
    capacities, then stacked matmuls and Choleskys, which reject an
    effective covariance that overflows (all DegenerateInputError).
    """
    q = _as_hermitian(q, "Q")
    h_c, r_c = _link(h_c, r_c, q.shape[0], "H_c", "R_c")
    if not len(c_grid) or not len(power_scales):
        raise DegenerateInputError("grids must be non-empty")
    for s in power_scales:
        _check_positive(s, "power scale")
    step, h_h = max(1, _BLOCK // (len(c_grid) * q.size)), h_c.conj().T
    blocks = []
    for lo in range(0, len(power_scales), step):
        with np.errstate(over="ignore", invalid="ignore"):
            qs = q * np.asarray(power_scales[lo:lo + step])[:, None, None]
            noise = _hermitian_part(r_c + h_c @ proportional_maps(qs, c_grid) @ h_h)
            total = noise + _hermitian_part(h_c @ qs @ h_h)
        blocks.append(_logdet(total, "effective covariance")
                      - _logdet(noise, "effective noise covariance"))
    return np.concatenate(blocks, axis=1) / math.log(2.0)
