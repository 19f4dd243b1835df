"""MIMO rate and estimation bounds with a capacity-limited learning module.

The latent-noise covariance follows the proportional mapping R_z = zeta * Q
from the transmit covariance; rates are log-determinants against the
effective noise covariance and sensing performance is scalar Fisher
information / CRLB for a linear Gaussian parameter model.  A rate grid is
one stacked pass: one eigh of the scaled Q's, then stacked matmuls and one
Cholesky per covariance stack; mimo_rate is that pass on a 1 x 1 grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bottleneck import (AiBudget, _as_hermitian, _check_psd, _logdet,
                         covariance_map, proportional_maps)
from .errors import (DegenerateInputError, SingularMatrixError,
                     UnobservableParameterError)

# Most matrix entries (capacities x scales x n^2) in one stacked pass of
# rate_surface, which bounds its memory on large grids.
_BLOCK = 1 << 16


def check_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validated Hermitian PSD copy of `a`: finite, and no eigenvalue below
    -PSD_RTOL (1e-10) times the largest eigenvalue magnitude (the zero
    matrix passes)."""
    m = _as_hermitian(a, name)
    _check_psd(np.linalg.eigvalsh(m), name)
    return m


@dataclass(frozen=True)
class MimoScenario:
    """Channels, transmit and noise covariances, sensing sensitivity, budget.

    dmu is the derivative of the noiseless sensing observation with respect
    to the scalar parameter of interest.
    """

    h_c: np.ndarray
    h_s: np.ndarray
    q: np.ndarray
    r_c: np.ndarray
    r_s: np.ndarray
    dmu: np.ndarray
    budget: AiBudget

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_c", np.atleast_2d(np.asarray(self.h_c, complex)))
        object.__setattr__(self, "h_s", np.atleast_2d(np.asarray(self.h_s, complex)))
        object.__setattr__(self, "q", check_psd(self.q, "Q"))
        object.__setattr__(self, "r_c", check_psd(self.r_c, "R_c"))
        object.__setattr__(self, "r_s", check_psd(self.r_s, "R_s"))
        object.__setattr__(
            self, "dmu", np.atleast_1d(np.asarray(self.dmu, complex)).ravel()
        )


def _rates(h_c: np.ndarray, r_c: np.ndarray, qs: np.ndarray,
           c_grid: list[float]) -> np.ndarray:
    """Rate kernel on already validated matrices, C x J for every capacity
    in c_grid and every Q in the stack qs: stacked matmuls and Choleskys."""
    rz = proportional_maps(qs, c_grid)
    h_h = h_c.conj().T
    signal = h_c @ qs @ h_h
    noise = r_c + h_c @ rz @ h_h
    noise = 0.5 * (noise + noise.conj().swapaxes(-1, -2))
    total = noise + 0.5 * (signal + signal.conj().swapaxes(-1, -2))
    val = _logdet(total, "effective covariance") - _logdet(
        noise, "effective noise covariance"
    )
    return val / math.log(2.0)


def mimo_rate(sc: MimoScenario) -> float:
    """log2 det(I + H_c Q H_c^H (R_c + H_c R_z H_c^H)^{-1}), bits per use."""
    return float(_rates(sc.h_c, sc.r_c, sc.q[None], [sc.budget.c_ai])[0, 0])


def fisher_info(sc: MimoScenario) -> float:
    """Fisher information dmu^H (R_s + H_s R_z H_s^H)^{-1} dmu, real >= 0."""
    rz = covariance_map(sc.q, sc.budget.c_ai)
    cov = sc.r_s + sc.h_s @ rz @ sc.h_s.conj().T
    cov = 0.5 * (cov + cov.conj().T)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("effective sensing covariance is singular") from exc
    y = np.linalg.solve(chol, sc.dmu)
    return float(np.real(np.vdot(y, y)))


def crlb(sc: MimoScenario) -> float:
    """Cramér-Rao bound 1 / fisher_info; raises if the parameter is unobservable."""
    info = fisher_info(sc)
    if info <= 0.0:
        raise UnobservableParameterError("Fisher information is zero")
    return 1.0 / info


def rate_surface(
    template: MimoScenario,
    c_grid: list[float],
    power_scales: list[float],
) -> np.ndarray:
    """Rates on the Cartesian grid [capacity x power scale], row-major.

    Each column scales the template transmit covariance Q so that power
    sweeps reuse one scenario definition.  A positive finite scale keeps the
    validated template PSD, so the grid skips re-validation and runs as
    stacked passes of _rates over blocks of scales; each rate equals
    mimo_rate of its own point, bit for bit.
    """
    if not c_grid or not power_scales:
        raise ValueError("grids must be non-empty")
    if not all(math.isfinite(s) and s > 0 for s in power_scales):
        raise ValueError("power scales must be positive and finite")
    q = template.q
    step = max(1, _BLOCK // (len(c_grid) * q.size))
    blocks = []
    for lo in range(0, len(power_scales), step):
        with np.errstate(over="ignore"):
            qs = q * np.asarray(power_scales[lo:lo + step])[:, None, None]
        if not np.all(np.isfinite(qs)):
            raise DegenerateInputError("Q overflows at the largest power scales")
        blocks.append(_rates(template.h_c, template.r_c, qs, c_grid))
    return np.concatenate(blocks, axis=1)
