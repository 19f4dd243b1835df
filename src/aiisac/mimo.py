"""MIMO rate and estimation bounds with a capacity-limited learning module.

The latent-noise covariance follows the proportional mapping R_z = zeta * Q
from the transmit covariance; rates are log-determinants against the
effective noise covariance and sensing performance is scalar Fisher
information / CRLB for a linear Gaussian parameter model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bottleneck import AiBudget, _as_hermitian, covariance_map
from .errors import SingularMatrixError, UnobservableParameterError

_PSD_TOL = 1e-10


def check_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validated Hermitian PSD copy of `a`: finite, and no eigenvalue below
    -1e-10 times the largest eigenvalue magnitude (the zero matrix passes)."""
    m = _as_hermitian(a, name)
    evals = np.linalg.eigvalsh(m)
    if float(evals[0]) < -_PSD_TOL * float(np.max(np.abs(evals))):
        raise ValueError(f"{name} is not positive semidefinite")
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


def _noise_rz(q: np.ndarray, budget: AiBudget) -> np.ndarray:
    if budget.is_classical:
        return np.zeros_like(q)
    return covariance_map(q, budget.c_ai)


def _logdet_chol(m: np.ndarray, name: str) -> float:
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def _rate(h_c: np.ndarray, q: np.ndarray, r_c: np.ndarray, budget: AiBudget) -> float:
    """Rate kernel of mimo_rate on already validated matrices."""
    rz = _noise_rz(q, budget)
    signal = h_c @ q @ h_c.conj().T
    noise = r_c + h_c @ rz @ h_c.conj().T
    noise = 0.5 * (noise + noise.conj().T)
    total = noise + 0.5 * (signal + signal.conj().T)
    val = _logdet_chol(total, "effective covariance") - _logdet_chol(
        noise, "effective noise covariance"
    )
    return val / math.log(2.0)


def mimo_rate(sc: MimoScenario) -> float:
    """log2 det(I + H_c Q H_c^H (R_c + H_c R_z H_c^H)^{-1}), bits per use."""
    return _rate(sc.h_c, sc.q, sc.r_c, sc.budget)


def fisher_info(sc: MimoScenario) -> float:
    """Fisher information dmu^H (R_s + H_s R_z H_s^H)^{-1} dmu, real >= 0."""
    rz = _noise_rz(sc.q, sc.budget)
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
    validated template PSD, so each point skips re-validation.
    """
    if not c_grid or not power_scales:
        raise ValueError("grids must be non-empty")
    if not all(math.isfinite(s) and s > 0 for s in power_scales):
        raise ValueError("power scales must be positive and finite")
    out = np.empty((len(c_grid), len(power_scales)))
    for i, c in enumerate(c_grid):
        budget = AiBudget(c)
        for j, scale in enumerate(power_scales):
            out[i, j] = _rate(template.h_c, template.q * scale, template.r_c, budget)
    return out
