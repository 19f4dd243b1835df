"""Capacity budget of the learning module and its equivalent-noise forms.

A budget of C bits per channel use on the latent representation acts, in
the Gaussian model, like an additive noise of variance N_z = P / (2^C - 1).
The matrix version maps a transmit covariance Q to the proportional noise
covariance R_z = zeta * Q on the active subspace of Q, which meets the
log-det budget exactly but is trace-minimal only for a flat spectrum of Q.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBudgetError, DegenerateInputError, SingularMatrixError
from .numerics import find_root

# Eigenvalues below this fraction of the largest are treated as null space.
RANK_RTOL = 1e-12

# Largest matrix dimension accepted by the Hermitian validator.
MAX_DIM = 64

# An eigenvalue below -PSD_RTOL times the largest eigenvalue magnitude makes
# a Hermitian matrix indefinite.
PSD_RTOL = 1e-10


@dataclass(frozen=True)
class AiBudget:
    """Representational capacity of the learning module, in bits per use.

    math.inf is admissible and recovers the classical (unconstrained)
    limit; zero is a valid value but most derived quantities are only
    defined as limits there.
    """

    c_ai: float

    def __post_init__(self) -> None:
        if math.isnan(self.c_ai) or self.c_ai < 0:
            raise ValueError(f"capacity must be >= 0 bits, got {self.c_ai}")

    @property
    def is_classical(self) -> bool:
        return math.isinf(self.c_ai)


def kappa(budget: AiBudget) -> float:
    """Normalized equivalent noise N_z / P = 1 / (2^C - 1)."""
    if budget.is_classical:
        return 0.0
    if budget.c_ai == 0:
        raise DegenerateBudgetError("kappa is unbounded at zero capacity")
    x = budget.c_ai * math.log(2.0)
    # expm1 overflows near x = 709.8; long before, 1/expm1(x) is exp(-x).
    return math.exp(-x) if x >= 709.0 else 1.0 / math.expm1(x)


def equivalent_noise(budget: AiBudget, power: float) -> float:
    """Equivalent noise variance N_z = P / (2^C - 1); zero in the classical limit."""
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    if budget.is_classical:
        return 0.0
    if budget.c_ai == 0:
        raise DegenerateBudgetError(
            "N_z is unbounded at zero capacity; use the limit forms"
        )
    return power * kappa(budget)


def achieved_mi(power: float, noise_var: float) -> float:
    """Mutual information log2(1 + P / N_z) of the scalar Gaussian latent."""
    if noise_var == 0.0:
        return math.inf
    return math.log2(1.0 + power / noise_var)


def enforce_mi_numerically(power: float, target_c_ai: float, tol: float) -> float:
    """Noise variance found by root-finding on log2(1 + P/N_z) = C.

    Cross-validates the closed form: the result agrees with
    equivalent_noise within the root tolerance.
    """
    if power <= 0 or target_c_ai <= 0 or tol <= 0:
        raise ValueError("power, target capacity, and tol must be positive")

    # Solve in u = ln(N_z) so the bracket spans many decades safely.
    def gap(u: float) -> float:
        try:
            return math.log2(1.0 + power * math.exp(-u)) - target_c_ai
        except OverflowError:
            # log2(1 + e^v) with v = ln(P e^-u), which is finite here.
            v = math.log(power) - u
            nats = max(v, 0.0) + math.log1p(math.exp(-abs(v)))
            return nats / math.log(2.0) - target_c_ai

    lo = math.log(power) - (target_c_ai + 60.0) * math.log(2.0)
    hi = math.log(power) + 60.0 * math.log(2.0)
    u = find_root(gap, lo, hi, tol=1e-14)
    nz = math.exp(u)
    if abs(gap(u)) > tol:
        raise ArithmeticError(
            f"MI enforcement did not reach tolerance: residual {gap(u)}"
        )
    return nz


def _as_hermitian(a: np.ndarray, name: str) -> np.ndarray:
    """Complex Hermitian part of a finite square matrix of dimension <= MAX_DIM;
    raises ValueError unless it is Hermitian within 1e-12 * max|A|."""
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise ValueError(f"{name} exceeds the supported dimension {MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    scale = float(np.max(np.abs(m)))
    if float(np.max(np.abs(m - m.conj().T))) > 1e-12 * scale:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return 0.5 * (m + m.conj().T)


def _check_psd(evals: np.ndarray, name: str) -> None:
    """Raise ValueError unless the ascending eigenvalues (last axis) of a
    Hermitian matrix, or of each in a stack, pass the PSD_RTOL rule."""
    if (evals[..., 0] < -PSD_RTOL * np.abs(evals).max(axis=-1)).any():
        raise ValueError(f"{name} is not positive semidefinite")


def _logdet(m: np.ndarray, name: str) -> np.ndarray:
    """Natural log-determinants of a positive definite matrix or of a stack
    of them, by Cholesky; raises SingularMatrixError naming m otherwise."""
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is not positive definite") from exc
    return 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))),
                        axis=-1)


def covariance_map(q: np.ndarray, c_ai: float) -> np.ndarray:
    """Proportional noise covariance meeting the log-det budget.

    Returns R_z = zeta * Q on the rank-r active subspace of Q, with
    zeta = (2^(C/r) - 1)^-1, and zero on the null space (and everywhere at
    C = inf).  By construction gaussian_mi(Q, R_z) equals C exactly; the
    map is trace-minimal only when the active eigenvalues of Q are equal.
    At finite C, a Q that is not PSD raises ValueError.
    """
    q = _as_hermitian(q, "Q")
    if c_ai <= 0 or math.isnan(c_ai):
        raise DegenerateBudgetError(f"capacity must be positive, got {c_ai}")
    return proportional_maps(q[None], [c_ai])[0, 0]


def proportional_maps(qs: np.ndarray, c_grid: list[float]) -> np.ndarray:
    """covariance_map for every capacity in c_grid and every Hermitian Q in
    the stack qs (J x n x n), as a C x J x n x n stack, from one stacked
    eigh. Active subspaces are sliced per group of Q with equal rank masks,
    so each R_z is bit for bit the product for its Q alone.  A Q that is
    not PSD raises ValueError unless every capacity is inf.
    """
    out = np.zeros((len(c_grid),) + qs.shape, dtype=complex)
    finite = [i for i, c in enumerate(c_grid) if c != math.inf]
    if not finite:
        return out
    evals, evecs = np.linalg.eigh(qs)
    _check_psd(evals, "Q")
    if not np.all(evals[:, -1] > 0):
        raise DegenerateInputError("Q has no active subspace (zero matrix)")
    keep = evals > RANK_RTOL * evals[:, -1:]
    groups = {}
    for j, mask in enumerate(keep):
        groups.setdefault(mask.tobytes(), []).append(j)
    for members in groups.values():
        mask = keep[members[0]]
        vecs, vals = evecs[members][:, :, mask], evals[members][:, mask]
        zeta = np.array([kappa(AiBudget(c_grid[i] / vals.shape[1])) for i in finite])
        rz = (vecs * (zeta[:, None, None] * vals)[:, :, None, :]
              ) @ vecs.conj().swapaxes(-1, -2)
        out[np.ix_(finite, members)] = 0.5 * (rz + rz.conj().swapaxes(-1, -2))
    return out


def gaussian_mi(q: np.ndarray, r_z: np.ndarray) -> float:
    """log2 det(I + R_z^-1 Q), evaluated on the active subspace of Q.

    Q must be PSD and R_z positive definite on the active subspace;
    contributions on the null space of Q do not enter.
    """
    q = _as_hermitian(q, "Q")
    r_z = _as_hermitian(r_z, "R_z")
    evals, evecs = np.linalg.eigh(q)
    _check_psd(evals, "Q")
    if evals[-1] <= 0:
        return 0.0
    keep = evals > RANK_RTOL * evals[-1]
    vecs = evecs[:, keep]
    r_sub = vecs.conj().T @ r_z @ vecs
    r_sub = 0.5 * (r_sub + r_sub.conj().T)
    name = "R_z on the active subspace of Q"
    nats = _logdet(r_sub + np.diag(evals[keep]), name) - _logdet(r_sub, name)
    return float(nats) / math.log(2.0)
