"""Capacity budget of the learning module and its equivalent-noise forms.

A budget of C bits per channel use on the latent representation acts, in
the Gaussian model, like an additive noise of variance N_z = P / (2^C - 1).
The matrix version maps a transmit covariance Q to the proportional noise
covariance R_z = zeta * Q on the active subspace of Q, which meets the
log-det budget exactly but is trace-minimal only for a flat spectrum of Q.
Both matrix forms are stacked kernels over J x n x n stacks of validated
matrices, proportional_maps for the map and gaussian_mis for the mutual
information; covariance_map and gaussian_mi validate one matrix and run
the kernel on a 1-stack. proportional_map_mis gives each Q's MI with its
own map from one eigh. The map product (_maps) and the active-subspace MI
(_group_mis) are each written once, per group of Q of equal rank.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, SingularMatrixError, _check_positive
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
            raise DegenerateInputError(f"capacity must be >= 0 bits, got {self.c_ai}")


def kappa(budget: AiBudget) -> float:
    """Normalized equivalent noise N_z / P = 1 / (2^C - 1)."""
    return _kappa(budget.c_ai)


def _kappa(c_ai: float) -> float:
    """kappa of a capacity c_ai already known to be >= 0 (inf included)."""
    if c_ai == math.inf:
        return 0.0
    if c_ai == 0:
        raise DegenerateInputError("kappa is unbounded at zero capacity")
    x = c_ai * math.log(2.0)
    # expm1 overflows near x = 709.8; long before, 1/expm1(x) is exp(-x).
    return math.exp(-x) if x >= 709.0 else 1.0 / math.expm1(x)


def achieved_mi(power: float, noise_var: float) -> float:
    """Mutual information log2(1 + P / N_z) of the scalar Gaussian latent."""
    if noise_var == 0.0:
        return math.inf
    return math.log2(1.0 + power / noise_var)


def enforce_mi_numerically(power: float, target_c_ai: float, tol: float) -> float:
    """Noise variance found by root-finding on log2(1 + P/N_z) = C.

    Cross-validates the closed form: the result agrees with N_z = P kappa
    within the root tolerance.  Raises ConvergenceError
    where the root misses tol and DegenerateInputError where N_z overflows.
    """
    for value, name in ((power, "power"), (target_c_ai, "target capacity"), (tol, "tol")):
        _check_positive(value, name)

    # Solve in u = ln(N_z) so the bracket spans many decades safely.
    def gap(u: float) -> float:
        try:
            return math.log1p(power * math.exp(-u)) / math.log(2.0) - target_c_ai
        except OverflowError:
            # log2(1 + e^v) with v = ln(P e^-u), which is finite here.
            v = math.log(power) - u
            nats = max(v, 0.0) + math.log1p(math.exp(-abs(v)))
            return nats / math.log(2.0) - target_c_ai

    lo = math.log(power) - (target_c_ai + 60.0) * math.log(2.0)
    hi = math.log(power) + 60.0 * math.log(2.0)
    u = find_root(gap, lo, hi, tol=1e-14)
    if abs(gap(u)) > tol:
        raise ConvergenceError(
            f"MI enforcement did not reach tolerance: residual {gap(u)}"
        )
    try:
        return math.exp(u)
    except OverflowError:
        raise DegenerateInputError(f"N_z = P / (2^C - 1) overflows at power "
                                   f"{power!r} and {target_c_ai!r} bits") from None


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2 of a matrix or of each in a stack, halved before the
    sum so that no finite entry overflows."""
    h = 0.5 * m
    return h + h.conj().swapaxes(-1, -2)


def _as_hermitian(a: np.ndarray, name: str) -> np.ndarray:
    """Complex Hermitian part of a finite square matrix of dimension 1 to MAX_DIM;
    raises DegenerateInputError unless it is Hermitian within 1e-12 * max|A|."""
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DegenerateInputError(f"{name} must be square, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise DegenerateInputError(f"{name} must have dimension 1 to {MAX_DIM}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DegenerateInputError(f"{name} has non-finite entries")
    h = 0.5 * m  # halved first, as in _hermitian_part, so no finite entry overflows
    if float(np.max(np.abs(h - h.conj().T))) > 1e-12 * float(np.max(np.abs(h))):
        raise DegenerateInputError(f"{name} is not Hermitian within tolerance")
    return _hermitian_part(m)


def _finite(m, what: str):
    """m, or DegenerateInputError ("{what} overflows") where it is not finite."""
    if not np.isfinite(m).all():
        raise DegenerateInputError(f"{what} overflows")
    return m


def _check_psd(ms: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The one PSD test: (ascending eigenvalues, eigenvectors) of the Hermitian
    stack ms (J x n x n), from one eigh. DegenerateInputError where ms or an
    eigenvalue overflows, or one is below -PSD_RTOL times its matrix's largest."""
    evals, evecs = np.linalg.eigh(_finite(ms, name))
    _finite(evals, f"an eigenvalue of {name}")
    if (evals[:, 0] < -PSD_RTOL * np.abs(evals).max(axis=-1)).any():
        raise DegenerateInputError(f"{name} is not positive semidefinite")
    return evals, evecs


def _cholesky(m: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of a positive definite matrix or of each in a
    stack; raises _finite's overflow error, else SingularMatrixError, naming m."""
    try:
        return np.linalg.cholesky(_finite(m, f"the {name}"))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is not positive definite") from exc


def _logdet(m: np.ndarray, name: str) -> np.ndarray:
    """Natural log-determinants, by _cholesky, of a matrix or of each in a stack."""
    chol = _cholesky(m, name)
    return 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))),
                        axis=-1)


def covariance_map(q: np.ndarray, c_ai: float) -> np.ndarray:
    """Proportional noise covariance meeting the log-det budget.

    Returns R_z = zeta * Q on the rank-r active subspace of Q, with
    zeta = (2^(C/r) - 1)^-1, and zero on the null space (and everywhere at
    C = inf).  By construction gaussian_mi(Q, R_z) equals C exactly; the
    map is trace-minimal only when the active eigenvalues of Q are equal.
    A Q that is not PSD raises DegenerateInputError, at C = inf too, and so
    do a capacity of zero, below zero or NaN and an R_z that overflows.
    """
    q = _as_hermitian(q, "Q")
    return _finite(proportional_maps(q[None], [c_ai])[0, 0], "R_z = zeta * Q")


def _active_groups(qs: np.ndarray
                   ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The Hermitian stack qs (J x n x n), PSD by _check_psd, grouped by rank r:
    the count of eigenvalues above RANK_RTOL times the largest, the last r. Per
    rank, ascending: member indices, active eigenvalues (M x r), vectors (M x n x r)."""
    evals, evecs = _check_psd(qs, "Q")
    ranks = np.count_nonzero(evals > RANK_RTOL * evals[:, -1:], axis=1)
    groups = []
    for r in np.flatnonzero(np.bincount(ranks)):
        members, lo = np.flatnonzero(ranks == r), evals.shape[1] - r
        groups.append((members, evals[members, lo:], evecs[members, :, lo:]))
    return groups


def _map_groups(qs: np.ndarray, c_grid: Sequence[float]
                ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """_active_groups of qs once each capacity is checked as an AiBudget, so
    one below 0 or NaN raises DegenerateInputError naming it. Where some
    capacity is finite, a zero Q, which has no map, raises it too."""
    for c in c_grid:
        AiBudget(c)
    groups = _active_groups(qs)
    # Ranks ascend, so a zero Q is in the first group.
    if any(c != math.inf for c in c_grid) and groups and not groups[0][1].shape[1]:
        raise DegenerateInputError("Q has no active subspace (zero matrix)")
    return groups


def _zeta(c_ai: float, rank: int) -> float:
    """zeta = kappa of the per-mode share c_ai / rank of a capacity c_ai >= 0:
    inf where a positive share underflows to 0, as 1 / expm1 of a subnormal
    share overflows, so that such an R_z overflows rather than reading as C = 0."""
    share = c_ai / rank
    return math.inf if share == 0.0 < c_ai else _kappa(share)


def _maps(vals: np.ndarray, vecs: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """R_z = zeta * Q on the active subspace of each Q of a group (active
    eigenvalues M x r, vectors M x n x r): M x n x n for a zeta per member,
    or C x M x n x n for zeta of shape C x 1. A zeta or product that
    overflows gives entries that are not finite, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (zeta[..., None] * vals)[..., None, :]
        return _hermitian_part((vecs * scaled) @ vecs.conj().swapaxes(-1, -2))


def _group_mis(vals: np.ndarray, vecs: np.ndarray, rzs: np.ndarray) -> np.ndarray:
    """log2 det(I + R_z^-1 Q) on the active subspace of each Q of a group
    (eigenpairs as in _maps, r >= 1) with its R_z in rzs (M x n x n), from
    two stacked Cholesky log-dets."""
    sub = "on the active subspace of Q"
    with np.errstate(over="ignore", invalid="ignore"):
        r_sub = _hermitian_part(vecs.conj().swapaxes(-1, -2) @ rzs @ vecs)
        total = r_sub + vals[:, None, :] * np.eye(vals.shape[1])
    # R_z first: where it is not positive definite, the error names it.
    noise = _logdet(r_sub, f"R_z {sub}")
    return (_logdet(total, f"R_z + Q {sub}") - noise) / math.log(2.0)


def proportional_maps(qs: np.ndarray, c_grid: Sequence[float]) -> np.ndarray:
    """covariance_map for every capacity in c_grid and every Hermitian Q in
    the stack qs (J x n x n), as a C x J x n x n stack, from one stacked
    eigh. Active subspaces are sliced per group of Q of equal rank, so each
    R_z is bit for bit the product for its Q alone. A capacity below 0 or
    NaN raises DegenerateInputError naming it, and so does a Q that is not
    PSD, whatever the capacities.
    """
    groups = _map_groups(qs, c_grid)
    out = np.zeros((len(c_grid),) + qs.shape, dtype=complex)
    finite = [i for i, c in enumerate(c_grid) if c != math.inf]
    if not finite:
        return out
    for members, vals, vecs in groups:
        zeta = np.array([[_zeta(c_grid[i], vals.shape[1])] for i in finite])
        out[np.ix_(finite, members)] = _maps(vals, vecs, zeta)
    return out


def proportional_map_mis(qs: np.ndarray, cs: Sequence[float]) -> np.ndarray:
    """gaussian_mi of each Hermitian Q in the stack qs (J x n x n) with its
    own map at its own capacity, covariance_map(qs[j], cs[j]), from one
    stacked eigh and two stacked Cholesky log-dets per group of Q of equal
    rank: bit for bit gaussian_mis(qs, proportional_maps(qs, cs)[j, j]),
    which builds C x J maps to read J. A capacity below 0 or NaN, a Q that
    is not PSD and a zero Q raise as there.
    """
    out = np.zeros(len(qs))
    for members, vals, vecs in _map_groups(qs, cs):
        if vals.shape[1]:
            zeta = np.array([_zeta(cs[j], vals.shape[1]) for j in members])
            out[members] = _group_mis(vals, vecs, _maps(vals, vecs, zeta))
    return out


def gaussian_mis(qs: np.ndarray, rzs: np.ndarray) -> np.ndarray:
    """gaussian_mi for every pair of Hermitian Q and R_z in the stacks qs
    and rzs (J x n x n), as J values in bits, from one stacked eigh and two
    stacked Cholesky log-dets per group of Q of equal rank; each value is
    bit for bit that of its pair alone.  A Q that is not PSD, or an overflow,
    raises DegenerateInputError, and a zero Q gives 0.
    """
    out = np.zeros(len(qs))
    for members, vals, vecs in _active_groups(qs):
        if vals.shape[1]:
            out[members] = _group_mis(vals, vecs, rzs[members])
    return out


def gaussian_mi(q: np.ndarray, r_z: np.ndarray) -> float:
    """log2 det(I + R_z^-1 Q), evaluated on the active subspace of Q.

    Q must be PSD and R_z positive definite on the active subspace, and
    both of one shape; contributions on the null space of Q do not enter.
    An overflow raises DegenerateInputError, as in gaussian_mis.
    """
    q = _as_hermitian(q, "Q")
    r_z = _as_hermitian(r_z, "R_z")
    if q.shape != r_z.shape:
        raise DegenerateInputError(f"Q has shape {q.shape} but R_z has shape {r_z.shape}")
    return float(gaussian_mis(q[None], r_z[None])[0])
