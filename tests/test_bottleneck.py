import math

import numpy as np
import pytest

from aiisac.bottleneck import (
    PSD_RTOL,
    AiBudget,
    _as_hermitian,
    _hermitian_part,
    achieved_mi,
    covariance_map,
    enforce_mi_numerically,
    equivalent_noise,
    gaussian_mi,
    gaussian_mis,
    kappa,
    proportional_map_mis,
    proportional_maps,
)
from aiisac.errors import DegenerateInputError, SingularMatrixError


class TestKappa:
    def test_values(self):
        assert kappa(AiBudget(1.0)) == 1.0
        assert kappa(AiBudget(math.inf)) == 0.0
        assert math.isclose(kappa(AiBudget(3.0)), 1.0 / 7.0, rel_tol=1e-15)

    def test_zero_budget_rejected(self):
        with pytest.raises(DegenerateInputError,
                           match="kappa is unbounded at zero capacity"):
            kappa(AiBudget(0.0))

    def test_strictly_decreasing(self):
        vals = [kappa(AiBudget(c)) for c in np.linspace(0.25, 10.0, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_defining_identity(self):
        for c in (0.5, 1.0, 2.5, 7.0):
            assert math.isclose(kappa(AiBudget(c)) * (2.0**c - 1.0), 1.0,
                                rel_tol=1e-12)

    def test_large_budget_underflows(self):
        # expm1(C ln2) overflows from C = 1024 on; kappa goes to 0 instead.
        for c in (1000.0, 1022.0, 1023.0):
            assert math.isclose(kappa(AiBudget(c)), 2.0**-c, rel_tol=1e-12)
        assert kappa(AiBudget(2000.0)) == 0.0

    @pytest.mark.parametrize("c", [0.25, 3.3, 30.0, 1023.0, 1100.0, math.inf])
    def test_proportional_maps_zeta_is_kappa(self, c):
        # R_z of Q = I_r is zeta(C/r) I_r, so it shows the zeta the map
        # uses; C ln2 >= 709 at 1023 and 1100 takes kappa's exp(-x) branch.
        for r in (1, 2):
            rz = proportional_maps(np.eye(r)[None], [c])[0, 0]
            zeta = kappa(AiBudget(c / r))
            assert [v.hex() for v in np.diag(rz).real.tolist()] == [zeta.hex()] * r
            assert np.all(rz.imag == 0.0) and np.all(rz[~np.eye(r, dtype=bool)] == 0.0)


class TestEquivalentNoise:
    def test_values(self):
        assert equivalent_noise(AiBudget(1.0), 1.0) == 1.0
        assert equivalent_noise(AiBudget(math.inf), 5.0) == 0.0
        assert math.isclose(equivalent_noise(AiBudget(4.0), 10.0), 10.0 / 15.0,
                            rel_tol=1e-12)

    def test_errors(self):
        with pytest.raises(DegenerateInputError, match="unbounded at zero capacity"):
            equivalent_noise(AiBudget(0.0), 1.0)
        with pytest.raises(ValueError):
            equivalent_noise(AiBudget(1.0), 0.0)

    def test_overflow_rejected(self):
        # N_z = inf came back as a value, and gave an SNR of 0.
        with pytest.raises(DegenerateInputError, match="N_z = P / .* overflows"):
            equivalent_noise(AiBudget(0.5), 1e308)

    def test_nan_power_rejected(self):
        # NaN passed `power <= 0` and came out as a NaN noise variance.
        with pytest.raises(ValueError, match="power must be positive"):
            equivalent_noise(AiBudget(2.0), math.nan)


class TestEnforceMi:
    @pytest.mark.parametrize("power, c, tol", [
        (math.nan, 2.0, 1e-12), (1.0, math.nan, 1e-12), (1.0, 2.0, math.nan),
        (math.inf, 2.0, 1e-12), (1.0, math.inf, 1e-12), (0.0, 2.0, 1e-12),
        (1.0, 0.0, 1e-12), (1.0, 2.0, 0.0)])
    def test_invalid_arguments_rejected(self, power, c, tol):
        # NaN and inf passed `x <= 0`: the root finder then reported an
        # invalid bracket or a NaN function value, and a NaN tol was
        # ignored.
        with pytest.raises(ValueError, match="must be positive and finite"):
            enforce_mi_numerically(power, c, tol)

    def test_overflow_rejected(self):
        # exp(u) of the root raised a raw OverflowError.
        with pytest.raises(DegenerateInputError, match="N_z = P / .* overflows"):
            enforce_mi_numerically(1e308, 0.5, 1e-12)

    def test_matches_closed_form_simple(self):
        assert math.isclose(enforce_mi_numerically(1.0, 1.0, 1e-12), 1.0,
                            abs_tol=1e-12)
        assert math.isclose(enforce_mi_numerically(10.0, 4.0, 1e-12),
                            10.0 / 15.0, abs_tol=1e-9)

    @pytest.mark.parametrize("power", [0.1, 1.0, 10.0])
    def test_closed_form_agreement_grid(self, power):
        for c in np.arange(0.5, 8.5, 0.5):
            nz = enforce_mi_numerically(power, float(c), 1e-12)
            ref = equivalent_noise(AiBudget(float(c)), power)
            assert math.isclose(nz, ref, rel_tol=1e-9)
            assert abs(achieved_mi(power, nz) - c) <= 1e-12

    @pytest.mark.parametrize("power, c", [(1e-300, 4.0), (0.01, 1000.0),
                                          (1e-310, 0.5), (1e-320, 1e-10)])
    def test_bracket_past_exp_overflow(self, power, c):
        # e^-u overflows at the bracket's low end; it raised OverflowError.
        # At (1e-320, 1e-10) even the root lies there, with P e^-u = 7e-11.
        nz = enforce_mi_numerically(power, c, 1e-12)
        assert math.isclose(nz, equivalent_noise(AiBudget(c), power),
                            rel_tol=1e-12)

    @pytest.mark.parametrize("power, c, rel", [(1.0, 1e-8, 1e-14),
                                               (1e-300, 1e-10, 1e-13)])
    def test_small_target(self, power, c, rel):
        # log2(1 + P e^-u) carried the rounding of 1 + x into the root: N_z
        # was off by 1.4e-8 and 7.6e-7 relative here, with log1p by 2e-16
        # and 2.7e-14.
        nz = enforce_mi_numerically(power, c, 1e-12)
        ref = equivalent_noise(AiBudget(c), power)
        assert abs(nz - ref) <= rel * ref


class TestCovarianceMap:
    def test_identity_two_bits(self):
        rz = covariance_map(np.eye(2), 2.0)
        assert np.allclose(rz, np.eye(2), atol=1e-12)
        assert math.isclose(gaussian_mi(np.eye(2), rz), 2.0, abs_tol=1e-12)

    def test_scalar_reduces_to_equivalent_noise(self):
        for c, p in [(1.0, 1.0), (4.0, 10.0), (2.5, 0.3)]:
            rz = covariance_map(np.array([[p]]), c)
            assert math.isclose(float(rz[0, 0].real),
                                equivalent_noise(AiBudget(c), p), rel_tol=1e-12)

    def test_diag_example(self):
        q = np.diag([4.0, 1.0])
        rz = covariance_map(q, 4.0)
        assert np.allclose(rz, q / 3.0, atol=1e-12)
        assert math.isclose(gaussian_mi(q, rz), 4.0, abs_tol=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            covariance_map(np.zeros((2, 2)), 1.0)

    def test_overflow_rejected(self):
        # zeta = 2.41 here, so zeta * Q overflowed into an all-NaN R_z.
        with pytest.raises(DegenerateInputError, match="R_z = zeta \\* Q overflows"):
            covariance_map(1e308 * np.eye(2), 1.0)

    def test_overflowing_eigenvalue_rejected(self):
        # Q = a [[1, 1/2], [1/2, 1]] is full rank, but its eigenvalue 1.5a
        # overflowed, so every rank was 0 and Q was called a zero matrix.
        a = 1.7e308
        with pytest.raises(DegenerateInputError, match="overflow"):
            covariance_map(np.array([[a, a / 2], [a / 2, a]]), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_proportional_maps_equal_covariance_map_bit_for_bit(self, n):
        # One call maps full-rank and rank-1 Q's interleaved, so it slices
        # several rank groups; a zero Q has a map at C = inf only.
        qs, _ = _mixed_rank_stack(np.random.default_rng(60 + n), n)
        c_grid = [0.5, 3.0, math.inf]
        got = proportional_maps(qs, c_grid)
        assert got.shape == (len(c_grid),) + qs.shape
        for i, c in enumerate(c_grid):
            for j, q in enumerate(qs):
                assert got[i, j].tobytes() == covariance_map(q, c).tobytes()
        qs[4] = 0.0
        got = proportional_maps(qs, [math.inf])
        assert got.tobytes() == np.zeros_like(got).tobytes()
        assert covariance_map(qs[4], math.inf).tobytes() == got[0, 4].tobytes()

    def test_budget_always_met(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            r = int(rng.integers(1, n + 1))
            a = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
            q = a @ a.conj().T
            c = float(rng.uniform(0.5, 8.0))
            assert abs(gaussian_mi(q, covariance_map(q, c)) - c) <= 1e-9

    def test_min_trace_against_grid_oracle(self):
        # Isotropic rank-2 case: no diagonal noise covariance meeting the
        # MI budget has lower trace than the proportional solution.  (For
        # unequal eigenvalues the proportional map is the contract but not
        # the true trace minimizer; see test below.)
        q = np.diag([2.0, 2.0])
        c = 3.0
        rz_star = covariance_map(q, c)
        t_star = float(np.real(np.trace(rz_star)))
        grid = np.geomspace(1e-3, 10.0, 200)
        n1, n2 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
        rzs = np.zeros((n1.size, 2, 2), complex)
        rzs[:, 0, 0], rzs[:, 1, 1] = n1, n2
        mis = gaussian_mis(np.broadcast_to(q.astype(complex), rzs.shape), rzs)
        feasible = mis <= c + 1e-12
        assert np.all(n1[feasible] + n2[feasible] >= t_star - 1e-6)

    def test_proportional_map_not_min_trace_for_skew_spectrum(self):
        # Known limitation: for unequal eigenvalues the per-mode trace
        # minimizer solves n_i(n_i + q_i) = mu*q_i, which is proportional
        # only when the spectrum is flat.  The proportional contract is
        # kept for its exact-MI property; this documents the trace gap.
        q = np.diag([3.0, 1.0])
        c = 3.0
        t_prop = float(np.real(np.trace(covariance_map(q, c))))
        mu = 1.3  # hand-tuned multiplier giving MI close to the budget
        n = 0.5 * (-np.diag(q) + np.sqrt(np.diag(q) ** 2 + 4 * mu * np.diag(q)))
        waterfill = np.diag(n)
        if gaussian_mi(q, waterfill) <= c:
            assert float(np.trace(waterfill)) < t_prop


class TestGaussianMi:
    def test_zero_signal(self):
        assert gaussian_mi(np.zeros((2, 2)), np.eye(2)) == 0.0

    def test_identity(self):
        assert math.isclose(gaussian_mi(np.eye(2), np.eye(2)), 2.0,
                            abs_tol=1e-12)

    def test_singular_noise(self):
        with pytest.raises(SingularMatrixError):
            gaussian_mi(np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("q, r_z", [(np.eye(2), np.eye(3)),
                                        (np.eye(3), np.eye(2))])
    def test_shape_mismatch(self, q, r_z):
        # Used to leak numpy's matmul core-dimension error.
        with pytest.raises(ValueError, match=r"Q has shape \(\d, \d\) but "
                                             r"R_z has shape \(\d, \d\)"):
            gaussian_mi(q, r_z)

    def test_overflow_names_the_sum(self):
        # R_z = a I is finite; only R_z + Q on Q's active subspace overflows.
        a = 1.7e308
        with pytest.raises(DegenerateInputError,
                           match="R_z \\+ Q on the active subspace of Q overflows"):
            gaussian_mi(a * np.eye(2), a * np.eye(2))


def _hermitian(m):
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _mixed_rank_stack(rng, n):
    """Full-rank, rank-1 v v^H and diag(1, 0, ...) Q's of dimension n, each
    with a random positive definite R_z."""
    qs, rzs = [], []
    for _ in range(3):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        v = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
        for q in (a @ a.conj().T, v @ v.conj().T,
                  np.diag([1.0] + [0.0] * (n - 1))):
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            qs.append(q)
            rzs.append(b @ b.conj().T + 0.1 * np.eye(n))
    order = rng.permutation(len(qs))
    return (_hermitian(np.array(qs, dtype=complex)[order]),
            _hermitian(np.array(rzs)[order]))


class TestGaussianMis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_gaussian_mi_bit_for_bit(self, n):
        qs, rzs = _mixed_rank_stack(np.random.default_rng(40 + n), n)
        got = gaussian_mis(qs, rzs)
        assert got.shape == (len(qs),)
        assert got.tolist() == [gaussian_mi(q, rz) for q, rz in zip(qs, rzs)]

    def test_zero_q_gives_zero(self):
        qs, rzs = _mixed_rank_stack(np.random.default_rng(7), 3)
        qs[4] = 0.0
        got = gaussian_mis(qs, rzs)
        assert got[4] == 0.0
        assert np.all(np.delete(got, 4) > 0.0)

    @pytest.mark.parametrize("where", [0, 5, -1])
    def test_one_indefinite_q_raises(self, where):
        qs, rzs = _mixed_rank_stack(np.random.default_rng(8), 2)
        qs[where] = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="not positive semidefinite"):
            gaussian_mis(qs, rzs)

    def test_singular_on_active_subspace_raises(self):
        # diag(1, 0) is active on e1 only, where diag(0, 1) vanishes.
        qs, rzs = _mixed_rank_stack(np.random.default_rng(9), 2)
        qs[3], rzs[3] = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        with pytest.raises(SingularMatrixError,
                           match="R_z on the active subspace of Q is not "
                                 "positive definite"):
            gaussian_mis(qs, rzs)


def _composed_mis(qs, cs):
    """Each Q's MI with its own map, as the C x J map stack's diagonal."""
    j = np.arange(len(cs))
    return gaussian_mis(qs, proportional_maps(qs, cs)[j, j])


def _outcome(fn, *args):
    """The result's bytes, or the class and message of what fn raised."""
    try:
        return fn(*args).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def _low_rank_stack(rng, n, size):
    """size Q = a a^H with a of size n x k, k drawn from 1 to n, and capacities
    drawn as verify draws them."""
    qs = []
    for _ in range(size):
        k = int(rng.integers(1, n + 1))
        a = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        qs.append(a @ a.conj().T)
    return _hermitian(np.array(qs)), rng.uniform(0.5, 8.0, size).tolist()


class TestProportionalMapMis:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_composition_bit_for_bit(self, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        qs, cs = _low_rank_stack(rng, n, 12)
        mixed, _ = _mixed_rank_stack(rng, n)
        for stack, c in ((qs, cs), (mixed, rng.uniform(0.5, 8.0, len(mixed)).tolist())):
            got = proportional_map_mis(stack, c)
            assert got.tobytes() == _composed_mis(stack, c).tobytes()
            assert np.max(np.abs(got - c)) <= 1e-9

    @pytest.mark.parametrize("fault", ["zero_q", "indefinite_q", "negative_c", "nan_c",
                                       "zero_c", "inf_c", "all_inf_c", "all_inf_zero_q"])
    def test_errors_equal_composition(self, fault):
        qs, cs = _low_rank_stack(np.random.default_rng(5), 3, 6)
        if fault == "zero_q":
            qs[2] = 0.0
        elif fault == "indefinite_q":
            qs[4] = np.diag([1.0, 0.5, -1.0])
        elif fault in ("negative_c", "nan_c", "zero_c", "inf_c"):
            cs[3] = {"negative_c": -1.0, "nan_c": math.nan, "zero_c": 0.0,
                     "inf_c": math.inf}[fault]
        else:
            cs = [math.inf] * len(cs)
            if fault == "all_inf_zero_q":
                qs = np.zeros_like(qs[:1])
                cs = cs[:1]
        got = _outcome(proportional_map_mis, qs, cs)
        assert got == _outcome(_composed_mis, qs, cs)
        assert (got == bytes(8)) if fault == "all_inf_zero_q" else isinstance(got, tuple)


@pytest.mark.parametrize("fn", [lambda q: covariance_map(q, 2.0),
                                lambda q: covariance_map(q, math.inf),
                                lambda q: gaussian_mi(q, np.eye(2))],
                         ids=["covariance_map", "covariance_map_inf", "gaussian_mi"])
def test_psd_rule_of_check_psd(fn):
    # An indefinite Q used to be answered for its positive eigen-direction
    # alone (gaussian_mi gave 1.0 bit), and with the zero matrix at C = inf;
    # an eigenvalue within PSD_RTOL of zero, relative to the largest, still
    # passes as in mimo.check_psd.
    with pytest.raises(ValueError, match="not positive semidefinite"):
        fn(np.diag([1.0, -1.0]))
    fn(np.diag([1.0, -0.5 * PSD_RTOL]))


class TestHermitianPart:
    def test_same_bits_as_the_sum_halved(self):
        # Halving first is exact in the normal range, so the stacked form
        # equals (M + M^H) / 2 bit for bit there.
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        for scale in (1e-300, 1.0, 1e300):
            a = scale * m
            assert np.array_equal(_hermitian_part(a), 0.5 * (a + a.conj().swapaxes(-1, -2)))

    def test_largest_finite_entries_do_not_overflow(self):
        # 0.5 * (M + M^H) gave inf + nanj entries (and two warnings) here.
        m = np.array([[1e308, 1e308 + 1e308j], [1e308 - 1e308j, 1.7e308]])
        assert np.array_equal(_hermitian_part(m), m)

    @pytest.mark.parametrize("a", [[[0.0, 1e308], [-1e308, 0.0]],
                                   [[0.0, 1.7e308 + 1.7e308j],
                                    [-1.7e308 - 1.7e308j, 0.0]]],
                             ids=["real", "complex"])
    def test_largest_non_hermitian_entries_rejected(self, a):
        # M - M^H overflowed (a warning before the error); in the complex
        # case max|M| overflowed too, and the matrix passed as Hermitian.
        with pytest.raises(DegenerateInputError, match="A is not Hermitian"):
            _as_hermitian(a, "A")
