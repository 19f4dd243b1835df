import math

import numpy as np
import pytest

from aiisac.bottleneck import (
    PSD_RTOL,
    AiBudget,
    achieved_mi,
    covariance_map,
    enforce_mi_numerically,
    equivalent_noise,
    gaussian_mi,
    kappa,
)
from aiisac.errors import (
    DegenerateBudgetError,
    DegenerateInputError,
    SingularMatrixError,
)


class TestKappa:
    def test_values(self):
        assert kappa(AiBudget(1.0)) == 1.0
        assert kappa(AiBudget(math.inf)) == 0.0
        assert math.isclose(kappa(AiBudget(3.0)), 1.0 / 7.0, rel_tol=1e-15)

    def test_zero_budget_rejected(self):
        with pytest.raises(DegenerateBudgetError):
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


class TestEquivalentNoise:
    def test_values(self):
        assert equivalent_noise(AiBudget(1.0), 1.0) == 1.0
        assert equivalent_noise(AiBudget(math.inf), 5.0) == 0.0
        assert math.isclose(equivalent_noise(AiBudget(4.0), 10.0), 10.0 / 15.0,
                            rel_tol=1e-12)

    def test_errors(self):
        with pytest.raises(DegenerateBudgetError):
            equivalent_noise(AiBudget(0.0), 1.0)
        with pytest.raises(ValueError):
            equivalent_noise(AiBudget(1.0), 0.0)


class TestEnforceMi:
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
        for n1 in grid:
            for n2 in grid:
                rz = np.diag([n1, n2])
                mi = gaussian_mi(q, rz)
                if mi <= c + 1e-12:
                    assert n1 + n2 >= t_star - 1e-6

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


@pytest.mark.parametrize("fn", [lambda q: covariance_map(q, 2.0),
                                lambda q: gaussian_mi(q, np.eye(2))],
                         ids=["covariance_map", "gaussian_mi"])
def test_psd_rule_of_check_psd(fn):
    # An indefinite Q used to be answered for its positive eigen-direction
    # alone (gaussian_mi gave 1.0 bit); an eigenvalue within PSD_RTOL of
    # zero, relative to the largest, still passes as in mimo.check_psd.
    with pytest.raises(ValueError, match="not positive semidefinite"):
        fn(np.diag([1.0, -1.0]))
    fn(np.diag([1.0, -0.5 * PSD_RTOL]))
