import math
import re

import numpy as np
import pytest

from aiisac.bottleneck import AiBudget, covariance_map
from aiisac.errors import (
    DegenerateInputError,
    SingularMatrixError,
)
from aiisac.gaussian import ScalarScenario
from aiisac.gaussian import rate as scalar_rate
from aiisac.mimo import (
    MimoScenario,
    crlb,
    check_psd,
    fisher_info,
    mimo_rate,
    rate_surface,
)


def make_scenario(h_c, q, r_c, c_ai=math.inf, h_s=None, r_s=None, dmu=None):
    n = np.atleast_2d(np.asarray(q)).shape[0]
    m = np.atleast_2d(np.asarray(h_c)).shape[0]
    return MimoScenario(
        h_c=h_c,
        h_s=h_s if h_s is not None else np.eye(m, n),
        q=q,
        r_c=r_c,
        r_s=r_s if r_s is not None else np.eye(m),
        dmu=dmu if dmu is not None else np.ones(m),
        budget=AiBudget(c_ai),
    )


def _scenario_with_q(q):
    return make_scenario(np.eye(q.shape[0]), q, np.eye(q.shape[0]))


class TestValidation:
    NON_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("build", [_scenario_with_q,
                                       lambda q: covariance_map(q, 1.0)],
                             ids=["MimoScenario", "covariance_map"])
    @pytest.mark.parametrize("q", [NON_HERMITIAN, np.eye(65)],
                             ids=["non_hermitian", "dim_65"])
    def test_rejected(self, build, q):
        with pytest.raises(ValueError):
            build(q)

    @pytest.mark.parametrize("q", [-0.01 * np.eye(2),
                                   np.array([[1.0, np.nan], [np.nan, 1.0]]),
                                   np.array([[np.inf, 0.0], [0.0, 1.0]])],
                             ids=["negative_definite", "nan", "inf"])
    def test_not_psd_rejected(self, q):
        with pytest.raises(ValueError):
            _scenario_with_q(q)
        with pytest.raises(ValueError):
            check_psd(q)

    @pytest.mark.parametrize("fields, message", [
        (dict(h_c=np.array([[1.0, np.nan], [0.0, 1.0]])), "H_c has non-finite"),
        (dict(h_c=np.ones((2, 3))), r"H_c must be 2-D with 2 columns"),
        (dict(h_c=np.ones((2, 2, 2))), r"H_c must be 2-D with 2 columns"),
        (dict(h_c=np.ones((3, 2))), r"R_c has shape \(2, 2\) but H_c has 3 rows"),
        (dict(h_s=np.array([[np.nan, 0.0], [0.0, 1.0]])), "H_s has non-finite"),
        (dict(h_s=np.array([[np.inf, 0.0], [0.0, 1.0]])), "H_s has non-finite"),
        (dict(h_s=np.ones((2, 1))), r"H_s must be 2-D with 2 columns"),
        (dict(r_c=np.eye(3)), r"R_c has shape \(3, 3\) but H_c has 2 rows"),
        (dict(r_s=np.eye(3)), r"R_s has shape \(3, 3\) but H_s has 2 rows"),
        (dict(dmu=np.ones(3)), "dmu has 3 entries but H_s has 2 rows"),
        (dict(dmu=np.array([1.0, np.nan])), "dmu has non-finite"),
        (dict(dmu=np.array([np.inf, 1.0])), "dmu has non-finite"),
    ], ids=["h_c_nan", "h_c_columns", "h_c_3d", "h_c_rows", "h_s_nan", "h_s_inf",
            "h_s_columns", "r_c_shape", "r_s_shape", "dmu_length", "dmu_nan",
            "dmu_inf"])
    def test_inconsistent_fields_rejected(self, fields, message):
        # Each used to reach mimo_rate or fisher_info and come back as NaN
        # or as a raw numpy broadcast or gufunc error.
        base = dict(h_c=np.eye(2), h_s=np.eye(2), q=np.eye(2), r_c=np.eye(2),
                    r_s=np.eye(2), dmu=np.ones(2), budget=AiBudget(2.0))
        with pytest.raises(ValueError, match=message):
            MimoScenario(**{**base, **fields})

    def test_rectangular_channels_accepted(self):
        sc = make_scenario(np.ones((3, 2)), np.eye(2), np.eye(3), c_ai=2.0,
                           h_s=np.ones((4, 2)), r_s=np.eye(4), dmu=np.ones(4))
        assert math.isfinite(mimo_rate(sc)) and math.isfinite(fisher_info(sc))

    def test_zero_and_max_dim_accepted(self):
        assert np.array_equal(check_psd(np.zeros((2, 2))), np.zeros((2, 2)))
        assert np.array_equal(check_psd(np.eye(64)), np.eye(64))


class TestMimoRate:
    def test_zero_channel(self):
        sc = make_scenario(np.zeros((2, 2)), np.eye(2), 0.1 * np.eye(2))
        assert mimo_rate(sc) == 0.0

    def test_parallel_channels(self):
        sc = make_scenario(np.eye(2), np.eye(2), 0.1 * np.eye(2))
        assert math.isclose(mimo_rate(sc), 2.0 * math.log2(11.0), rel_tol=1e-12)

    @pytest.mark.parametrize("c_ai", [0.5, 1.0, 4.0, math.inf])
    def test_scalar_reduction(self, c_ai):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p, g, n = rng.uniform(0.1, 10, size=3)
            sc1 = make_scenario(np.array([[math.sqrt(g)]]), np.array([[p]]),
                                np.array([[n]]), c_ai=c_ai)
            sc2 = ScalarScenario(power=p, gain_c=g, gain_s=g, noise_c=n,
                                 noise_s=n, prior_var=1.0)
            assert abs(mimo_rate(sc1) - scalar_rate(sc2, AiBudget(c_ai))) <= 1e-12

    def test_determinant_identity(self):
        # log det(I + H Q H^H S^-1) = log det(S + H Q H^H) - log det(S)
        rng = np.random.default_rng(3)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q = a @ a.conj().T
        s = np.eye(3) * 0.3
        sc = make_scenario(h, q, s)
        sig = h @ q @ h.conj().T
        direct = (np.log2(np.linalg.det(s + sig)) - np.log2(np.linalg.det(s)))
        assert abs(mimo_rate(sc) - float(np.real(direct))) <= 1e-10

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(17)
        h = rng.normal(size=(2, 2))
        q = np.diag([2.0, 1.0])
        rates = [mimo_rate(make_scenario(h, q, 0.1 * np.eye(2), c_ai=c))
                 for c in (0.5, 1.0, 2.0, 4.0, 8.0, math.inf)]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_singular_noise(self):
        sc = make_scenario(np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError):
            mimo_rate(sc)

    def test_loewner_ordering_of_noise_map(self):
        q = np.diag([2.0, 1.0])
        r1 = covariance_map(q, 1.0)
        r2 = covariance_map(q, 4.0)
        assert np.all(np.linalg.eigvalsh(r1 - r2) >= -1e-12)


class TestFisherAndCrlb:
    def test_unobservable(self):
        sc = make_scenario(np.eye(2), np.eye(2), 0.1 * np.eye(2),
                           dmu=np.zeros(2))
        assert fisher_info(sc) == 0.0
        with pytest.raises(DegenerateInputError, match="Fisher information is zero"):
            crlb(sc)

    def test_scalar_classical(self):
        g, sigma2 = 3.0, 0.5
        sc = make_scenario(np.array([[1.0]]), np.array([[1.0]]),
                           np.array([[1.0]]), dmu=np.array([g]),
                           r_s=np.array([[sigma2]]))
        assert math.isclose(fisher_info(sc), g * g / sigma2, rel_tol=1e-12)
        assert math.isclose(crlb(sc), sigma2 / (g * g), rel_tol=1e-12)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            h = rng.normal(size=(2, 2))
            dmu = rng.normal(size=2)
            infos = [fisher_info(make_scenario(np.eye(2), np.diag([2.0, 1.0]),
                                               np.eye(2), c_ai=c, h_s=h,
                                               r_s=0.2 * np.eye(2), dmu=dmu))
                     for c in (0.5, 2.0, 8.0, math.inf)]
            assert all(a <= b + 1e-12 for a, b in zip(infos, infos[1:]))

    def test_overflowing_sensing_covariance_is_a_domain_error(self):
        # R_s + H_s R_z H_s^H overflowed: fisher_info returned 0.0 after
        # overflow warnings, and crlb called the parameter unobservable.
        sc = make_scenario(np.eye(2), 1e307 * np.eye(2), np.eye(2), c_ai=1.0,
                           r_s=1.7e308 * np.eye(2))
        for fn in (fisher_info, crlb):
            with pytest.raises(DegenerateInputError,
                               match="the effective sensing covariance overflows"):
                fn(sc)


class TestRateSurface:
    def test_single_point(self):
        # Every grid point equals mimo_rate of its own scaled scenario.
        rng = np.random.default_rng(31)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        sc = make_scenario(h, a @ a.conj().T, 0.2 * np.eye(3))
        c_grid, scales = [0.5, 2.0, 4.0, math.inf], [0.1, 1.0, 3.7]
        surf = rate_surface(sc.h_c, sc.r_c, sc.q, c_grid, scales)
        for i, c in enumerate(c_grid):
            for j, scale in enumerate(scales):
                ref = mimo_rate(make_scenario(h, sc.q * scale, sc.r_c, c_ai=c,
                                              h_s=sc.h_s, r_s=sc.r_s, dmu=sc.dmu))
                assert surf[i, j] == ref

    def test_monotone_both_axes(self):
        sc = make_scenario(np.eye(2), 0.005 * np.eye(2), 0.1 * np.eye(2))
        surf = rate_surface(sc.h_c, sc.r_c, sc.q, [1.0, 2.0, 4.0, 8.0],
                            [0.5, 1.0, 2.0, 4.0])
        assert np.all(np.diff(surf, axis=0) >= -1e-12)
        assert np.all(np.diff(surf, axis=1) >= -1e-12)

    def test_empty_grid_rejected(self):
        sc = make_scenario(np.eye(2), np.eye(2), 0.1 * np.eye(2))
        with pytest.raises(ValueError):
            rate_surface(sc.h_c, sc.r_c, sc.q, [], [1.0])

    @pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_scale_rejected(self, scale):
        sc = make_scenario(np.eye(2), np.eye(2), 0.1 * np.eye(2))
        with pytest.raises(ValueError, match="power scale must be positive and finite"):
            rate_surface(sc.h_c, sc.r_c, sc.q, [1.0], [1.0, scale])


def _per_point_rate(sc, c, scale):
    """The per-point rate: the scaled Q's own eigh, active subspace and
    zeta = 1/expm1((C/r) ln2), then one Cholesky per covariance; kept here
    as the reference the stacked rate_surface must match bit for bit."""
    q = sc.q * scale
    rz = np.zeros_like(q)
    if not math.isinf(c):
        qh = 0.5 * (q + q.conj().T)
        evals, evecs = np.linalg.eigh(qh)
        keep = evals > 1e-12 * float(evals[-1])
        vecs, vals = evecs[:, keep], evals[keep]
        zeta = 1.0 / math.expm1((c / vals.size) * math.log(2.0))
        rz = (vecs * (zeta * vals)) @ vecs.conj().T
        rz = 0.5 * (rz + rz.conj().T)
    h = sc.h_c
    signal = h @ q @ h.conj().T
    noise = sc.r_c + h @ rz @ h.conj().T
    noise = 0.5 * (noise + noise.conj().T)
    total = noise + 0.5 * (signal + signal.conj().T)

    def logdet(m):
        return 2.0 * float(np.sum(np.log(np.real(np.diag(np.linalg.cholesky(m))))))

    return (logdet(total) - logdet(noise)) / math.log(2.0)


def _random_template(rng, nt, rank):
    m = int(rng.integers(1, 9))
    h = rng.normal(size=(m, nt)) + 1j * rng.normal(size=(m, nt))
    a = rng.normal(size=(nt, rank)) + 1j * rng.normal(size=(nt, rank))
    b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return make_scenario(h, a @ a.conj().T, b @ b.conj().T + 0.1 * np.eye(m))


# 72 random complex templates: nt = 1..8, each at full rank and at 8 drawn
# ranks, of which those below nt are rank-deficient.
TEMPLATES = [(nt, nt if i == 0 else int(np.random.default_rng(nt * 10 + i)
                                      .integers(1, nt + 1)), nt * 10 + i)
             for nt in range(1, 9) for i in range(9)]


class TestStackedSurface:
    C_GRID = [0.25, 0.5, 1.0, 3.3, 8.0, 30.0, math.inf]

    @pytest.mark.parametrize("nt, rank, seed", TEMPLATES)
    def test_bit_identical_to_per_point(self, nt, rank, seed):
        rng = np.random.default_rng(seed)
        sc = _random_template(rng, nt, rank)
        scales = list(10.0 ** rng.uniform(-3.0, 3.0, size=7)) + [1e-3, 1e3]
        ref = [[_per_point_rate(sc, c, s) for s in scales] for c in self.C_GRID]
        assert np.array_equal(rate_surface(sc.h_c, sc.r_c, sc.q, self.C_GRID, scales),
                              ref)
        budget_sc = make_scenario(sc.h_c, sc.q, sc.r_c, c_ai=0.5)
        assert mimo_rate(budget_sc) == _per_point_rate(sc, 0.5, 1.0)

    @pytest.mark.parametrize("nt", [1, 2, 4, 8])
    def test_cli_template_bit_identical(self, nt):
        eye = np.eye(nt)
        sc = make_scenario(eye, (0.01 / nt) * eye, 0.1 * eye)
        c_grid = [0.5 * i for i in range(1, 17)]
        scales = [10.0 ** ((snr - 10.0) / 10.0) for snr in range(-5, 26)]
        ref = [[_per_point_rate(sc, c, s) for s in scales] for c in c_grid]
        assert np.array_equal(rate_surface(sc.h_c, sc.r_c, sc.q, c_grid, scales), ref)

    def test_blocks_of_scales_agree(self):
        # 64 x 64 matrices at 16 capacities hold more than one block of
        # entries per scale, so every scale is its own stacked pass.
        rng = np.random.default_rng(4)
        sc = _random_template(rng, 64, 40)
        c_grid = [0.5 * i for i in range(1, 17)]
        surf = rate_surface(sc.h_c, sc.r_c, sc.q, c_grid, [0.5, 2.0])
        assert np.array_equal(surf[:, 1],
                              rate_surface(sc.h_c, sc.r_c, sc.q, c_grid, [2.0])[:, 0])

    def test_rank_zero_q_rejected_unless_classical(self):
        sc = make_scenario(np.eye(2), np.zeros((2, 2)), 0.1 * np.eye(2))
        assert np.array_equal(rate_surface(sc.h_c, sc.r_c, sc.q, [math.inf], [1.0]),
                              [[0.0]])
        with pytest.raises(DegenerateInputError):
            rate_surface(sc.h_c, sc.r_c, sc.q, [1.0, math.inf], [1.0])

    def test_singular_noise_rejected(self):
        sc = make_scenario(np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError):
            rate_surface(sc.h_c, sc.r_c, sc.q, [1.0, math.inf], [1.0, 2.0])

    def test_overflowing_scale_is_a_domain_error(self):
        sc = make_scenario(np.eye(2), 1e300 * np.eye(2), np.eye(2))
        with pytest.raises(DegenerateInputError, match="overflows"):
            rate_surface(sc.h_c, sc.r_c, sc.q, [1.0], [1.0, 1e10])

    @pytest.mark.parametrize("r_c, q", [(np.eye(2), 1e308 * np.eye(2)),
                                        (1.7e308 * np.eye(2), 1e307 * np.eye(2))],
                             ids=["zeta_q", "r_c_plus_h_r_z_h"])
    def test_overflowing_noise_covariance_is_a_domain_error(self, r_c, q):
        # zeta Q, or R_c + H R_z H^H, overflowed into nan and inf rates.
        with pytest.raises(DegenerateInputError,
                           match="the effective covariance overflows"):
            rate_surface(np.eye(2), r_c, q, [1.0], [1.0])

    def test_overflowing_eigenvalue_is_a_domain_error(self):
        # The full-rank Q's eigenvalue 1.5a overflowed and Q was reported as
        # a zero matrix.
        a = 1.7e308
        with pytest.raises(DegenerateInputError, match="overflow"):
            rate_surface(np.eye(2), np.eye(2), np.array([[a, a / 2], [a / 2, a]]),
                         [1.0], [1.0])

    def test_largest_finite_noise_gives_finite_rates(self):
        # (R + R^H)/2 of R_c = 1e308 I overflowed: every rate was nan.
        rates = rate_surface(np.eye(2), 1e308 * np.eye(2), np.eye(2),
                             [0.5, 8.0, math.inf], [1.0, 31.0])
        assert np.all(np.isfinite(rates)) and np.all(rates >= 0.0)

    def test_finite_noise_with_overflowing_eigenvalue_gives_finite_rates(self):
        # R = a [[1, 1/2], [1/2, 1]] is finite and positive definite, but its
        # eigenvalue 1.5a overflows, so a PSD test on R's own eigenvalues
        # would refuse it.
        r = 1.7e308 * np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(check_psd(r), r)
        rates = rate_surface(np.eye(2), r, np.eye(2), [1.0, math.inf], [1.0])
        assert np.all(np.isfinite(rates)) and np.all(rates >= 0.0)
        sc = make_scenario(np.eye(2), np.eye(2), r, c_ai=1.0, r_s=r)
        assert np.isfinite(fisher_info(sc)) and np.isfinite(mimo_rate(sc))


class TestLinkSurface:
    """rate_surface takes the link (H_c, R_c, Q) and checks each input once."""

    @pytest.mark.parametrize("h_c, r_c, q, c_ai", [
        (np.eye(2), np.eye(2), TestValidation.NON_HERMITIAN, 1.0),
        (np.eye(2), np.eye(2), -0.01 * np.eye(2), 1.0),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.eye(2), np.eye(2), 1.0),
        (np.eye(2), np.eye(3), np.eye(2), 1.0),
        (np.eye(2), np.zeros((2, 2)), np.eye(2), math.inf),
        (np.eye(2), np.eye(2), np.zeros((2, 2)), 1.0),
    ], ids=["q_non_hermitian", "q_not_psd", "h_c_nan", "r_c_shape", "r_c_singular",
            "q_zero"])
    def test_errors_match_the_scenario_path(self, h_c, r_c, q, c_ai):
        with pytest.raises(ValueError) as ref:
            mimo_rate(make_scenario(h_c, q, r_c, c_ai=c_ai))
        with pytest.raises(ValueError) as got:
            rate_surface(h_c, r_c, q, [c_ai], [1.0])
        assert (type(got.value), str(got.value)) == (type(ref.value), str(ref.value))

    @pytest.mark.parametrize("c", [-1.0, math.nan, -math.inf])
    def test_bad_capacity_named_as_given(self, c):
        # At rank 2 the per-mode value c / 2 was named, in a plain ValueError.
        with pytest.raises(DegenerateInputError,
                           match=re.escape(f"capacity must be >= 0 bits, got {c}")):
            rate_surface(np.eye(2), np.eye(2), np.eye(2), [1.0, c], [1.0])

    def test_array_grids(self):
        sc = make_scenario(np.eye(2), np.diag([2.0, 1.0]), 0.1 * np.eye(2))
        c_grid, scales = [0.5, 2.0, math.inf], [0.5, 1.0, 3.0]
        ref = rate_surface(sc.h_c, sc.r_c, sc.q, c_grid, scales)
        got = rate_surface(sc.h_c, sc.r_c, sc.q, np.array(c_grid), np.array(scales))
        assert np.array_equal(got, ref)
        with pytest.raises(DegenerateInputError, match="non-empty"):
            rate_surface(sc.h_c, sc.r_c, sc.q, np.array([]), np.array(scales))
