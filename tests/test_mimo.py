import math
import re
import warnings

import mpmath as mp
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
    check_psd,
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
        # Each used to reach a rate or sensing function and come back as NaN
        # or as a raw numpy broadcast or gufunc error.
        base = dict(h_c=np.eye(2), h_s=np.eye(2), q=np.eye(2), r_c=np.eye(2),
                    r_s=np.eye(2), dmu=np.ones(2), budget=AiBudget(2.0))
        with pytest.raises(ValueError, match=message):
            MimoScenario(**{**base, **fields})

    def test_rectangular_channels_accepted(self):
        sc = make_scenario(np.ones((3, 2)), np.eye(2), np.eye(3), c_ai=2.0,
                           h_s=np.ones((4, 2)), r_s=np.eye(4), dmu=np.ones(4))
        assert math.isfinite(mimo_rate(sc))

    def test_sensing_fields_are_checked_but_not_read(self):
        # No library function reads h_s, r_s or dmu: the rate is bit for bit
        # the same whatever sensing link the scenario carries.
        base = make_scenario(np.ones((3, 2)), np.eye(2), np.eye(3), c_ai=2.0)
        other = make_scenario(np.ones((3, 2)), np.eye(2), np.eye(3), c_ai=2.0,
                              h_s=np.zeros((4, 2)), r_s=1e-300 * np.eye(4),
                              dmu=np.zeros(4))
        assert mimo_rate(other) == mimo_rate(base)

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


class TestRateSurface:
    def test_each_point_meets_the_log_det_reference(self):
        # Each grid point, and mimo_rate of its own scaled scenario, within
        # ORACLE_RTOL of a 40-digit log-det (2.7e-15 at most); both were a
        # stacked log-det difference, which missed it by up to 6.8e-14 here.
        rng = np.random.default_rng(31)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        sc = make_scenario(h, a @ a.conj().T, 0.2 * np.eye(3))
        c_grid, scales = [0.5, 2.0, 4.0, math.inf], [0.1, 1.0, 3.7]
        surf = rate_surface(sc.h_c, sc.r_c, sc.q, c_grid, scales)
        for i, c in enumerate(c_grid):
            for j, scale in enumerate(scales):
                ref = _log_det_rate(sc, c, scale)
                point = mimo_rate(make_scenario(h, sc.q * scale, sc.r_c, c_ai=c,
                                                h_s=sc.h_s, r_s=sc.r_s, dmu=sc.dmu))
                for got in (surf[i, j], point):
                    assert abs(got - ref) <= ORACLE_RTOL * ref

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


# Relative tolerance of rate_surface against the mpmath references below.
# The whitened modes meet it within 2.2e-14 (the 8 x 8 link of seed 13,
# whose mode gains span a factor of 5e5), most links within 1e-14; the
# stacked log-det difference they replace missed it by up to 2.2e-10.
ORACLE_RTOL = 5e-14


def _log_det_rate(sc, c, scale, rank=None):
    """log2 det(R + H (sQ + R_z) H^H) - log2 det(R + H R_z H^H) with
    R_z = zeta s Q, zeta = 1 / (2^(C / rank) - 1), in 40-digit mpmath from
    the float inputs. Below full rank, Q is the float Q's part on its rank
    largest eigenvalues: those below RANK_RTOL times the largest are null."""
    with mp.workdps(40):
        h, r, q = (mp.matrix(m.tolist()) for m in (sc.h_c, sc.r_c, sc.q))
        rank = rank or q.rows
        if rank < q.rows:
            vals, vecs = mp.eighe(q)
            q = sum((vals[k] * vecs[:, k] * vecs[:, k].H
                     for k in range(q.rows - rank, q.rows)), mp.zeros(q.rows))
        zeta = 0 if c == math.inf else 1 / (mp.mpf(2) ** (mp.mpf(c) / rank) - 1)
        noise = r + h * (zeta * mp.mpf(scale) * q) * h.H
        total = noise + h * (mp.mpf(scale) * q) * h.H
        return float(mp.re(mp.log(mp.det(total)) - mp.log(mp.det(noise))) / mp.log(2))


def _closed_form(nt, noise, power, c, scale):
    """The CLI link's rate, nt log2(1 + a / (1 + a zeta)) at a = s P / (nt N)
    and zeta = 1 / (2^(C / nt) - 1), in 50-digit mpmath."""
    with mp.workdps(50):
        zeta = 0 if c == math.inf else 1 / (mp.mpf(2) ** (mp.mpf(c) / nt) - 1)
        a = mp.mpf(scale) * mp.mpf(power / nt) / mp.mpf(noise)
        return nt * mp.log(1 + a / (1 + a * zeta), 2)


def _random_link(rng, m, nt, rank):
    """A complex link: an m x nt channel, a well-conditioned R_c and
    Q = a a^H with a of shape nt x rank, not diagonal below full rank."""
    h = rng.normal(size=(m, nt)) + 1j * rng.normal(size=(m, nt))
    a = rng.normal(size=(nt, rank)) + 1j * rng.normal(size=(nt, rank))
    b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return make_scenario(h, a @ a.conj().T, b @ b.conj().T + 0.1 * np.eye(m))


# 12 random complex links with m, nt in 1..5, a 1 x 5 link, whose 5 x 5
# Gram matrix W^H W has four spurious eigenvalues near zero (W's one
# singular value has no such partner), and 5 with m in 1..8 and nt in 6..8.
# A third of them have a Q of lower rank, whose null eigenvalues round to
# about 1e-16 of the largest and must fall below RANK_RTOL.
LINKS = ([(seed, *map(int, np.random.default_rng(seed).integers(1, 6, size=2)))
          for seed in range(12)] + [(12, 1, 5)]
         + [(seed, *map(int, np.random.default_rng(seed).integers([1, 6], 9)))
            for seed in range(13, 18)])


class TestStackedSurface:
    C_GRID = [0.25, 1.0, 3.3, 8.0, 30.0, math.inf]

    @pytest.mark.parametrize("seed, m, nt", LINKS)
    def test_random_link_meets_the_log_det_reference(self, seed, m, nt):
        rng = np.random.default_rng(100 + seed)
        rank = int(rng.integers(1, nt)) if seed % 3 == 2 and nt > 1 else nt
        sc = _random_link(rng, m, nt, rank)
        scales = [1e-3, *10.0 ** rng.uniform(-3.0, 3.0, size=3), 1e3]
        surf = rate_surface(sc.h_c, sc.r_c, sc.q, self.C_GRID, scales)
        for i, c in enumerate(self.C_GRID):
            for j, scale in enumerate(scales):
                ref = _log_det_rate(sc, c, scale, rank)
                assert abs(surf[i, j] - ref) <= ORACLE_RTOL * ref
        budget_sc = make_scenario(sc.h_c, sc.q, sc.r_c, c_ai=0.5)
        assert abs(mimo_rate(budget_sc) - (ref := _log_det_rate(sc, 0.5, 1.0, rank))) \
            <= ORACLE_RTOL * ref

    @pytest.mark.parametrize("nt", [1, 2, 4, 8])
    def test_cli_template_meets_the_closed_form(self, nt):
        # n log2(1 + a / (1 + a zeta)), a = s P / (n N), zeta = 1/(2^(C/n) - 1),
        # at 50 digits: the log-det difference missed it by up to 1.2e-12.
        eye = np.eye(nt)
        c_grid = [0.5 * i for i in range(1, 17)] + [math.inf]
        scales = [10.0 ** ((snr - 10.0) / 10.0) for snr in range(-5, 26)]
        surf = rate_surface(eye, 0.1 * eye, (0.01 / nt) * eye, c_grid, scales)
        for i, c in enumerate(c_grid):
            for j, scale in enumerate(scales):
                ref = _closed_form(nt, 0.1, 0.01, c, scale)
                assert abs(surf[i, j] - ref) <= 2e-15 * ref

    @pytest.mark.parametrize("noise, power", [(1e-300, 1e8), (1e-300, 1e9), (0.1, 1e307)])
    def test_snr_past_the_float_range_meets_the_closed_form(self, noise, power):
        # The CLI link where x = s P / (n N) overflows at the top scales: its
        # SNR saturates at 1 / zeta, and each cell meets the closed form. At
        # 1e9 W the Gram matrix of the unscaled W overflowed as well.
        eye = np.eye(2)
        c_grid = [0.5 * i for i in range(1, 17)]
        scales = [10.0 ** ((snr - 10.0) / 10.0) for snr in range(-5, 26)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surf = rate_surface(eye, noise * eye, (power / 2) * eye, c_grid, scales)
        assert power / 2 / noise * scales[-1] == math.inf
        for i, c in enumerate(c_grid):
            for j, scale in enumerate(scales):
                ref = _closed_form(2, noise, power, c, scale)
                assert abs(surf[i, j] - ref) <= 2e-15 * ref

    def test_each_scales_column_is_computed_alone(self):
        # A scale's column is bit for bit the same whatever other scales
        # share the grid, here on 64 x 64 matrices of rank 40.
        rng = np.random.default_rng(4)
        sc = _random_link(rng, 8, 64, 40)
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
        # x = scale * sigma overflows at scale 1e10: at C = inf (zeta = 0)
        # the rate grows without bound. At C = 1 the SNR saturates at 1 / zeta
        # (this raised too), so two modes carry the 1-bit budget.
        sc = make_scenario(np.eye(2), 1e300 * np.eye(2), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError,
                               match="the SNR of a whitened mode overflows"):
                rate_surface(sc.h_c, sc.r_c, sc.q, [1.0, math.inf], [1.0, 1e10])
            got = rate_surface(sc.h_c, sc.r_c, sc.q, [1.0], [1.0, 1e10])
        assert np.all(np.abs(got - 1.0) <= 2.0 ** -51)

    def test_overflowing_zeta_q_saturates(self):
        # zeta Q overflowed, and rate_surface raised "the effective covariance
        # overflows". Each mode's SNR now saturates at 1 / zeta = 2^(1/2) - 1,
        # so two modes carry the 1-bit budget, to within 2 ulps.
        got = rate_surface(np.eye(2), np.eye(2), 1e308 * np.eye(2), [1.0], [1.0])
        assert abs(got[0, 0] - 1.0) <= 2.0 ** -51

    def test_overflowing_noise_sum_gives_the_exact_rate(self):
        # R_c + H R_z H^H overflowed and raised as above; its modes are finite:
        # 2 log2(1 + a / (1 + a zeta)), a = 1e307 / 1.7e308, zeta = 1/(2^(1/2) - 1).
        got = rate_surface(np.eye(2), 1.7e308 * np.eye(2), 1e307 * np.eye(2), [1.0], [1.0])
        with mp.workdps(40):
            a = mp.mpf(1e307) / mp.mpf(1.7e308)
            ref = 2 * mp.log(1 + a / (1 + a / (mp.sqrt(2) - 1)), 2)
        assert abs(got[0, 0] - ref) <= 2e-16 * ref and round(got[0, 0], 5) == 0.14492

    @pytest.mark.parametrize("c", [5e-324, 1e-320])
    def test_subnormal_capacity_passes_nothing(self, c):
        # zeta = 1 / expm1 of a subnormal share overflows: the map raised
        # "the effective covariance overflows"; it now passes no bits, which
        # is within c of the truth, with no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rate_surface(np.eye(2), np.eye(2), np.eye(2), [c], [1.0]) == 0.0

    def test_zero_capacity_passes_nothing(self):
        # C = 0 raised "kappa is unbounded at zero capacity", where 5e-324
        # bits gave 0 and the scalar rate at C = 0 is 0 bits.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = rate_surface(np.eye(2), np.eye(2), np.eye(2), [0.0, 5e-324, 1.0],
                                 [1.0, 2.0])
            assert mimo_rate(make_scenario(np.eye(2), np.eye(2), np.eye(2), 0.0)) == 0.0
        assert np.all(rates[:2] == 0.0) and np.all(rates[2] > 0.0)

    @pytest.mark.parametrize("r_c", [
        np.zeros((2, 2)), np.ones((2, 2)),
        np.outer([1.0, 2j, -0.5], [1.0, -2j, -0.5]) + np.outer([3.0, 1j, 1.0], [3.0, -1j, 1.0])],
        ids=["zero", "ones", "rank_2_of_3"])
    def test_singular_noise_rejected_at_finite_capacity(self, r_c):
        # R_c + H R_z H^H is positive definite here, and a rate was returned;
        # the link is now whitened by R_c itself, at every capacity. The
        # smallest eigenvalue of a rank-deficient R_c rounds to either sign,
        # and at most RANK_RTOL times the largest is singular.
        n = r_c.shape[0]
        with pytest.raises(SingularMatrixError, match="R_c is not positive definite"):
            rate_surface(np.eye(n), r_c, np.eye(n), [1.0], [1.0])

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
        assert np.isfinite(mimo_rate(sc))


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
