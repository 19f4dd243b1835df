import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1, i0e

from aiisac import fading
from aiisac.cli import main
from aiisac.fading import (
    FadingModel,
    _exp_e1,
    _i0e,
    _weights,
    conditional_snr,
    ergodic_columns,
    ergodic_rate,
    monte_carlo_oracle,
    rayleigh_rate_exact,
)
from aiisac.errors import ConvergenceError, DegenerateInputError
from aiisac.numerics import QuadratureRule, RandomStream

RULE = QuadratureRule(128)
RULE40 = QuadratureRule(40)


def _distortion(g_s, kap, k, prior_var, rule):
    """The distortion column of a one-K ergodic_columns call at mean SNR g_s.
    Its rate column, at a mean SNR of 1e-300, stays near 0 bits, so it adds
    no error, overflow or warning: the call raises and warns as the
    distortion column alone would."""
    return ergodic_columns(1e-300, g_s, kap, (k,), prior_var, rule)[0][1]


def _rate_at_mean_gain(gamma, kap, k):
    """log2(1 + snr) at the mean gain 1 + K: by Jensen, as the rate is
    concave in the gain, an upper bound on the ergodic rate."""
    return math.log2(1.0 + conditional_snr(1.0 + k, gamma, kap))


class TestConditionalSnr:
    def test_values(self):
        assert conditional_snr(0.0, 10.0, 0.1) == 0.0
        assert math.isclose(conditional_snr(1.0, 10.0, 0.0), 10.0)

    def test_saturation(self):
        assert conditional_snr(1e12, 1.0, 0.5) < 2.0
        assert math.isclose(conditional_snr(1e12, 1.0, 0.5), 2.0, rel_tol=1e-6)

    def test_saturates_where_the_product_overflows(self):
        # x gamma kappa = 1e310 overflowed: a numpy RuntimeWarning (an error
        # under the suite's filter) and an SNR of 0 where it is 1/kappa.
        assert math.isclose(conditional_snr(1e300, 1.0, 1e10), 1e-10, rel_tol=1e-15)
        got = conditional_snr(np.array([0.0, 2.0, 1e297, 1e300]), 1.0, 1e10)
        assert got[:3].tolist() == [_snr(x, 1.0, 1e10) for x in (0.0, 2.0, 1e297)]
        assert math.isclose(got[3], 1e-10, rel_tol=1e-15)

    def test_average_saturates_where_the_product_overflows(self):
        # The fading columns of a sweep at 1e300 W and 1e-10 bits read 1e-12
        # and 8e-15 bits where 1e290 W gives about 1e-10.
        kap = 1.0 / math.expm1(1e-10 * math.log(2.0))
        for k in (0.0, 10 ** 0.6):
            for average in (lambda g: ergodic_rate(g, kap, k, RULE),
                            lambda g: _distortion(g, kap, k, 1.0, RULE)):
                assert math.isclose(average(1e300), average(1e290), rel_tol=1e-12)

    def test_ceiling_bounds_rate(self):
        kap = 1.0 / 15.0
        for gamma in (0.1, 1.0, 10.0, 100.0):
            assert ergodic_rate(gamma, kap, 0.0, RULE) <= math.log2(1 + 1 / kap)


class TestRayleigh:
    def test_exact_anchor(self):
        got = ergodic_rate(10.0, 0.0, 0.0, RULE)
        want = rayleigh_rate_exact(10.0, 0.0)
        assert abs(got - want) <= 1e-6

    def test_exact_formula_with_bottleneck(self):
        # Closed form holds for kappa > 0 too; quadrature must track it.
        got = ergodic_rate(10.0, 1.0 / 15.0, 0.0, RULE)
        want = rayleigh_rate_exact(10.0, 1.0 / 15.0)
        assert abs(got - want) <= 1e-6

    @pytest.mark.parametrize("u", [500.0, 550.0, 640.0, 700.0])
    def test_exact_asymptotic_branch(self, u):
        # At u = 1 / mean SNR >= 500 e^u alone is near overflow; the closed
        # form must track e^u E1(u) wherever that product is finite, within
        # the 24/u^4 of its asymptotic series truncated after 6/u^3.
        assert math.isclose(rayleigh_rate_exact(1.0 / u, 0.0) * math.log(2.0),
                            math.exp(u) * exp1(u), rel_tol=25.0 / u**4)

    @pytest.mark.parametrize("g", [1e-103, 1e-150, 1e-300, 1e-307])
    def test_exact_at_tiny_snr(self, g):
        # u**2 and u**3 raised OverflowError below a mean SNR of about 5e-103;
        # e^u E1(u) ~ 1/u = g there.
        assert math.isclose(rayleigh_rate_exact(g, 0.0), g / math.log(2.0),
                            rel_tol=1e-12)

    @pytest.mark.parametrize("g, kap", [(1e300, 1e300), (1e308, 1.0)])
    def test_exact_overflow_is_an_error(self, g, kap):
        # gamma (1 + kappa) overflows: e^u E1(u) at u = 0 hit log(0) and
        # raised a bare ValueError.
        with pytest.raises(DegenerateInputError):
            rayleigh_rate_exact(g, kap)

    def test_exact_at_subnormal_beta(self):
        # 1 / beta overflows for a subnormal beta; its term is beta, not 0.
        # Subnormals carry fewer digits, hence the looser tolerance.
        for kap in (0.0, 1.0):
            assert math.isclose(rayleigh_rate_exact(1e-310, kap),
                                1e-310 / math.log(2.0), rel_tol=1e-9)

    def test_small_snr_vanishes(self):
        assert ergodic_rate(1e-12, 0.0, 0.0, RULE) < 1e-10

    def test_distortion_limits(self):
        assert abs(_distortion(1e-12, 0.0, 0.0, 1.0, RULE) - 1.0) < 1e-10
        d1 = _distortion(1.0, 0.0, 0.0, 1.0, RULE)
        d2 = _distortion(2.0, 0.0, 0.0, 1.0, RULE)
        assert d2 < d1 < 1.0


class TestRician:
    def test_rate_increasing_in_k(self):
        rates = [ergodic_rate(10.0, 0.0, k, RULE)
                 for k in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_large_k_no_overflow(self):
        val = ergodic_rate(10.0, 0.0, 1000.0, RULE)
        assert math.isfinite(val)

    @pytest.mark.parametrize("average, match", [
        (lambda: ergodic_rate(10.0, 0.0, -1e-3, RULE40), "K-factor"),
        (lambda: _distortion(10.0, 0.0, -1e-3, 1.0, RULE40), "K-factor"),
        (lambda: _distortion(10.0, 0.0, 4.0, 0.0, RULE40), "prior"),
        (lambda: _distortion(10.0, 0.0, 0.0, -1.0, RULE40), "prior"),
    ], ids=["rate_negative_k", "distortion_negative_k", "zero_prior",
            "negative_prior"])
    def test_invalid_argument_raises(self, average, match):
        with pytest.raises(ValueError, match=match):
            average()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_k_near_moment_matched(self):
        # At K = 1000 the gain hardly fades: the average sits just under
        # the moment-matched (Jensen) value, not at 0.
        val = ergodic_rate(10.0, 0.0, 1000.0, RULE)
        bound = _rate_at_mean_gain(10.0, 0.0, 1000.0)
        assert bound - 2e-3 <= val <= bound

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k_db", [6.0, 10.0, 15.0])
    def test_shipped_order_matches_order_128(self, k_db):
        # The shipped order 20 keeps criterion 1's 1e-4 for K up to 15 dB,
        # without a warning. Splitting at 1 instead of the mean gain 1 + K
        # gave 5.78 bits instead of 8.31 at 15 dB and SNR 10.
        k = 10 ** (k_db / 10)
        r20 = QuadratureRule(20)
        for g_db in (-5.0, 0.0, 10.0, 20.0, 25.0):
            g = 10 ** (g_db / 10)
            for kap in (0.0, 1.0 / 15.0, 1.0 / 255.0):
                assert abs(ergodic_rate(g, kap, k, r20)
                           - ergodic_rate(g, kap, k, RULE)) <= 1e-4
                assert abs(_distortion(g, kap, k, 1.0, r20)
                           - _distortion(g, kap, k, 1.0, RULE)) <= 1e-4

    def test_under_resolved_order_warns(self):
        # At K = 20 dB the order-20 weights miss the density's unit mass by
        # about 1e-4, and the rate by about 2e-3 bits.
        with pytest.warns(RuntimeWarning, match=r"order-20 .* K = 100 "):
            ergodic_rate(10.0, 0.0, 100.0, QuadratureRule(20))

    def test_unresolved_density_raises(self):
        # At K = 40 dB the order-20 weights miss the unit mass by 0.156.
        with pytest.raises(ConvergenceError, match=r"order-20 .* K = 10000 "):
            _distortion(10.0, 0.0, 1e4, 1.0, QuadratureRule(20))

    def test_overflowing_weights_raise_without_warnings(self):
        # At K = 2000 dB the weights overflowed with three numpy warnings
        # and the miss read "nan"; pytest turns any RuntimeWarning into an error.
        with pytest.raises(ConvergenceError, match="by an amount that is not finite"):
            ergodic_rate(10.0, 0.0, 1e200, QuadratureRule(20))

    def test_moment_matched_deviation_bounded(self):
        # The rate at the mean gain sits above the exact average (Jensen)
        # and its worst error on this grid is ~0.66 bits, at the low-K
        # high-SNR corner where the gain distribution is widest.
        worst = 0.0
        for k_db in np.linspace(0.0, 10.0, 6):
            for g_db in np.linspace(0.0, 20.0, 6):
                for kap in (0.0, 1.0 / 15.0):
                    k, g = 10 ** (k_db / 10), 10 ** (g_db / 10)
                    exact = ergodic_rate(g, kap, k, RULE)
                    approx = _rate_at_mean_gain(g, kap, k)
                    assert approx >= exact - 1e-9
                    worst = max(worst, abs(exact - approx))
        assert worst <= 0.7


class TestSpecialFunctions:
    """The in-package exp(-z) I0(z) and e^u E1(u) against scipy.special."""

    def test_i0e_matches_scipy(self):
        rng = np.random.default_rng(0)
        z = np.concatenate(([0.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0),
                             1e7], rng.uniform(0.0, 16.0, 2000),
                            10.0 ** rng.uniform(-8.0, 7.0, 2000)))
        want = i0e(z)
        assert np.max(np.abs(_i0e(z) - want) / want) <= 2.3e-16

    def test_exp_e1_matches_scipy(self):
        u = np.concatenate(([1e-10, 1.0, np.nextafter(1.0, 2.0), 700.0],
                            np.geomspace(1e-10, 700.0, 3001)))
        got = np.array([_exp_e1(float(x)) for x in u])
        want = np.exp(u) * exp1(u)
        assert np.max(np.abs(got - want) / want) <= 1e-14


class TestWeightCache:
    def test_cached_arrays_are_read_only(self):
        rule, k = QuadratureRule(20), 10 ** 0.6
        nodes, w, _ = _weights(rule, k)
        for arr in (nodes, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert _weights(QuadratureRule(20), k)[1] is w

    def test_checks_run_on_a_cache_hit(self):
        # K = 20 dB warns at order 20 and K = 40 dB raises; the second call
        # of each takes the weights from the cache and must do the same.
        r20 = QuadratureRule(20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                ergodic_rate(10.0, 0.0, 100.0, r20)
                with pytest.raises(ConvergenceError, match="unit mass"):
                    ergodic_rate(10.0, 0.0, 1e4, r20)
        assert [type(w.message) for w in caught] == [RuntimeWarning] * 2
        assert _weights.cache_info().hits >= 2


class TestJensenBound:
    def test_bound_dominates_on_grid(self):
        for gamma in (0.5, 5.0, 50.0):
            for kap in (0.0, 0.2):
                for k in (0.0, 4.0):
                    assert (_rate_at_mean_gain(gamma, kap, k)
                            >= ergodic_rate(gamma, kap, k, RULE) - 1e-12)


class TestMonteCarlo:
    STREAM = RandomStream(seed=42, stream=0)

    def test_determinism(self):
        a = monte_carlo_oracle(FadingModel("rayleigh"), 10.0, 0.0, 1.0, 10_000,
                               self.STREAM)
        b = monte_carlo_oracle(FadingModel("rayleigh"), 10.0, 0.0, 1.0, 10_000,
                               self.STREAM)
        assert a == b

    def test_rayleigh_agrees_with_quadrature(self):
        est = monte_carlo_oracle(FadingModel("rayleigh"), 10.0, 1.0 / 15.0, 1.0,
                                 1_000_000, self.STREAM)
        quad = ergodic_rate(10.0, 1.0 / 15.0, 0.0, RULE)
        assert abs(est.rate - quad) <= 4 * est.rate_std_err + 1e-4

    def test_rician_agrees_with_quadrature(self):
        k = 10 ** 0.6
        est = monte_carlo_oracle(FadingModel("rician", k_factor=k), 10.0, 0.0,
                                 1.0, 1_000_000, RandomStream(42, 3))
        quad = ergodic_rate(10.0, 0.0, k, RULE)
        assert abs(est.rate - quad) <= 4 * est.rate_std_err + 1e-4

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_oracle(FadingModel("rayleigh"), 1.0, 0.0, 1.0, 0,
                               self.STREAM)


def _per_point_average(values_at, k, order):
    """The per-point fading average: its own rule, Rician log-weights and
    one np.dot; kept here as the reference each entry of a column of
    averages must match bit for bit."""
    nodes, log_w = QuadratureRule(order).graded(1.0 + k, math.sqrt(1.0 + 2.0 * k))
    if k > 0:
        z = 2.0 * np.sqrt(k * nodes)
        log_w = log_w + np.log(i0e(z)) + z - k
    return float(np.dot(np.exp(log_w), values_at(nodes)))


def _snr(x, g, kap):
    xg = x * g
    return xg / (1.0 + xg * kap)


# kappa = 1/(2^C - 1) over the CLI's default capacity axis 0.25 .. 8.
KAPS = np.array([1.0 / math.expm1(0.25 * i * math.log(2.0)) for i in range(1, 33)])


class TestNanRejected:
    # NaN passed each of these checks (NaN < 0 is False): the oracle
    # returned NaN estimates, the SNR and the closed form returned NaN, and
    # a NaN prior failed later as an overflow.
    STREAM = RandomStream(seed=42, stream=0)

    def test_rician_k_factor(self):
        with pytest.raises(ValueError, match="K-factor"):
            FadingModel("rician", k_factor=math.nan)

    @pytest.mark.parametrize("kappa", [math.nan, np.array([0.1, math.nan])])
    def test_conditional_snr_kappa(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            conditional_snr(1.0, 10.0, kappa)

    @pytest.mark.parametrize("kappa", [math.nan, -0.5])
    def test_rayleigh_rate_exact_kappa(self, kappa):
        # -0.5 died with a bare "math domain error".
        with pytest.raises(ValueError, match="kappa must be >= 0"):
            rayleigh_rate_exact(10.0, kappa)

    def test_distortion_prior(self):
        with pytest.raises(ValueError, match="prior variance"):
            _distortion(10.0, 0.0, 0.0, math.nan, RULE40)

    @pytest.mark.parametrize("oracle, match", [
        (lambda s: monte_carlo_oracle(FadingModel("rayleigh"), 10.0, math.nan,
                                      1.0, 100, s), "kappa"),
        (lambda s: monte_carlo_oracle(FadingModel("rayleigh"), 10.0, 0.1,
                                      math.nan, 100, s), "prior variance"),
        (lambda s: monte_carlo_oracle(FadingModel("rician", math.nan), 10.0,
                                      0.1, 1.0, 100, s), "K-factor"),
    ], ids=["kappa", "prior_var", "k_factor"])
    def test_oracle(self, oracle, match):
        with pytest.raises(ValueError, match=match):
            oracle(self.STREAM)


class TestColumnAverages:
    @pytest.mark.parametrize("order", [20, 40, 128])
    @pytest.mark.parametrize("g", [0.1, 100.0, 10 ** 2.5])
    @pytest.mark.parametrize("k", [0.0, 10 ** 0.2, 10 ** 0.6, 10 ** 1.2])
    def test_bit_identical_to_per_point(self, order, g, k):
        rule = QuadratureRule(order)
        rate_ref = [_per_point_average(
            lambda x: np.log1p(_snr(x, g, kap)) / math.log(2.0), k, order)
            for kap in KAPS]
        dist_ref = [_per_point_average(lambda x: 30.0 / (1.0 + _snr(x, g, kap)),
                                       k, order) for kap in KAPS]
        rate_col = ergodic_rate(g, KAPS, k, rule)
        dist_col = _distortion(g, KAPS, k, 30.0, rule)
        rate_row = [ergodic_rate(g, kap, k, rule) for kap in KAPS]
        dist_row = [_distortion(g, kap, k, 30.0, rule) for kap in KAPS]
        assert rate_row == rate_ref and dist_row == dist_ref
        assert rate_col.tolist() == rate_ref and dist_col.tolist() == dist_ref

    def test_column_warns_once_where_a_point_would(self):
        # At K = 20 dB and order 20 the weights miss the unit mass by 1.3e-4.
        with pytest.warns(RuntimeWarning, match=r"order-20 .* K = 100 ") as rec:
            ergodic_rate(10.0, KAPS, 100.0, QuadratureRule(20))
        assert len(rec) == 1

    def test_sweep_under_resolved_order_warns(self, tmp_path):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("rician_k_db = 20\nquadrature_order = 20\n")
        with pytest.warns(RuntimeWarning, match=r"order-20 .* K = 100 "):
            assert main(["gaussian-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "s.csv")]) == 0

    def test_sweep_warning_is_attributed_to_the_cli(self, tmp_path):
        # Only the Rician K warns, once for both of its columns, at the
        # line of cli.py that asked for them.
        cfg = tmp_path / "k.cfg"
        cfg.write_text("rician_k_db = 20\nquadrature_order = 20\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["gaussian-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert [type(w.message) for w in caught] == [RuntimeWarning]
        assert Path(caught[0].filename).name == "cli.py"

    def test_sweep_makes_one_fading_evaluation_per_k_factor(self, tmp_path, monkeypatch):
        calls = {"_average": 0, "conditional_snr": 0}

        def counted(name):
            original = getattr(fading, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(fading, name, counted(name))
        assert main(["gaussian-sweep", "--out", str(tmp_path / "s.csv")]) == 0
        # One evaluation for both K-factors, Rayleigh and Rician.
        assert calls == {"_average": 1, "conditional_snr": 0}

    @pytest.mark.parametrize("g", [0.0, -1.0, math.inf, math.nan])
    def test_mean_snr_zero_or_not_finite_is_a_domain_error(self, g):
        with pytest.raises(DegenerateInputError, match="mean SNR"):
            ergodic_rate(g, KAPS, 0.0, RULE40)
        with pytest.raises(DegenerateInputError, match="mean SNR"):
            rayleigh_rate_exact(g, 0.0)

    def test_overflowing_integrand_is_a_domain_error(self):
        with pytest.raises(DegenerateInputError, match="overflows"):
            ergodic_rate(1e306, 0.0, 10.0, QuadratureRule(128))


def _error_of(call):
    """(class, message) of the error call raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestErgodicColumns:
    # (g_c, g_s) pairs over TestColumnAverages' mean SNRs, each as both.
    GAINS = [(0.1, 10 ** 2.5), (100.0, 0.1), (10 ** 2.5, 100.0)]

    @pytest.mark.parametrize("order", [20, 40, 128])
    @pytest.mark.parametrize("g_c, g_s", GAINS)
    @pytest.mark.parametrize("k", [0.0, 10 ** 0.2, 10 ** 0.6, 10 ** 1.2])
    def test_bit_identical_to_per_point(self, order, g_c, g_s, k):
        rule = QuadratureRule(order)
        [(rates, dists)] = ergodic_columns(g_c, g_s, KAPS, (k,), 30.0, rule)
        assert rates.tolist() == [ergodic_rate(g_c, kap, k, rule) for kap in KAPS]
        assert dists.tolist() == [_distortion(g_s, kap, k, 30.0, rule)
                                  for kap in KAPS]

    @pytest.mark.parametrize("g", [0.0, -1.0, math.inf, math.nan])
    def test_mean_snr_error_matches(self, g):
        assert (_error_of(lambda: ergodic_columns(g, 10.0, KAPS, (0.0,), 1.0, RULE40))
                == _error_of(lambda: ergodic_rate(g, KAPS, 0.0, RULE40)))
        assert (_error_of(lambda: ergodic_columns(10.0, g, KAPS, (0.0,), 1.0, RULE40))
                == _error_of(lambda: _distortion(g, KAPS, 0.0, 1.0, RULE40)))

    @pytest.mark.parametrize("columns, per_point", [
        (lambda: ergodic_columns(10.0, 10.0, -KAPS, (0.0,), 1.0, RULE40),
         lambda: ergodic_rate(10.0, -KAPS, 0.0, RULE40)),
        (lambda: ergodic_columns(10.0, 10.0, -0.5, (0.0,), 1.0, RULE40),
         lambda: ergodic_rate(10.0, -0.5, 0.0, RULE40)),
        (lambda: ergodic_columns(10.0, 10.0, KAPS, (math.nan,), 1.0, RULE40),
         lambda: ergodic_rate(10.0, KAPS, math.nan, RULE40)),
        (lambda: ergodic_columns(10.0, 10.0, KAPS, (4.0,), 0.0, RULE40),
         lambda: _distortion(10.0, KAPS, 4.0, 0.0, RULE40)),
        (lambda: ergodic_columns(10.0, 10.0, KAPS, (4.0,), -1.0, RULE40),
         lambda: _distortion(10.0, KAPS, 4.0, -1.0, RULE40)),
        (lambda: ergodic_columns(1e306, 10.0, KAPS, (10.0,), 1.0, RULE),
         lambda: ergodic_rate(1e306, KAPS, 10.0, RULE)),
        (lambda: ergodic_columns(10.0, 10.0, KAPS, (1e4,), 1.0, QuadratureRule(20)),
         lambda: _distortion(10.0, KAPS, 1e4, 1.0, QuadratureRule(20))),
    ], ids=["negative_kappa", "negative_scalar_kappa", "nan_k_factor", "zero_prior",
            "negative_prior", "overflow", "unresolved_density"])
    def test_error_matches_per_point(self, columns, per_point):
        assert _error_of(columns) == _error_of(per_point)

    @pytest.mark.parametrize("k_db, g, prior_var, rate_warns, dist_warns", [
        (6.0, 10.0, 1.0, False, False),
        (18.0, 10.0, 1.0, True, False),
        (16.0, 0.1, 30.0, False, False),
        (20.0, 10.0, 1.0, True, True),
    ], ids=["neither", "rate_only", "prior_above_one", "both"])
    def test_warns_once_where_either_column_would(self, k_db, g, prior_var,
                                                  rate_warns, dist_warns):
        k, rule = 10 ** (k_db / 10), QuadratureRule(20)

        def warnings_of(call):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            return [str(w.message) for w in caught]

        rate = warnings_of(lambda: ergodic_rate(g, KAPS, k, rule))
        dist = warnings_of(lambda: _distortion(g, KAPS, k, prior_var, rule))
        assert (bool(rate), bool(dist)) == (rate_warns, dist_warns)
        both = warnings_of(lambda: ergodic_columns(g, g, KAPS, (k,), prior_var, rule))
        assert both == (rate or dist)

    @pytest.mark.parametrize("k_factor, warns", [(3.98, False), (0.0, False), (100.0, True)])
    @pytest.mark.parametrize("prior_var", [1.0, 1e7, 1e300])
    def test_distortion_miss_judged_in_units_of_the_prior(self, k_factor, prior_var, warns):
        # An MMSE is at most sigma^2, so a miss of the unit mass shifts it by
        # at most the miss in units of sigma^2. Judged on the MMSE itself, it
        # warned at 1e7 for K = 3.98 (miss 5.2e-8) and at 1e300 for K = 0
        # (miss 2.2e-16); K = 100 (miss 1.3e-4) warns at every sigma^2.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _distortion(10.0, KAPS, k_factor, prior_var, QuadratureRule(20))
        assert bool(caught) == warns


class TestOneKernelInputs:
    """Each input is checked once, in the one kernel all three averages call."""

    STREAM = RandomStream(seed=42, stream=0)
    AVERAGES = {
        "rate": lambda kap, k, pv: ergodic_rate(10.0, kap, k, RULE40),
        "distortion": lambda kap, k, pv: _distortion(10.0, kap, k, pv, RULE40),
        "columns": lambda kap, k, pv: ergodic_columns(10.0, 10.0, kap, (k,), pv,
                                                      RULE40)[0],
    }

    @pytest.mark.parametrize("average", AVERAGES.values(), ids=AVERAGES)
    def test_empty_kappa_gives_empty_columns(self, average):
        # numpy's bare "zero-size array to reduction operation maximum".
        got = average(np.array([]), 4.0, 1.0)
        for col in got if isinstance(got, tuple) else (got,):
            assert col.shape == (0,) and col.dtype == np.float64

    @pytest.mark.parametrize("average", AVERAGES.values(), ids=AVERAGES)
    def test_two_axis_kappa_is_a_domain_error(self, average):
        # A bare np.dot shape error before.
        with pytest.raises(DegenerateInputError, match="kappa"):
            average(np.full((3, 2), 0.1), 4.0, 1.0)

    @pytest.mark.parametrize("k", [math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("average", AVERAGES.values(), ids=AVERAGES)
    def test_k_factor_must_be_finite(self, average, k):
        # inf reached numerics' "split must be positive and finite".
        with pytest.raises(DegenerateInputError, match="K-factor"):
            average(KAPS, k, 1.0)

    @pytest.mark.parametrize("kind, k", [("rician", math.inf), ("rayleigh", -1.0),
                                         ("rayleigh", math.nan)])
    def test_fading_model_k_factor(self, kind, k):
        # A Rician inf gave NaN oracle estimates; a Rayleigh -1 was accepted.
        with pytest.raises(DegenerateInputError, match="K-factor"):
            FadingModel(kind, k_factor=k)

    @pytest.mark.parametrize("call", [
        lambda s: _distortion(10.0, KAPS, 0.0, math.inf, RULE40),
        lambda s: ergodic_columns(10.0, 10.0, KAPS, (0.0,), math.inf, RULE40),
        lambda s: monte_carlo_oracle(FadingModel("rayleigh"), 10.0, 0.1, math.inf,
                                     100, s),
    ], ids=["distortion", "columns", "oracle"])
    def test_prior_must_be_finite(self, call):
        # The average blamed an overflow; the oracle returned inf with a NaN
        # standard error.
        with pytest.raises(DegenerateInputError, match="prior variance"):
            call(self.STREAM)

    def test_scalar_kappa_gives_floats(self):
        [(rate, dist)] = ergodic_columns(100.0, 0.1, 1.0 / 15.0, (4.0,), 30.0, RULE40)
        assert type(rate) is float and type(dist) is float
        assert rate == ergodic_rate(100.0, 1.0 / 15.0, 4.0, RULE40)
        assert dist == _distortion(0.1, 1.0 / 15.0, 4.0, 30.0, RULE40)


def _outcome(call):
    """(result or (error class, message), warning messages) of call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except (ConvergenceError, DegenerateInputError) as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


class TestManyKFactors:
    """One ergodic_columns call over several K-factors: every K-row is the
    one-K call's floats, errors and warnings."""

    KS = (0.0, 10 ** 0.2, 10 ** 0.6, 10 ** 1.2)

    @pytest.mark.parametrize("order", [20, 40, 128])
    @pytest.mark.parametrize("g_c, g_s", TestErgodicColumns.GAINS)
    def test_each_k_row_is_the_one_k_call(self, order, g_c, g_s):
        rule = QuadratureRule(order)
        pairs = ergodic_columns(g_c, g_s, KAPS, self.KS, 30.0, rule)
        assert len(pairs) == len(self.KS)
        for k, (rates, dists) in zip(self.KS, pairs):
            assert rates.tolist() == ergodic_rate(g_c, KAPS, k, rule).tolist()
            assert dists.tolist() == _distortion(g_s, KAPS, k, 30.0, rule).tolist()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(order=st.integers(1, 128),
           ks=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4),
           g_c=st.floats(1e-3, 1e6), g_s=st.floats(1e-3, 1e6),
           prior_var=st.floats(1e-3, 1e3),
           kaps=st.lists(st.floats(0.0, 1e3), max_size=5))
    def test_each_k_row_is_the_one_k_call_property(self, order, ks, g_c, g_s,
                                                   prior_var, kaps):
        # The one-K calls raise only the unit-mass error here: no mean SNR
        # overflows. Every unit-mass test comes before any warning, so the
        # many-K call raises the first K's error and warns of nothing, or
        # returns every row and warns as the one-K calls do, in K order.
        rule, kap = QuadratureRule(order), np.array(kaps)
        many, many_warned = _outcome(lambda: ergodic_columns(g_c, g_s, kap, ks,
                                                             prior_var, rule))
        ones = [_outcome(lambda k=k: ergodic_columns(g_c, g_s, kap, (k,), prior_var,
                                                     rule)[0]) for k in ks]
        errors = [result for result, _ in ones if isinstance(result[0], type)]
        if errors:
            assert (many, many_warned) == (errors[0], [])
            return
        assert many_warned == [m for _, warned in ones for m in warned]
        for (rates, dists), ((one_rates, one_dists), _) in zip(many, ones, strict=True):
            assert rates.shape == dists.shape == kap.shape
            assert rates.tolist() == one_rates.tolist()
            assert dists.tolist() == one_dists.tolist()

    def test_no_k_factor_gives_no_columns(self):
        assert ergodic_columns(10.0, 10.0, KAPS, (), 1.0, RULE40) == []

    @pytest.mark.parametrize("ks, error, match", [
        ((-1.0, 1e4), DegenerateInputError, "K-factor"),
        ((1e4, -1.0), ConvergenceError, "K = 10000 "),
        ((100.0, math.nan), DegenerateInputError, "K-factor"),
    ], ids=["k_check_first", "unit_mass_of_an_earlier_k", "k_check_before_warning"])
    def test_each_k_is_checked_in_order_before_any_warning(self, ks, error, match):
        # Order 20 warns at K = 100 and misses K = 1e4's unit mass by 0.156.
        result, warned = _outcome(lambda: ergodic_columns(
            10.0, 10.0, KAPS, ks, 1.0, QuadratureRule(20)))
        assert result[0] is error and match in result[1] and warned == []

    def test_unit_mass_of_every_k_before_any_overflow(self):
        # At 1e306 the K = 10 values overflow; the K = 1e4 rule misses its
        # unit mass, and every unit-mass test runs first.
        result, warned = _outcome(lambda: ergodic_columns(
            1e306, 10.0, KAPS, (10.0, 1e4), 1.0, QuadratureRule(20)))
        assert result[0] is ConvergenceError and warned == []

    def test_overflow_and_warning_per_k_in_order(self):
        # At order 20 the largest node is 525 at K = 100, which warns, and
        # 800 at K = 200: at a mean SNR of 3e305 only K = 200 overflows.
        rule, g = QuadratureRule(20), 3e305
        result, warned = _outcome(lambda: ergodic_columns(
            g, 1.0, 0.0, (100.0, 200.0), 1.0, rule))
        assert result[0] is DegenerateInputError and "overflows" in result[1]
        assert len(warned) == 1 and "K = 100 " in warned[0]
        result, warned = _outcome(lambda: ergodic_columns(
            g, 1.0, 0.0, (200.0, 100.0), 1.0, rule))
        assert result[0] is DegenerateInputError and warned == []

    def test_one_warning_per_k_that_warns(self):
        rule = QuadratureRule(20)
        pairs, warned = _outcome(lambda: ergodic_columns(
            10.0, 10.0, KAPS, (100.0, 10.0, 200.0), 1.0, rule))
        assert len(pairs) == 3
        assert ["K = 100 " in warned[0], "K = 200 " in warned[1]] == [True, True]
        assert len(warned) == 2

    @pytest.mark.parametrize("order", [1, 2, 3, 20, 57, 128])
    @pytest.mark.parametrize("k", [0.0, 10 ** 0.6, 100.0, 1e4])
    def test_nodes_ascend(self, order, k):
        # _average bounds every product x gamma kappa by the last node.
        nodes = _weights(QuadratureRule(order), k)[0]
        assert np.all(np.diff(nodes) > 0) and nodes[-1] == nodes.max()


def _per_row_dots(gammas, priors, kappa, k_factors, rule):
    """_average's columns by the per-row reduction it replaced, kept as the
    oracle of its stacked product: per K-factor, mean SNR and kappa, the
    integrand at the K's nodes and one w.dot with the K's weights."""
    kaps = np.atleast_1d(np.asarray(kappa, dtype=float)).tolist()
    out = []
    for k in k_factors:
        nodes, w, _ = _weights(rule, k)
        cols = [[w.dot(fading._integrand(conditional_snr(nodes, g, kap), prior))
                 for kap in kaps] for g, prior in zip(gammas, priors)]
        out.append([col[0] for col in cols] if np.ndim(kappa) == 0 else cols)
    return out


class TestStackedProduct:
    """_average sums every row of every K-factor by one np.vecdot, whose
    float64 loop is the dot w.dot runs, so each entry is the per-row w.dot."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(order=st.integers(1, 128),
           others=st.lists(st.floats(0.0, 100.0), max_size=2),
           at=st.integers(0, 2),
           g_c=st.floats(1e-3, 1e6), g_s=st.floats(1e-3, 1e6),
           prior_var=st.floats(1e-3, 1e3),
           kappa=st.one_of(st.floats(0.0, 1e3),
                           st.lists(st.floats(0.0, 1e3), max_size=6).map(np.array)))
    def test_columns_equal_per_row_dots_bit_for_bit(self, order, others, at, g_c, g_s,
                                                    prior_var, kappa):
        # One to three K-factors, 0 among them; a rate and an MMSE column.
        ks = others[:at] + [0.0] + others[at:]
        rule, gammas, priors = QuadratureRule(order), (g_c, g_s), (None, prior_var)
        want = _per_row_dots(gammas, priors, kappa, ks, rule)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "order-.* fading rule misses")
            try:
                got = fading._average(gammas, priors, kappa, ks, rule)
            except ConvergenceError:
                assert max(_weights(rule, k)[2] for k in ks) > fading.DENSITY_FAIL
                return
        assert len(got) == len(ks)
        for cols, want_cols in zip(got, want):
            if np.ndim(kappa) == 0:
                assert all(type(v) is float for v in cols) and cols == want_cols
                continue
            for col, want_col in zip(cols, want_cols, strict=True):
                assert col.dtype == np.float64 and col.flags.c_contiguous
                assert col.shape == kappa.shape and col.tolist() == want_col

    def test_sweep_makes_one_stacked_product(self, tmp_path, monkeypatch):
        # The per-row reduction made 2 * 2 * 32 w.dot calls here: two
        # K-factors, two integrands and 32 capacities above 0.
        calls = []
        vecdot = np.vecdot
        monkeypatch.setattr(np, "vecdot", lambda *a, **kw: calls.append(1) or vecdot(*a, **kw))
        assert main(["gaussian-sweep", "--out", str(tmp_path / "s.csv")]) == 0
        assert len(calls) == 1

    def test_an_overflowing_sum_raises_without_a_warning(self):
        # The order-128 K = 0 weights sum to 1 + 4.4e-16, so an MMSE near the
        # largest prior sums past it: the product warned "overflow encountered
        # in vecdot" and gave inf. The peak bounds every sum, so the kernel
        # raises before it sums; at kappa = 1 alone the sum stays finite.
        prior_var = 1.7976931348623157e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="fading average overflows"):
                _distortion(1e-3, np.array([1e300, 1.0]), 0.0, prior_var, RULE)
            assert _distortion(1e-3, 1.0, 0.0, prior_var, RULE) < math.inf
