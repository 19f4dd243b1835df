import math

import numpy as np
import pytest

from aiisac import allocate, bottleneck, cli
from aiisac.allocate import AllocationProblem, kkt_power_split
from aiisac.bottleneck import AiBudget, enforce_mi_numerically
from aiisac.config import parse_config
from aiisac.errors import AiIsacError, BracketError, ConvergenceError
from aiisac.gaussian import ScalarScenario
from aiisac.numerics import QuadratureRule, RandomStream, find_root


class TestGradedLaguerre:
    @pytest.mark.parametrize("order, split, scale",
                             [(20, 1.0, 1.0), (128, 1.0, 1.0),
                              (128, 11.0, math.sqrt(21.0))])
    def test_moments(self, order, split, scale):
        # Against exp(-x) on (0, inf), x^k integrates to k!.
        nodes, log_w = QuadratureRule(order).graded(split, scale)
        w = np.exp(log_w)
        for k in range(6):
            assert math.isclose(float(w @ nodes**k), math.factorial(k),
                                rel_tol=1e-12)

    @pytest.mark.parametrize("numpy_rule, scipy_name", [
        (np.polynomial.legendre.leggauss, "roots_legendre"),
        (np.polynomial.laguerre.laggauss, "roots_laguerre")],
        ids=["legendre", "laguerre"])
    def test_numpy_rules_match_scipy(self, numpy_rule, scipy_name):
        # The composite rule's pieces come from numpy.polynomial. Nodes may
        # differ by a few ulps of the rule's unit scale: numpy's smallest
        # order-126 Laguerre node is 3e-15 (2.6e-13 of its value) off a
        # 40-digit reference.
        import scipy.special

        for order in range(1, 129):
            nodes, weights = numpy_rule(order)
            want_nodes, want_weights = getattr(scipy.special, scipy_name)(order)
            np.testing.assert_allclose(nodes, want_nodes, rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(weights, want_weights, rtol=1e-10, atol=0.0)

    def test_nodes_split_in_halves(self):
        nodes, _ = QuadratureRule(20).graded(3.0, 1.0)
        assert np.all(np.diff(nodes) > 0)
        assert np.sum(nodes < 3.0) == 10 and nodes[10] > 3.0

    def test_order_one_is_gauss_laguerre(self):
        from scipy.special import roots_laguerre

        nodes, log_w = QuadratureRule(1).graded(5.0, 1.0)
        want_nodes, want_weights = roots_laguerre(1)
        assert np.array_equal(nodes, want_nodes)
        assert np.allclose(np.exp(log_w), want_weights, rtol=1e-15)

    def test_bounds(self):
        with pytest.raises(ValueError):
            QuadratureRule(129)
        with pytest.raises(ValueError):
            QuadratureRule(20).graded(0.0, 1.0)
        with pytest.raises(ValueError):
            QuadratureRule(20).graded(1.0, math.inf)


class TestQuadratureRule:
    def test_order_bounds(self):
        for order in (0, 129, True, 20.0):
            with pytest.raises(ValueError):
                QuadratureRule(order)
        assert QuadratureRule(np.int64(128)).order == 128


class TestFindRoot:
    def test_basic(self):
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-14)
        assert math.isclose(root, math.sqrt(2.0), rel_tol=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, tol=1e-12)

    @pytest.mark.parametrize("lo, hi", [(0.25, 1.0), (-1.0, 0.25)])
    def test_zero_at_a_bracket_end_is_returned_at_once(self, lo, hi):
        # f is exactly 0 at 0.25: that end is the root, after the two end
        # evaluations and no iteration.
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.25

        assert find_root(f, lo, hi, tol=1e-12) == 0.25
        assert calls == [lo, hi]

    @pytest.mark.parametrize("f", [
        lambda x: math.nan if 0.0 < x < 1.0 else x - 0.3,  # inside
        lambda x: math.nan if x > 0.5 else x - 0.7,        # at an end
    ])
    def test_nan_raises(self, f):
        with pytest.raises(ConvergenceError, match="NaN"):
            find_root(f, 0.0, 1.0, tol=1e-12)

    def test_iteration_cap_raises(self):
        # A step function leaves Brent nothing to interpolate, so it bisects
        # a bracket of width 2e300 and needs over 1000 halvings.
        def step(x):
            return -1.0 if x < 0.3 else 1.0

        with pytest.raises(ConvergenceError, match="200 iterations") as info:
            find_root(step, -1e300, 1e300, tol=1e-12)
        assert isinstance(info.value, AiIsacError)
        assert find_root(step, 0.0, 1.0, tol=1e-12) == pytest.approx(0.3)


def _recorded_brackets(monkeypatch, module, run):
    """(f, lo, hi, tol) of every find_root call that run() makes through
    module."""
    calls = []

    def record(f, lo, hi, tol):
        calls.append((f, lo, hi, tol))
        return find_root(f, lo, hi, tol)

    monkeypatch.setattr(module, "find_root", record)
    run()
    return calls


class TestFindRootMatchesBrentq:
    """The port returns exactly what scipy.optimize.brentq returns with
    xtol = tol and maxiter = 200."""

    @staticmethod
    def assert_same(calls):
        from scipy.optimize import brentq

        assert calls
        for f, lo, hi, tol in calls:
            assert find_root(f, lo, hi, tol) == brentq(f, lo, hi, xtol=tol,
                                                      maxiter=200)

    def test_enforce_mi_gap(self, monkeypatch):
        rng = np.random.default_rng(11)

        def run():
            for _ in range(400):
                enforce_mi_numerically(10.0 ** rng.uniform(-3.0, 3.0),
                                       rng.uniform(0.25, 9.75), tol=1e-9)

        self.assert_same(_recorded_brackets(monkeypatch, bottleneck, run))

    def test_kkt_stationarity(self, monkeypatch):
        rng = np.random.default_rng(12)
        interior = []

        def run():
            while len(interior) < 60:
                sc = ScalarScenario(
                    power=1.0,
                    gain_c=float(rng.uniform(0.2, 3.0)),
                    gain_s=float(rng.uniform(0.2, 3.0)),
                    noise_c=float(rng.uniform(0.05, 0.5)),
                    noise_s=float(rng.uniform(0.05, 0.5)),
                    prior_var=float(rng.uniform(5.0, 60.0)),
                )
                prob = AllocationProblem(
                    total_power=1.0, total_time=1.0,
                    weight=float(rng.uniform(0.1, 0.9)),
                    budget=AiBudget(float(rng.uniform(1.0, 8.0))),
                    scenario=sc, mode=str(rng.choice(["penalized", "convex"])))
                p_c = kkt_power_split(prob)[0]
                if 1e-9 < p_c < 1.0 - 1e-9:
                    interior.append(p_c)

        calls = _recorded_brackets(monkeypatch, allocate, run)
        # Keep the brackets whose root is interior; the rest have no sign
        # change and end in BracketError on both sides.
        with_root = [c for c in calls
                     if (c[0](c[1]) < 0.0) != (c[0](c[2]) < 0.0)]
        assert len(with_root) == len(interior)
        self.assert_same(with_root)

    def test_verify_at_huge_power(self, monkeypatch):
        # At power = 1e300 the stationarity values are about 1e-299, and an
        # interpolation step's denominator underflows to 0.
        cfg = parse_config("power = 1e300\n")
        calls = []
        for module in (bottleneck, allocate):
            calls += _recorded_brackets(monkeypatch, module,
                                        lambda: cli._verify_checks(cfg))
        self.assert_same([c for c in calls
                          if (c[0](c[1]) < 0.0) != (c[0](c[2]) < 0.0)])

    def test_tiny_values(self):
        # Products of values near 1e-200 underflow to 0 in the denominator
        # of the interpolation step; brentq then bisects.
        rng = np.random.default_rng(17)
        calls = []
        for _ in range(300):
            r = float(rng.uniform(-5.0, 5.0))
            a, b = (float(v) for v in rng.uniform(0.01, 3.0, size=2))
            scale = float(10.0 ** rng.uniform(-300.0, -100.0))

            def f(x, r=r, a=a, b=b, scale=scale):
                return scale * (a * (x - r) + b * (x - r) ** 3)
            lo = r - float(rng.uniform(1e-3, 20.0))
            hi = r + float(rng.uniform(1e-3, 20.0))
            calls.append((f, lo, hi, 1e-12))
        self.assert_same(calls)

    @pytest.mark.parametrize("tol", [1e-14, 1e-12, 1e-8, 1e-3])
    def test_random_monotone(self, tol):
        rng = np.random.default_rng(int(-math.log10(tol)))
        calls = []
        for _ in range(750):
            r = float(rng.uniform(-5.0, 5.0))
            a, b, c = (float(v) for v in rng.uniform(0.01, 3.0, size=3))
            kind = int(rng.integers(3))
            if kind == 0:
                def f(x, r=r, a=a, b=b):
                    return a * (x - r) + b * (x - r) ** 3
            elif kind == 1:
                def f(x, r=r, a=a, c=c):
                    return math.tanh(a * (x - r)) + 1e-3 * c * (x - r)
            else:
                def f(x, r=r, a=a, b=b):
                    return math.expm1(a * (x - r)) * (1.0 + b)
            lo = r - float(rng.uniform(1e-3, 20.0))
            hi = r + float(rng.uniform(1e-3, 20.0))
            calls.append((f, lo, hi, tol))
        self.assert_same(calls)


class TestRandomStream:
    def test_determinism(self):
        a = RandomStream(seed=1, stream=0).generator().normal(size=8)
        b = RandomStream(seed=1, stream=0).generator().normal(size=8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomStream(seed=1, stream=0).generator().normal(size=8)
        b = RandomStream(seed=1, stream=1).generator().normal(size=8)
        assert not np.array_equal(a, b)

    def test_split(self):
        s = RandomStream(seed=3, stream=0)
        assert s.split(5).stream == 5
        assert s.split(5).seed == 3
