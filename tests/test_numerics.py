import math

import numpy as np
import pytest

from aiisac.errors import BracketError
from aiisac.numerics import (
    QuadratureRule,
    RandomStream,
    find_root,
    gauss_laguerre,
    graded_laguerre,
)


class TestGradedLaguerre:
    @pytest.mark.parametrize("order, split, scale",
                             [(20, 1.0, 1.0), (128, 1.0, 1.0),
                              (128, 11.0, math.sqrt(21.0))])
    def test_moments(self, order, split, scale):
        # Against exp(-x) on (0, inf), x^k integrates to k!.
        nodes, log_w = graded_laguerre(order, split, scale)
        w = np.exp(log_w)
        for k in range(6):
            assert math.isclose(float(w @ nodes**k), math.factorial(k),
                                rel_tol=1e-12)

    def test_nodes_split_in_halves(self):
        nodes, _ = graded_laguerre(20, 3.0, 1.0)
        assert np.all(np.diff(nodes) > 0)
        assert np.sum(nodes < 3.0) == 10 and nodes[10] > 3.0

    def test_order_one_is_gauss_laguerre(self):
        nodes, log_w = graded_laguerre(1, 5.0, 1.0)
        rule = gauss_laguerre(1)
        assert np.array_equal(nodes, rule.nodes)
        assert np.allclose(np.exp(log_w), rule.weights, rtol=1e-15)

    def test_bounds(self):
        with pytest.raises(ValueError):
            graded_laguerre(129, 1.0, 1.0)
        with pytest.raises(ValueError):
            graded_laguerre(20, 0.0, 1.0)
        with pytest.raises(ValueError):
            graded_laguerre(20, 1.0, math.inf)


class TestGaussLaguerre:
    def test_weights_sum_to_one(self):
        rule = gauss_laguerre(20)
        assert math.isclose(float(np.sum(rule.weights)), 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
    def test_moments_exact(self, k):
        # Gauss-Laguerre integrates x^k e^{-x} exactly to k! for k < 2M.
        rule = gauss_laguerre(10)
        got = rule.integrate(lambda x: x**k)
        assert math.isclose(got, math.factorial(k), rel_tol=1e-10)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0)
        with pytest.raises(ValueError):
            gauss_laguerre(129)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            QuadratureRule(order=2, nodes=np.array([1.0]), weights=np.array([1.0]))


class TestFindRoot:
    def test_basic(self):
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-14)
        assert math.isclose(root, math.sqrt(2.0), rel_tol=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, tol=1e-12)


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
