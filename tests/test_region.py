import math

import numpy as np
import pytest

from aiisac.bottleneck import AiBudget
from aiisac.gaussian import PerfPoint, ScalarScenario, effective_snrs
from aiisac.region import Frontier, frontier, in_region, separated_baseline

TABLE_I = ScalarScenario(power=0.01, gain_c=1.0, gain_s=1.0, noise_c=0.1,
                         noise_s=0.1, prior_var=1.0)
TABLE_I_NORMALIZED = ScalarScenario(power=10.0, gain_c=1.0, gain_s=1.0,
                                    noise_c=0.1, noise_s=0.1, prior_var=1.0)


def reference_in_region(sc, budget, candidate, n_points=2001):
    """Per-point membership loop: the scalar closed form at each alpha,
    keeping the first alpha of strictly greatest min(rate, distortion) slack."""
    g_c, g_s = effective_snrs(sc, budget)
    best = None
    for alpha in np.linspace(0.0, 1.0, n_points):
        a = float(alpha)
        r_slack = math.log2(1.0 + a * g_c) - candidate.rate
        d_slack = candidate.distortion - sc.prior_var / (1.0 + (1.0 - a) * g_s)
        score = min(r_slack, d_slack)
        if best is None or score > best[0]:
            best = (score, a, r_slack, d_slack)
    score, alpha, r_slack, d_slack = best
    return score >= 0.0, alpha, r_slack, d_slack


class TestFrontier:
    def test_endpoints(self):
        front = frontier(TABLE_I, AiBudget(4.0), 101)
        first, last = front.points[0], front.points[-1]
        assert first.alpha == 0.0 and first.rate == 0.0
        assert last.alpha == 1.0
        assert math.isclose(last.distortion, TABLE_I.prior_var, rel_tol=1e-12)

    def test_monotone_in_alpha(self):
        front = frontier(TABLE_I, AiBudget(4.0), 101)
        rates, dists = front.rates(), front.distortions()
        assert np.all(np.diff(rates) >= 0)
        assert np.all(np.diff(dists) >= 0)

    def test_budget_dominance(self):
        budgets = [0.5, 2.0, 4.0, 6.0]
        fronts = [frontier(TABLE_I, AiBudget(c), 101) for c in budgets]
        for lo, hi in zip(fronts, fronts[1:]):
            assert np.all(hi.rates() >= lo.rates() - 1e-12)
            assert np.all(hi.distortions() <= lo.distortions() + 1e-12)

    def test_classical_convergence(self):
        f12 = frontier(TABLE_I, AiBudget(12.0), 101)
        finf = frontier(TABLE_I, AiBudget(math.inf), 101)
        assert float(np.max(np.abs(f12.rates() - finf.rates()))) <= 1e-3
        assert (float(np.max(np.abs(f12.distortions() - finf.distortions())))
                <= 1e-3 * TABLE_I.prior_var)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            frontier(TABLE_I, AiBudget(1.0), 1)

    @pytest.mark.parametrize("sc", [TABLE_I, TABLE_I_NORMALIZED])
    @pytest.mark.parametrize("c", [0.5, 4.0, math.inf])
    def test_arrays_equal_scalar_closed_form(self, sc, c):
        # Bit-for-bit: the rate column must come from math.log2, which
        # np.log2 does not match in the last place on every platform.
        budget = AiBudget(c)
        g_c, g_s = effective_snrs(sc, budget)
        front = frontier(sc, budget)
        base = separated_baseline(frontier(sc, budget))
        alphas = np.linspace(0.0, 1.0, 201).tolist()
        assert front.alphas.tolist() == alphas == base.alphas.tolist()
        assert front.rates().tolist() == [math.log2(1.0 + a * g_c) for a in alphas]
        dists = [sc.prior_var / (1.0 + (1.0 - a) * g_s) for a in alphas]
        assert front.distortions().tolist() == dists == base.distortions().tolist()
        rate_full = math.log2(1.0 + g_c)
        assert base.rates().tolist() == [t * rate_full for t in alphas]
        assert front.points[7] == (alphas[7], front.rates()[7], dists[7])

    def test_arrays_read_only(self):
        front = frontier(TABLE_I, AiBudget(4.0))
        for arr in (front.alphas, front.rates(), front.distortions()):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    @pytest.mark.parametrize("alphas, rates, dists, message", [
        ([0.0, 1.5], [0.0, 1.0], [1.0, 1.0], r"alpha must lie in \[0,1\], got 1.5"),
        ([0.0, 1.0], [-1e-3, 1.0], [1.0, 1.0], "rate must be >= 0"),
        ([0.0, 1.0], [0.0, 1.0], [1.0, 0.0], "distortion positive"),
        ([0.5, 0.2], [0.0, 1.0], [1.0, 1.0], "ordered by alpha"),
        ([0.0, 1.0], [0.0, math.nan], [1.0, 1.0], "rate must be >= 0"),
        ([0.0, 1.0], [0.0, 1.0], [math.nan, 1.0], "distortion positive"),
    ])
    def test_invalid_arrays_rejected(self, alphas, rates, dists, message):
        with pytest.raises(ValueError, match=message):
            Frontier(AiBudget(1.0), np.array(alphas), np.array(rates),
                     np.array(dists))


class TestSeparatedBaseline:
    @pytest.mark.parametrize("sc", [TABLE_I, TABLE_I_NORMALIZED])
    @pytest.mark.parametrize("c", [0.0, 0.5, 4.0, math.inf])
    @pytest.mark.parametrize("n_points", [2, 101, 201, 2001])
    def test_derived_from_frontier(self, sc, c, n_points):
        budget = AiBudget(c)
        front = frontier(sc, budget, n_points)
        base = separated_baseline(front)
        assert base.alphas is front.alphas
        assert base.distortions() is front.distortions()
        assert base.budget is budget
        # The time-sharing rate as computed from the scenario, bit for bit.
        g_c, _ = effective_snrs(sc, budget)
        taus = np.linspace(0.0, 1.0, n_points)
        assert base.rates().tolist() == (taus * math.log2(1.0 + g_c)).tolist()

    def test_nan_rate_rejected(self):
        # 0 * inf at tau = 0: the baseline of a frontier with an infinite
        # full-power rate would start at NaN.
        front = Frontier(AiBudget(1.0), np.array([0.0, 1.0]),
                         np.array([0.0, math.inf]), np.array([1.0, 1.0]))
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match="rate must be >= 0"):
            separated_baseline(front)

    def test_endpoints_match_joint(self):
        budget = AiBudget(4.0)
        front = frontier(TABLE_I, budget, 101)
        base = separated_baseline(frontier(TABLE_I, budget, 101))
        assert base.points[0].rate == 0.0
        assert math.isclose(base.points[-1].rate, front.points[-1].rate,
                            rel_tol=1e-12)
        assert math.isclose(base.points[-1].distortion,
                            front.points[-1].distortion, rel_tol=1e-12)

    def test_joint_dominates_at_matched_distortion(self):
        budget = AiBudget(4.0)
        front = frontier(TABLE_I, budget, 201)
        base = separated_baseline(frontier(TABLE_I, budget, 201))
        # At each baseline point, the best joint rate at no-worse distortion
        # must beat the baseline rate; count the wins.
        wins = 0
        total = 0
        for bp in base.points[1:-1]:
            ok = front.distortions() <= bp.distortion + 1e-15
            if not np.any(ok):
                continue
            total += 1
            if float(np.max(front.rates()[ok])) >= bp.rate - 1e-12:
                wins += 1
        assert total > 0
        assert wins / total >= 0.95


class TestInRegion:
    def test_origin_always_inside(self):
        verdict = in_region(TABLE_I, AiBudget(1.0),
                            PerfPoint(0.0, TABLE_I.prior_var))
        assert verdict.inside

    def test_frontier_self_membership(self):
        budget = AiBudget(4.0)
        p = frontier(TABLE_I, budget, 201).points[100]
        verdict = in_region(TABLE_I, budget,
                            PerfPoint(p.rate, p.distortion))
        assert verdict.inside

    def test_high_budget_point_outside_low_budget_region(self):
        p = frontier(TABLE_I, AiBudget(6.0), 201).points[100]
        verdict = in_region(TABLE_I, AiBudget(2.0),
                            PerfPoint(p.rate, p.distortion))
        assert not verdict.inside

    def test_monotone_in_budget(self):
        p = frontier(TABLE_I, AiBudget(2.0), 201).points[150]
        cand = PerfPoint(p.rate, p.distortion)
        assert in_region(TABLE_I, AiBudget(2.0), cand).inside
        assert in_region(TABLE_I, AiBudget(6.0), cand).inside
        assert in_region(TABLE_I, AiBudget(math.inf), cand).inside

    def test_matches_per_point_reference(self):
        rng = np.random.default_rng(5)
        inside = 0
        for _ in range(200):
            sc = ScalarScenario(power=10 ** rng.uniform(-2.5, 1.0),
                                gain_c=rng.uniform(0.5, 2.0),
                                gain_s=rng.uniform(0.5, 2.0),
                                noise_c=rng.uniform(0.05, 0.2),
                                noise_s=rng.uniform(0.05, 0.2),
                                prior_var=rng.uniform(0.5, 2.0))
            budget = AiBudget(float(rng.choice([0.5, 2.0, 4.0, 8.0, math.inf])))
            g_c, g_s = effective_snrs(sc, budget)
            a = rng.uniform(0.0, 1.0)
            scale = 1.0 + rng.uniform(-0.1, 0.1)
            cand = PerfPoint(math.log2(1.0 + a * g_c) * scale,
                             sc.prior_var / (1.0 + (1.0 - a) * g_s) / scale)
            got = in_region(sc, budget, cand)
            assert tuple(got) == reference_in_region(sc, budget, cand)
            assert [type(v) for v in got] == [bool, float, float, float]
            inside += got.inside
        assert 40 <= inside <= 160

    def test_tie_goes_to_first_alpha(self):
        # Rate of grid point 700 and distortion of point 701: both points
        # score exactly 0, every other point scores below it.
        budget = AiBudget(4.0)
        front = frontier(TABLE_I, budget, 2001)
        cand = PerfPoint(float(front.rates()[700]), float(front.distortions()[701]))
        got = in_region(TABLE_I, budget, cand)
        assert tuple(got) == reference_in_region(TABLE_I, budget, cand)
        assert got.alpha == float(front.alphas[700]) and got.inside
        assert got.rate_slack == 0.0
