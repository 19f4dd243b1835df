import math
from dataclasses import replace

import numpy as np
import pytest

from aiisac.bottleneck import AiBudget
from aiisac.gaussian import PerfPoint, ScalarScenario, distortion, effective_snrs
from aiisac import region
from aiisac.region import (DEFAULT_GRID, Frontier, frontier, in_region,
                           separated_baseline)

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


def closed_form_frontier(sc, budget, n_points):
    """A Frontier on an n-point uniform alpha grid from the scalar closed form."""
    g_c, g_s = effective_snrs(sc, budget)
    alphas = np.linspace(0.0, 1.0, n_points)
    return Frontier(budget, alphas,
                    np.array([math.log2(1.0 + a * g_c) for a in alphas.tolist()]),
                    sc.prior_var / (1.0 + (1.0 - alphas) * g_s))


def random_scenario(rng):
    return ScalarScenario(power=10 ** rng.uniform(-2.5, 1.0),
                          gain_c=rng.uniform(0.5, 2.0),
                          gain_s=rng.uniform(0.5, 2.0),
                          noise_c=rng.uniform(0.05, 0.2),
                          noise_s=rng.uniform(0.05, 0.2),
                          prior_var=rng.uniform(0.5, 2.0))


def closed_form_point(sc, budget, alpha):
    g_c, g_s = effective_snrs(sc, budget)
    return PerfPoint(math.log2(1.0 + alpha * g_c),
                     sc.prior_var / (1.0 + (1.0 - alpha) * g_s))


def pushed_out(p, rel=1e-12):
    return PerfPoint(p.rate * (1.0 + rel), p.distortion * (1.0 - rel))


BUDGETS = [0.5, 2.0, 4.0, 8.0, math.inf]


class TestFrontier:
    def test_endpoints(self):
        front = frontier(TABLE_I, AiBudget(4.0))
        first, last = front.points[0], front.points[-1]
        assert first.alpha == 0.0 and first.rate == 0.0
        assert last.alpha == 1.0
        assert math.isclose(last.distortion, TABLE_I.prior_var, rel_tol=1e-12)

    def test_monotone_in_alpha(self):
        front = frontier(TABLE_I, AiBudget(4.0))
        rates, dists = front.rates, front.distortions
        assert np.all(np.diff(rates) >= 0)
        assert np.all(np.diff(dists) >= 0)

    def test_budget_dominance(self):
        budgets = [0.5, 2.0, 4.0, 6.0]
        fronts = [frontier(TABLE_I, AiBudget(c)) for c in budgets]
        for lo, hi in zip(fronts, fronts[1:]):
            assert np.all(hi.rates >= lo.rates - 1e-12)
            assert np.all(hi.distortions <= lo.distortions + 1e-12)

    def test_classical_convergence(self):
        f12 = frontier(TABLE_I, AiBudget(12.0))
        finf = frontier(TABLE_I, AiBudget(math.inf))
        assert float(np.max(np.abs(f12.rates - finf.rates))) <= 1e-3
        assert (float(np.max(np.abs(f12.distortions - finf.distortions)))
                <= 1e-3 * TABLE_I.prior_var)

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
        assert front.rates.tolist() == [math.log2(1.0 + a * g_c) for a in alphas]
        dists = [sc.prior_var / (1.0 + (1.0 - a) * g_s) for a in alphas]
        assert front.distortions.tolist() == dists == base.distortions.tolist()
        rate_full = math.log2(1.0 + g_c)
        assert base.rates.tolist() == [t * rate_full for t in alphas]
        assert front.points[7] == (alphas[7], front.rates[7], dists[7])

    def test_arrays_read_only(self):
        front = frontier(TABLE_I, AiBudget(4.0))
        for arr in (front.alphas, front.rates, front.distortions):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_zero_distortions_accepted(self):
        # At the least subnormal prior variance the distortion rounds to 0
        # where the sensing SNR is at least 1, as gaussian.distortion does.
        sc = replace(TABLE_I_NORMALIZED, prior_var=5e-324)
        front = frontier(sc, AiBudget(4.0))
        assert front.distortions[0] == distortion(sc, AiBudget(4.0)) == 0.0
        assert front.distortions[-1] == 5e-324

    @pytest.mark.parametrize("alphas, rates, dists, message", [
        ([0.0, 1.5], [0.0, 1.0], [1.0, 1.0], r"alpha must lie in \[0,1\], got 1.5"),
        ([0.0, 1.0], [-1e-3, 1.0], [1.0, 1.0], "rate and distortion must be >= 0"),
        ([0.0, 1.0], [0.0, 1.0], [1.0, -1e-3], "rate and distortion must be >= 0"),
        ([0.5, 0.2], [0.0, 1.0], [1.0, 1.0], "ordered by alpha"),
        ([0.0, 1.0], [0.0, math.nan], [1.0, 1.0], "rate and distortion must be >= 0"),
        ([0.0, 1.0], [0.0, 1.0], [math.nan, 1.0], "rate and distortion must be >= 0"),
        ([0.0, 0.5, 1.0], [0.0], [1.0, 1.0], "equal length"),
        ([[0.0, 1.0]], [[0.0, 1.0]], [[1.0, 1.0]], "1-D"),
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
        # separated_baseline takes any Frontier: frontier() gives the
        # DEFAULT_GRID one, the other grids come from the closed form.
        budget = AiBudget(c)
        front = (frontier(sc, budget) if n_points == DEFAULT_GRID
                 else closed_form_frontier(sc, budget, n_points))
        base = separated_baseline(front)
        assert base.alphas is front.alphas
        assert base.distortions is front.distortions
        assert base.budget is budget
        # The time-sharing rate as computed from the scenario, bit for bit.
        g_c, _ = effective_snrs(sc, budget)
        taus = np.linspace(0.0, 1.0, n_points)
        assert base.rates.tolist() == (taus * math.log2(1.0 + g_c)).tolist()

    def test_nan_rate_rejected(self):
        # 0 * inf at tau = 0: the baseline of a frontier with an infinite
        # full-power rate would start at NaN.
        front = Frontier(AiBudget(1.0), np.array([0.0, 1.0]),
                         np.array([0.0, math.inf]), np.array([1.0, 1.0]))
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match="rate and distortion must be >= 0"):
            separated_baseline(front)

    def test_endpoints_match_joint(self):
        budget = AiBudget(4.0)
        front = frontier(TABLE_I, budget)
        base = separated_baseline(frontier(TABLE_I, budget))
        assert base.points[0].rate == 0.0
        assert math.isclose(base.points[-1].rate, front.points[-1].rate,
                            rel_tol=1e-12)
        assert math.isclose(base.points[-1].distortion,
                            front.points[-1].distortion, rel_tol=1e-12)

    def test_joint_dominates_at_matched_distortion(self):
        budget = AiBudget(4.0)
        front = frontier(TABLE_I, budget)
        base = separated_baseline(frontier(TABLE_I, budget))
        # At each baseline point, the best joint rate at no-worse distortion
        # must beat the baseline rate; count the wins.
        wins = 0
        total = 0
        for bp in base.points[1:-1]:
            ok = front.distortions <= bp.distortion + 1e-15
            if not np.any(ok):
                continue
            total += 1
            if float(np.max(front.rates[ok])) >= bp.rate - 1e-12:
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
        p = frontier(TABLE_I, budget).points[100]
        verdict = in_region(TABLE_I, budget,
                            PerfPoint(p.rate, p.distortion))
        assert verdict.inside

    def test_high_budget_point_outside_low_budget_region(self):
        p = frontier(TABLE_I, AiBudget(6.0)).points[100]
        verdict = in_region(TABLE_I, AiBudget(2.0),
                            PerfPoint(p.rate, p.distortion))
        assert not verdict.inside

    def test_monotone_in_budget(self):
        p = frontier(TABLE_I, AiBudget(2.0)).points[150]
        cand = PerfPoint(p.rate, p.distortion)
        assert in_region(TABLE_I, AiBudget(2.0), cand).inside
        assert in_region(TABLE_I, AiBudget(6.0), cand).inside
        assert in_region(TABLE_I, AiBudget(math.inf), cand).inside

    @pytest.mark.parametrize("sc", [TABLE_I, TABLE_I_NORMALIZED])
    @pytest.mark.parametrize("c", BUDGETS)
    def test_every_frontier_point_inside_and_pushed_out_outside(self, sc, c):
        budget = AiBudget(c)
        for p in frontier(sc, budget).points:
            cand = PerfPoint(p.rate, p.distortion)
            got = in_region(sc, budget, cand)
            assert got.inside and got.alpha <= p.alpha
            assert got.rate_slack >= 0.0 and got.distortion_slack >= 0.0
            assert not in_region(sc, budget, pushed_out(cand)).inside

    def test_off_grid_closed_form_points_inside_and_pushed_out_outside(self):
        rng = np.random.default_rng(16)
        for i in range(600):
            sc = (TABLE_I, TABLE_I_NORMALIZED)[i % 2] if i < 200 else random_scenario(rng)
            budget = AiBudget(float(rng.choice(BUDGETS)))
            alpha = float(rng.uniform(0.0, 1.0))
            cand = closed_form_point(sc, budget, alpha)
            got = in_region(sc, budget, cand)
            assert got.inside and got.alpha <= alpha, (sc, budget, alpha)
            assert got.rate_slack >= 0.0 and got.distortion_slack >= 0.0
            assert not in_region(sc, budget, pushed_out(cand)).inside

    def test_grid_reference_inside_implies_inside(self):
        # The 2,001-point grid can miss an achievable point, never the
        # other way round: where it says inside, so does the exact test.
        rng = np.random.default_rng(5)
        grid_inside = exact_inside = 0
        for _ in range(200):
            sc = random_scenario(rng)
            budget = AiBudget(float(rng.choice(BUDGETS)))
            g_c, g_s = effective_snrs(sc, budget)
            a = rng.uniform(0.0, 1.0)
            scale = 1.0 + rng.uniform(-0.1, 0.1)
            cand = PerfPoint(math.log2(1.0 + a * g_c) * scale,
                             sc.prior_var / (1.0 + (1.0 - a) * g_s) / scale)
            got = in_region(sc, budget, cand)
            assert [type(v) for v in got] == [bool, float, float, float]
            ref_inside = reference_in_region(sc, budget, cand)[0]
            assert got.inside or not ref_inside
            grid_inside += ref_inside
            exact_inside += got.inside
        assert 40 <= grid_inside <= exact_inside <= 160

    def test_alpha_is_least_split_meeting_the_rate(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            sc = random_scenario(rng)
            budget = AiBudget(float(rng.choice(BUDGETS)))
            g_c, _ = effective_snrs(sc, budget)
            cand = PerfPoint(math.log2(1.0 + g_c) * rng.uniform(0.0, 1.0),
                             sc.prior_var * rng.uniform(0.2, 1.2))
            got = in_region(sc, budget, cand)
            assert math.log2(1.0 + got.alpha * g_c) >= cand.rate
            below = math.nextafter(got.alpha, 0.0)
            assert got.alpha == 0.0 or math.log2(1.0 + below * g_c) < cand.rate
            assert got.inside == (got.distortion_slack >= 0.0)

    def test_subnormal_alpha(self):
        # g_c = 1e300: the least split meeting a 1e-10-bit rate is subnormal.
        sc = ScalarScenario(power=1e300, gain_c=1.0, gain_s=1.0, noise_c=1.0,
                            noise_s=1.0, prior_var=1.0)
        got = in_region(sc, AiBudget(math.inf), PerfPoint(1e-10, 1.0))
        assert got.inside and 0.0 < got.alpha < 2.2250738585072014e-308
        assert math.log2(1.0 + got.alpha * 1e300) >= 1e-10
        assert math.log2(1.0 + math.nextafter(got.alpha, 0.0) * 1e300) < 1e-10

    def test_point_between_grid_points_is_inside(self):
        # Frontier point at alpha = 0.50025 (between two 2,001-grid points):
        # the grid called it outside, with distortion slack -5.8e-5.
        budget = AiBudget(4.0)
        cand = closed_form_point(TABLE_I_NORMALIZED, budget, 0.50025)
        assert not reference_in_region(TABLE_I_NORMALIZED, budget, cand)[0]
        got = in_region(TABLE_I_NORMALIZED, budget, cand)
        assert got.inside and got.alpha <= 0.50025
        assert got.rate_slack >= 0.0 and got.distortion_slack >= 0.0

    def test_zero_capacity(self):
        # C = 0: both effective SNRs are 0, so no split carries any rate
        # and the distortion is the prior at every split.
        budget = AiBudget(0.0)
        assert in_region(TABLE_I, budget, PerfPoint(0.0, 1.0)) == (True, 0.0, 0.0, 0.0)
        got = in_region(TABLE_I, budget, PerfPoint(1e-9, 1.0))
        assert got == (False, 1.0, -1e-9, 0.0)
        assert not in_region(TABLE_I, budget, PerfPoint(0.0, 0.999)).inside

    def test_zero_rate(self):
        # R = 0 is met at alpha = 0, where the distortion is least.
        budget = AiBudget(4.0)
        _, g_s = effective_snrs(TABLE_I, budget)
        d_min = TABLE_I.prior_var / (1.0 + g_s)
        assert in_region(TABLE_I, budget, PerfPoint(0.0, d_min)) == (True, 0.0, 0.0, 0.0)
        got = in_region(TABLE_I, budget, PerfPoint(0.0, d_min * (1.0 - 1e-12)))
        assert not got.inside and got.alpha == 0.0 and got.distortion_slack < 0.0

    def test_rate_above_full_power_rate(self):
        budget = AiBudget(4.0)
        g_c, _ = effective_snrs(TABLE_I, budget)
        full = math.log2(1.0 + g_c)
        assert in_region(TABLE_I, budget, PerfPoint(full, 1.0)).inside
        got = in_region(TABLE_I, budget, PerfPoint(full * (1.0 + 1e-12), 10.0))
        assert not got.inside and got.alpha == 1.0
        assert got.rate_slack < 0.0 and got.distortion_slack > 0.0

    def test_distortion_above_prior(self):
        # Every split reaches the prior variance, so only the rate binds.
        budget = AiBudget(4.0)
        g_c, _ = effective_snrs(TABLE_I_NORMALIZED, budget)
        for rate in (0.0, 0.5 * math.log2(1.0 + g_c), math.log2(1.0 + g_c)):
            got = in_region(TABLE_I_NORMALIZED, budget, PerfPoint(rate, 1.5))
            assert got.inside and got.distortion_slack > 0.0

    def test_needs_no_frontier(self, monkeypatch):
        def no_frontier(*args, **kwargs):
            raise AssertionError("in_region built a frontier")

        monkeypatch.setattr(region, "frontier", no_frontier)
        budget = AiBudget(4.0)
        assert in_region(TABLE_I, budget,
                         closed_form_point(TABLE_I, budget, 0.3)).inside
