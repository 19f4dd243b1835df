import math
from dataclasses import replace

import numpy as np
import pytest

from aiisac import allocate
from aiisac.allocate import (
    AllocationProblem,
    _sensing_share,
    grid_argmax,
    kkt_power_split,
    kkt_residual_check,
    objective,
    objective_gradient,
    optimize_alpha,
)
from aiisac.bottleneck import AiBudget, achieved_mi, equivalent_noise
from aiisac.config import PRESETS, preset_config
from aiisac.errors import DegenerateInputError
from aiisac.gaussian import ScalarScenario, effective_snrs
from aiisac.region import frontier

TABLE_I = ScalarScenario(power=0.01, gain_c=1.0, gain_s=1.0, noise_c=0.1,
                         noise_s=0.1, prior_var=1.0)


def make_problem(weight=0.3, c_ai=4.0, mode="penalized", scenario=TABLE_I,
                 power=0.01):
    return AllocationProblem(
        total_power=power,
        total_time=1.0,
        weight=weight,
        budget=AiBudget(c_ai),
        scenario=scenario,
        mode=mode,
    )


class TestObjective:
    def test_pure_communication(self):
        prob = make_problem(weight=0.0)
        vals = [objective(prob, a) for a in np.linspace(0, 1, 11)]
        assert np.argmax(vals) == 10

    def test_alpha_zero_penalized(self):
        prob = make_problem(weight=0.4)
        want = -0.4 * (TABLE_I.prior_var
                       / (1.0 + objective_snr_s(prob)))
        assert math.isclose(objective(prob, 0.0), want, rel_tol=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            prob = make_problem(weight=float(rng.uniform(0.1, 0.9)),
                                c_ai=float(rng.uniform(0.5, 8.0)),
                                mode=rng.choice(["penalized", "convex"]))
            a = float(rng.uniform(0.05, 0.95))
            h = 1e-6
            fd = (objective(prob, a + h) - objective(prob, a - h)) / (2 * h)
            an = objective_gradient(prob, a)
            assert math.isclose(an, fd, rel_tol=1e-6, abs_tol=1e-12)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("c_ai", [0.5, 4.0, math.inf])
@pytest.mark.parametrize("mode", ["penalized", "convex"])
def test_objective_is_the_frontier(preset, c_ai, mode):
    # Both take their SNRs from gaussian.effective_snrs, so J at each grid
    # alpha is the frontier's weighted rate and distortion, bit for bit.
    cfg = preset_config(preset)
    sc = ScalarScenario(cfg.power, cfg.gain_c, cfg.gain_s, cfg.noise_c,
                        cfg.noise_s, cfg.prior_var)
    prob = make_problem(weight=cfg.weight, c_ai=c_ai, mode=mode, scenario=sc,
                        power=cfg.power)
    w_r, w_d = (1.0, cfg.weight) if mode == "penalized" else (cfg.weight,
                                                              1.0 - cfg.weight)
    front = frontier(sc, AiBudget(c_ai))
    for a, r, d in zip(front.alphas.tolist(), front.rates.tolist(),
                       front.distortions.tolist()):
        assert objective(prob, a) == w_r * r - w_d * d


def objective_snr_s(prob):
    sc = prob.scenario
    from aiisac.bottleneck import kappa
    nz = kappa(prob.budget) * prob.total_power
    return sc.gain_s * prob.total_power / (sc.noise_s + sc.gain_s * nz)


class TestOptimizeAlpha:
    def test_reference_run_reaches_unity(self):
        result = optimize_alpha(make_problem(weight=0.3, c_ai=4.0), 0.4)
        assert abs(result.alpha_star - 1.0) <= 2e-3
        assert len(result.trace) <= 51

    def test_mi_constant_along_trace(self):
        result = optimize_alpha(make_problem(), 0.4)
        for _, _, _, mi in result.trace:
            assert abs(mi - 4.0) <= 1e-9

    def test_ascent(self):
        result = optimize_alpha(make_problem(), 0.4)
        objs = [j for _, _, j, _ in result.trace]
        assert all(b >= a for a, b in zip(objs, objs[1:]))

    def test_zero_weight_hits_boundary(self):
        result = optimize_alpha(make_problem(weight=0.0), 0.3)
        assert result.alpha_star == 1.0

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            sc = ScalarScenario(
                power=1.0,
                gain_c=float(rng.uniform(0.2, 3.0)),
                gain_s=float(rng.uniform(0.2, 3.0)),
                noise_c=float(rng.uniform(0.05, 0.5)),
                noise_s=float(rng.uniform(0.05, 0.5)),
                prior_var=float(rng.uniform(0.5, 30.0)),
            )
            prob = make_problem(weight=float(rng.uniform(0.1, 0.9)),
                                c_ai=float(rng.uniform(1.0, 8.0)),
                                mode=rng.choice(["penalized", "convex"]),
                                scenario=sc, power=1.0)
            result = optimize_alpha(prob, 0.5)
            a_grid, _ = grid_argmax(prob, 2001)
            assert abs(result.alpha_star - a_grid) <= 2.0 / 2000.0

    def test_power_conservation(self):
        # P_c = alpha P and P_s = (1 - alpha) P add up to P for any alpha in
        # [0, 1]; the result holds alpha alone.
        prob = make_problem()
        result = optimize_alpha(prob, 0.4)
        assert 0.0 <= result.alpha_star <= 1.0
        assert result.alpha_star == closed_form_alpha(prob)


# A scenario whose interior trade-off is genuine: heavy sensing prior.
INTERIOR = ScalarScenario(power=1.0, gain_c=1.0, gain_s=1.0, noise_c=0.1,
                          noise_s=0.1, prior_var=50.0)


class TestKktSplit:
    def test_symmetric_problem(self):
        # Equal links and a prior tuned so both marginal values coincide at
        # the midpoint by symmetry of the construction below.
        prob = AllocationProblem(total_power=1.0, total_time=1.0, weight=0.5,
                                 budget=AiBudget(4.0), scenario=INTERIOR,
                                 mode="convex")
        p_c, p_s, resid = kkt_power_split(prob)
        assert math.isclose(p_c + p_s, 1.0, abs_tol=1e-12)
        assert resid <= 1e-8
        a_grid, _ = grid_argmax(prob, 10_001)
        assert abs(p_c - a_grid * 1.0) <= 1e-4

    def test_boundary_for_extreme_weight(self):
        prob = AllocationProblem(total_power=1.0, total_time=1.0, weight=0.999,
                                 budget=AiBudget(4.0), scenario=TABLE_I,
                                 mode="convex")
        p_c, _, _ = kkt_power_split(prob)
        assert p_c >= 0.999

    def test_boundary_where_objective_rounds_flat(self):
        # At power 1e-20 J(0) and J(1) both round to -0.3, while dJ/dP_c is
        # about +11.4 on the whole split, so the optimum is P_c = P.
        prob = make_problem(power=1e-20)
        assert objective(prob, 0.0) == objective(prob, 1.0)
        assert kkt_power_split(prob)[0] == 1e-20
        assert optimize_alpha(prob, 0.4).alpha_star == 1.0

    def test_flat_objective_ties_to_communication(self):
        # At 5e-324 bits both SNRs are 0 and dJ/d(alpha) is exactly 0 on the
        # whole split; Brent's reference returned the bracket end 1e-12,
        # where the closed form, like every tie, gives alpha = 1.
        prob = make_problem(c_ai=5e-324)
        assert prob.snrs == (0.0, 0.0)
        assert kkt_power_split(prob)[0] == prob.total_power
        assert optimize_alpha(prob, 0.5).alpha_star == 1.0

    def test_optimum_where_gain_times_latent_noise_overflows(self):
        # 1e8 times N_z = 2.4e300 overflowed, so both SNRs read 0 and the
        # optimum was that of two dead links, J* = -0.3. Both SNRs are
        # 1/kappa: alpha = 1 gives R = 0.5 bits and D = sigma^2 = 1.
        prob = make_problem(c_ai=0.5, power=1e300,
                            scenario=replace(TABLE_I, gain_c=1e8, gain_s=1e8))
        result = optimize_alpha(prob, 0.5)
        assert result.alpha_star == 1.0
        assert math.isclose(result.objective, 0.5 - 0.3, rel_tol=1e-12)

    def test_classical_limit_recovery(self):
        base = dict(total_power=1.0, total_time=1.0, weight=0.5,
                    scenario=INTERIOR, mode="convex")
        p_c30, _, _ = kkt_power_split(
            AllocationProblem(budget=AiBudget(30.0), **base))
        p_cinf, _, _ = kkt_power_split(
            AllocationProblem(budget=AiBudget(math.inf), **base))
        assert abs(p_c30 - p_cinf) <= 1e-6


class TestKktResidual:
    def test_residual_zero_at_root(self):
        prob = AllocationProblem(total_power=1.0, total_time=1.0, weight=0.5,
                                 budget=AiBudget(4.0), scenario=INTERIOR,
                                 mode="convex")
        p_c, _, resid = kkt_power_split(prob)
        assert resid <= 1e-8
        assert kkt_residual_check(prob, p_c) <= 1e-8

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            kkt_residual_check(make_problem(), 1.0)


def random_problem(rng):
    """Seeded problem over both modes, C in [0.3, 10] or inf, weight in
    [0, 1] with its ends drawn on purpose, and power from 1e-3 to 1e2."""
    power = float(10.0 ** rng.uniform(-3.0, 2.0))
    sc = ScalarScenario(
        power=power,
        gain_c=float(rng.uniform(0.2, 3.0)),
        gain_s=float(rng.uniform(0.2, 3.0)),
        noise_c=float(rng.uniform(0.05, 0.5)),
        noise_s=float(rng.uniform(0.05, 0.5)),
        prior_var=float(rng.uniform(0.5, 60.0)),
    )
    c_ai = math.inf if rng.random() < 0.2 else float(rng.uniform(0.3, 10.0))
    weight = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)],
                              p=[0.05, 0.05, 0.9]))
    return make_problem(weight=weight, c_ai=c_ai, scenario=sc, power=power,
                        mode=str(rng.choice(["penalized", "convex"])))


def sensing_share(prob):
    return _sensing_share(prob)


def closed_form_alpha(prob):
    return 1.0 - sensing_share(prob)


class TestClosedForm:
    def test_matches_brent_reference(self):
        rng = np.random.default_rng(61)
        interior = 0
        for _ in range(2500):
            prob = random_problem(rng)
            alpha = closed_form_alpha(prob)
            p_c, _, _ = kkt_power_split(prob)
            assert abs(alpha - p_c / prob.total_power) <= 1e-12
            interior += 1e-9 < alpha < 1.0 - 1e-9
        assert interior >= 500

    def test_objective_matches_grid_oracle(self):
        rng = np.random.default_rng(62)
        checked = 0
        while checked < 4:
            prob = random_problem(rng)
            alpha = closed_form_alpha(prob)
            if not 0.05 < alpha < 0.95:
                continue
            result = optimize_alpha(prob, 0.5)
            a_grid, j_grid = grid_argmax(prob, 10_001)
            assert abs(result.alpha_star - a_grid) <= 1e-4
            assert result.objective >= j_grid - 1e-15
            checked += 1

    def test_linear_edge_cases(self):
        # w_d = 0: all power to communication; w_r = 0: all to sensing.
        assert sensing_share(make_problem(weight=0.0)) == 0.0
        assert sensing_share(make_problem(weight=1.0, mode="convex")) == 0.0
        assert sensing_share(make_problem(weight=0.0, mode="convex")) == 1.0
        prob = make_problem(weight=0.0, mode="convex")
        assert optimize_alpha(prob, 0.5).alpha_star == 0.0

    @pytest.mark.parametrize("link, alpha", [("c", 0.0), ("s", 1.0)])
    def test_link_without_slope(self, link, alpha):
        # A gain of 5e-324 over a noise of 10 rounds the link's slope to 0:
        # all power goes to the other link.
        sc = ScalarScenario(power=0.01, gain_c=1.0, gain_s=1.0, noise_c=0.1,
                            noise_s=0.1, prior_var=1.0)
        sc = replace(sc, **{f"gain_{link}": 5e-324, f"noise_{link}": 10.0})
        assert optimize_alpha(make_problem(scenario=sc), 0.4).alpha_star == alpha

    def test_classical_limit(self):
        prob = make_problem(c_ai=math.inf, scenario=INTERIOR, power=1.0)
        result = optimize_alpha(prob, 0.5)
        assert 0.0 < result.alpha_star < 1.0
        assert result.kkt_residual <= 1e-12
        assert all(mi == math.inf for _, _, _, mi in result.trace)

    def test_trace_is_start_then_optimum(self):
        prob = make_problem(scenario=INTERIOR, power=1.0)
        result = optimize_alpha(prob, 0.25)
        assert [row[:2] for row in result.trace] == [(0, 0.25),
                                                     (1, result.alpha_star)]
        assert result.trace[1][2] == result.objective

    def test_start_at_optimum_never_descends(self):
        # Within about 1e-8 of the optimum J is flat below its rounding, so
        # J(alpha0) can read an ulp above J at the closed-form root.
        rng = np.random.default_rng(63)
        for _ in range(300):
            prob = random_problem(rng)
            alpha = closed_form_alpha(prob)
            for delta in (1e-9, -1e-9, 3e-12):
                a0 = min(1.0, max(0.0, alpha + delta))
                result = optimize_alpha(prob, a0)
                assert result.trace[1][2] >= result.trace[0][2]
                assert abs(result.alpha_star - alpha) <= 1e-8

    @pytest.mark.parametrize("power", [1e-300, 1e300])
    def test_extreme_power(self, power):
        prob = make_problem(scenario=INTERIOR, power=power)
        p_c, _, _ = kkt_power_split(prob)
        assert abs(closed_form_alpha(prob) - p_c / power) <= 1e-12

    def test_extreme_sensing_gain(self):
        sc = ScalarScenario(power=0.01, gain_c=1.0, gain_s=1e300, noise_c=0.1,
                            noise_s=0.1, prior_var=1.0)
        prob = make_problem(scenario=sc)
        result = optimize_alpha(prob, 0.4)
        a_grid, _ = grid_argmax(prob, 10_001)
        assert abs(result.alpha_star - a_grid) <= 1e-4
        assert result.trace[1][2] >= result.trace[0][2]

    def test_unresolvable_split_raises(self):
        # With no latent noise the optimal sensing share is about 5e-150:
        # positive, yet 1 - share rounds to 1.
        sc = ScalarScenario(power=0.01, gain_c=1.0, gain_s=1e300, noise_c=0.1,
                            noise_s=0.1, prior_var=1.0)
        prob = make_problem(c_ai=math.inf, scenario=sc)
        assert 0.0 < sensing_share(prob) < 1e-140
        with pytest.raises(DegenerateInputError):
            optimize_alpha(prob, 0.4)

    @pytest.mark.parametrize("gain_c, gain_s, prior_var", [
        (1.0, 1.0, 1e200), (1e300, 1e-10, 1.0)], ids=["b_squared", "ratio"])
    def test_overflowing_quadratic_falls_back_to_brent(self, gain_c, gain_s,
                                                       prior_var):
        # (k r)^2 or r = g_c / g_s overflows: the closed form gave share 0,
        # so alpha0 was kept (a prior of 1e200 wants alpha = 0), or nan.
        sc = ScalarScenario(power=1.0, gain_c=gain_c, gain_s=gain_s,
                            noise_c=1e-5, noise_s=0.1, prior_var=prior_var)
        prob = make_problem(c_ai=math.inf, scenario=sc, power=1.0)
        result = optimize_alpha(prob, 0.4)
        assert result.alpha_star == kkt_power_split(prob)[0]
        assert result.alpha_star == grid_argmax(prob, 101)[0]

    def test_distortion_slope_does_not_overflow(self):
        # A sensing SNR of 1e299 squares past the float range: the slope of
        # D is 0 there, not an OverflowError.
        sc = ScalarScenario(power=0.01, gain_c=1.0, gain_s=1e300, noise_c=0.1,
                            noise_s=0.1, prior_var=1.0)
        prob = make_problem(c_ai=math.inf, scenario=sc)
        assert math.isfinite(kkt_residual_check(prob, 0.0))
        assert math.isfinite(objective_gradient(prob, 0.0))


class TestProblem:
    @pytest.mark.parametrize("field", ["total_power", "total_time"])
    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
    def test_non_positive_total_rejected(self, field, value):
        # NaN passed `x <= 0`: a NaN power failed later with "invalid
        # bracket [nan, nan]", and a NaN time was accepted.
        with pytest.raises(ValueError,
                           match=f"{field.replace('_', ' ')} must be positive and finite"):
            replace(make_problem(), **{field: value})

    def test_snrs_computed_once(self, monkeypatch):
        calls = []

        def counted(sc, budget):
            calls.append(budget)
            return effective_snrs(sc, budget)

        monkeypatch.setattr(allocate, "effective_snrs", counted)
        prob = make_problem(scenario=INTERIOR, power=1.0)
        optimize_alpha(prob, 0.4)
        kkt_power_split(prob)
        kkt_residual_check(prob, 0.5)
        grid_argmax(prob, 101)
        objective_gradient(prob, 0.5)
        assert len(calls) == 1
        assert prob.snrs == effective_snrs(INTERIOR, AiBudget(4.0))

    def test_overflowing_snrs_raise_on_use(self):
        # g_c = 1e300 / 1e-300 overflows without latent noise: the problem
        # constructs, and every use of its SNRs raises.
        sc = replace(INTERIOR, gain_c=1e300, noise_c=1e-300)
        prob = make_problem(c_ai=math.inf, scenario=sc, power=1.0)
        for _ in range(2):
            with pytest.raises(DegenerateInputError, match="overflow"):
                prob.snrs
            with pytest.raises(DegenerateInputError, match="overflow"):
                optimize_alpha(prob, 0.4)

    @pytest.mark.parametrize("c_ai", [0.5, 4.0, 30.0, math.inf])
    @pytest.mark.parametrize("power", [1e-3, 1.0, 1e3])
    def test_trace_mi_is_that_of_the_snrs_noise(self, c_ai, power):
        # The MI in the trace is that of the closed-form latent noise
        # N_z = P/(2^C - 1), the noise the link SNRs are computed with.
        prob = make_problem(c_ai=c_ai, scenario=INTERIOR, power=power)
        mi = achieved_mi(power, equivalent_noise(prob.budget, power))
        assert [row[3] for row in optimize_alpha(prob, 0.4).trace] == [mi, mi]
        assert (mi == math.inf) == (c_ai == math.inf)
