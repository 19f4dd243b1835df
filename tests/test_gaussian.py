import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aiisac.bottleneck import AiBudget, equivalent_noise, kappa
from aiisac.errors import DegenerateInputError
from aiisac.gaussian import (
    PerfPoint,
    ScalarScenario,
    distortion,
    effective_snrs,
    latent_snrs,
    link_snrs,
    rate,
    scaling_gap,
)

UNIT = ScalarScenario(power=1.0, gain_c=1.0, gain_s=1.0, noise_c=0.1,
                      noise_s=0.1, prior_var=1.0)
TABLE_I = ScalarScenario(power=0.01, gain_c=1.0, gain_s=1.0, noise_c=0.1,
                         noise_s=0.1, prior_var=1.0)


class TestDomainChecks:
    @pytest.mark.parametrize("value", [math.nan, -1.0])
    @pytest.mark.parametrize("field, message", [
        ("power", "power must be positive"),
        ("gain_c", "communication gain must be >= 0 and finite"),
        ("gain_s", "sensing gain must be >= 0 and finite"),
        ("noise_c", "communication noise variance must be positive"),
        ("noise_s", "sensing noise variance must be positive"),
        ("prior_var", "prior variance must be positive"),
    ])
    def test_scenario_field_rejected(self, field, message, value):
        with pytest.raises(ValueError, match=message):
            replace(UNIT, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, -1.0, -5e-324, -math.inf])
    @pytest.mark.parametrize("field, message", [
        ("rate", "rate and distortion must be >= 0"),
        ("distortion", "rate and distortion must be >= 0"),
    ])
    def test_perf_point_field_rejected(self, field, message, value):
        with pytest.raises(ValueError, match=message):
            replace(PerfPoint(1.0, 1.0), **{field: value})


class TestEffectiveSnrs:
    def test_classical_limit(self):
        g_c, g_s = effective_snrs(UNIT, AiBudget(math.inf))
        assert math.isclose(g_c, 10.0) and math.isclose(g_s, 10.0)

    def test_unit_budget(self):
        g_c, _ = effective_snrs(UNIT, AiBudget(1.0))
        assert math.isclose(g_c, 1.0 / 1.1, rel_tol=1e-12)

    def test_blocked_link(self):
        sc = ScalarScenario(1.0, 0.0, 1.0, 0.1, 0.1, 1.0)
        assert effective_snrs(sc, AiBudget(2.0))[0] == 0.0

    def test_zero_budget_limit(self):
        assert effective_snrs(UNIT, AiBudget(0.0)) == (0.0, 0.0)

    def test_overflow_is_a_domain_error(self):
        sc = ScalarScenario(1e300, 1.0, 1.0, 1e-300, 1e-300, 1.0)
        with pytest.raises(DegenerateInputError, match="effective SNRs"):
            effective_snrs(sc, AiBudget(math.inf))


def _decades(lo: float, hi: float):
    """Floats 10^e for e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def _power_and_capacity(draw):
    """(P, C) over the whole range, or, half the time, in the corner where
    P kappa overflows: a power past 1e296 W and a capacity below 1e-9 bits."""
    if draw(st.booleans()):
        return draw(_decades(296.0, 308.0)), draw(_decades(-12.0, -9.0))
    return (draw(_decades(-300.0, 308.0)),
            draw(st.one_of(_decades(-12.0, 3.0), st.just(math.inf))))


_GAIN = st.one_of(st.just(0.0), _decades(-300.0, 300.0))
_NOISE = _decades(-300.0, 300.0)


class TestLatentSnrs:
    # kappa at 1e-10 bits, where P kappa overflows from P = 1.3e298 on.
    KAP = kappa(AiBudget(1e-10))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(pc=_power_and_capacity(), gains=st.tuples(_GAIN, _GAIN),
           noises=st.tuples(_NOISE, _NOISE))
    # g N_z overflows where P kappa does not: the SNR read 0.
    @example(pc=(1e300, 0.5), gains=(1e8, 1.0), noises=(0.1, 0.1))
    # g P overflows: the SNR read nan (inf / inf), an error.
    @example(pc=(1e181, 1.0), gains=(0.0, 1e128), noises=(1.0, 1.0))
    def test_effective_snrs_are_the_link_or_its_saturation(self, pc, gains, noises):
        power, c = pc
        sc = ScalarScenario(power, *gains, *noises, 1.0)
        budget = AiBudget(c)
        kap = kappa(budget)
        nz = power * kap
        # Per link: the link form, bit for bit, where its products g P, P kappa
        # and g N_z and its denominator N + g N_z are finite (or at C = inf),
        # else the saturating form within 1e-12; an error where an SNR is
        # not finite.
        want = []
        for s, g, n in zip(link_snrs(sc, nz), gains, noises):
            if kap == 0 or all(x < math.inf for x in (g * power, nz, g * nz, n + g * nz)):
                want.append((s, True))
            else:
                want.append((1.0 / (n / (g * power) + kap) if g else 0.0, False))
        if not all(math.isfinite(w) for w, _ in want):
            with pytest.raises(DegenerateInputError, match="effective SNRs"):
                effective_snrs(sc, budget)
            return
        for got, (w, exact) in zip(effective_snrs(sc, budget), want):
            assert got == w if exact else math.isclose(got, w, rel_tol=1e-12)

    def test_saturates_where_the_latent_noise_overflows(self):
        # N_z = P kappa overflowed to inf, and both SNRs read 0.
        big, less = (ScalarScenario(p, 1.0, 2.0, 1.0, 1.0, 1.0) for p in (1e300, 1e290))
        assert link_snrs(big, big.power * self.KAP) == (0.0, 0.0)
        for got, want in zip(latent_snrs(big, self.KAP), latent_snrs(less, self.KAP)):
            assert math.isclose(got, want, rel_tol=1e-12)
            assert math.isclose(got, 1.0 / self.KAP, rel_tol=1e-12)

    def test_blocked_and_huge_gains_past_the_overflow(self):
        # A gain times kappa that overflows still saturates at 1/kappa.
        sc = ScalarScenario(1e300, 0.0, 1e300, 1.0, 1.0, 1.0)
        assert latent_snrs(sc, self.KAP) == (0.0, 1.0 / self.KAP)

    def test_gain_times_latent_noise_overflows(self):
        # P kappa = 2.4e300 is finite, but 1e8 times it is not: the
        # communication SNR read 0, where it is 1/kappa = 0.414 to 1e-9.
        sc = ScalarScenario(1e300, 1e8, 1.0, 0.1, 0.1, 1.0)
        g_c, g_s = effective_snrs(sc, AiBudget(0.5))
        assert math.isclose(g_c, 1.0 / kappa(AiBudget(0.5)), rel_tol=1e-12)
        assert g_s == link_snrs(sc, equivalent_noise(AiBudget(0.5), 1e300))[1]

    def test_infinite_kappa_with_an_underflowing_gain_times_power(self):
        # kappa is inf at 5e-324 bits, and g P = 1e-330 underflows to 0: the
        # saturating form raised ZeroDivisionError.
        sc = ScalarScenario(1e-300, 1e-30, 1.0, 1.0, 1.0, 1.0)
        assert effective_snrs(sc, AiBudget(5e-324)) == (0.0, 0.0)


class TestRateAndDistortion:
    def test_classical_rate(self):
        assert math.isclose(rate(UNIT, AiBudget(math.inf)), math.log2(11.0),
                            rel_tol=1e-12)

    def test_unit_budget_rate(self):
        assert math.isclose(rate(UNIT, AiBudget(1.0)), math.log2(1.0 + 1 / 1.1),
                            rel_tol=1e-12)

    def test_distortion_values(self):
        assert math.isclose(distortion(UNIT, AiBudget(1.0)), 1.0 / (1 + 1 / 1.1),
                            rel_tol=1e-12)
        assert distortion(UNIT, AiBudget(0.0)) == UNIT.prior_var

    def test_monotone_in_budget(self):
        grid = np.linspace(0.25, 10.0, 40)
        rates = [rate(UNIT, AiBudget(float(c))) for c in grid]
        dists = [distortion(UNIT, AiBudget(float(c))) for c in grid]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_high_budget_reaches_classical(self):
        assert abs(rate(TABLE_I, AiBudget(30.0))
                   - rate(TABLE_I, AiBudget(math.inf))) <= 1e-6

    def test_self_consistency_with_info_map(self):
        budget = AiBudget(3.0)
        _, g_s = effective_snrs(UNIT, budget)
        assert math.isclose(
            distortion(UNIT, budget),
            UNIT.prior_var * 2.0 ** -math.log2(1.0 + g_s),
            rel_tol=1e-14,
        )


class TestScalingGap:
    def test_slope_near_minus_one(self):
        slope = scaling_gap(TABLE_I, [4.0, 5.0, 6.0, 7.0, 8.0])
        assert -1.15 <= slope <= -0.85

    def test_infinite_point_rejected(self):
        with pytest.raises(ValueError):
            scaling_gap(TABLE_I, [4.0, 5.0, 6.0, math.inf])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            scaling_gap(TABLE_I, [4.0, 5.0, 6.0])

    def test_degenerate_gap(self):
        sc = ScalarScenario(1.0, 0.0, 1.0, 0.1, 0.1, 1.0)
        with pytest.raises(DegenerateInputError, match="rate gap must be positive"):
            scaling_gap(sc, [4.0, 5.0, 6.0, 7.0])
