"""Acceptance gate: the twelve release criteria, one pass/fail line each.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and then asserts, so the suite is both a
report and a gate.  Tolerances are fixed here and must not be loosened.
"""
import math
import subprocess
import sys

import numpy as np
import pytest

from aiisac.allocate import (
    AllocationProblem,
    grid_argmax,
    kkt_power_split,
    kkt_residual_check,
    objective,
    objective_gradient,
    optimize_alpha,
)
from aiisac.bottleneck import (
    AiBudget,
    covariance_map,
    enforce_mi_numerically,
    equivalent_noise,
    gaussian_mi,
    gaussian_mis,
    kappa,
)
from aiisac.cli import mimo_power_scales, mimo_template
from aiisac.config import RunConfig
from aiisac.fading import (
    FadingModel,
    conditional_snr,
    ergodic_distortion,
    ergodic_rate,
    monte_carlo_oracle,
    rayleigh_rate_exact,
)
from aiisac.gaussian import ScalarScenario, scaling_gap
from aiisac.gaussian import rate as scalar_rate
from aiisac.mimo import MimoScenario, mimo_rate, rate_surface
from aiisac.numerics import QuadratureRule, RandomStream
from aiisac.region import frontier, separated_baseline

TABLE_I = ScalarScenario(power=0.01, gain_c=1.0, gain_s=1.0, noise_c=0.1,
                         noise_s=0.1, prior_var=1.0)

RULE = QuadratureRule(128)


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status} — {detail}")


def test_criterion_01_quadrature_accuracy():
    """Order-20 vs order-80 Gauss-Laguerre rates agree within 1e-4."""
    r20, r80 = QuadratureRule(20), QuadratureRule(80)
    worst = 0.0
    for g_db in np.linspace(-5.0, 25.0, 31):
        gamma = 10 ** (g_db / 10)
        for c in (0.5, 1.0, 2.0, 4.0, 8.0):
            kap = kappa(AiBudget(c))
            dev = abs(ergodic_rate(gamma, kap, 0.0, r20)
                      - ergodic_rate(gamma, kap, 0.0, r80))
            worst = max(worst, dev)
    passed = worst <= 1e-4
    report(1, passed, f"max |M=20 − M=80| = {worst:.3e}, tol 1e-4")
    assert passed, f"quadrature deviation {worst:.3e} exceeds 1e-4"


def test_criterion_02_rayleigh_closed_form_anchor():
    """Quadrature matches the exponential-integral closed form at SNR 10."""
    got = ergodic_rate(10.0, 0.0, 0.0, RULE)
    want = rayleigh_rate_exact(10.0, 0.0)
    dev = abs(got - want)
    passed = dev <= 1e-6
    report(2, passed, f"|quad − e^(1/10)E1(1/10)/ln2| = {dev:.3e}, tol 1e-6")
    assert passed


def test_criterion_03_monte_carlo_agreement():
    """Quadrature vs a 1e7-sample seeded oracle within 3e-3."""
    k6 = 10 ** 0.6
    worst_r = worst_d = 0.0
    stream = RandomStream(seed=20240817, stream=0)
    idx = 0
    for g_db in (0.0, 10.0, 20.0):
        gamma = 10 ** (g_db / 10)
        for c in (1.0, 4.0, 8.0):
            kap = kappa(AiBudget(c))
            for model in (FadingModel("rayleigh"),
                          FadingModel("rician", k_factor=k6)):
                est = monte_carlo_oracle(model, gamma, kap, 1.0, 10_000_000,
                                         stream.split(idx))
                idx += 1
                if model.kind == "rayleigh":
                    qr = ergodic_rate(gamma, kap, 0.0, RULE)
                    qd = ergodic_distortion(gamma, kap, 0.0, 1.0, RULE)
                else:
                    qr = ergodic_rate(gamma, kap, k6, RULE)
                    qd = ergodic_distortion(gamma, kap, k6, 1.0, RULE)
                worst_r = max(worst_r, abs(est.rate - qr))
                worst_d = max(worst_d, abs(est.distortion - qd))
    passed = worst_r <= 3e-3 and worst_d <= 3e-3
    report(3, passed,
           f"max rate dev {worst_r:.3e}, max distortion dev {worst_d:.3e}, tol 3e-3")
    assert passed


def test_criterion_04_covariance_map_equality_and_min_trace():
    """The latent-noise mapping meets its budget exactly and is min-trace."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, n + 1))
        a = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        q = a @ a.conj().T
        c = float(rng.choice(np.arange(0.5, 8.5, 0.5)))
        worst = max(worst, abs(gaussian_mi(q, covariance_map(q, c)) - c))
    mi_ok = worst <= 1e-9

    # Isotropic rank-2 spectrum: the only regime where the proportional
    # mapping is also the true trace minimizer (see the bottleneck tests
    # for the skew-spectrum counterexample).
    q = np.diag([2.0, 2.0])
    c = 3.0
    t_star = float(np.real(np.trace(covariance_map(q, c))))
    grid = np.geomspace(1e-3, 10.0, 150)
    n1, n2 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    rzs = np.zeros((n1.size, 2, 2), complex)
    rzs[:, 0, 0], rzs[:, 1, 1] = n1, n2
    mis = gaussian_mis(np.broadcast_to(q.astype(complex), rzs.shape), rzs)
    min_feasible = float(np.min((n1 + n2)[mis <= c], initial=math.inf))
    trace_ok = t_star <= min_feasible + (grid[1] - grid[0])
    passed = mi_ok and trace_ok
    report(4, passed,
           f"max MI dev {worst:.3e} (tol 1e-9); trace {t_star:.6f} vs grid "
           f"min {min_feasible:.6f}")
    assert passed


def test_criterion_05_scaling_law_slope():
    """The rate gap decays like 2^(−C): fitted slope near −1."""
    slope = scaling_gap(TABLE_I, [4.0, 5.0, 6.0, 7.0, 8.0])
    passed = -1.15 <= slope <= -0.85
    report(5, passed, f"fitted slope {slope:.4f}, required [−1.15, −0.85]")
    assert passed


def test_criterion_06_fading_ordering():
    """Rician(K=6dB) ≥ AWGN ≥ Rayleigh in rate, reversed in distortion."""
    k6 = 10 ** 0.6
    gamma = TABLE_I.gain_c * TABLE_I.power / TABLE_I.noise_c
    ok = True
    for c in np.arange(0.25, 8.25, 0.25):
        kap = kappa(AiBudget(float(c)))
        r_awgn = math.log2(1 + conditional_snr(1.0, gamma, kap))
        r_ray = ergodic_rate(gamma, kap, 0.0, RULE)
        r_ric = ergodic_rate(gamma, kap, k6, RULE)
        d_awgn = 1.0 / (1 + conditional_snr(1.0, gamma, kap))
        d_ray = ergodic_distortion(gamma, kap, 0.0, 1.0, RULE)
        d_ric = ergodic_distortion(gamma, kap, k6, 1.0, RULE)
        ok &= r_ric >= r_awgn - 1e-12 >= r_ray - 2e-12
        ok &= r_awgn >= r_ray - 1e-12
        ok &= d_ric <= d_awgn + 1e-12 <= d_ray + 2e-12
        ok &= d_awgn <= d_ray + 1e-12
    report(6, ok, "R_Ric ≥ R_AWGN ≥ R_Rayleigh and D reversed on full c grid")
    assert ok


def test_criterion_07_frontier_nesting_and_baseline():
    """Frontiers nest in the budget; joint beats time-sharing baseline."""
    budgets = [0.5, 2.0, 4.0, 6.0]
    fronts = [frontier(TABLE_I, AiBudget(c)) for c in budgets]
    nested = all(
        np.all(hi.rates >= lo.rates - 1e-12)
        and np.all(hi.distortions <= lo.distortions + 1e-12)
        for lo, hi in zip(fronts, fronts[1:])
    )
    f12 = frontier(TABLE_I, AiBudget(12.0))
    finf = frontier(TABLE_I, AiBudget(math.inf))
    conv_r = float(np.max(np.abs(f12.rates - finf.rates)))
    conv_d = float(np.max(np.abs(f12.distortions - finf.distortions)))
    converged = conv_r <= 1e-3 and conv_d <= 1e-3 * TABLE_I.prior_var

    budget = AiBudget(4.0)
    front = frontier(TABLE_I, budget)
    base = separated_baseline(frontier(TABLE_I, budget))
    wins = total = 0
    for bp in base.points[1:-1]:
        ok = front.distortions <= bp.distortion + 1e-15
        if not np.any(ok):
            continue
        total += 1
        wins += float(np.max(front.rates[ok])) >= bp.rate - 1e-12
    frac = wins / total
    passed = nested and converged and frac >= 0.95
    report(7, passed,
           f"nested {nested}; c=12 vs inf dev ({conv_r:.2e}, {conv_d:.2e}) "
           f"tol 1e-3; joint wins {frac:.1%} ≥ 95%")
    assert passed


def test_criterion_08_mimo_surface():
    """Rate surface monotone, scalar-consistent, and saturating by 6 bits."""
    cfg = RunConfig()
    c_grid = [0.5 * i for i in range(1, 17)]
    scales = mimo_power_scales(cfg.snr_axis_db())
    template = mimo_template(cfg)
    surf = rate_surface(template.h_c, template.r_c, template.q, c_grid, scales)
    monotone = (np.all(np.diff(surf, axis=0) >= -1e-12)
                and np.all(np.diff(surf, axis=1) >= -1e-12))

    rng = np.random.default_rng(8)
    scalar_dev = 0.0
    for _ in range(10):
        p, g, n = (float(v) for v in rng.uniform(0.1, 10.0, size=3))
        c = float(rng.uniform(0.5, 8.0))
        sc = MimoScenario(h_c=np.array([[math.sqrt(g)]]),
                          h_s=np.array([[1.0]]), q=np.array([[p]]),
                          r_c=np.array([[n]]), r_s=np.array([[1.0]]),
                          dmu=np.array([1.0]), budget=AiBudget(c))
        ref = scalar_rate(ScalarScenario(p, g, g, n, n, 1.0), AiBudget(c))
        scalar_dev = max(scalar_dev, abs(mimo_rate(sc) - ref))

    j20 = round((20.0 - cfg.snr_min_db) / cfg.snr_step_db)
    i6, i8 = c_grid.index(6.0), c_grid.index(8.0)
    gain = (surf[i8, j20] - surf[i6, j20]) / surf[i6, j20]
    passed = monotone and scalar_dev <= 1e-12 and gain < 0.05
    report(8, passed,
           f"monotone {monotone}; scalar dev {scalar_dev:.2e} tol 1e-12; "
           f"6→8-bit gain at 20 dB {gain:.2%} < 5%")
    assert passed


def test_criterion_09_theory_vs_achieved():
    """Numerically-enforced latent noise reproduces the closed forms."""
    alpha = 0.6
    worst = 0.0
    for c in np.arange(0.5, 8.5, 0.5):
        nz_cf = equivalent_noise(AiBudget(float(c)), TABLE_I.power)
        nz_num = enforce_mi_numerically(TABLE_I.power, float(c), tol=1e-12)

        def perf(nz):
            gc = (TABLE_I.gain_c * alpha * TABLE_I.power
                  / (TABLE_I.noise_c + TABLE_I.gain_c * nz))
            gs = (TABLE_I.gain_s * (1 - alpha) * TABLE_I.power
                  / (TABLE_I.noise_s + TABLE_I.gain_s * nz))
            return math.log2(1 + gc), TABLE_I.prior_var / (1 + gs)

        r1, d1 = perf(nz_cf)
        r2, d2 = perf(nz_num)
        worst = max(worst, abs(r1 - r2), abs(d1 - d2))
    passed = worst <= 1e-9
    report(9, passed, f"max |theory − achieved| = {worst:.3e}, tol 1e-9")
    assert passed


def test_criterion_10_optimizer_convergence():
    """Reference allocation run: alpha → 1, MI pinned, objective ascending."""
    prob = AllocationProblem(total_power=TABLE_I.power, total_time=1.0,
                             weight=0.3, budget=AiBudget(4.0),
                             scenario=TABLE_I, mode="penalized")
    result = optimize_alpha(prob, 0.4)
    alpha_err = abs(result.alpha_star - 1.0)
    mi_dev = max(abs(mi - 4.0) for _, _, _, mi in result.trace)
    objs = [j for _, _, j, _ in result.trace]
    ascending = all(b >= a for a, b in zip(objs, objs[1:]))
    passed = alpha_err <= 2e-3 and mi_dev <= 1e-9 and ascending
    report(10, passed,
           f"|alpha−1| = {alpha_err:.2e} (tol 2e-3, {len(result.trace)-1} "
           f"iters); MI dev {mi_dev:.2e} (tol 1e-9); ascent {ascending}")
    assert passed


def test_criterion_11_kkt_correctness():
    """Analytic gradients, grid-oracle agreement, and the classical limit."""
    rng = np.random.default_rng(11)
    grad_ok = True
    worst_rel = 0.0
    for _ in range(20):
        sc = ScalarScenario(1.0, float(rng.uniform(0.2, 3)),
                            float(rng.uniform(0.2, 3)),
                            float(rng.uniform(0.05, 0.5)),
                            float(rng.uniform(0.05, 0.5)),
                            float(rng.uniform(0.5, 30)))
        prob = AllocationProblem(total_power=1.0, total_time=1.0,
                                 weight=float(rng.uniform(0.1, 0.9)),
                                 budget=AiBudget(float(rng.uniform(0.5, 8))),
                                 scenario=sc, mode="convex")
        a = float(rng.uniform(0.05, 0.95))
        h = 1e-5
        fd = (objective(prob, a + h) - objective(prob, a - h)) / (2 * h)
        an = objective_gradient(prob, a)
        rel = abs(an - fd) / max(abs(fd), 1e-12)
        worst_rel = max(worst_rel, rel)
    grad_ok = worst_rel <= 1e-6

    heavy = ScalarScenario(1.0, 1.0, 1.0, 0.1, 0.1, 50.0)
    prob = AllocationProblem(total_power=1.0, total_time=1.0, weight=0.5,
                             budget=AiBudget(4.0), scenario=heavy,
                             mode="convex")
    p_c, _, _ = kkt_power_split(prob)
    a_grid, _ = grid_argmax(prob, 10_001)
    grid_ok = abs(p_c - a_grid) <= 1e-4

    p_c30, _, _ = kkt_power_split(
        AllocationProblem(total_power=1.0, total_time=1.0, weight=0.5,
                          budget=AiBudget(30.0), scenario=heavy,
                          mode="convex"))
    p_cinf, _, _ = kkt_power_split(
        AllocationProblem(total_power=1.0, total_time=1.0, weight=0.5,
                          budget=AiBudget(math.inf), scenario=heavy,
                          mode="convex"))
    limit_ok = abs(p_c30 - p_cinf) <= 1e-6
    passed = grad_ok and grid_ok and limit_ok
    report(11, passed,
           f"grad rel dev {worst_rel:.2e} tol 1e-6; |kkt − grid| = "
           f"{abs(p_c - a_grid):.2e} tol 1e-4; classical-limit dev "
           f"{abs(p_c30 - p_cinf):.2e} tol 1e-6")
    assert passed


def test_criterion_12_determinism(tmp_path):
    """Repeated runs with one seed produce byte-identical outputs."""
    outputs = []
    for tag in ("a", "b"):
        report_path = tmp_path / f"report_{tag}.txt"
        csv_path = tmp_path / f"sweep_{tag}.csv"
        r1 = subprocess.run(
            [sys.executable, "-m", "aiisac.cli", "verify", "--out",
             str(report_path), "--seed", "123"], capture_output=True)
        r2 = subprocess.run(
            [sys.executable, "-m", "aiisac.cli", "gaussian-sweep", "--out",
             str(csv_path), "--seed", "123"], capture_output=True)
        assert r1.returncode == 0 and r2.returncode == 0
        outputs.append((report_path.read_bytes(), csv_path.read_bytes()))
    passed = outputs[0] == outputs[1]
    report(12, passed, "verify report and sweep CSV byte-identical across runs")
    assert passed
