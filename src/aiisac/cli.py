"""Command-line front end: sweeps and optimizations emitted as CSV.

Subcommands: gaussian-sweep, frontier, mimo-surface, allocate, verify.
All outputs are deterministic given the config and seed; floats are
written with 17 significant digits so files round-trip bit-exactly.
"""
from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import allocate as alloc_mod
from . import fading, region
from .bottleneck import (
    AiBudget,
    achieved_mi,
    covariance_map,
    enforce_mi_numerically,
    equivalent_noise,
    gaussian_mi,
    kappa,
)
from .config import PRESETS, RunConfig, db_to_linear, parse_config, preset_config
from .errors import AiIsacError, ConfigError
from .gaussian import ScalarScenario
from .mimo import MimoScenario, rate_surface
from .numerics import QuadratureRule, RandomStream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

FRONTIER_BUDGETS = (0.5, 2.0, 4.0, 6.0, math.inf)

# Capacities of the mimo-surface rows and of verify's closed-form check.
HALF_BIT_BUDGETS = tuple(0.5 * i for i in range(1, 17))


def _emit(path: str | None, lines: list[str]) -> None:
    """Write the lines, newline-terminated, to path or to stdout if None."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _write_csv(path: str | None, header_comment: str, columns: list[str],
               rows: Iterable[tuple]) -> None:
    """One CSV: every cell of the row tuples as %.17g (0 -> "0", inf -> "inf")."""
    template = ",".join(["%.17g"] * len(columns))
    _emit(path, [f"# {header_comment}", ",".join(columns),
                 *(template % row for row in rows)])


def _scenario(cfg: RunConfig) -> ScalarScenario:
    return ScalarScenario(
        power=cfg.power,
        gain_c=cfg.gain_c,
        gain_s=cfg.gain_s,
        noise_c=cfg.noise_c,
        noise_s=cfg.noise_s,
        prior_var=cfg.prior_var,
    )


def _axis(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... over round((hi - lo) / step) steps."""
    return [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]


def _header(cfg: RunConfig) -> str:
    return f"preset = {cfg.preset}, seed = {cfg.seed}"


def cmd_gaussian_sweep(cfg: RunConfig, out: str | None) -> int:
    rule = QuadratureRule(cfg.quadrature_order)
    g_c, g_s = cfg.mean_snr_c(), cfg.mean_snr_s()
    k, pv = cfg.rician_k, cfg.prior_var
    c_grid = _axis(cfg.c_min, cfg.c_max, cfg.c_step)
    # c = 0 can only open the grid: no capacity, so rate 0 and the prior
    # variance as distortion.
    rows = [(c_grid[0], 0.0, 0.0, 0.0, pv, pv, pv)] if c_grid[0] == 0.0 else []
    c_pos = c_grid[len(rows):]
    if c_pos:
        # One call per column, over every capacity c > 0 at once.
        kaps = np.array([kappa(AiBudget(c)) for c in c_pos])
        cols = [
            fading.conditional_snr(1.0, g_c, kaps),
            fading.ergodic_rate_rayleigh(g_c, kaps, rule),
            fading.ergodic_rate_rician(g_c, kaps, k, rule),
            fading.conditional_snr(1.0, g_s, kaps),
            fading.ergodic_distortion_rayleigh(g_s, kaps, pv, rule),
            fading.ergodic_distortion_rician(g_s, kaps, k, pv, rule),
        ]
        for c, snr_c, r_ray, r_ric, snr_s, d_ray, d_ric in zip(
                c_pos, *(col.tolist() for col in cols)):
            rows.append((c, math.log2(1.0 + snr_c), r_ray, r_ric,
                         pv / (1.0 + snr_s), d_ray, d_ric))
    _write_csv(out, _header(cfg),
               ["c_ai", "rate_awgn", "rate_rayleigh", "rate_rician",
                "dist_awgn", "dist_rayleigh", "dist_rician"], rows)
    return EXIT_OK


def cmd_frontier(cfg: RunConfig, out: str | None) -> int:
    sc = _scenario(cfg)
    rows = []
    for c in FRONTIER_BUDGETS:
        budget = AiBudget(c)
        front = region.frontier(sc, budget)
        base = region.separated_baseline(sc, budget)
        alphas = front.alphas.tolist()
        rows += zip([c] * len(alphas), alphas, front.rates().tolist(),
                    front.distortions().tolist(), base.rates().tolist(),
                    base.distortions().tolist())
    _write_csv(out, _header(cfg),
               ["c_ai", "alpha", "rate", "distortion", "baseline_rate",
                "baseline_distortion"], rows)
    return EXIT_OK


def mimo_template(cfg: RunConfig) -> MimoScenario:
    """Isotropic identity-channel template used by the rate surface."""
    n = cfg.mimo_nt
    eye = np.eye(n)
    return MimoScenario(
        h_c=eye,
        h_s=eye,
        q=(cfg.power / n) * eye,
        r_c=cfg.noise_c * eye,
        r_s=cfg.noise_s * eye,
        dmu=np.ones(n),
        budget=AiBudget(math.inf),
    )


def mimo_power_scales(cfg: RunConfig) -> list[float]:
    """Power multipliers for the dB axis, anchored so the 10 dB point is
    the preset's nominal power."""
    return [db_to_linear(snr - 10.0)
            for snr in _axis(cfg.snr_min_db, cfg.snr_max_db, cfg.snr_step_db)]


def cmd_mimo_surface(cfg: RunConfig, out: str | None) -> int:
    snr_db = _axis(cfg.snr_min_db, cfg.snr_max_db, cfg.snr_step_db)
    surface = rate_surface(mimo_template(cfg), HALF_BIT_BUDGETS,
                           mimo_power_scales(cfg))
    rows = [(c, snr, rate) for c, rates in zip(HALF_BIT_BUDGETS, surface.tolist())
            for snr, rate in zip(snr_db, rates)]
    _write_csv(out, _header(cfg), ["c_ai", "snr_db", "rate"], rows)
    return EXIT_OK


def _allocation_problem(cfg: RunConfig) -> alloc_mod.AllocationProblem:
    return alloc_mod.AllocationProblem(
        total_power=cfg.power,
        total_time=1.0,
        weight=cfg.weight,
        budget=AiBudget(cfg.alloc_c_ai),
        scenario=_scenario(cfg),
    )


def cmd_allocate(cfg: RunConfig, out: str | None) -> int:
    result = alloc_mod.optimize_alpha(_allocation_problem(cfg), cfg.alpha0)
    summary = (f"{_header(cfg)} | alpha_star = {result.alpha_star:.17g}, "
               f"J_star = {result.objective:.17g}, "
               f"kkt_residual = {result.kkt_residual:.17g}")
    _write_csv(out, summary, ["iteration", "alpha", "objective", "achieved_mi"],
               result.trace)
    return EXIT_OK


def _verify_checks(cfg: RunConfig) -> list[tuple[str, float, float, bool]]:
    """(name, observed, tolerance, passed) for every verification check."""
    checks = []
    sc = _scenario(cfg)

    # Closed-form vs numerically-enforced latent noise at a 0.6 power split.
    alpha = cfg.alpha_verify

    def perf(nz: float) -> tuple[float, float]:
        gc = sc.gain_c * alpha * sc.power / (sc.noise_c + sc.gain_c * nz)
        gs = sc.gain_s * (1 - alpha) * sc.power / (sc.noise_s + sc.gain_s * nz)
        return math.log2(1 + gc), sc.prior_var / (1 + gs)

    dev = 0.0
    for c in HALF_BIT_BUDGETS:
        nz_cf = equivalent_noise(AiBudget(c), cfg.power)
        nz_num = enforce_mi_numerically(cfg.power, c, tol=1e-12)
        r1, d1 = perf(nz_cf)
        r2, d2 = perf(nz_num)
        dev = max(dev, abs(r1 - r2), abs(d1 - d2))
    checks.append(("theory_vs_achieved_max_dev", dev, 1e-9, dev <= 1e-9))

    # Latent-noise covariance mapping hits its budget exactly.
    rng = RandomStream(seed=cfg.seed, stream=7).generator()
    mi_dev = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q = a @ a.conj().T
        c = float(rng.uniform(0.5, 8.0))
        mi_dev = max(mi_dev, abs(gaussian_mi(q, covariance_map(q, c)) - c))
    checks.append(("covariance_map_mi_max_dev", mi_dev, 1e-9, mi_dev <= 1e-9))

    # Rayleigh quadrature against the exponential-integral closed form.
    rule = QuadratureRule(128)
    g = cfg.mean_snr_c()
    anchor_dev = abs(fading.ergodic_rate_rayleigh(g, 0.0, rule)
                     - fading.rayleigh_rate_exact(g, 0.0))
    checks.append(("rayleigh_anchor_dev", anchor_dev, 1e-6, anchor_dev <= 1e-6))

    # Frontier nesting across capacity budgets.
    fronts = [region.frontier(sc, AiBudget(c)) for c in FRONTIER_BUDGETS[:-1]]
    worst = 0.0
    for lo, hi in zip(fronts, fronts[1:]):
        worst = max(worst, float(np.max(lo.rates() - hi.rates())),
                    float(np.max(hi.distortions() - lo.distortions())))
    checks.append(("frontier_nesting_violation", worst, 1e-12, worst <= 1e-12))

    # Closed-form optimizer against the Brent KKT split, and constraint satisfaction.
    problem = _allocation_problem(cfg)
    result = alloc_mod.optimize_alpha(problem, cfg.alpha0)
    alpha_kkt = alloc_mod.kkt_power_split(problem)[0] / problem.total_power
    alpha_err = abs(result.alpha_star - alpha_kkt)
    checks.append(("optimizer_alpha_err", alpha_err, 2e-3, alpha_err <= 2e-3))
    # At alloc_c_ai = inf the achieved MI is inf too, and inf - inf is nan.
    mi_err = max((abs(mi - cfg.alloc_c_ai) for _, _, _, mi in result.trace
                  if mi != cfg.alloc_c_ai), default=0.0)
    checks.append(("optimizer_mi_max_dev", mi_err, 1e-9, mi_err <= 1e-9))
    objs = [j for _, _, j, _ in result.trace]
    descent = max((a - b for a, b in zip(objs, objs[1:])), default=0.0)
    checks.append(("objective_max_decrease", max(descent, 0.0), 0.0,
                   descent <= 0.0))
    return checks


def cmd_verify(cfg: RunConfig, out: str | None) -> int:
    checks = _verify_checks(cfg)
    ok = all(passed for *_, passed in checks)
    _emit(out, [f"# {_header(cfg)}",
                *(f"{'PASS' if passed else 'FAIL'} {name}: observed = {observed:.17g}, "
                  f"tolerance = {tol:.17g}" for name, observed, tol, passed in checks),
                "all checks passed" if ok else "one or more checks FAILED"])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="aiisac",
        description="Learning-constrained ISAC performance sweeps (CSV output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gaussian-sweep", "frontier", "mimo-surface", "allocate",
                 "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to key = value config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quadrature-order", type=int, default=None)
        p.add_argument("--preset", choices=PRESETS, default=None)
    return parser


_COMMANDS = {
    "gaussian-sweep": cmd_gaussian_sweep,
    "frontier": cmd_frontier,
    "mimo-surface": cmd_mimo_surface,
    "allocate": cmd_allocate,
    "verify": cmd_verify,
}


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = preset_config(args.preset) if args.preset else RunConfig()
    if args.config is not None:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"), base=cfg)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.quadrature_order is not None:
        overrides["quadrature_order"] = args.quadrature_order
    return replace(cfg, **overrides) if overrides else cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](cfg, args.out)
    except AiIsacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
