"""Command-line front end: sweeps and optimizations emitted as CSV.

Commands: gaussian-sweep, frontier, mimo-surface, allocate, verify; each
takes the same options, before or after the command, as --opt value or
--opt=value, abbreviated to any unique prefix; the last of a repeated
option wins. --config reads a key = value file, --out names the output
file (default stdout). All outputs are deterministic given the config and
seed; floats are written with 17 significant digits so files round-trip
bit-exactly.
"""
from __future__ import annotations

import getopt
import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import replace

import numpy as np

from . import allocate as alloc_mod
from . import fading, region
from .bottleneck import (
    AiBudget,
    _hermitian_part,
    _kappa,
    enforce_mi_numerically,
    kappa,
    proportional_map_mis,
)
from .config import PRESETS, RunConfig, db_to_linear, parse_config, preset_config
from .errors import AiIsacError, ConfigError
from .gaussian import (ScalarScenario, latent_snrs, link_snrs, split_distortion,
                       split_rate)
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
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def _write_csv(path: str | None, header_comment: str, columns: list[str],
               rows: Iterable[tuple]) -> None:
    """One CSV: every cell of the row tuples as %.17g (0 -> "0", inf -> "inf")."""
    template = ",".join(["%.17g"] * len(columns))
    _emit(path, [f"# {header_comment}", ",".join(columns),
                 *(template % row for row in rows)])


def _scenario(cfg: RunConfig) -> ScalarScenario:
    return ScalarScenario(cfg.power, cfg.gain_c, cfg.gain_s, cfg.noise_c,
                          cfg.noise_s, cfg.prior_var)


def _header(cfg: RunConfig) -> str:
    return f"preset = {cfg.preset}, seed = {cfg.seed}"


def cmd_gaussian_sweep(cfg: RunConfig, out: str | None) -> int:
    rule = QuadratureRule(cfg.quadrature_order)
    sc = _scenario(cfg)
    g_c, g_s = link_snrs(sc, 0.0)  # the mean SNRs, with no latent noise
    k, pv = cfg.rician_k, cfg.prior_var
    c_grid = cfg.capacity_axis()
    # kappa = 1/(2^C - 1) is unbounded at c = 0 and overflows below about
    # 8e-309 bits; as it falls while c rises, those capacities open the grid.
    # They have rate 0 and the prior variance as distortion, where every
    # SNR saturates at kappa = inf.
    kaps = [_kappa(c) if c else math.inf for c in c_grid]
    n_sat = kaps.count(math.inf)
    rows = [(c, 0.0, 0.0, 0.0, pv, pv, pv) for c in c_grid[:n_sat]]
    c_pos, kaps = c_grid[n_sat:], kaps[n_sat:]
    if c_pos:
        # One evaluation gives the rate and distortion columns of both
        # K-factors, Rayleigh (K = 0) and Rician, over every other capacity.
        (rate_ray, dist_ray), (rate_ric, dist_ric) = fading.ergodic_columns(
            g_c, g_s, np.array(kaps), (0.0, k), pv, rule)
        cols = (rate_ray, rate_ric, dist_ray, dist_ric)
        for c, kap, r_ray, r_ric, d_ray, d_ric in zip(
                c_pos, kaps, *(col.tolist() for col in cols)):
            # The scalar link at the latent noise N_z = P kappa, so the AWGN
            # cells are gaussian.rate and distortion at c.
            s_c, s_s = latent_snrs(sc, kap)
            rows.append((c, split_rate(s_c, 1.0), r_ray, r_ric,
                         split_distortion(s_s, pv, 0.0), d_ray, d_ric))
    _write_csv(out, _header(cfg),
               ["c_ai", "rate_awgn", "rate_rayleigh", "rate_rician",
                "dist_awgn", "dist_rayleigh", "dist_rician"], rows)
    return EXIT_OK


# frontier's rows over the shared alpha grid, built once: the alpha cells
# are formatted in, the c_ai, rate, distortion and baseline cells left open.
_FRONTIER_ROWS = "\n".join(f"%s,{a:.17g},%.17g,%s,%.17g,%s" for a in region.ALPHAS.tolist())
# One budget's distortions as one format, split at the commas: a %.17g
# string has none.
_GRID_CELLS = ",".join(["%.17g"] * region.DEFAULT_GRID)


def cmd_frontier(cfg: RunConfig, out: str | None) -> int:
    sc = _scenario(cfg)
    fronts = [region.frontier(sc, AiBudget(c)) for c in FRONTIER_BUDGETS]
    # Each distinct cell is formatted once: each distortion string fills
    # both the distortion and the (equal) baseline_distortion column.
    cells = [None] * (5 * region.DEFAULT_GRID)
    blocks = []
    for c, front in zip(FRONTIER_BUDGETS, fronts):
        cells[0::5] = ["%.17g" % c] * region.DEFAULT_GRID
        cells[1::5] = front.rates.tolist()
        cells[2::5] = cells[4::5] = (_GRID_CELLS % tuple(front.distortions.tolist())).split(",")
        cells[3::5] = region.separated_baseline(front).rates.tolist()
        blocks.append(_FRONTIER_ROWS % tuple(cells))
    _emit(out, [f"# {_header(cfg)}", "c_ai,alpha,rate,distortion,baseline_rate,"
                "baseline_distortion", *blocks])
    return EXIT_OK


def _mimo_link(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_c, R_c, Q) of the rate surface: identity channel, white noise and
    isotropic transmit covariance of total power cfg.power."""
    eye = np.eye(cfg.mimo_nt)
    return eye, cfg.noise_c * eye, (cfg.power / cfg.mimo_nt) * eye


def mimo_template(cfg: RunConfig) -> MimoScenario:
    """The rate surface's link as a scenario, with an identity sensing
    channel of white noise noise_s."""
    h_c, r_c, q = _mimo_link(cfg)
    return MimoScenario(h_c=h_c, h_s=h_c, q=q, r_c=r_c, r_s=cfg.noise_s * h_c,
                        dmu=np.ones(cfg.mimo_nt), budget=AiBudget(math.inf))


def mimo_power_scales(snr_db: list[float]) -> list[float]:
    """Power multipliers for the dB axis, anchored so the 10 dB point is
    the preset's nominal power."""
    return [db_to_linear(snr - 10.0) for snr in snr_db]


def _write_surface(path: str | None, header_comment: str, c_grid: Sequence[float],
                   snr_db: list[float], surface: np.ndarray) -> None:
    """_write_csv of the rows (c, snr, rate) of a capacity x SNR surface, with
    each capacity and SNR cell formatted once into the row template."""
    snrs = ["%.17g" % snr for snr in snr_db]
    template = "\n".join(f"{c},{snr},%.17g" for c in ["%.17g" % c for c in c_grid]
                         for snr in snrs)
    _emit(path, [f"# {header_comment}", "c_ai,snr_db,rate",
                 template % tuple(surface.ravel().tolist())])


def cmd_mimo_surface(cfg: RunConfig, out: str | None) -> int:
    snr_db = cfg.snr_axis_db()
    surface = rate_surface(*_mimo_link(cfg), HALF_BIT_BUDGETS,
                           mimo_power_scales(snr_db))
    _write_surface(out, _header(cfg), HALF_BIT_BUDGETS, snr_db, surface)
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


def _verify_checks(cfg: RunConfig) -> list[tuple[str, float, float]]:
    """(name, observed, tolerance) of every verification check, with rates in
    bits and distortions in units of the prior variance sigma^2."""
    checks = []
    sc = _scenario(cfg)

    # Closed-form vs numerically-enforced latent noise at a 0.6 power split.
    alpha = 0.6
    dev = 0.0
    for c in HALF_BIT_BUDGETS:
        (c1, s1), (c2, s2) = (latent_snrs(sc, kappa(AiBudget(c))), link_snrs(
            sc, enforce_mi_numerically(cfg.power, c, tol=1e-12)))
        dev = max(dev, abs(split_rate(c1, alpha) - split_rate(c2, alpha)),
                  abs(split_distortion(s1, 1.0, alpha) - split_distortion(s2, 1.0, alpha)))
    checks.append(("theory_vs_achieved_max_dev", dev, 1e-9))

    # Latent-noise covariance mapping hits its budget exactly on 20 random
    # (Q, C) draws: per dimension n, each Q's own map and its MI from one
    # stacked eigh and two stacked Choleskys.
    rng = RandomStream(seed=cfg.seed, stream=7).generator()
    draws = {}
    for _ in range(20):
        n = int(rng.integers(1, 5))
        re, im = rng.normal(size=(2, n, n))  # the stream's next 2 n^2 normals
        draws.setdefault(n, []).append((re + 1j * im, float(rng.uniform(0.5, 8.0))))
    mi_dev = 0.0
    for group in draws.values():
        a, cs = (np.array(x) for x in zip(*group))
        qs = _hermitian_part(a @ a.conj().swapaxes(-1, -2))  # as covariance_map takes Q
        mi_dev = max(mi_dev, float(np.max(np.abs(proportional_map_mis(qs, cs.tolist()) - cs))))
    checks.append(("covariance_map_mi_max_dev", mi_dev, 1e-9))

    # Rayleigh quadrature against the exponential-integral closed form.
    rule = QuadratureRule(128)
    g = link_snrs(sc, 0.0)[0]
    checks.append(("rayleigh_anchor_dev", abs(fading.ergodic_rate(g, 0.0, 0.0, rule)
                                              - fading.rayleigh_rate_exact(g, 0.0)), 1e-6))

    # Frontier nesting across capacity budgets.
    fronts = [region.frontier(sc, AiBudget(c)) for c in FRONTIER_BUDGETS[:-1]]
    worst = 0.0
    for lo, hi in zip(fronts, fronts[1:]):
        worst = max(worst, float(np.max(lo.rates - hi.rates)),
                    float(np.max(hi.distortions - lo.distortions)) / sc.prior_var)
    checks.append(("frontier_nesting_violation", worst, 1e-12))

    # Closed-form optimizer against the Brent KKT split, and constraint satisfaction.
    problem = _allocation_problem(cfg)
    result = alloc_mod.optimize_alpha(problem, cfg.alpha0)
    alpha_kkt = alloc_mod.kkt_power_split(problem)[0] / problem.total_power
    checks.append(("optimizer_alpha_err", abs(result.alpha_star - alpha_kkt), 2e-3))
    # At alloc_c_ai = inf the achieved MI is inf too, and inf - inf is nan.
    mi_err = max((abs(mi - cfg.alloc_c_ai) for _, _, _, mi in result.trace
                  if mi != cfg.alloc_c_ai), default=0.0)
    checks.append(("optimizer_mi_max_dev", mi_err, 1e-9))
    objs = [j for _, _, j, _ in result.trace]
    descent = max((a - b for a, b in zip(objs, objs[1:])), default=0.0)
    checks.append(("objective_max_decrease", max(descent, 0.0), 0.0))
    return checks


def cmd_verify(cfg: RunConfig, out: str | None) -> int:
    # One rule judges every check: observed <= tolerance, which nan fails.
    checks = [(obs <= tol, name, obs, tol) for name, obs, tol in _verify_checks(cfg)]
    ok = all(passed for passed, *_ in checks)
    _emit(out, [f"# {_header(cfg)}",
                *(f"{'PASS' if passed else 'FAIL'} {name}: observed = {observed:.17g}, "
                  f"tolerance = {tol:.17g}" for passed, name, observed, tol in checks),
                "all checks passed" if ok else "one or more checks FAILED"])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "gaussian-sweep": cmd_gaussian_sweep,
    "frontier": cmd_frontier,
    "mimo-surface": cmd_mimo_surface,
    "allocate": cmd_allocate,
    "verify": cmd_verify,
}


# What each long option's value is read as (--preset: its RunConfig).
_OPTIONS = {"config": str, "out": str, "seed": int, "quadrature-order": int,
            "preset": preset_config}
_USAGE = ("usage: aiisac [-h] [--config PATH] [--out PATH] [--seed INT]\n"
          f"  [--quadrature-order INT] [--preset {{{','.join(PRESETS)}}}]\n  {{{','.join(_COMMANDS)}}}")


def _parse_argv(argv: list[str]) -> tuple[str, dict]:
    """The command and the options of argv, by getopt (no argparse cost),
    keyed by option name with "_" for "-"; -h/--help prints the usage and
    the module docstring and exits EXIT_OK. A usage error raises
    getopt.GetoptError or ValueError."""
    flags, args = getopt.gnu_getopt(argv, "h", [*(f"{o}=" for o in _OPTIONS), "help"])
    options = {}
    for flag, value in flags:
        if flag in ("-h", "--help"):
            print(f"{_USAGE}\n\n{__doc__ or ''}", end="")
            sys.exit(EXIT_OK)
        options[flag[2:].replace("-", "_")] = _OPTIONS[flag[2:]](value)
    if len(args) != 1 or args[0] not in _COMMANDS:
        raise ConfigError(f"expected one command of {', '.join(_COMMANDS)}, got {args}")
    return args[0], options


def load_config(options: dict) -> RunConfig:
    """One validated RunConfig from the preset and config options; seed and
    quadrature_order, when given, replace their fields."""
    cfg = options.get("preset")
    if "config" in options:
        # Read as bytes and decoded once: no text layer. parse_config splits
        # lines at \r\n, \r and \n alike, as a text-mode read would.
        with open(options["config"], "rb") as f:
            cfg = parse_config(f.read().decode("utf-8"), base=cfg)
    elif cfg is None:
        cfg = RunConfig()
    overrides = {k: options[k] for k in ("seed", "quadrature_order") if k in options}
    return replace(cfg, **overrides) if overrides else cfg


def main(argv: list[str] | None = None) -> int:
    try:
        command, options = _parse_argv(sys.argv[1:] if argv is None else argv)
    except (getopt.GetoptError, ValueError) as exc:
        print(f"{_USAGE}\naiisac: error: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    try:
        cfg = load_config(options)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[command](cfg, options.get("out"))
    except AiIsacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:  # --out names no writable file
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
