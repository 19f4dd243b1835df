"""Seeded workloads, the in-process job runner and the output checks.

A workload is a list of jobs made from a seed. Each job is config text that
reaches the program through ``--config`` (CLI jobs) or ``parse_config``
(library jobs), plus the few library-call inputs ``RunConfig`` has no field
for. Knobs that set a job's cost (grid sizes, matrix size, sample counts) are
stratified: every seed gets the same strata, with at most a few percent of
seeded spread inside them, so the job-time distribution, and with it
p50/p90, does not swing with the seed. Knobs that do not set the cost
(K-factor, powers, weights) are drawn freely.

Library calls go through module attributes (``fading.monte_carlo_oracle``)
so that the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

from aiisac import bottleneck, cli, config, fading, gaussian, region
from aiisac import allocate as alloc_mod
from aiisac.bottleneck import AiBudget
from aiisac.numerics import RandomStream

WORKLOADS = ("sweep", "surface", "design", "oracle")

CLI_KINDS = ("gaussian-sweep", "frontier", "mimo-surface", "allocate", "verify")

# Accuracy the repository states for each kind of checked value. A value
# outside it counts towards ref_miss_ratio.
QUAD_TOL_BITS = 1e-4       # acceptance criterion 1
CLOSED_FORM_TOL = 1e-9     # the tolerance `aiisac verify` applies to closed forms
MC_SIGMAS = 5.0            # Monte-Carlo deviation, in standard errors

# Gross-error gate for the shipped quadrature. Order-20 Gauss-Laguerre is
# known to miss its stated 1e-4 bits by up to 3.3e-2 bits at mean SNRs up to
# 25 dB; that shows in ref_err_bits and ref_miss_ratio. A quadrature column
# further off than this gate is a wrong answer and makes the run incorrect.
QUAD_GATE_BITS = 0.05

# Gross-error gate for allocate's J*. With its 50 iterations the optimizer
# stops short of interior optima by up to 7e-3 in the objective; that shows
# in ref_err_bits and ref_miss_ratio, and the design workload keeps two such
# jobs per cycle.
ALLOC_GATE = 0.05


@dataclass(frozen=True)
class Job:
    """One job: a CLI subcommand or library call (`kind`), its config text,
    and `extra` library-call inputs (the in_region candidate and expected
    answer; the oracle's fading model and capacity)."""

    key: str
    kind: str
    config: str
    extra: tuple = ()


def _cfg_text(**fields) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in fields.items())


def _orders(rng: random.Random, n: int) -> list[int]:
    """Quadrature orders for a group of n jobs: the shipped 20, then one
    seeded order in each of n - 1 equal strata of 21-128."""
    return [20] + [rng.randint(21 + i * 108 // (n - 1), 20 + (i + 1) * 108 // (n - 1))
                   for i in range(n - 1)]


# (capacity step, jobs) per group of the sweep workload; the capacity axis
# is the default 0-8, so the steps give 9, 5 and 3 rows.
SWEEP_GROUPS = ((1.0, 7), (2.0, 25), (4.0, 7))


def _sweep(rng: random.Random) -> list[Job]:
    """gaussian-sweep over both presets, capacity steps and quadrature orders.

    A job's cost is set by its row count (about 1.2 ms a row over 2 ms a
    job) and hardly by its order, preset or K-factor. Of 39 jobs, 7 have 9
    rows, 25 have 5 and 7 have 3, so p50 is the median of the 25 five-row
    jobs and p90 the median of the 7 nine-row jobs: each is the middle of a
    group of equal-cost jobs, not one job's time at the edge of a group.
    Jobs stay short, so each runs 85 to 90 times in a 30 s run.
    Presets alternate and orders are stratified within each group.

    The first job is the shipped order 20 at tableI-normalized, whose
    quadrature error ref_err_bits must show.
    """
    jobs = []
    for c_step, n in SWEEP_GROUPS:
        for i, order in enumerate(_orders(rng, n)):
            text = _cfg_text(preset=("tableI-normalized", "tableI-dbm")[i % 2],
                             c_step=c_step, quadrature_order=order,
                             rician_k_db=rng.uniform(2.0, 10.0))
            jobs.append(("gaussian-sweep", text, ()))
    return _finish("sweep", rng, jobs)


# (dB step, jobs) per group of the surface workload; over a 30 dB axis the
# steps give 5, 3 and 2 SNR points, each times 16 capacities.
SURFACE_GROUPS = ((7.5, 7), (15.0, 25), (30.0, 7))


def _surface(rng: random.Random) -> list[Job]:
    """mimo-surface over antenna counts and dB-axis steps. The axis starts
    at a seeded whole dB level and spans 30 dB whatever the step, so the
    grid size is set by the step alone.

    A job's cost is set by its grid size (about 0.13 ms a point over 4 ms a
    job) and by the antenna count by at most 15 %. Of 39 jobs, 7 have
    5 x 16 points, 25 have 3 x 16 and 7 have 2 x 16, so p50 is the median of
    the 25 middle jobs and p90 the median of the 7 largest. Within each
    group the antenna count cycles through 2, 1, 4, 8, so every seed has the
    same mix.
    """
    jobs = []
    for step, n in SURFACE_GROUPS:
        for i in range(n):
            nt = (2, 1, 4, 8)[i % 4]
            lo = float(rng.randint(-10, 0))
            text = _cfg_text(mimo_nt=nt, mimo_nr=nt, snr_min_db=lo,
                             snr_max_db=lo + 30.0, snr_step_db=step,
                             power=10 ** rng.uniform(-2.5, -1.0),
                             noise_c=rng.uniform(0.05, 0.2))
            jobs.append(("mimo-surface", text, ()))
    return _finish("surface", rng, jobs)


def _design_params(rng: random.Random) -> dict:
    # Default noises and ranges inside which the optimum is the
    # full-communication split alpha* = 1, which `aiisac verify` expects.
    return dict(weight=rng.uniform(0.1, 0.4), alpha0=rng.uniform(0.1, 0.9),
                alloc_c_ai=rng.uniform(2.0, 8.0),
                power=10 ** rng.uniform(-2.5, -1.5))


def _interior_params(rng: random.Random) -> dict:
    # Low power, a noisy communication link and a low start: the optimum is
    # interior, and allocate's 50 projected-gradient iterations stop short
    # of it (by up to 7e-3 in the objective) in about 93 % of draws.
    return dict(weight=rng.uniform(0.15, 0.4), alpha0=rng.uniform(0.1, 0.3),
                alloc_c_ai=rng.uniform(2.0, 8.0),
                power=10 ** rng.uniform(-2.5, -2.2),
                noise_c=rng.uniform(0.14, 0.2), noise_s=rng.uniform(0.05, 0.08))


def _free_noises(rng: random.Random) -> dict:
    return dict(_design_params(rng), noise_c=rng.uniform(0.05, 0.2),
                noise_s=rng.uniform(0.05, 0.2))


def _membership_query(rng: random.Random, cfg: config.RunConfig) -> tuple:
    """A candidate (rate, distortion) a seeded margin inside or outside the
    frontier, computed here from N_z = P/(2^C - 1) rather than by `region`."""
    p = cfg.power
    nz = p / math.expm1(cfg.alloc_c_ai * math.log(2.0))
    g_c = cfg.gain_c * p / (cfg.noise_c + cfg.gain_c * nz)
    g_s = cfg.gain_s * p / (cfg.noise_s + cfg.gain_s * nz)
    a = rng.uniform(0.05, 0.95)
    r = math.log2(1.0 + a * g_c)
    d = cfg.prior_var / (1.0 + (1.0 - a) * g_s)
    margin = rng.uniform(0.02, 0.1)
    inside = rng.random() < 0.5
    if inside:
        return (r * (1.0 - margin), d * (1.0 + margin), True)
    return (r * (1.0 + margin), d * (1.0 - margin), False)


def _design(rng: random.Random) -> list[Job]:
    """allocate, frontier and verify jobs plus region.in_region queries.

    Sorted by time, the 34 jobs are 10 allocate, 14 in_region, 4 verify and
    6 frontier, so p50 is the middle of the in_region queries and p90 the
    middle of the frontier jobs, away from a boundary between kinds.
    """
    jobs = []
    for kind, count, params in (("allocate", 8, _design_params),
                                ("allocate", 2, _interior_params),
                                ("frontier", 6, _free_noises),
                                ("verify", 4, _design_params),
                                ("in_region", 14, _free_noises)):
        for _ in range(count):
            text = _cfg_text(**params(rng))
            extra = ()
            if kind == "in_region":
                extra = _membership_query(rng, config.parse_config(text))
            jobs.append((kind, text, extra))
    return _finish("design", rng, jobs)


def _oracle(rng: random.Random) -> list[Job]:
    """Monte-Carlo oracle calls from 1e5 samples (one 0.8 MB array, inside
    L2) to 4e6 (32 MB, beyond L2). The first job uses the shipped 1e6
    samples; the 4e6 stratum is exact, so every run reaches the same peak
    memory."""
    jobs = [("oracle", _oracle_config(rng, 1_000_000), ("rician", rng.uniform(1.0, 8.0)))]
    for center in (100_000, 300_000, 1_000_000, 4_000_000):
        for kind in ("rician", "rayleigh"):
            n = center if center == 4_000_000 else int(center * rng.uniform(1.0, 1.04))
            jobs.append(("oracle", _oracle_config(rng, n), (kind, rng.uniform(1.0, 8.0))))
    return _finish("oracle", rng, jobs)


def _oracle_config(rng: random.Random, n: int) -> str:
    return _cfg_text(power=10 ** rng.uniform(-1.0, 1.0),
                     rician_k_db=rng.uniform(2.0, 10.0), mc_samples=n,
                     seed=rng.randrange(1 << 32))


def _finish(workload: str, rng: random.Random, specs: list) -> list[Job]:
    """Keep the first spec first (it is the cold-start job), interleave the
    rest in a seeded order, and give every job a stable key."""
    first, rest = specs[0], specs[1:]
    rng.shuffle(rest)
    return [Job(f"{workload}-{i:02d}", kind, text, extra)
            for i, (kind, text, extra) in enumerate([first] + rest)]


_GENERATORS = {"sweep": _sweep, "surface": _surface, "design": _design,
               "oracle": _oracle}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for this seed; equal seeds give equal jobs."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def config_path(workdir: Path, job: Job) -> Path:
    return workdir / f"{job.key}.cfg"


def write_configs(workdir: Path, jobs: list[Job]) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        config_path(workdir, job).write_text(job.config, encoding="utf-8")


def _scalar_scenario(cfg: config.RunConfig) -> gaussian.ScalarScenario:
    return gaussian.ScalarScenario(power=cfg.power, gain_c=cfg.gain_c,
                                   gain_s=cfg.gain_s, noise_c=cfg.noise_c,
                                   noise_s=cfg.noise_s, prior_var=cfg.prior_var)


def run_job(job: Job, path: Path) -> tuple[int, str]:
    """Run one job in this process: (exit code, output text)."""
    if job.kind in CLI_KINDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main([job.kind, "--config", str(path)])
        return rc, buf.getvalue()
    cfg = config.parse_config(path.read_text(encoding="utf-8"))
    if job.kind == "in_region":
        r, d, _ = job.extra
        m = region.in_region(_scalar_scenario(cfg), AiBudget(cfg.alloc_c_ai),
                             gaussian.PerfPoint(r, d))
        return 0, f"{m.inside},{m.alpha!r},{m.rate_slack!r},{m.distortion_slack!r}\n"
    model_kind, c_ai = job.extra
    model = fading.FadingModel(model_kind, k_factor=cfg.rician_k)
    est = fading.monte_carlo_oracle(model, cfg.mean_snr_c(),
                                    bottleneck.kappa(AiBudget(c_ai)), cfg.prior_var,
                                    cfg.mc_samples, RandomStream(cfg.seed))
    return 0, ",".join(repr(v) for v in est) + "\n"


def points(job: Job, text: str) -> int:
    """Output points of one job: CSV rows, verify checks, one membership
    query, or Monte-Carlo samples."""
    if job.kind == "oracle":
        return config.parse_config(job.config).mc_samples
    if job.kind == "in_region":
        return 1
    if job.kind == "verify":
        return sum(line.startswith(("PASS", "FAIL")) for line in text.splitlines())
    return max(len(_csv_rows(text)) - 1, 0)


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]


@dataclass(frozen=True)
class Check:
    """One checked value: its deviation in bits (None when the check is a
    yes/no property), whether it is within the stated accuracy, and whether
    it passes the correctness gate."""

    err_bits: float | None
    within_stated: bool
    gate_ok: bool


def _dev(err: float, stated: float, gate: float | None = None) -> Check:
    gate = stated if gate is None else gate
    return Check(err, err <= stated, err <= gate)


def _flag(ok: bool) -> Check:
    return Check(None, ok, ok)


def _numeric_table(text: str, skip_cols: int = 0) -> tuple[list[str], list[list[float]]]:
    rows = _csv_rows(text)
    header, body = rows[0], rows[1:]
    values = [[float(v) for v in row[skip_cols:]] for row in body]
    return header, values


def _all_finite(table: list[list[float]]) -> bool:
    return all(math.isfinite(v) for row in table for v in row)


def check_output(job: Job, rc: int, text: str) -> list[Check]:
    """Compare one job's output with a reference computed independently of
    the code path that produced it. Raises if the output cannot be parsed."""
    if rc != 0:
        return [_flag(False)]
    cfg = config.parse_config(job.config)
    return _CHECKERS[job.kind](job, cfg, text)


def _check_sweep(job: Job, cfg: config.RunConfig, text: str) -> list[Check]:
    header, table = _numeric_table(text)
    n_expected = int(round((cfg.c_max - cfg.c_min) / cfg.c_step)) + 1
    checks = [_flag(_all_finite(table) and len(table) == n_expected)]
    col = header.index("rate_rayleigh")
    g = cfg.mean_snr_c()
    for row in table:
        c = row[0]
        if c == 0.0:
            checks.append(_flag(row[col] == 0.0))
            continue
        exact = fading.rayleigh_rate_exact(g, 1.0 / (2.0 ** c - 1.0))
        checks.append(_dev(abs(row[col] - exact), QUAD_TOL_BITS, QUAD_GATE_BITS))
    return checks


def surface_closed_form(n: int, power: float, noise: float, c_ai: float,
                        scale: float) -> float:
    """Rate of the isotropic identity-channel surface point in closed form:
    n log2(1 + q / (noise + zeta q)), q = P scale / n, zeta = 1/(2^(C/n) - 1)."""
    q = power * scale / n
    zeta = 1.0 / (2.0 ** (c_ai / n) - 1.0)
    return n * math.log2(1.0 + q / (noise + zeta * q))


def _check_surface(job: Job, cfg: config.RunConfig, text: str) -> list[Check]:
    _, table = _numeric_table(text)
    n_snr = int(round((cfg.snr_max_db - cfg.snr_min_db) / cfg.snr_step_db)) + 1
    checks = [_flag(_all_finite(table) and len(table) == 16 * n_snr)]
    for c, snr_db, rate in table:
        ref = surface_closed_form(cfg.mimo_nt, cfg.power, cfg.noise_c, c,
                                  10.0 ** ((snr_db - 10.0) / 10.0))
        checks.append(_dev(abs(rate - ref), CLOSED_FORM_TOL))
    return checks


def _check_frontier(job: Job, cfg: config.RunConfig, text: str) -> list[Check]:
    header, table = _numeric_table(text, skip_cols=1)
    labels = [row[0] for row in _csv_rows(text)[1:]]
    checks = [_flag(_all_finite(table) and len(table) == 5 * region.DEFAULT_GRID)]
    sc = _scalar_scenario(cfg)
    # Columns after the label: alpha, rate, distortion, baseline_rate,
    # baseline_distortion. Endpoints: alpha = 1 carries the full-power rate,
    # alpha = 0 the full-power distortion.
    for label, row in zip(labels, table):
        alpha, r, d, br, bd = row
        budget = AiBudget(math.inf if label == "inf" else float(label))
        if alpha == 1.0:
            ref = gaussian.rate(sc, budget)
            checks += [_dev(abs(r - ref), CLOSED_FORM_TOL),
                       _dev(abs(br - ref), CLOSED_FORM_TOL)]
        elif alpha == 0.0:
            ref = gaussian.distortion(sc, budget)
            checks += [_dev(abs(d - ref), CLOSED_FORM_TOL),
                       _dev(abs(bd - ref), CLOSED_FORM_TOL)]
    return checks


def _check_allocate(job: Job, cfg: config.RunConfig, text: str) -> list[Check]:
    summary = text.splitlines()[0]
    j_star = float(summary.split("J_star = ")[1].split(",")[0])
    _, table = _numeric_table(text)
    checks = [_flag(_all_finite(table) and math.isfinite(j_star))]
    problem = alloc_mod.AllocationProblem(
        total_power=cfg.power, total_time=1.0, weight=cfg.weight,
        budget=AiBudget(cfg.alloc_c_ai), scenario=_scalar_scenario(cfg))
    _, j_grid = alloc_mod.grid_argmax(problem)
    # A converged optimizer may beat the 10,001-point grid, never trail it.
    checks.append(_dev(max(j_grid - j_star, 0.0), CLOSED_FORM_TOL, ALLOC_GATE))
    for _, _, _, mi in table:
        checks.append(_dev(abs(mi - cfg.alloc_c_ai), CLOSED_FORM_TOL))
    return checks


def _check_verify(job: Job, cfg: config.RunConfig, text: str) -> list[Check]:
    lines = text.splitlines()
    observed = [float(line.split("observed = ")[1].split(",")[0])
                for line in lines if line.startswith(("PASS", "FAIL"))]
    return [_flag(lines[-1] == "all checks passed" and len(observed) == 7
                  and all(math.isfinite(v) for v in observed))]


def _check_in_region(job: Job, cfg: config.RunConfig, text: str) -> list[Check]:
    inside, *rest = text.strip().split(",")
    finite = all(math.isfinite(float(v)) for v in rest)
    return [_flag(finite and (inside == "True") == job.extra[2])]


def _check_oracle(job: Job, cfg: config.RunConfig, text: str) -> list[Check]:
    rate, dist, rate_se, dist_se = (float(v) for v in text.split(","))
    if not all(math.isfinite(v) for v in (rate, dist, rate_se, dist_se)):
        return [_flag(False)]
    model_kind, c_ai = job.extra
    g, kap = cfg.mean_snr_c(), bottleneck.kappa(AiBudget(c_ai))
    if model_kind == "rayleigh":
        err = abs(rate - fading.rayleigh_rate_exact(g, kap))
        within = err <= MC_SIGMAS * rate_se
        return [Check(err, within, within)]
    # Rician: Jensen bounds at the mean gain 1 + K, widened by the same
    # number of standard errors (rate is concave and distortion convex in
    # the gain).
    xg = (1.0 + cfg.rician_k) * g
    snr_mean = xg / (1.0 + xg * kap)
    rate_ok = rate <= math.log2(1.0 + snr_mean) + MC_SIGMAS * rate_se
    dist_ok = dist >= cfg.prior_var / (1.0 + snr_mean) - MC_SIGMAS * dist_se
    return [_flag(rate_ok), _flag(dist_ok)]


_CHECKERS = {
    "gaussian-sweep": _check_sweep,
    "mimo-surface": _check_surface,
    "frontier": _check_frontier,
    "allocate": _check_allocate,
    "verify": _check_verify,
    "in_region": _check_in_region,
    "oracle": _check_oracle,
}
