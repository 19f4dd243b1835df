"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from aiisac import cli, mimo  # noqa: E402
from aiisac.bottleneck import AiBudget  # noqa: E402
from aiisac.config import RunConfig  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    first = workloads.make_jobs(workload, 7)
    assert first == workloads.make_jobs(workload, 7)
    assert first != workloads.make_jobs(workload, 8)
    assert len({job.key for job in first}) == len(first)


def test_sweep_keeps_the_shipped_order_at_the_normalized_preset():
    for seed in range(5):
        text = workloads.make_jobs("sweep", seed)[0].config
        assert "preset = tableI-normalized" in text
        assert "quadrature_order = 20\n" in text


def test_surface_closed_form_matches_mimo_rate():
    cfg = RunConfig(mimo_nt=4, mimo_nr=4, power=0.03, noise_c=0.07)
    template = cli.mimo_template(cfg)
    scale, c_ai = 3.5, 2.5
    sc = mimo.MimoScenario(h_c=template.h_c, h_s=template.h_s,
                           q=template.q * scale, r_c=template.r_c,
                           r_s=template.r_s, dmu=template.dmu,
                           budget=AiBudget(c_ai))
    ref = workloads.surface_closed_form(4, 0.03, 0.07, c_ai, scale)
    assert mimo.mimo_rate(sc) == pytest.approx(ref, abs=1e-12)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("fading.a", 1.0, 4.0, 0),
        _span("numerics.b", 2.0, 3.0, 1),
        _span("fading.c", 3.0, 6.0, 0),   # overlaps fading.a: union is [1, 6]
        _span("config.d", 8.0, 9.0, 0),
        _span("numerics.e", 20.0, 21.0, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.0, 1.0])


def test_layer_metrics_split_self_time_by_layer():
    tree = [
        _span("cli.main", 0.0, 0.010, -1),
        _span("fading.ergodic_rate_rician", 0.001, 0.005, 0),
        _span("numerics.log_bessel_i0", 0.002, 0.004, 1),
        _span("fading.monte_carlo_oracle", 0.006, 0.009, 0),
        _span("fading.conditional_snr", 0.007, 0.008, 3),
    ]
    m = spans.layer_metrics(tree, {}, jobs=2, rows_out=10, bytes_out=100)
    assert m["cli.self_ms"] == pytest.approx(1.5)
    assert m["numerics.log_bessel_i0.self_ms"] == pytest.approx(1.0)
    assert m["fading.self_ms"] == pytest.approx(1.0)
    assert m["fading.calls"] == pytest.approx(0.5)
    assert m["fading.mc_self_ms"] == pytest.approx(1.5)
    assert m["cli.rows_out"] == 5 and m["cli.bytes_out"] == 50


def _aiisac_bindings():
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "aiisac" or name.startswith("aiisac."):
            for attr, obj in vars(mod).items():
                found[(name, attr)] = obj
                if isinstance(obj, dict):
                    for key, val in obj.items():
                        found[(name, attr, key)] = val
    return found


def test_tracer_restores_every_binding(tmp_path):
    before = _aiisac_bindings()
    job = workloads.make_jobs("design", 3)[0]
    workloads.write_configs(tmp_path, [job])
    tracer = spans.Tracer()
    with tracer:
        assert cli.kappa is not before[("aiisac.cli", "kappa")]
        assert cli._COMMANDS["allocate"] is not before[("aiisac.cli", "_COMMANDS", "allocate")]
        rc, _ = workloads.run_job(job, workloads.config_path(tmp_path, job))
    assert rc == 0
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"cli.main", "cli.cmd_allocate", "config.parse_config",
            "allocate.optimize_alpha", "bottleneck.kappa"} <= names
    after = _aiisac_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_oracle_job_checks_against_the_exact_rayleigh_rate(tmp_path):
    job = next(j for j in workloads.make_jobs("oracle", 1)
               if j.extra[0] == "rayleigh")
    workloads.write_configs(tmp_path, [job])
    rc, text = workloads.run_job(job, workloads.config_path(tmp_path, job))
    (check,) = workloads.check_output(job, rc, text)
    assert check.gate_ok and math.isfinite(check.err_bits)


def test_checks_catch_a_wrong_surface_value(tmp_path):
    job = workloads.make_jobs("surface", 1)[0]
    workloads.write_configs(tmp_path, [job])
    rc, text = workloads.run_job(job, workloads.config_path(tmp_path, job))
    assert all(c.gate_ok for c in workloads.check_output(job, rc, text))
    lines = text.splitlines()
    c, snr, rate = lines[5].split(",")
    lines[5] = f"{c},{snr},{float(rate) + 1e-6!r}"
    bad = "\n".join(lines) + "\n"
    assert not all(c.gate_ok for c in workloads.check_output(job, rc, bad))


# Kinds of design job from fastest to slowest.
DESIGN_RANK = {"allocate": 0, "in_region": 1, "verify": 2, "frontier": 3}


def _cost(job):
    """Rows (sweep), grid points (surface) or kind (design) of a job: what
    sets its time."""
    if job.kind in DESIGN_RANK:
        return DESIGN_RANK[job.kind]
    cfg = workloads.config.parse_config(job.config)
    if job.kind == "gaussian-sweep":
        return round((cfg.c_max - cfg.c_min) / cfg.c_step) + 1
    return 16 * (round((cfg.snr_max_db - cfg.snr_min_db) / cfg.snr_step_db) + 1)


@pytest.mark.parametrize("workload", ["sweep", "surface", "design"])
def test_p50_and_p90_fall_in_the_middle_of_a_group_of_equal_cost_jobs(workload):
    for seed in range(3):
        costs = sorted(_cost(job) for job in workloads.make_jobs(workload, seed))
        n = len(costs)
        for q in (0.5, 0.9):
            pos = q * (n + 1) - 1  # 0-based position of the quantile
            group = [i for i, c in enumerate(costs) if c == costs[int(pos)]]
            assert len(group) >= 6 and int(pos) + 1 in group
            assert (group[0] + group[-1]) / 2 == pytest.approx(pos)


def test_timed_loop_makes_every_pause():
    class Runner:
        @staticmethod
        def run_job(job, path):
            return 0, "x\n"

    calls = []
    jobs = [workloads.Job("j", "fake", "")]
    warm = run.Warm(["x\n"], [1], [], [])
    loop = run.timed_loop(Runner, jobs, [None], warm, 0.05,
                          pause=lambda: calls.append(1), pauses=4)
    assert len(calls) == 4
    assert loop.failed == 0 and loop.points == len(loop.times) > 0
