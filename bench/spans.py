"""Span tracing from outside the program.

``Tracer.install`` wraps every public function of the aiisac layer modules
and puts the wrapper in every aiisac namespace that binds the function: the
defining module, modules that imported it by name (``cli``'s
``from .bottleneck import kappa``), the package ``__init__`` and module-level
dicts such as ``cli._COMMANDS``. Each call records a span (name, start, end,
parent span, job id). Spans stay in memory until the run ends.
``Tracer.uninstall`` puts every original binding back.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("config", "cli", "numerics", "bottleneck", "gaussian", "fading",
          "mimo", "region", "allocate")

# Span fields, stored as lists: name, start, end, parent index (-1 for a
# root), job id.
NAME, START, END, PARENT, JOB = range(5)


def _counters(name: str, args: tuple, kwargs: dict, result) -> dict[str, float]:
    """Work counts recorded at a layer boundary from a call's inputs and
    result."""
    if name in ("fading.ergodic_rate_rayleigh", "fading.ergodic_distortion_rayleigh",
                "fading.ergodic_rate_rician", "fading.ergodic_distortion_rician",
                "fading.jensen_upper_bound"):
        rule = kwargs.get("rule", args[-1])
        return {"fading.integrand_evals": rule.order}
    if name == "fading.monte_carlo_oracle":
        model = args[0]
        n = kwargs.get("n_samples", args[4] if len(args) > 4 else 0)
        # Computed, not measured: 8 bytes for each of the float64 arrays of
        # length n the oracle's stages produce (gains, snr, rate,
        # distortion; a Rician draw adds the two normal components).
        arrays = 6 if model.kind == "rician" else 4
        return {"fading.mc_samples": n, "fading.mc_bytes": 8 * n * arrays}
    if name in ("region.frontier", "region.separated_baseline"):
        return {"region.points_built": len(result.points)}
    if name == "allocate.optimize_alpha":
        return {"allocate.iterations": len(result.trace) - 1}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    def _wrap(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            for key, value in _counters(name, args, kwargs, result).items():
                counts[key] += value
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "aiisac" or key.startswith("aiisac.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"aiisac.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{obj.__name__}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj, False))
                    setattr(mod, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._restore.append((obj, key, val, True))
                            obj[key] = wrappers[id(val)][1]

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._restore):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START]
            - _covered(children.get(i, []), span[START], span[END])
            for i, span in enumerate(spans)]


def has_ancestor(spans: list[list], i: int, name: str) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list], counts: dict[str, float], jobs: int,
                  rows_out: int, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics, per job, from the spans and boundary counts of a
    traced run of `jobs` jobs. Ratios are reported as ratios, with their
    base among the other metrics."""
    counts = defaultdict(float, counts)
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    mc_self = fading_self = 0.0
    fading_calls = mi_in_alloc = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        self_by_name[name] += selfs[i]
        self_by_layer[layer] += selfs[i]
        if layer == "fading":
            if (name == "fading.monte_carlo_oracle"
                    or has_ancestor(spans, i, "fading.monte_carlo_oracle")):
                mc_self += selfs[i]
            else:
                fading_self += selfs[i]
                fading_calls += 1
        if (name == "bottleneck.enforce_mi_numerically"
                and has_ancestor(spans, i, "allocate.optimize_alpha")):
            mi_in_alloc += 1

    def per_job(x: float) -> float:
        return x / jobs

    def ms(x: float) -> float:
        return per_job(x) * 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runs = calls["allocate.optimize_alpha"]
    return {
        "numerics.self_ms": ms(self_by_layer["numerics"]),
        "numerics.log_bessel_i0.calls": per_job(calls["numerics.log_bessel_i0"]),
        "numerics.log_bessel_i0.self_ms": ms(self_by_name["numerics.log_bessel_i0"]),
        "numerics.gauss_laguerre.calls": per_job(calls["numerics.gauss_laguerre"]),
        "numerics.find_root.calls": per_job(calls["numerics.find_root"]),
        "numerics.find_root.self_ms": ms(self_by_name["numerics.find_root"]),
        "fading.calls": per_job(fading_calls),
        "fading.integrand_evals": per_job(counts["fading.integrand_evals"]),
        "fading.self_ms": ms(fading_self),
        "fading.mc_samples": per_job(counts["fading.mc_samples"]),
        "fading.mc_bytes": per_job(counts["fading.mc_bytes"]),
        "fading.mc_self_ms": ms(mc_self),
        "bottleneck.covariance_map.calls": per_job(calls["bottleneck.covariance_map"]),
        "bottleneck.enforce_mi.calls": per_job(calls["bottleneck.enforce_mi_numerically"]),
        "bottleneck.gaussian_mi.calls": per_job(calls["bottleneck.gaussian_mi"]),
        "bottleneck.self_ms": ms(self_by_layer["bottleneck"]),
        "mimo.check_psd.calls": per_job(calls["mimo.check_psd"]),
        "mimo.mimo_rate.calls": per_job(calls["mimo.mimo_rate"]),
        "mimo.psd_checks_per_point": ratio(calls["mimo.check_psd"], calls["mimo.mimo_rate"]),
        "mimo.self_ms": ms(self_by_layer["mimo"]),
        "region.frontier.calls": per_job(calls["region.frontier"]),
        "region.points_built": per_job(counts["region.points_built"]),
        "region.in_region.calls": per_job(calls["region.in_region"]),
        "region.self_ms": ms(self_by_layer["region"]),
        "allocate.iterations": per_job(counts["allocate.iterations"]),
        "allocate.objective.calls": per_job(calls["allocate.objective"]),
        "allocate.accept_ratio": ratio(counts["allocate.iterations"], calls["allocate.objective"]),
        "allocate.mi_solves_per_run": ratio(mi_in_alloc, runs),
        "allocate.self_ms": ms(self_by_layer["allocate"]),
        "gaussian.calls": per_job(sum(n for k, n in calls.items() if k.startswith("gaussian."))),
        "gaussian.self_ms": ms(self_by_layer["gaussian"]),
        "config.calls": per_job(sum(n for k, n in calls.items() if k.startswith("config."))),
        "config.self_ms": ms(self_by_layer["config"]),
        "cli.self_ms": ms(self_by_layer["cli"]),
        "cli.rows_out": per_job(rows_out),
        "cli.bytes_out": per_job(bytes_out),
    }
