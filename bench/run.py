"""aiisac benchmark: one workload, one seed, a closed loop with one client.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload's jobs are made from the seed and
passed to the program as config text. The next job starts only when the
previous one has finished, as in a user's script that calls the CLI. Before
timing, one untimed pass runs every job once and checks its output against
an independent reference; every timed repetition must then be byte-identical
to that pass.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from a traced run and its overhead against an untraced run of the
same jobs. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 2 means the benchmark could
not run (no program to measure, bad arguments).
"""
import os

# One BLAS/OpenMP thread, set before numpy is imported here or in any child,
# so that the figures measure the program and not the thread scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

COLD_STARTS = 8       # fresh interpreters per setup_s, spread over the loop
IMPORTTIME_RUNS = 3   # fresh interpreters per -X importtime breakdown

# Printed with every run. They are per-layer metrics in BENCHMARK.json, not
# bounded end-to-end ones, because at this commit they are 0 or rounding
# noise on some workloads (see bench/README.md).
ACCURACY = {"fail_ratio": "1", "ref_err_bits": "bits", "ref_miss_ratio": "1"}


@dataclass
class Warm:
    """The untimed reference pass: each job's output and its checks."""

    outputs: list          # output text per job, None if the job failed
    points: list           # output points per job
    checks: list           # workloads.Check over all jobs
    failures: list         # (job key, reason)


@dataclass
class Loop:
    """One timed closed loop."""

    times: list            # (job index, seconds) per execution
    elapsed: float
    points: int
    failed: int
    failures: list


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "surface", "design", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def warm_pass(wl, jobs, paths) -> Warm:
    warm = Warm([], [], [], [])
    for job, path in zip(jobs, paths):
        try:
            rc, text = wl.run_job(job, path)
            checks = wl.check_output(job, rc, text)
        except Exception as exc:  # a failing job is a result, not a crash
            rc, text, checks = None, repr(exc), []
        warm.checks.extend(checks)
        ok = rc == 0 and all(c.gate_ok for c in checks)
        if not ok:
            warm.failures.append((job.key, f"exit {rc}, output check failed: "
                                  f"{text[:200]!r}"))
        warm.outputs.append(text if ok else None)
        warm.points.append(wl.points(job, text) if ok else 0)
    return warm


def timed_loop(wl, jobs, paths, warm: Warm, seconds: float, tracer=None,
               pause=None, pauses: int = 0) -> Loop:
    """Closed loop over the jobs for `seconds`. Each pass over the job list
    runs pinned to the next of this process's CPUs in turn, so that every
    job gets repetitions on every CPU (see best_times).

    `pause()`, if given, is called `pauses` times at passes spread evenly
    over the loop, pinned to each CPU in turn; its time does not count
    towards `seconds`. Calls the loop had no time for are made after it."""
    allowed = os.sched_getaffinity(0)
    try:
        return _closed_loop(wl, jobs, paths, warm, seconds, tracer,
                            sorted(allowed), pause, pauses)
    finally:
        os.sched_setaffinity(0, allowed)


def _closed_loop(wl, jobs, paths, warm, seconds, tracer, cpus, pause,
                 pauses) -> Loop:
    loop = Loop([], 0.0, 0, 0, [])
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    paused, done = 0.0, 0
    i = 0
    while clock() < deadline:
        k = i % len(jobs)
        if k == 0:
            if done < pauses and clock() - start - paused >= done * seconds / pauses:
                t0 = clock()
                os.sched_setaffinity(0, {cpus[done % len(cpus)]})
                pause()
                done += 1
                paused += clock() - t0
                deadline = start + paused + seconds
            os.sched_setaffinity(0, {cpus[(i // len(jobs)) % len(cpus)]})
        if tracer is not None:
            tracer.job = i
        t0 = clock()
        try:
            rc, text = wl.run_job(jobs[k], paths[k])
        except Exception as exc:  # counted as a failed job
            rc, text = None, repr(exc)
        t1 = clock()
        loop.times.append((k, t1 - t0))
        if rc == 0 and warm.outputs[k] is not None and text == warm.outputs[k]:
            loop.points += warm.points[k]
        else:
            loop.failed += 1
            if len(loop.failures) < 5:
                loop.failures.append((jobs[k].key, f"exit {rc}, output differs "
                                      f"from the reference pass: {text[:200]!r}"))
        i += 1
    loop.elapsed = clock() - start - paused
    while done < pauses:
        os.sched_setaffinity(0, {cpus[done % len(cpus)]})
        pause()
        done += 1
    return loop


class ColdStarts:
    """Wall times of fresh interpreters that import aiisac.cli, parse the
    workload's first config and run its first job. Called between passes of
    the timed loop, so that the cold starts of one run sample the machine
    over the whole run rather than over a few seconds of it."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.cmd = [sys.executable, str(BENCH_DIR / "cold.py"), workload,
                    str(seed), str(workdir)]
        self.times: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start exited {proc.returncode}: "
                               f"{proc.stderr.decode()[-500:]}")


def import_times() -> dict[str, float]:
    """-X importtime breakdown of `import aiisac.cli`, median over fresh
    interpreters, in ms: aiisac.numerics and the whole package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    numerics, total = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import aiisac.cli"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e3
        numerics.append(cumulative["aiisac.numerics"])
        total.append(cumulative["aiisac"] + cumulative["aiisac.cli"])
    return {"numerics.import_ms": statistics.median(numerics),
            "aiisac.import_ms": statistics.median(total)}


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git (the
    checkout may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[name] = size
    return sizes


def environment(args, n_jobs: int, n_runs: int) -> dict:
    import numpy
    import scipy
    return {
        "commit": _git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "caches": _cache_sizes(), "machine": platform.machine(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "distinct_jobs": n_jobs, "timed_jobs": n_runs,
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def accuracy(warm: Warm, loops: list[Loop]) -> dict[str, float]:
    errs = [c.err_bits for c in warm.checks if c.err_bits is not None]
    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    return {
        "fail_ratio": failed / attempted if attempted else 1.0,
        "ref_err_bits": max(errs) if errs else 0.0,
        "ref_miss_ratio": (sum(not c.within_stated for c in warm.checks)
                           / len(warm.checks)) if warm.checks else 1.0,
    }


def best_times(loop: Loop) -> dict[int, float]:
    """Each distinct job's best (minimum) time over its repetitions.

    On a shared 2-vCPU virtual machine, other tenants were measured to slow
    each vCPU by up to 1.9x, independently, for stretches of a second to a
    minute; thread CPU time tracks wall time, so the excess is not the
    program's. A job's best time discards that excess as long as one of its
    repetitions, which alternate between the CPUs, falls outside such a
    stretch. Its median does not whenever a stretch covers half the run.
    """
    best: dict[int, float] = {}
    for k, dt in loop.times:
        best[k] = min(dt, best.get(k, dt))
    return dict(sorted(best.items()))


def trace_overhead_pct(plain: Loop, traced: Loop) -> float:
    """Traced against untraced time on the jobs both loops ran: ratio of
    the sums of per-job best times, minus one, in percent."""
    a, b = best_times(plain), best_times(traced)
    common = a.keys() & b.keys()
    return 100.0 * (sum(b[k] for k in common) / sum(a[k] for k in common) - 1.0)


def write_spans(path: Path, records: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write("name,start_s,end_s,parent,job\n")
        for name, start, end, parent, job in records:
            f.write(f"{name},{start!r},{end!r},{parent},{job}\n")


def measure(args, wl, workdir: Path):
    """Run the workload. Returns the result record: environment, metrics of
    this mode, accuracy figures, correctness, job counts, notes and every
    job time."""
    jobs = wl.make_jobs(args.workload, args.seed)
    wl.write_configs(workdir, jobs)
    paths = [wl.config_path(workdir, job) for job in jobs]
    notes, metrics = [], {}

    if args.trace == 1:
        metrics.update(import_times())
        notes.append(f"import_ms: median of {IMPORTTIME_RUNS} fresh "
                     f"interpreters under -X importtime")

    warm = warm_pass(wl, jobs, paths)

    if args.trace == 0:
        setup = ColdStarts(args.workload, args.seed, workdir)
        loop = timed_loop(wl, jobs, paths, warm, args.seconds,
                          pause=setup, pauses=COLD_STARTS)
        loops = [loop]
        metrics["setup_s"] = statistics.median(setup.times)
        notes.append(f"setup_s: median of {len(setup.times)} cold starts "
                     f"spread over the run, alternating CPUs (min "
                     f"{min(setup.times):.4f} s, max {max(setup.times):.4f} s)")
        best = best_times(loop)
        metrics["job_p50_ms"] = statistics.median(best.values()) * 1e3
        metrics["job_p90_ms"] = _p90(list(best.values())) * 1e3
        metrics["points_per_s"] = (sum(warm.points[k] for k in best)
                                   / sum(best.values()))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        raw = [dt for _, dt in loop.times]
        reps = Counter(k for k, _ in loop.times).values()
        notes.append(
            f"job times: {len(raw)} executions of {len(best)} distinct "
            f"jobs ({min(reps)} to {max(reps)} each) in {loop.elapsed:.2f} s; "
            f"p50, p90 and points_per_s are over the distinct jobs, each at "
            f"its best time")
        notes.append(
            f"raw executions: p50 {statistics.median(raw) * 1e3:.4f} ms, "
            f"p90 {_p90(raw) * 1e3:.4f} ms, "
            f"{loop.points / loop.elapsed:.4f} points/s over the loop")
    else:
        plain = timed_loop(wl, jobs, paths, warm, args.seconds / 2)
        tracer = spans.Tracer()
        with tracer:
            traced = timed_loop(wl, jobs, paths, warm, args.seconds / 2, tracer)
        loops = [plain, traced]
        executed = [k for k, _ in traced.times
                    if jobs[k].kind in wl.CLI_KINDS and warm.outputs[k]]
        metrics.update(spans.layer_metrics(
            tracer.spans, tracer.counts, len(traced.times),
            rows_out=sum(warm.points[k] for k in executed),
            bytes_out=sum(len(warm.outputs[k].encode()) for k in executed)))
        metrics["trace.overhead_pct"] = trace_overhead_pct(plain, traced)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        write_spans(span_file, tracer.spans)
        notes.append(f"per-layer metrics are per job over n = {len(traced.times)} "
                     f"traced jobs, overhead against n = {len(plain.times)} "
                     f"untraced jobs; {len(tracer.spans)} spans written to "
                     f"{span_file.relative_to(ROOT)}")

    acc = accuracy(warm, loops)
    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for lp in loops:
        notes.extend(f"FAILED {key}: {why}" for key, why in lp.failures)
    notes.extend(f"REFERENCE FAILED {key}: {why}" for key, why in warm.failures)
    notes.append(f"{failed}/{attempted} jobs failed; {len(warm.checks)} "
                 f"values checked against references")
    return {"env": environment(args, len(jobs), attempted),
            "correct": failed == 0 and not warm.failures,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "accuracy": acc, "notes": notes,
            "times": [[jobs[k].key, dt] for lp in loops for k, dt in lp.times]}


def load_spec() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {mode: {m["name"]: m["unit"] for m in spec[key]}
            for mode, key in ((0, "end_to_end"), (1, "per_layer"))}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "aiisac" / "__init__.py").is_file():
        print(f"benchmark: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"benchmark: cannot import the program: {exc}", file=sys.stderr)
        return 2
    units = load_spec()[args.trace]

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = measure(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    metrics, acc = record["metrics"], record["accuracy"]
    metrics.update({k: v for k, v in acc.items() if k in units})
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} "
                           f"do not match BENCHMARK.json")

    print("env " + json.dumps(record["env"], sort_keys=True))
    for note in record["notes"]:
        print(note)
    for name, value in {**metrics, **acc}.items():
        print(f"{name:32s} {value!r:>24} {units.get(name) or ACCURACY[name]}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
