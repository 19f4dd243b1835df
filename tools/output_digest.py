"""One sha256 per benchmark workload over every job's output, for byte-identity checks.

    python3 tools/output_digest.py --seeds 1 2 3 4 5

Run from the root of each tree to compare: equal lines mean every job of the
sweep, surface and design workloads at those seeds gave the same exit code
and the same output bytes. The jobs are the benchmark's own
(bench/workloads.py, imported and not changed), run in this process as the
harness runs them, with one BLAS thread. Each digest covers, per seed and job
in order, the seed, the job's key, its exit code and its output text.
"""
import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

# bench/run.py sets its one-BLAS-thread variables on import, before numpy.
import run  # noqa: E402,F401
import workloads  # noqa: E402


def digest(workload: str, seeds: list[int]) -> str:
    """sha256 of (seed, key, exit code, output) over the workload's jobs."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            jobs = workloads.make_jobs(workload, seed)
            workdir = Path(tmp) / f"{workload}-{seed}"
            workloads.write_configs(workdir, jobs)
            for job in jobs:
                rc, text = workloads.run_job(job, workloads.config_path(workdir, job))
                h.update(f"{seed}\0{job.key}\0{rc}\0{text}\0".encode())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    seeds = " ".join(map(str, args.seeds))
    for workload in ("sweep", "surface", "design"):
        print(f"{workload} seeds {seeds}: {digest(workload, args.seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
