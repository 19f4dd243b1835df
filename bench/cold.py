"""Cold start of one job, run in a fresh interpreter by bench/run.py.

    python3 bench/cold.py <workload> <seed> <config dir>

Imports aiisac.cli, parses the workload's first config and runs that job,
which is what a user of the CLI pays on every invocation. Exits with the
job's exit code.
"""
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import aiisac.cli  # noqa: F401  (first, as `aiisac <subcommand>` does)
    import workloads

    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    job = workloads.make_jobs(workload, seed)[0]
    rc, _ = workloads.run_job(job, workloads.config_path(workdir, job))
    return rc


if __name__ == "__main__":
    sys.exit(main())
