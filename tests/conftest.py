"""Puts src/ on PYTHONPATH for the child interpreters that some tests start
(`python -m aiisac.cli ...`), so that a plain `python -m pytest` needs no
install and no PYTHONPATH; pyproject.toml's `pythonpath` covers this
process only."""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH", "")) if p)
