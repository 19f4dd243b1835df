import json
import subprocess
import sys

import aiisac


def test_exports_resolve_once():
    missing = [name for name in aiisac.__all__ if not hasattr(aiisac, name)]
    assert missing == []
    assert len(aiisac.__all__) == len(set(aiisac.__all__))


# Runs CLI subcommands in one fresh interpreter and prints, after each, which
# SciPy subpackages are loaded.
_SCIPY_PROBE = """
import contextlib, io, json, sys
import aiisac.cli as cli
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command]) == 0
    print(json.dumps([command, "scipy.optimize" in sys.modules,
                      "scipy.special" in sys.modules]))
"""


def test_scipy_loads_only_for_fading_averages():
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, "allocate", "frontier",
         "mimo-surface", "gaussian-sweep"],
        capture_output=True, text=True, timeout=300, check=True)
    loaded = [json.loads(line) for line in proc.stdout.splitlines()]
    assert loaded == [
        ["allocate", False, False],
        ["frontier", False, False],
        ["mimo-surface", False, False],
        ["gaussian-sweep", False, True],
    ]
