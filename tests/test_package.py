import json
import subprocess
import sys

import aiisac


def test_exports_resolve_once():
    missing = [name for name in aiisac.__all__ if not hasattr(aiisac, name)]
    assert missing == []
    assert len(aiisac.__all__) == len(set(aiisac.__all__))


# Runs CLI subcommands in one fresh interpreter and prints, after each, the
# SciPy modules that are loaded.
_SCIPY_PROBE = """
import contextlib, io, json, sys
import aiisac.cli as cli
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command]) == 0
    print(json.dumps([command, sorted(
        m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def test_no_subcommand_loads_scipy():
    commands = ["allocate", "frontier", "mimo-surface", "gaussian-sweep", "verify"]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *commands],
        capture_output=True, text=True, timeout=300, check=True)
    loaded = [json.loads(line) for line in proc.stdout.splitlines()]
    assert loaded == [[command, []] for command in commands]
