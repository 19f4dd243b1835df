import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import aiisac
from aiisac import (AiBudget, FadingModel, QuadratureRule, RandomStream, ScalarScenario,
                    conditional_snr, ergodic_distortion, ergodic_rate,
                    monte_carlo_oracle, rayleigh_rate_exact)
from aiisac.allocate import AllocationProblem
from aiisac.errors import DegenerateInputError
from aiisac.mimo import MimoScenario, rate_surface

_SCENARIO = ScalarScenario(power=1.0, gain_c=1.0, gain_s=1.0, noise_c=0.1,
                           noise_s=0.1, prior_var=1.0)
_MIMO = MimoScenario(h_c=np.eye(2), h_s=np.eye(2), q=np.eye(2), r_c=np.eye(2),
                     r_s=np.eye(2), dmu=np.ones(2), budget=AiBudget(math.inf))
_RULE = QuadratureRule(20)


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


_OUT_OF_DOMAIN = {
    "fading-kind": lambda: FadingModel("nakagami"),
    "rician-k": lambda: FadingModel("rician", k_factor=-1.0),
    "rician-k-inf": lambda: FadingModel("rician", k_factor=math.inf),
    "rayleigh-k": lambda: FadingModel("rayleigh", k_factor=-1.0),
    "fading-mean-snr": lambda: ergodic_rate(0.0, 0.1, 0.0, _RULE),
    "fading-kappa": lambda: ergodic_rate(10.0, -0.1, 0.0, _RULE),
    "fading-kappa-axes": lambda: ergodic_rate(10.0, np.ones((2, 2)), 0.0, _RULE),
    "fading-k": lambda: ergodic_distortion(10.0, 0.1, math.inf, 1.0, _RULE),
    "fading-prior": lambda: ergodic_distortion(10.0, 0.1, 0.0, math.inf, _RULE),
    "snr-kappa": lambda: conditional_snr(1.0, 10.0, -0.1),
    "exact-kappa": lambda: rayleigh_rate_exact(10.0, -0.1),
    "oracle-samples": lambda: monte_carlo_oracle(FadingModel("rayleigh"), 10.0, 0.1,
                                                 1.0, 0, RandomStream(1)),
    "scenario-power": lambda: replace(_SCENARIO, power=0.0),
    "scenario-gain": lambda: replace(_SCENARIO, gain_s=-1.0),
    "scenario-noise": lambda: replace(_SCENARIO, noise_c=0.0),
    "scenario-prior": lambda: replace(_SCENARIO, prior_var=math.nan),
    "surface-empty-grid": lambda: rate_surface(_MIMO, [], [1.0]),
    "surface-scale": lambda: rate_surface(_MIMO, [1.0], [0.0]),
    "allocation-power": lambda: AllocationProblem(0.0, 1.0, 0.3, AiBudget(4.0),
                                                  _SCENARIO),
    "allocation-weight": lambda: AllocationProblem(1.0, 1.0, 1.5, AiBudget(4.0),
                                                   _SCENARIO),
    "allocation-mode": lambda: AllocationProblem(1.0, 1.0, 0.3, AiBudget(4.0),
                                                 _SCENARIO, mode="x"),
}


@pytest.mark.parametrize("build", _OUT_OF_DOMAIN.values(), ids=_OUT_OF_DOMAIN)
def test_out_of_domain_inputs_raise_package_errors(build):
    # Library callers can catch AiIsacError alone; it is still a ValueError.
    with pytest.raises(DegenerateInputError):
        build()
