import ast
import json
import math
import subprocess
import sys
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import aiisac
from aiisac import (AiBudget, FadingModel, Frontier, PerfPoint, QuadratureRule,
                    RandomStream, ScalarScenario, conditional_snr, crlb,
                    ergodic_distortion, ergodic_rate, fisher_info, gaussian_mi,
                    kappa, monte_carlo_oracle, objective, rayleigh_rate_exact)
from aiisac import errors
from aiisac.allocate import AllocationProblem
from aiisac.errors import DegenerateInputError
from aiisac.mimo import MimoScenario, check_psd, rate_surface
from aiisac.numerics import find_root

_SCENARIO = ScalarScenario(power=1.0, gain_c=1.0, gain_s=1.0, noise_c=0.1,
                           noise_s=0.1, prior_var=1.0)
_MIMO = MimoScenario(h_c=np.eye(2), h_s=np.eye(2), q=np.eye(2), r_c=np.eye(2),
                     r_s=np.eye(2), dmu=np.ones(2), budget=AiBudget(math.inf))
_RULE = QuadratureRule(20)
# Entries of this size overflow a sum of two of them or an eigenvalue.
_BIG = 1.7e308


def _whitened_overflow(r_s: float) -> MimoScenario:
    """A scenario whose Fisher information dmu^H R_s^-1 dmu overflows."""
    return replace(_MIMO, r_s=r_s * np.eye(2), dmu=1e300 * np.ones(2))


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


# sha256 over every job of each benchmark workload at seed 1 (its seed, key,
# exit code and output bytes), as tools/output_digest.py prints it. A change
# to any job's output moves one; a benchmark refresh that changes the jobs
# re-derives them.
_WORKLOAD_DIGESTS = {
    "sweep": "a0291c9df1522670b9ec33db96e7d4cf1d22ffa7b222083877913bb245a829cc",
    "surface": "6da24bbbfb2c8fbed9f1441c788d743a3f1e36d957a664c65e3d8a2007689ba6",
    "design": "67d910b346d2ad45baac3f661d4cb2e0e2f4cec58d3fd0e3e5c987767cffdf69",
}


def test_benchmark_outputs_unchanged():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "tools/output_digest.py", "--seeds", "1"],
                          cwd=root, capture_output=True, text=True, timeout=300,
                          check=True)
    assert proc.stdout.splitlines() == [f"{workload} seeds 1: {digest}"
                                        for workload, digest in _WORKLOAD_DIGESTS.items()]


_OUT_OF_DOMAIN = {
    "fading-kind": lambda: FadingModel("nakagami"),
    "rician-k": lambda: FadingModel("rician", k_factor=-1.0),
    "rician-k-inf": lambda: FadingModel("rician", k_factor=math.inf),
    "rayleigh-k": lambda: FadingModel("rayleigh", k_factor=-1.0),
    "fading-mean-snr": lambda: ergodic_rate(0.0, 0.1, 0.0, _RULE),
    "fading-kappa": lambda: ergodic_rate(10.0, -0.1, 0.0, _RULE),
    "fading-kappa-inf": lambda: ergodic_rate(10.0, math.inf, 0.0, _RULE),
    "fading-kappa-axes": lambda: ergodic_rate(10.0, np.ones((2, 2)), 0.0, _RULE),
    "fading-k": lambda: ergodic_distortion(10.0, 0.1, math.inf, 1.0, _RULE),
    "fading-prior": lambda: ergodic_distortion(10.0, 0.1, 0.0, math.inf, _RULE),
    "snr-kappa": lambda: conditional_snr(1.0, 10.0, -0.1),
    "snr-gain-negative": lambda: conditional_snr(-1.0, 10.0, 0.1),
    "snr-gain-inf": lambda: conditional_snr(math.inf, 10.0, 0.1),
    "snr-gain-nan": lambda: conditional_snr(np.array([1.0, math.nan]), 10.0, 0.1),
    "snr-product-overflow": lambda: conditional_snr(1e300, 1e300, 0.0),
    "snr-kappa-inf": lambda: conditional_snr(0.0, 10.0, math.inf),
    "exact-kappa": lambda: rayleigh_rate_exact(10.0, -0.1),
    "oracle-samples": lambda: monte_carlo_oracle(FadingModel("rayleigh"), 10.0, 0.1,
                                                 1.0, 0, RandomStream(1)),
    "oracle-samples-float": lambda: monte_carlo_oracle(FadingModel("rayleigh"), 10.0,
                                                       0.1, 1.0, 10.5, RandomStream(1)),
    "scenario-power": lambda: replace(_SCENARIO, power=0.0),
    "scenario-gain": lambda: replace(_SCENARIO, gain_s=-1.0),
    "scenario-noise": lambda: replace(_SCENARIO, noise_c=0.0),
    "scenario-prior": lambda: replace(_SCENARIO, prior_var=math.nan),
    "scenario-power-inf": lambda: replace(_SCENARIO, power=math.inf),
    "scenario-gain-inf": lambda: replace(_SCENARIO, gain_c=math.inf),
    "scenario-noise-inf": lambda: replace(_SCENARIO, noise_s=math.inf),
    "scenario-prior-inf": lambda: replace(_SCENARIO, prior_var=math.inf),
    "surface-empty-grid": lambda: rate_surface(_MIMO.h_c, _MIMO.r_c, _MIMO.q,
                                               [], [1.0]),
    "surface-scale": lambda: rate_surface(_MIMO.h_c, _MIMO.r_c, _MIMO.q, [1.0], [0.0]),
    "surface-capacity": lambda: rate_surface(_MIMO.h_c, _MIMO.r_c, _MIMO.q,
                                             [-1.0], [1.0]),
    "surface-q-not-square": lambda: rate_surface(np.eye(2), np.eye(2), np.ones((2, 3)),
                                                 [1.0], [1.0]),
    "allocation-power": lambda: AllocationProblem(0.0, 1.0, 0.3, AiBudget(4.0),
                                                  _SCENARIO),
    "allocation-power-inf": lambda: AllocationProblem(math.inf, 1.0, 0.3, AiBudget(4.0),
                                                      _SCENARIO),
    "allocation-weight": lambda: AllocationProblem(1.0, 1.0, 1.5, AiBudget(4.0),
                                                   _SCENARIO),
    "allocation-mode": lambda: AllocationProblem(1.0, 1.0, 0.3, AiBudget(4.0),
                                                 _SCENARIO, mode="x"),
    "budget-negative": lambda: AiBudget(-1.0),
    "budget-zero-kappa": lambda: kappa(AiBudget(0.0)),
    "psd-empty": lambda: check_psd(np.zeros((0, 0))),
    "psd-non-hermitian": lambda: check_psd(np.array([[1.0, 1.0], [0.0, 1.0]])),
    "psd-eigen-overflow": lambda: check_psd(np.array(
        [[_BIG, _BIG * (1 + 1j)], [_BIG * (1 - 1j), _BIG]])),
    "mi-sum-overflow": lambda: gaussian_mi(_BIG * np.eye(2), _BIG * np.eye(2)),
    "mi-eigen-overflow": lambda: gaussian_mi(
        np.array([[_BIG, _BIG / 2], [_BIG / 2, _BIG]]), np.eye(2)),
    "fisher-overflow": lambda: fisher_info(_whitened_overflow(1e-300)),
    "fisher-subnormal-overflow": lambda: fisher_info(_whitened_overflow(1e-320)),
    "crlb-overflow": lambda: crlb(_whitened_overflow(1e-300)),
    "crlb-subnormal-overflow": lambda: crlb(_whitened_overflow(1e-320)),
    "mimo-dmu-nan": lambda: replace(_MIMO, dmu=np.array([1.0, math.nan])),
    "crlb-unobservable": lambda: crlb(replace(_MIMO, dmu=np.zeros(2))),
    "quadrature-order": lambda: QuadratureRule(0),
    "root-bracket": lambda: find_root(lambda x: x, 1.0, -1.0, tol=1e-12),
    "perf-point-rate": lambda: PerfPoint(-1.0, 1.0),
    "frontier-unsorted": lambda: Frontier(AiBudget(1.0), np.array([0.5, 0.0]),
                                          np.ones(2), np.ones(2)),
    "objective-alpha": lambda: objective(AllocationProblem(
        1.0, 1.0, 0.3, AiBudget(4.0), _SCENARIO), 1.5),
}


# The message of each _OUT_OF_DOMAIN case that no other test names.
_OUT_OF_DOMAIN_MESSAGES = {"surface-q-not-square": r"Q must be square, got shape \(2, 3\)"}


@pytest.mark.parametrize("name", _OUT_OF_DOMAIN)
def test_out_of_domain_inputs_raise_package_errors(name):
    # Library callers can catch AiIsacError alone; it is still a ValueError.
    with pytest.raises(DegenerateInputError, match=_OUT_OF_DOMAIN_MESSAGES.get(name)):
        _OUT_OF_DOMAIN[name]()


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (from __future__ aside)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


_MODULES = sorted(p for p in Path(aiisac.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")  # __init__ imports to re-export


@pytest.mark.parametrize("path", _MODULES, ids=[p.stem for p in _MODULES])
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_finder_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "import os.path\nfrom .x import a, b as c\nnp.zeros(a)\n")
    assert _unused_imports(source) == ["c (line 5)", "math (line 2)", "os (line 4)"]


# Exports that no other package module reads, each with the test file that
# needs it as an oracle or as its subject.
ORACLES = {
    "FadingModel": "test_acceptance.py",
    "Frontier": "test_region.py",
    "conditional_snr": "test_acceptance.py",
    "covariance_map": "test_acceptance.py",
    "crlb": "test_mimo.py",
    "distortion": "test_acceptance.py",
    "ergodic_distortion": "test_acceptance.py",
    "fisher_info": "test_mimo.py",
    "gaussian_mi": "test_acceptance.py",
    "in_region": "test_region.py",
    "mimo_rate": "test_acceptance.py",
    "monte_carlo_oracle": "test_acceptance.py",
    "objective": "test_acceptance.py",
    "rate": "test_acceptance.py",
}


def _reads(source: str) -> set[tuple[str, str]]:
    """(module, name) pairs a package module imports by name (`from .m
    import name`) or reads as an attribute of an imported module (`m.name`,
    also under an alias)."""
    tree = ast.parse(source)
    modules, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    out.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.add((modules[node.value.id], node.attr))
    return out


def _names_read(source: str) -> set[str]:
    """Every name a test file imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_read_or_an_oracle():
    # A public name is read by another package module, or a test needs it.
    read = set().union(*(_reads(p.read_text(encoding="utf-8")) for p in _MODULES))
    unread = sorted(name for name in aiisac.__all__
                    if (getattr(aiisac, name).__module__.rsplit(".", 1)[1], name)
                    not in read)
    assert unread == sorted(ORACLES)
    tests = Path(__file__).parent
    assert [name for name, test in ORACLES.items()
            if name not in _names_read((tests / test).read_text(encoding="utf-8"))] == []


def test_read_finder_resolves_module_aliases():
    source = ("from . import allocate as alloc_mod\nfrom . import fading\n"
              "from .bottleneck import kappa as k\nalloc_mod.objective(fading.rate)\n"
              "x.frontier\n")
    assert _reads(source) == {("allocate", "objective"), ("bottleneck", "kappa"),
                              ("fading", "rate")}


def _raised_names(source: str) -> list[str]:
    """The class name of every raise statement that names one: `raise X`,
    `raise X(...)` and `raise m.X(...)` give X; a bare `raise` gives none."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(exc.attr if isinstance(exc, ast.Attribute) else exc.id)
    return names


_ERROR_CLASSES = sorted(name for name, obj in vars(errors).items()
                        if isinstance(obj, type) and obj.__module__ == errors.__name__)


def test_errors_define_six_classes():
    assert _ERROR_CLASSES == ["AiIsacError", "BracketError", "ConfigError",
                              "ConvergenceError", "DegenerateInputError",
                              "SingularMatrixError"]


@pytest.mark.parametrize("path", _MODULES, ids=[p.stem for p in _MODULES])
def test_every_raise_names_a_package_error(path):
    # Out-of-domain input is a DegenerateInputError, never a bare ValueError,
    # so library callers can catch AiIsacError alone.
    names = _raised_names(path.read_text(encoding="utf-8"))
    assert [name for name in names if name not in _ERROR_CLASSES] == []


def test_raise_finder_names_each_raised_class():
    source = ("try:\n    raise ValueError('x')\nexcept ValueError:\n    raise\n"
              "raise errors.ConfigError\nraise KeyError from None\n")
    assert sorted(_raised_names(source)) == ["ConfigError", "KeyError", "ValueError"]


def _scoped_nodes(source: str) -> Iterator[tuple[ast.AST, str]]:
    """Each node of a module with its scope: the dotted name of the
    enclosing def or class, or "<module>"."""

    def visit(node: ast.AST, scope: str) -> Iterator[tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, child.name if scope == "<module>"
                                 else f"{scope}.{child.name}")
                continue
            yield child, scope
            yield from visit(child, scope)

    return visit(ast.parse(source), "<module>")


def _linalg_sites(source: str) -> list[tuple[str, str]]:
    """(routine, scope) of each numpy.linalg routine a module reads, as
    `np.linalg.f` or `numpy.linalg.f`, or imports from numpy.linalg."""
    sites = []
    for node, scope in _scoped_nodes(source):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            sites.append((node.attr, scope))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            sites.extend((alias.name, scope) for alias in node.names)
    return sites


# The one call site of each factorization: overflow and PSD rules live there,
# and no other eigen-solver or factorization of numpy.linalg is called.
_FACTORIZATIONS = {"cholesky": "bottleneck._cholesky",
                   "eigh": "bottleneck._check_psd"}
_DECOMPOSITIONS = {"cholesky", "eig", "eigh", "eigvals", "eigvalsh", "qr", "svd"}


def test_each_factorization_has_one_call_site():
    sites = sorted((name, f"{path.stem}.{scope}") for path in _MODULES
                   for name, scope in _linalg_sites(path.read_text(encoding="utf-8"))
                   if name in _DECOMPOSITIONS)
    assert sites == sorted(_FACTORIZATIONS.items())


def test_linalg_finder_names_each_site_and_scope():
    source = ("import numpy as np\nfrom numpy.linalg import eigh\n"
              "def f(m):\n    return numpy.linalg.cholesky(m)\n"
              "class A:\n    def g(self, m):\n        np.linalg.eigvalsh(m)\n"
              "        raise np.linalg.LinAlgError\n"
              "x = np.linalg.solve\n")
    assert sorted(_linalg_sites(source)) == [
        ("LinAlgError", "A.g"), ("cholesky", "f"), ("eigh", "<module>"),
        ("eigvalsh", "A.g"), ("solve", "<module>")]


def _raise_messages(source: str) -> list[tuple[str, str]]:
    """(text, scope) of each raise whose error is built from a string or an
    f-string; an f-string's replacement fields read {}."""
    messages = []
    for node, scope in _scoped_nodes(source):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and node.exc.args):
            continue
        arg = node.exc.args[0]
        if isinstance(arg, ast.JoinedStr):
            messages.append(("".join(v.value if isinstance(v, ast.Constant) else "{}"
                                     for v in arg.values), scope))
        elif isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            messages.append((arg.value, scope))
    return messages


# The one raise site of each input rule that several modules apply.
_SHARED_RULES = {"must be positive and finite, got": "errors._check_positive",
                 "must be >= 0 and finite, got": "errors._check_nonnegative",
                 "must lie in [0,1], got": "errors._check_unit",
                 "must be an integer in [": "errors._check_integer",
                 "capacity must be >= 0 bits": "bottleneck.AiBudget.__post_init__",
                 "rate and distortion must be >= 0": "gaussian.PerfPoint.__post_init__",
                 "unknown preset": "config._preset_fields"}


def test_each_shared_rule_has_one_raise_site():
    sites = sorted((rule, f"{path.stem}.{scope}") for path in _MODULES
                   for text, scope in _raise_messages(path.read_text(encoding="utf-8"))
                   for rule in _SHARED_RULES if rule in text)
    assert sites == sorted(_SHARED_RULES.items())


# Words of the positive, [0, 1] and integer rules, which only their errors
# helpers may raise: a module that words its own copy of a rule drifts from it.
_RULE_WORDS = ("must be positive", "must lie in [0", "must be an integer")


def test_range_rules_are_raised_only_in_errors():
    copies = sorted((text, f"{path.stem}.{scope}") for path in _MODULES
                    if path.stem != "errors"
                    for text, scope in _raise_messages(path.read_text(encoding="utf-8"))
                    if any(words in text for words in _RULE_WORDS))
    assert copies == []


def test_raise_message_finder_reads_strings_and_fstrings():
    source = ("def f(x):\n    raise E(f'{x} must be >= 0, got {x!r}')\n"
              "class A:\n    def g(self):\n        raise E('plain' ' text')\n"
              "raise E\nraise E(name)\nraise E()\n")
    assert sorted(_raise_messages(source)) == [
        ("plain text", "A.g"), ("{} must be >= 0, got {}", "f")]
