"""Start-up: each subcommand imports only the modules it runs, in a fresh
interpreter, and the package's public names resolve lazily to the objects of
their defining modules."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rabsde
from rabsde import solver
from test_report_bytes import CASES, _args

_SRC = str(Path(rabsde.__file__).resolve().parents[1])
# the modules a run loads only when one of its workflows needs them
_ON_DEMAND = ("rabsde.comparison", "rabsde.stopping", "rabsde.crr", "concurrent.futures")
# each pinned case's on-demand modules; every other case loads none
_LOADS = {
    "solve_outputs": {"rabsde.stopping"},
    "solve_oracle_crr": {"rabsde.crr"},
    "stopping": {"rabsde.stopping"},
    "stopping_past_cap": {"rabsde.stopping"},
    "compare_iterates_30": {"rabsde.comparison"},
    "suite_7": {"rabsde.comparison"},
}
# `rabsde argv`, then the names in sys.modules as the last stderr line
_PROBE = ("import json, sys; from rabsde.cli import main; code = main(sys.argv[1:]); "
          "print(json.dumps(sorted(sys.modules)), file=sys.stderr); sys.exit(code)")

# every name the package exported when it imported all its submodules up front
PUBLIC = {
    "comparison": ("ComparisonCase", "ComparisonVerdict", "HypothesisReport", "IterateTrace",
                   "check_monotone_in_anticipation", "check_theta_condition", "iterate_sequence",
                   "random_comparison_case", "run_comparison", "run_random_suite"),
    "crr": ("american_put_scenario", "crr_american_put"),
    "driver": ("DriverExpr", "DriverForm", "GridSpec", "LipschitzEstimate", "TransformedDriver",
               "check_M_form_lipschitz", "estimate_lipschitz", "parse_driver"),
    "errors": ("DriverEvalError", "DriverParseError", "EnumerationError", "HypothesisError",
               "LatticeError", "MonotonicityError", "PicardConvergenceError", "RabsdeError",
               "ScenarioError", "SolverError"),
    "lattice": ("ALIVE", "DefaultLattice", "IntensitySpec", "NodeId", "ProcessField", "build_lattice"),
    "solver": ("PicardOptions", "Scenario", "Scheme", "Solution", "ValidationReport", "beta_norm",
               "estimate_c_prime", "obstacle_field", "solve_backward", "solve_picard",
               "terminal_values", "validate_solution"),
    "stopping": ("KRunningMaxReport", "StoppingReport", "StoppingRule", "brute_force_value",
                 "k_running_max_check", "snell_report", "stopping_payoff", "tau_characterizations"),
}


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c code argv`` on this package, with one worker for the suite."""
    env = {**os.environ, "RABSDE_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_fresh_run_loads_only_the_modules_its_workflows_use(tmp_path, case):
    argv, sha = CASES[case]
    out = tmp_path / "report"
    proc = _fresh(_PROBE, *_args(tmp_path, argv), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert loaded & set(_ON_DEMAND) == _LOADS.get(case, set())


def test_a_bare_import_loads_no_submodule_and_each_resolves_on_access():
    code = ("import json, sys, rabsde; before = sorted(m for m in sys.modules if m.startswith('rabsde'));"
            f" ok = [getattr(rabsde, m) is sys.modules['rabsde.' + m] for m in {sorted(PUBLIC)!r}];"
            " print(json.dumps([before, ok, dir(rabsde)]))")
    proc = _fresh(code)
    assert proc.returncode == 0, proc.stderr
    before, ok, listed = json.loads(proc.stdout)
    assert before == ["rabsde"]
    assert all(ok)
    assert set(PUBLIC) <= set(listed)
    assert {name for names in PUBLIC.values() for name in names} <= set(listed)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_every_public_name_is_its_defining_modules_object(module, name):
    namespace: dict = {}
    exec(f"from rabsde import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"rabsde.{module}"), name)


def test_a_public_name_reads_the_modules_attribute_at_each_access(monkeypatch):
    # tracing hooks patch the defining module; the package must not hold a stale copy
    marker = object()
    monkeypatch.setattr(solver, "solve_backward", marker)
    assert rabsde.solve_backward is marker
    monkeypatch.undo()
    assert rabsde.solve_backward is solver.solve_backward


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        rabsde.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from rabsde import no_such_name", {})
