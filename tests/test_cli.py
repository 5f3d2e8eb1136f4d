"""Scenario files, reports, determinism, exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import unittest.mock
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_scenario, random_scenario
from rabsde import IntensitySpec, build_lattice, cli, comparison, solver
from rabsde.cli import (
    RunFlags,
    RunReport,
    emit_report,
    format_json,
    load_scenario_with_outputs,
    main,
    run,
    scenario_from_dict,
    scenario_to_dict,
)
from rabsde.driver import DriverExpr
from rabsde.errors import ScenarioError
from rabsde import lattice as lattice_module
from rabsde.lattice import DefaultLattice, ProcessField
from rabsde.solver import obstacle_field, solve_backward

MINIMAL = {
    "horizon": 1.0,
    "steps": 2,
    "lambda": 0.5,
    "driver": {"text": "0", "form": "M"},
    "obstacle": "-1e9",
    "terminal": "w",
}


def _problem(doc):
    """The prepared problem that ``run`` takes, loaded as the CLI loads a file."""
    return cli._gate([cli._scenario_from_doc(doc)])[0]


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_load_minimal_scenario(tmp_path):
    scenario = load_scenario_with_outputs(_write(tmp_path, MINIMAL))[0].scenario
    assert scenario.n_steps == 2
    assert scenario.driver.base.source == "0"
    sol = solve_backward(scenario)
    assert sol.y0 == 0.0


def test_load_rejects_fractional_delta(tmp_path):
    doc = {**MINIMAL, "delta_steps": 1.5}
    with pytest.raises(ScenarioError) as exc:
        load_scenario_with_outputs(_write(tmp_path, doc))
    assert any(ptr == "/delta_steps" for ptr, _ in exc.value.issues)


def test_load_rejects_terminal_below_obstacle(tmp_path):
    doc = {**MINIMAL, "obstacle": "w + 1", "terminal": "w"}
    with pytest.raises(ScenarioError) as exc:
        load_scenario_with_outputs(_write(tmp_path, doc))
    assert any(ptr == "/terminal" for ptr, _ in exc.value.issues)


def test_load_rejects_unknown_key_and_bad_expression(tmp_path):
    doc = {**MINIMAL, "driver": {"text": "y + ", "form": "M"}, "typo_key": 1}
    with pytest.raises(ScenarioError) as exc:
        load_scenario_with_outputs(_write(tmp_path, doc))
    pointers = {ptr for ptr, _ in exc.value.issues}
    assert "/typo_key" in pointers
    assert "/driver/text" in pointers


def test_load_rejects_wrong_lambda_length(tmp_path):
    doc = {**MINIMAL, "lambda": [0.1, 0.2, 0.3]}
    with pytest.raises(ScenarioError) as exc:
        load_scenario_with_outputs(_write(tmp_path, doc))
    assert any(ptr == "/lambda" for ptr, _ in exc.value.issues)


def test_load_rejects_hazard_above_one(tmp_path):
    doc = {**MINIMAL, "horizon": 1.0, "steps": 4, "lambda": 5.0}
    with pytest.raises(ScenarioError) as exc:
        load_scenario_with_outputs(_write(tmp_path, doc))
    assert any(ptr == "/lambda" for ptr, _ in exc.value.issues)


def test_load_rejects_obstacle_with_solution_variables(tmp_path):
    doc = {**MINIMAL, "obstacle": "y"}
    with pytest.raises(ScenarioError) as exc:
        load_scenario_with_outputs(_write(tmp_path, doc))
    assert any(ptr == "/obstacle" for ptr, _ in exc.value.issues)


def test_scenario_round_trip_solves_identically(tmp_path):
    doc = {
        **MINIMAL,
        "steps": 4,
        "delta_steps": 1,
        "driver": {"text": "0.2*y + 0.1*ey - 0.1*u", "form": "H"},
        "terminal": "w + 0.5*h",
    }
    scenario = load_scenario_with_outputs(_write(tmp_path, doc))[0].scenario
    redone = scenario_from_dict(scenario_to_dict(scenario))
    a = solve_backward(scenario)
    b = solve_backward(redone)
    for k in range(5):
        assert np.array_equal(a.y.step(k), b.y.step(k))


def test_run_zero_driver_report():
    report = run(_problem({**MINIMAL, "terminal": "h"}), RunFlags())
    assert report.passed
    assert report.data["solve"]["y0"] == pytest.approx(0.4375, abs=1e-15)
    assert report.data["solve"]["k_expected_total"] == 0.0
    names = {c["name"] for c in report.data["checks"]}
    assert "equation_residual" in names
    assert all("tolerance" in c for c in report.data["checks"])


def test_run_crr_oracle_check():
    problem = _problem(
        {
            "horizon": 1.0,
            "steps": 8,
            "lambda": 0.0,
            "driver": "-0.04*y",
            "obstacle": "max(1 - exp(w), 0)",
            "terminal": "max(1 - exp(w), 0)",
            "oracle": {"kind": "crr", "spot": 1.0, "strike": 1.0, "rate": 0.04, "sigma": 1.0},
        }
    )
    flags = RunFlags(workflows={"oracle"})
    report = run(problem, flags)
    assert report.passed
    oracle = report.data["oracle"]
    assert oracle["gap"] <= 1e-10


def test_run_picard_history_decreases():
    problem = _problem(
        {
            **MINIMAL,
            "steps": 8,
            "delta_steps": 2,
            "driver": {"text": "0.3*y + 0.2*ey", "form": "M"},
            "terminal": "w + 0.5*h",
            "scheme": "implicit",
        }
    )
    flags = RunFlags(workflows={"picard"}, picard=solver.PicardOptions(tol=1e-12))
    report = run(problem, flags)
    assert report.passed
    hist = report.data["picard"]["distances"]
    assert len(hist) >= 4
    assert all(b < a for a, b in zip(hist[1:], hist[2:]))


def test_emit_json_deterministic(tmp_path):
    report = run(_problem(MINIMAL), RunFlags())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, "json", str(p1))
    emit_report(report, "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_row_count(tmp_path):
    report = run(_problem(MINIMAL), RunFlags())
    path = tmp_path / "nodes.csv"
    emit_report(report, "csv", str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("step,up_count,default_step,Y,Z,U,dK,psi,S")
    assert len(lines) - 1 == 1 + 4 + 9


def test_identical_runs_produce_identical_bytes(tmp_path):
    path = _write(tmp_path, {**MINIMAL, "terminal": "w + h"})
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["solve", "--scenario", path, "--out", out1]) == 0
    assert main(["solve", "--scenario", path, "--out", out2]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_format_json_sorted_and_fixed_floats():
    text = format_json({"b": 0.1, "a": [1.0, 2], "c": {"y": True, "x": None}})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.10000000000000001" in text


def test_main_exit_code_validation_failure(tmp_path):
    path = _write(tmp_path, {**MINIMAL, "delta_steps": 1.5})
    assert main(["solve", "--scenario", path]) == 2


def test_main_exit_code_io_error(tmp_path):
    path = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "missing_dir" / "report.json")
    assert main(["solve", "--scenario", path, "--out", out]) == 4


def test_main_exit_code_numerical_failure(tmp_path):
    doc = {
        **MINIMAL,
        "steps": 8,
        "delta_steps": 2,
        "driver": {"text": "0.3*y + 0.2*ey", "form": "M"},
        "terminal": "w + 0.5*h",
        "scheme": "implicit",
    }
    path = _write(tmp_path, doc)
    assert main(["picard", "--scenario", path, "--max-iter", "1"]) == 3


def test_main_stopping_subcommand(tmp_path):
    doc = {
        "horizon": 1.0,
        "steps": 3,
        "lambda": 0.4,
        "driver": {"text": "0.1*y", "form": "M"},
        "obstacle": "0.8 - w - 0.2*h",
        "terminal": "max(0.8 - w - 0.2*h, 0) + 0.4",
    }
    path = _write(tmp_path, doc)
    out = str(tmp_path / "stopping.json")
    assert main(["stopping", "--scenario", path, "--out", out]) == 0
    data = json.loads(Path(out).read_text(encoding="utf-8"))
    assert data["stopping"]["gap"] <= 1e-10
    assert data["stopping"]["tau_rules_coincide"] is True


def test_main_compare_subcommand(tmp_path):
    base = {
        "horizon": 1.0,
        "steps": 5,
        "lambda": 0.3,
        "delta_steps": 1,
        "driver": {"text": "0.2*y + 0.1*ey", "form": "M"},
        "obstacle": "w - 1 + 0.2*t",
        "terminal": "w + 0.5*h + 0.5",
    }
    dominating = {**base, "terminal": "w + 0.5*h + 1.5"}
    p1 = _write(tmp_path, dominating, "s1.json")
    p2 = _write(tmp_path, base, "s2.json")
    out = str(tmp_path / "cmp.json")
    assert main(["compare", "--scenario", p1, "--scenario2", p2,
                 "--iterates", "10", "--out", out]) == 0
    data = json.loads(Path(out).read_text(encoding="utf-8"))
    assert data["comparison"]["min_gap"] >= -1e-10
    assert data["comparison"]["iterates"]["final_gap"] <= 1e-8


def test_a_nan_comparison_gap_fails_its_check(tmp_path):
    # a driver of 1e308 overflows Y to inf, so the node-wise gap Y1 - Y2 is NaN
    path = _write(tmp_path, {"horizon": 1.0, "steps": 40, "lambda": 0.0, "driver": "1e308",
                             "obstacle": "-1e9", "terminal": "w"})
    out = tmp_path / "cmp.json"
    assert main(["compare", "--scenario", path, "--scenario2", path, "--out", str(out)]) == 3
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["comparison"]["min_gap"] == "nan"
    check = next(c for c in data["checks"] if c["name"] == "comparison_min_gap")
    assert check["violation"] == "nan" and check["pass"] is False


def test_compare_iterates_converge_at_zero_lag(tmp_path):
    doc = {"horizon": 1.0, "steps": 6, "delta_steps": 0, "lambda": 0.3, "scheme": "explicit",
           "driver": {"text": "0.3*ey - 0.1*y", "form": "M"},
           "obstacle": "max(0.5 - w, 0) - 0.1*t", "terminal": "max(0.5 - w, 0) + 0.2*h"}
    p2 = _write(tmp_path, doc, "dominated.json")
    p1 = _write(tmp_path, {**doc, "driver": {"text": "0.3*ey - 0.1*y + 0.1", "form": "M"},
                           "terminal": "max(0.5 - w, 0) + 0.2*h + 0.3"}, "dominating.json")
    out = tmp_path / "cmp.json"
    assert main(["compare", "--scenario", p1, "--scenario2", p2, "--iterates", "40", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["comparison"]["iterates"]["final_gap"] <= 1e-8


def test_compare_prepares_and_solves_each_scenario_once(tmp_path, monkeypatch):
    base = {**_WORKFLOW_DOC, "steps": 5, "name": "dominated"}
    p1 = _write(tmp_path, {**base, "terminal": f"{base['terminal']} + 0.5", "name": "dominating"}, "s1.json")
    p2 = _write(tmp_path, base, "s2.json")
    prepared, solved, iterated = [], [], []
    prepare, solve = solver._prepare, solver._solve

    def counted_prepare(scenario, lattice=None):
        prepared.append(scenario.name)
        return prepare(scenario, lattice)

    def counted_solve(problems, frozen_ey=None, frozen=None):
        batch = [problems] if isinstance(problems, solver._Problem) else problems
        (solved if frozen_ey is None else iterated).extend(prob.scenario.name for prob in batch)
        return solve(problems, frozen_ey=frozen_ey, frozen=frozen)

    for module in (solver, comparison, cli):
        monkeypatch.setattr(module, "_prepare", counted_prepare)
        monkeypatch.setattr(module, "_solve", counted_solve)
    out = tmp_path / "cmp.json"
    # three iterates stop short of the 1e-8 limit check, so the run exits 3
    assert main(["compare", "--scenario", p1, "--scenario2", p2, "--iterates", "3", "--out", str(out)]) == 3
    data = json.loads(out.read_text(encoding="utf-8"))
    assert [c["name"] for c in data["checks"] if not c["pass"]] == ["iterate_limit_gap"]
    assert sorted(prepared) == sorted(solved) == ["dominated", "dominating"]
    assert data["comparison"]["iterates"]["count"] == 3 and iterated == ["dominated"] * 3


@pytest.mark.parametrize("command", ["solve", "picard", "stopping", "compare"])
def test_a_run_evaluates_each_scenarios_node_data_at_load_and_at_prepare_only(tmp_path, monkeypatch, command):
    p1 = _write(tmp_path, {**_WORKFLOW_DOC, "terminal": f"{_WORKFLOW_DOC['terminal']} + 0.5"}, "s1.json")
    p2 = _write(tmp_path, _WORKFLOW_DOC, "s2.json")
    loaded, calls = [], Counter()
    post_init, compiled = solver.Scenario.__post_init__, DriverExpr.compiled

    def counting_compiled(self):
        fn = compiled(self)

        def counted(env):
            calls[id(self)] += 1  # self stays alive in `loaded`, so ids stay unique
            return fn(env)

        return counted

    # in a CLI run only the load of a scenario file builds a Scenario
    monkeypatch.setattr(solver.Scenario, "__post_init__", lambda sc: loaded.append(sc) or post_init(sc))
    monkeypatch.setattr(DriverExpr, "compiled", counting_compiled)
    argv = {
        "solve": ["solve", "--scenario", p1, "--format", "csv"],
        "picard": ["picard", "--scenario", p1],
        "stopping": ["stopping", "--scenario", p1],
        "compare": ["compare", "--scenario", p1, "--scenario2", p2],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(loaded) == (2 if command == "compare" else 1)
    # the load's preparation is the only one: an obstacle field is one closure
    # call over the whole lattice, a terminal one call
    for sc in loaded:
        assert calls[id(sc.obstacle)] == 1
        assert calls[id(sc.terminal)] == 1


def test_compare_checks_the_hypotheses_once(tmp_path, monkeypatch):
    base = {**_WORKFLOW_DOC, "steps": 5}
    p1 = _write(tmp_path, {**base, "terminal": f"{base['terminal']} + 0.5"}, "s1.json")
    p2 = _write(tmp_path, base, "s2.json")
    calls = []
    check = comparison.check_hypotheses

    def counted_check(case):
        calls.append(case)
        return check(case)

    monkeypatch.setattr(comparison, "check_hypotheses", counted_check)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--scenario", p1, "--scenario2", p2, "--iterates", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text(encoding="utf-8"))["comparison"]["iterates"]["count"] == 3
    assert len(calls) == 1


@pytest.mark.parametrize("change", [{"steps": 4}, {"horizon": 2.0}, {"lambda": 0.3}])
def test_compare_on_two_grids_exits_2_naming_the_pair(tmp_path, capsys, change):
    p1 = _write(tmp_path, {**_WORKFLOW_DOC, **change, "terminal": f"{_WORKFLOW_DOC['terminal']} + 0.5"}, "s1.json")
    p2 = _write(tmp_path, _WORKFLOW_DOC, "s2.json")
    assert main(["compare", "--scenario", p1, "--scenario2", p2]) == 2
    assert capsys.readouterr().err == "error: comparison scenarios must share the lattice\n"


@pytest.mark.parametrize("second, first_issue", [
    ({"terminal": "-5"}, "--scenario2/terminal: terminal payoff falls below the obstacle"),
    ({"steps": 0}, "--scenario2/steps: must be a positive integer"),
    ({"driver": {"text": "y +", "form": "M"}}, "--scenario2/driver/text: unexpected end of input"),
])
def test_compare_names_the_second_file_in_its_load_errors(tmp_path, capsys, second, first_issue):
    p1 = _write(tmp_path, {**_WORKFLOW_DOC, "terminal": f"{_WORKFLOW_DOC['terminal']} + 0.5"}, "s1.json")
    p2 = _write(tmp_path, {**_WORKFLOW_DOC, **second}, "s2.json")
    assert main(["compare", "--scenario", p1, "--scenario2", p2]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid scenario: {first_issue}")
    # the first file's issues keep their bare pointers
    assert main(["compare", "--scenario", p2, "--scenario2", p1]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid scenario: {first_issue[len('--scenario2'):]}")


def test_compare_with_two_lags_exits_2_naming_the_pair(tmp_path, capsys):
    p1 = _write(tmp_path, {**_WORKFLOW_DOC, "delta_steps": 2, "terminal": f"{_WORKFLOW_DOC['terminal']} + 0.5"},
                "s1.json")
    p2 = _write(tmp_path, _WORKFLOW_DOC, "s2.json")
    assert main(["compare", "--scenario", p1, "--scenario2", p2]) == 2
    assert capsys.readouterr().err == "error: comparison scenarios must share the anticipation lag\n"


@pytest.mark.parametrize("change, issue", [
    ({"steps": 4, "driver": "-10*y"}, "/scheme: explicit scheme needs C'*dt <= 0.5 (estimated 2.5); "
                                      "use the implicit scheme or more steps"),
    ({"steps": 2, "lambda": [0.3, 0.0], "driver": "u"}, "/driver: driver depends on u where the intensity vanishes"),
])
def test_the_gate_refuses_a_driver_the_grid_cannot_carry(tmp_path, capsys, change, issue):
    assert main(["solve", "--scenario", _write(tmp_path, {**MINIMAL, **change})]) == 2
    assert capsys.readouterr().err == f"error: invalid scenario: {issue}\n"


def test_compare_names_a_second_file_that_is_not_json(tmp_path, capsys):
    p1 = _write(tmp_path, _WORKFLOW_DOC, "s1.json")
    p2 = tmp_path / "s2.json"
    p2.write_text("{", encoding="utf-8")
    assert main(["compare", "--scenario", p1, "--scenario2", str(p2)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid scenario: --scenario2: not valid JSON")


def test_picard_without_beta_estimates_c_prime_once(tmp_path, monkeypatch):
    path = _write(tmp_path, _WORKFLOW_DOC)
    beta = 1.0 + 10.0 * 1.0 * solver.estimate_c_prime(scenario_from_dict(_WORKFLOW_DOC)) ** 2
    calls = []
    estimate = solver.estimate_lipschitz

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(solver, "estimate_lipschitz", counted)
    out = tmp_path / "picard.json"
    assert main(["picard", "--scenario", path, "--out", str(out)]) == 0
    assert len(calls) == 1  # the load gate's; Picard's default beta reuses it
    assert json.loads(out.read_text(encoding="utf-8"))["picard"]["beta"] == beta


def test_main_compare_constant_drivers(tmp_path):
    base = {"horizon": 1.0, "steps": 4, "lambda": 0.3, "obstacle": "-1e9", "terminal": "w"}
    p1 = _write(tmp_path, {**base, "driver": {"text": "0.1", "form": "M"}}, "s1.json")
    p2 = _write(tmp_path, {**base, "driver": {"text": "0", "form": "M"}}, "s2.json")
    out = str(tmp_path / "cmp.json")
    assert main(["compare", "--scenario", p1, "--scenario2", p2, "--out", out]) == 0
    data = json.loads(Path(out).read_text(encoding="utf-8"))
    assert data["comparison"]["hypotheses"]["dominance_min_gap"] == 0.1
    assert data["pass"] is True


def test_oversized_lattice_rejected_before_allocating(tmp_path, capsys):
    # 20000 steps: about 2.7e12 nodes, 150 TB of node fields
    doc = {**MINIMAL, "steps": 20000, "lambda": 0.3, "obstacle": "w", "terminal": "w + 1"}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert [ptr for ptr, _ in exc.value.issues] == ["/steps"]
    assert "N too large, estimated" in exc.value.issues[0][1]
    assert main(["solve", "--scenario", _write(tmp_path, doc)]) == 2
    assert "N too large" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [0, 2**62])
def test_a_refused_step_count_is_the_only_issue_of_a_lambda_array(steps):
    # a lambda array's length is checked against a valid step count only, not
    # against the fallback a refused one leaves
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({**MINIMAL, "steps": steps, "lambda": [0.1, 0.2]})
    assert [ptr for ptr, _ in exc.value.issues] == ["/steps"]


def test_suite_refuses_an_oversized_lattice_before_building_one(capsys, monkeypatch):
    # 100000 steps at the default intensity: about 1e10 quotient nodes, 560 GB of node fields
    def no_lattice(*args, **kwargs):
        raise AssertionError("the suite built a lattice")

    monkeypatch.setattr(DefaultLattice, "__init__", no_lattice)
    assert main(["suite", "--steps", "100000", "--cases", "1"]) == 2
    err = capsys.readouterr().err
    assert "--steps: N too large, estimated" in err and "Traceback" not in err


def test_an_impossible_step_count_is_refused_before_any_per_step_list(tmp_path):
    # CPython refuses a list of 2^62 entries without allocating it: only the
    # closed-form floor, the alive blocks' (N+1)(N+2)/2 nodes, can refuse this
    steps = 2**62
    floor = f"N too large, estimated {(steps + 1) * (steps + 2) // 2 * 56 / 1e9:.3g} GB for " \
            f"{(steps + 1) * (steps + 2) // 2} nodes"
    path = _write(tmp_path, {**MINIMAL, "steps": steps})
    for argv, pointer in ((["solve", "--scenario", path], "/steps"),
                          (["suite", "--steps", str(steps), "--cases", "1"], "--steps")):
        cmd, env = _fresh_cli(*argv)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert f"{pointer}: {floor}" in proc.stderr and "Traceback" not in proc.stderr


def test_main_suite_subcommand(tmp_path):
    out = str(tmp_path / "suite.json")
    assert main(["suite", "--cases", "6", "--seed", "4", "--out", out]) == 0
    data = json.loads(Path(out).read_text(encoding="utf-8"))
    assert data["cases"] == 6
    assert data["failures"] == 0
    assert data["min_gap"] >= -1e-10


def _per_node_table(sol) -> bytes:
    """The node table built node by node through ``node_at``: the reference."""
    sol = sol.labelled()
    lat = sol.lattice
    fields = (sol.y, sol.z, sol.u, sol.dk, sol.psi, obstacle_field(sol.scenario, lat))
    lines = ["step,up_count,default_step,Y,Z,U,dK,psi,S"]
    for k in range(lat.n_steps + 1):
        for i in range(lat.n_nodes(k)):
            node = lat.node_at(k, i)
            cells = [str(k), str(node.up_count), str(node.default_step or 0)]
            cells += [format(float(f.step(k)[i]), ".17g") for f in fields]
            lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _with_nan_rows(sol):
    """``sol`` with NaN in Y on the same up count of all three blocks of
    step 2, whose default blocks otherwise repeat one row."""
    y = [arr.copy() for arr in sol.y.values]
    assert sol.lattice.n_nodes(2) == 9
    y[2][[0, 3, 6]] = np.nan
    return dataclasses.replace(sol, y=ProcessField(sol.lattice, np.concatenate(y)))


def _csv_cases():
    rng = np.random.default_rng(31)
    for t in range(4):  # odd t: every other step has zero intensity
        sc = random_scenario(rng, n_steps=int(rng.integers(2, 7)), binding=True)
        lam = [0.0 if t % 2 and i % 2 else v for i, v in enumerate(sc.intensity.values)]
        yield f"random{t}", dataclasses.replace(
            sc, intensity=IntensitySpec(values=tuple(lam), lambda_max=sc.intensity.lambda_max)
        )
    put = "max(0.6 - w, 0)"
    # -0*w is 0 where w < 0 and -0 elsewhere: both zeros in one column of one step
    yield "signed_zero", make_scenario(n_steps=4, obstacle="-1", terminal="-0*w")
    # the terminal reads the default time, so the default blocks differ
    yield "tau", make_scenario(n_steps=5, delta_steps=1, driver="-0.1*y + 0.05*ey",
                               obstacle=f"{put} - 0.1*t", terminal=f"{put} + tau")
    yield "zero_intensity", make_scenario(n_steps=4, lam=0.0, driver="-0.1*y",
                                          obstacle=put, terminal=put)
    yield "nan_rows", make_scenario(n_steps=4, lam=0.3, driver="-0.1*y", obstacle=put, terminal=put)
    # no default is reachable before step 3: steps with 0, 1 and several labels
    yield "late_default", make_scenario(n_steps=6, lam=[0.0, 0.0, 0.3, 0.4, 0.2, 0.5], delta_steps=2,
                                        driver="-0.1*y + 0.05*ey", obstacle=put, terminal=put)
    yield "one_step", make_scenario(n_steps=1, lam=0.4, driver="-0.1*y", obstacle=put, terminal=put)


def test_emit_csv_matches_per_node_reference(tmp_path):
    for name, scenario in _csv_cases():
        report = run(solver._prepare(scenario), RunFlags())
        sol = report.solution
        if name == "signed_zero":
            y_n = sol.y.step(sol.lattice.n_steps)
            assert (y_n == 0).all() and np.signbit(y_n).any() and not np.signbit(y_n).all()
        if name == "tau":
            y_2 = sol.y.step(2)
            assert not np.array_equal(y_2[3:6], y_2[6:9])
        if name == "late_default":
            assert [len(sol.lattice.default_steps(k)) for k in range(7)] == [0, 0, 0, 1, 2, 3, 4]
        if name == "nan_rows":
            sol = _with_nan_rows(sol.labelled())
        path = tmp_path / f"{name}.csv"
        emit_report(RunReport(data=report.data, solution=sol), "csv", str(path))
        assert path.read_bytes() == _per_node_table(sol), name


def test_a_quotient_solves_csv_equals_that_of_its_labelled_solution(tmp_path):
    quotients = 0
    for name, scenario in _csv_cases():
        report = run(solver._prepare(scenario), RunFlags())
        tables = []
        for sol in (report.solution, report.solution.labelled()):
            path = tmp_path / f"{name}.csv"
            emit_report(RunReport(data=report.data, solution=sol), "csv", str(path))
            tables.append(path.read_bytes())
        quotients += report.solution.lattice.quotient
        assert tables[0] == tables[1], name
    assert quotients == 9


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):  # the CLI flushes stdout once the output is written
        pass


def test_an_explicit_picard_tol_applies_even_at_the_checks_default(tmp_path):
    path = _write(tmp_path, _WORKFLOW_DOC)

    def tolerances(*tol):
        out = tmp_path / "picard.json"
        assert main(["picard", "--scenario", path, *tol, "--out", str(out)]) == 0
        return {c["name"]: c["tolerance"] for c in json.loads(out.read_text(encoding="utf-8"))["checks"]}

    # without --tol the checks keep 1e-10 and Picard iterates to 1e-12
    assert tolerances() == {**tolerances("--tol", "1e-10"), "picard_vs_backward": 10.0 * 1e-12}
    assert tolerances("--tol", "1e-10")["picard_vs_backward"] == 10.0 * 1e-10
    assert tolerances("--tol", "1.1e-10")["picard_vs_backward"] == 10.0 * 1.1e-10
    # solve on a file whose outputs list picard hands --tol to Picard just as picard does
    both = _write(tmp_path, {**_WORKFLOW_DOC, "outputs": ["picard"]}, name="both.json")
    for tol in ([], ["--tol", "1e-10"], ["--tol", "1e-6"]):
        reports = []
        for command in ("picard", "solve"):
            out = tmp_path / f"{command}.json"
            assert main([command, "--scenario", both, *tol, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text(encoding="utf-8")))
        picard, solve = ({c["name"]: c["tolerance"] for c in r["checks"]} for r in reports)
        assert solve["picard_vs_backward"] == picard["picard_vs_backward"], tol
        assert reports[1]["picard"] == reports[0]["picard"], tol


def test_stopping_beyond_both_oracle_caps_reports_both_skips(tmp_path):
    # N = 18: 19 * 2^18 labelled paths, over the 2^20 cap, and 2109 decision nodes
    path = _write(tmp_path, {**_WORKFLOW_DOC, "steps": 18})
    out = tmp_path / "stopping.json"
    assert main(["stopping", "--scenario", path, "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["stopping"]["brute_force"] is None
    assert data["stopping"]["skipped"] == "2109 decision nodes exceed the enumeration cap of 22"
    assert data["stopping"]["k_running_max"] == {"skipped": "4980736 paths exceed the cap of 1048576"}
    assert {c["name"] for c in data["checks"]} == {"equation_residual", "k_decrease", "skorokhod_product",
                                                   "obstacle_violation"}


def test_csv_is_written_one_step_at_a_time(tmp_path, monkeypatch):
    path = _write(tmp_path, {**MINIMAL, "steps": 5, "lambda": 0.3, "terminal": "w + h"})
    sink = _Recorder()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["solve", "--scenario", path, "--format", "csv"]) == 0
    sc = load_scenario_with_outputs(path)[0].scenario
    lat = build_lattice(sc.horizon, sc.n_steps, sc.intensity)  # one row per labelled node
    header, *steps = sink.writes
    assert header == "step,up_count,default_step,Y,Z,U,dK,psi,S\n"
    assert len(steps) == lat.n_steps + 1
    for k, text in enumerate(steps):
        rows = text.splitlines()
        assert text.endswith("\n") and len(rows) == lat.n_nodes(k)
        assert all(row.startswith(f"{k},") for row in rows)


def test_csv_without_out_writes_the_node_table_to_stdout(tmp_path, capsys):
    path = _write(tmp_path, {**MINIMAL, "terminal": "w + h"})
    out = tmp_path / "nodes.csv"
    assert main(["solve", "--scenario", path, "--format", "csv", "--out", str(out)]) == 0
    assert main(["solve", "--scenario", path, "--format", "csv"]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_csv_timing_goes_to_stderr_and_leaves_the_table_unchanged(tmp_path, capsys):
    path = _write(tmp_path, {**MINIMAL, "terminal": "w + h"})
    argv = ["solve", "--scenario", path, "--format", "csv"]
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert main(argv + ["--out", str(plain)]) == 0
    assert capsys.readouterr().err == ""
    assert main(argv + ["--out", str(timed), "--timing"]) == 0
    assert timed.read_bytes() == plain.read_bytes()
    assert main(argv + ["--timing"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain.read_text(encoding="utf-8")
    lines = captured.err.splitlines()
    assert len(lines) == 2
    for line in lines:
        timing = json.loads(line)["timing"]
        assert set(timing) == {"load", "solve", "validate", "report", "emit"}
        assert all(v >= 0 for v in timing.values())


def test_non_finite_obstacle_exits_2(tmp_path, capsys):
    doc = {**MINIMAL, "steps": 4, "lambda": 0.3, "obstacle": "-1 + 0/w", "terminal": "w + 1"}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert any(ptr == "/obstacle" for ptr, _ in exc.value.issues)
    assert main(["solve", "--scenario", _write(tmp_path, doc)]) == 2
    assert "/obstacle" in capsys.readouterr().err


def test_suite_rejects_bad_thread_count(monkeypatch, capsys):
    monkeypatch.setenv("RABSDE_THREADS", "abc")
    assert main(["suite", "--cases", "2"]) == 2
    assert "RABSDE_THREADS" in capsys.readouterr().err


def test_suite_rejects_zero_cases(capsys):
    assert main(["suite", "--cases", "0"]) == 2
    assert "--cases" in capsys.readouterr().err


def test_suite_clamps_workers_to_chunks_and_cpus(monkeypatch):
    import concurrent.futures  # run_suite looks the pool up here, only when workers > 1

    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *items):
            return map(fn, *items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_SUITE_CHUNK", 2)
    serial = cli.run_suite(3, 5, n_steps=3)
    assert cli.run_suite(3, 5, n_steps=3, workers=64) == serial
    assert started == [2]  # 3 chunks, 2 cpus
    assert cli.run_suite(3, 2, n_steps=3, workers=64)["cases"] == 2
    assert started == [2]  # one chunk runs in-process


def test_constant_division_by_zero_is_a_located_driver_error(tmp_path, capsys):
    doc = {**MINIMAL, "steps": 4, "lambda": 0.3, "driver": "1/0*y"}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert exc.value.issues == [("/driver", "division by zero")]
    assert main(["solve", "--scenario", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "/driver: division by zero" in err
    assert "Traceback" not in err


_WORKFLOW_DOC = {
    "horizon": 1.0,
    "steps": 3,
    "lambda": 0.4,
    "delta_steps": 1,
    "driver": {"text": "0.1*y + 0.05*ey", "form": "M"},
    "obstacle": "0.8 - w - 0.2*h",
    "terminal": "max(0.8 - w - 0.2*h, 0) + 0.4",
}
_CRR_DOC = {
    "horizon": 1.0,
    "steps": 8,
    "lambda": 0.0,
    "driver": "-0.04*y",
    "obstacle": "max(1 - exp(w), 0)",
    "terminal": "max(1 - exp(w), 0)",
    "oracle": {"kind": "crr", "spot": 1.0, "strike": 1.0, "rate": 0.04, "sigma": 1.0},
}


@pytest.mark.parametrize(
    "doc, argv, phases",
    [
        (_WORKFLOW_DOC, ["solve"], {"load", "solve", "report", "validate"}),
        (_CRR_DOC, ["solve", "--oracle", "crr"], {"load", "solve", "report", "validate", "oracle"}),
        (_WORKFLOW_DOC, ["picard"], {"load", "solve", "report", "validate", "picard"}),
        (_WORKFLOW_DOC, ["stopping"], {"load", "solve", "report", "validate", "stopping"}),
        (_WORKFLOW_DOC, ["compare", "--iterates", "3"], {"load", "solve", "report", "validate", "compare"}),
    ],
)
def test_timing_names_one_phase_per_workflow_and_stays_out_of_the_report(tmp_path, doc, argv, phases):
    path = _write(tmp_path, doc)
    args = argv[:1] + ["--scenario", path] + argv[1:]
    if argv[0] == "compare":
        args += ["--scenario2", path]
    outs = [tmp_path / name for name in ("timed.json", "r1.json", "r2.json")]
    assert main(args + ["--timing", "--out", str(outs[0])]) == 0
    timing = json.loads(outs[0].read_text(encoding="utf-8"))["timing"]
    assert set(timing) == phases
    assert all(v >= 0.0 for v in timing.values())
    for out in outs[1:]:
        assert main(args + ["--out", str(out)]) == 0
    assert outs[1].read_bytes() == outs[2].read_bytes()
    assert "timing" not in json.loads(outs[1].read_text(encoding="utf-8"))


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    path = _write(tmp_path, _WORKFLOW_DOC)
    assert cli._build_parser() is cli._build_parser()
    solve_argv = ["solve", "--scenario", path]
    before = vars(cli._build_parser().parse_args(solve_argv))
    outs = [tmp_path / name for name in ("solve1.json", "picard.json", "solve2.json")]
    assert main(solve_argv + ["--out", str(outs[0])]) == 0
    assert main(["picard", "--scenario", path, "--beta", "4", "--out", str(outs[1])]) == 0
    assert main(solve_argv + ["--out", str(outs[2])]) == 0
    assert outs[0].read_bytes() == outs[2].read_bytes()
    assert json.loads(outs[1].read_text(encoding="utf-8"))["picard"]["beta"] == 4.0
    assert "picard" not in json.loads(outs[2].read_text(encoding="utf-8"))
    assert vars(cli._build_parser().parse_args(solve_argv)) == before
    assert "beta" not in before


@pytest.mark.parametrize(
    "pointer, text",
    [
        ("/driver", "(" * 300 + "y" + ")" * 300),
        ("/obstacle", " + ".join(["w"] * 1000)),
        ("/terminal", "-" * 1000 + "w"),
    ],
    ids=["parens", "sum", "minus"],
)
def test_deeply_nested_expression_is_a_located_load_error(tmp_path, capsys, pointer, text):
    doc = {**MINIMAL, pointer[1:]: text}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert [ptr for ptr, _ in exc.value.issues] == [pointer]
    assert main(["solve", "--scenario", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"{pointer}: expression nests deeper than 100 levels" in err
    assert "Traceback" not in err


def test_non_finite_terminal_is_rejected_at_load(tmp_path, capsys):
    doc = {**MINIMAL, "terminal": "exp(1000) + w"}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert exc.value.issues == [("/terminal", "terminal payoff evaluates to a non-finite value")]
    assert main(["solve", "--scenario", _write(tmp_path, doc)]) == 2
    assert "/terminal" in capsys.readouterr().err


@pytest.mark.parametrize("pointer", ["/terminal", "/obstacle"])
def test_constant_division_by_zero_in_node_data_is_located(tmp_path, capsys, pointer):
    doc = {**MINIMAL, pointer[1:]: "1/0 + w"}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert exc.value.issues == [(pointer, "division by zero")]
    assert main(["solve", "--scenario", _write(tmp_path, doc)]) == 2
    assert f"{pointer}: division by zero" in capsys.readouterr().err


def test_an_obstacle_dividing_by_t_is_refused_at_its_first_non_finite_step(tmp_path, capsys):
    # the obstacle is one call over the whole lattice, so 1/t divides an array
    # and is inf at t = 0 (it was a Python float and "division by zero" before)
    doc = {**MINIMAL, "obstacle": "1/t"}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert exc.value.issues == [("/obstacle", "obstacle evaluates to a non-finite value at step 0")]
    assert main(["solve", "--scenario", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "/obstacle: obstacle evaluates to a non-finite value at step 0" in err and "Traceback" not in err


def test_scenario_seed_key_is_unknown(tmp_path, capsys):
    # nothing in a lattice run draws random numbers, so a seed in the file is refused
    doc = {**MINIMAL, "seed": 0}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert exc.value.issues == [("/seed", "unknown key")]
    assert main(["solve", "--scenario", _write(tmp_path, doc)]) == 2
    assert "/seed: unknown key" in capsys.readouterr().err


def _json_text(doc):
    return json.dumps(doc).encode()


@pytest.mark.parametrize("content, argv, located", [
    (_json_text({**MINIMAL, "outputs": [["solve"]]}), None, ": /outputs: must be a list drawn from"),
    (_json_text({**MINIMAL, "horizon": 10**400}), None, ": /horizon: must be a positive number"),
    (_json_text({**MINIMAL, "steps": 10**400}), None, ": /steps: N too large"),
    (None, ["suite", "--steps", str(10**400)], "--steps: N too large"),
    (b'{"horizon": "\xff"}', None, "error: invalid scenario: not valid JSON"),
    (b"[" * 100_000 + b"]" * 100_000, None, "error: invalid scenario: not valid JSON"),
    (_json_text({**MINIMAL, "oracle": {"kind": "crr", "spot": 1, "strike": 1, "rate": 0.04, "sigma": 1,
                                       "note": "x"}}), None, ": /oracle/note: unknown key"),
    (_json_text({**MINIMAL, "driver": {"text": "0", "form": "M", "note": [1]}}), None,
     "error: invalid scenario: /driver/note: unknown key\n"),
], ids=["unhashable-output", "huge-horizon", "huge-steps", "suite-huge-steps", "not-utf8", "deep-nesting",
        "oracle-extra-key", "driver-extra-key"])
def test_malformed_input_exits_2_with_a_located_message(tmp_path, capsys, content, argv, located):
    if argv is None:
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        argv = ["solve", "--scenario", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert located in err and "Traceback" not in err


_FUZZ_DOC = {
    "horizon": 1.0, "steps": 4, "delta_steps": 1, "lambda": 0.3, "lambda_max": 0.5,
    "driver": {"text": "0.1*y + 0.1*ey", "form": "H"}, "obstacle": "w - 0.5", "terminal": "w",
    "scheme": "implicit", "implicit_tol": 1e-12, "implicit_max_iter": 50, "outputs": ["stopping"],
    "oracle": {"kind": "crr", "spot": 1.0, "strike": 1.0, "rate": 0.04, "sigma": 1.0}, "name": "fuzz",
}
_HOSTILE = st.sampled_from([
    [["solve"]], [{"a": [1]}], {"b": {"c": []}}, [], {}, 10**400, -10**400, -0.0, "nan", "x", True, False, None,
])


def _hostile(key):
    """A hostile value for ``key``; the driver and oracle blocks may instead keep
    their keys and gain an extra one."""
    base = _FUZZ_DOC[key]
    return _HOSTILE | _HOSTILE.map(lambda v: {**base, "note": v}) if isinstance(base, dict) else _HOSTILE


@given(changes=st.sets(st.sampled_from(sorted(_FUZZ_DOC)), min_size=1, max_size=4).flatmap(
    lambda keys: st.fixed_dictionaries({key: _hostile(key) for key in keys})))
@settings(max_examples=200, deadline=None)
def test_a_hostile_scenario_file_exits_cleanly(tmp_path_factory, changes):
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_text(json.dumps({**_FUZZ_DOC, **changes}), encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["solve", "--scenario", str(path), "--out", os.devnull])
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    if code == 2:  # every refusal names the key or flag at fault
        assert all(re.match(r"error: (invalid scenario: /\w|argument --\w)", line)
                   for line in err.getvalue().splitlines())
    for key in ("driver", "oracle"):  # an extra key in either block is refused
        if isinstance(changes.get(key), dict) and "note" in changes[key]:
            assert code == 2 and f"/{key}/note: unknown key" in err.getvalue()


_ARGV_FLAGS = {
    "solve": ("--scenario", "--out", "--format", "--tol", "--seed", "--timing", "--oracle"),
    "picard": ("--scenario", "--out", "--format", "--tol", "--seed", "--rho", "--beta", "--max-iter"),
    "stopping": ("--scenario", "--out", "--format", "--tol", "--seed"),
    "compare": ("--scenario", "--scenario2", "--out", "--format", "--tol", "--seed", "--iterates"),
    "suite": ("--cases", "--seed", "--steps", "--horizon", "--intensity", "--tol", "--out"),
}
# a value each flag accepts (none for --timing and --bogus), drawn as often as all the others together
_ARGV_GOOD = {"--scenario": "<doc>", "--scenario2": "<doc>", "--out": "<out>", "--format": "csv", "--tol": "1e-8",
              "--oracle": "crr", "--rho": "2", "--beta": "4", "--max-iter": "5", "--iterates": "3", "--cases": "3",
              "--seed": "7", "--steps": "3", "--horizon": "0.5", "--intensity": "0.2"}
# every run is short: a valid suite draws at most 10 cases of at most 10 steps, and
# 10**400 is refused as a case or step count and left unused as an iteration cap; None leaves the value out
_ARGV_VALUES = ["nan", "inf", "-inf", "-1", "0", "-0", "1", "2", "0.5", "1e300", "1e400", "1e-320", "abc", "",
                "1_0", "0x10", " 2 ", "\u0663", str(10**400), "--", "csv", "json", "crr", "none", "@", "/", None]


@given(command=st.sampled_from(sorted(_ARGV_FLAGS)), data=st.data())
@settings(max_examples=250, deadline=None)
def test_malformed_flags_exit_cleanly(tmp_path_factory, command, data):
    base = tmp_path_factory.getbasetemp() / "argv"  # also the working directory: a bare value names a file there
    base.mkdir(exist_ok=True)
    doc = _write(base, {**_WORKFLOW_DOC, "steps": 2}, "argv.json")
    out = str(base / "argv-report")
    files = {"<doc>": doc, "<text>": str(base / "text.json"), "<missing>": str(base / "missing.json"),
             "<dir>": str(base), "<out>": out}
    Path(files["<text>"]).write_text("{", encoding="utf-8")
    argv = [command] + (["--cases", "2"] if command == "suite" else ["--scenario", doc])
    argv += ["--scenario2", doc] if command == "compare" else []
    argv += ["--out", out]
    flags = st.sampled_from(_ARGV_FLAGS[command] + ("--beta", "--cases", "--bogus"))
    values = st.sampled_from(_ARGV_VALUES + sorted(files)).map(lambda v: files.get(v, v))
    for flag in data.draw(st.lists(flags, min_size=1, max_size=3)):
        good = _ARGV_GOOD.get(flag)
        value = data.draw(st.just(files.get(good, good)) | values)
        argv += [flag] if value is None else [flag, value]
    inputs = ("argv.json", "text.json")
    for path in base.iterdir():  # a report a previous example wrote
        if path.name not in inputs:
            path.unlink()
    cwd = os.getcwd()
    os.chdir(base)
    try:
        with unittest.mock.patch.dict(os.environ, {"RABSDE_THREADS": "1"}), \
                contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    # a refusal names the flag, the stray word or the scenario key at fault, or refuses the whole file
    if code == 2:
        (line,) = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert re.search(r"--[a-z]|unrecognized arguments: |: (--scenario2)?/\w|scenario: not valid JSON", line), line
    if code == 0:  # the report, on stdout or in whichever file --out named
        report = stdout.getvalue() + "".join(p.read_text(encoding="utf-8") for p in base.iterdir()
                                             if p.name not in inputs)
        assert not re.search(r"\b(inf|nan)\b", report, re.IGNORECASE)


def _fresh_cli(*argv):
    """Command and environment of ``rabsde argv`` in a fresh process, which shows
    stderr as a user sees it, with Python's default warning filters rather than
    the test run's."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)
    cmd = [sys.executable, "-c", "import sys; from rabsde.cli import main; sys.exit(main(sys.argv[1:]))"]
    return cmd + list(argv), env


def test_non_finite_terminal_prints_only_the_error_line(tmp_path):
    path = _write(tmp_path, {**MINIMAL, "terminal": "exp(1000) + w"})
    cmd, env = _fresh_cli("solve", "--scenario", path)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "RuntimeWarning" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "/terminal" in line


def test_csv_to_a_pipe_closed_early_stops_quietly(tmp_path):
    # `rabsde solve --format csv | head -1`: the reader takes one line and closes
    path = _write(tmp_path, {**_WORKFLOW_DOC, "steps": 40})
    table = tmp_path / "table.csv"
    checks_exit = main(["solve", "--scenario", path, "--format", "csv", "--out", str(table)])
    assert table.stat().st_size > 1 << 20  # far more than a pipe buffers
    cmd, env = _fresh_cli("solve", "--scenario", path, "--format", "csv")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"step,up_count,default_step,Y,Z,U,dK,psi,S\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == checks_exit
    finally:
        proc.kill()
        proc.wait()
    assert err == b""
    # a failed --out write is still an I/O error
    missing = str(tmp_path / "missing_dir" / "table.csv")
    assert main(["solve", "--scenario", path, "--format", "csv", "--out", missing]) == 4


def test_csv_and_timing_to_one_pipe_closed_early_stop_quietly(tmp_path):
    # `rabsde solve --format csv --timing 2>&1 | head -1`: the timing line goes to
    # the pipe the reader has closed, as stderr
    path = _write(tmp_path, {**_WORKFLOW_DOC, "steps": 40})
    checks_exit = main(["solve", "--scenario", path, "--out", str(tmp_path / "report.json")])
    cmd, env = _fresh_cli("solve", "--scenario", path, "--format", "csv", "--timing")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    try:
        assert proc.stdout.readline() == b"step,up_count,default_step,Y,Z,U,dK,psi,S\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == checks_exit
    finally:
        proc.kill()
        proc.wait()
    # a failed --out write is still an I/O error
    missing = str(tmp_path / "missing_dir" / "table.csv")
    assert main(["solve", "--scenario", path, "--format", "csv", "--timing", "--out", missing]) == 4


@pytest.mark.parametrize("argv, code", [
    (["solve", "--scenario", "{bad}"], 2),  # the load fails
    (["picard", "--scenario", "{good}", "--max-iter", "1"], 3),  # Picard does not converge
    (["suite", "--cases", "1"], 2),  # RABSDE_THREADS is not an integer
])
def test_error_line_to_one_pipe_closed_early_keeps_the_exit_code(tmp_path, argv, code):
    # `rabsde ... 2>&1 | head -0`: the reader has closed the pipe before the error line
    paths = {"bad": _write(tmp_path, {**MINIMAL, "terminal": "exp(1000) + w"}, "bad.json"),
             "good": _write(tmp_path, _WORKFLOW_DOC, "good.json")}
    cmd, env = _fresh_cli(*(a.format(**paths) for a in argv))
    env["RABSDE_THREADS"] = "two"
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    try:
        proc.stdout.close()
        assert proc.wait(timeout=120) == code
    finally:
        proc.kill()
        proc.wait()


def test_suite_refuses_a_default_probability_of_one_before_building_a_lattice(capsys, monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("the suite built a lattice")

    monkeypatch.setattr(DefaultLattice, "__init__", no_lattice)
    assert main(["suite", "--steps", "2", "--intensity", "5", "--cases", "1"]) == 2
    err = capsys.readouterr().err
    assert "--intensity: default probability lambda*dt = 2.5 >= 1" in err and "Traceback" not in err


def test_json_runs_are_sized_on_the_quotient_and_csv_runs_on_the_full_lattice(tmp_path, capsys, monkeypatch):
    # on a machine of 8 GB: N = 1024 needs 1.05e6 quotient nodes (59 MB of node
    # fields) and 3.6e8 full-lattice nodes (20 GB), which a CSV run writes out
    monkeypatch.setattr(lattice_module.os, "sysconf",
                        lambda name: 4096 if name == "SC_PAGE_SIZE" else 8 * 2**30 // 4096)
    doc = {"horizon": 1.0, "steps": 1024, "delta_steps": 128, "lambda": 0.3,
           "driver": {"text": "-0.4*y + 0.1*ey - 0.1*u + 0.05", "form": "H"},
           "obstacle": "max(0.6 - w, 0) - 0.1*t", "terminal": "max(0.6 - w, 0) + 0.3*h"}
    path = _write(tmp_path, doc)
    problem = cli.load_scenario_with_outputs(path)[0]
    assert problem.lattice.quotient
    assert sum(problem.lattice.n_nodes(k) for k in range(1025)) == 1_051_649
    with pytest.raises(ScenarioError) as exc:
        cli.load_scenario_with_outputs(path, fmt="csv")
    assert [ptr for ptr, _ in exc.value.issues] == ["/steps"]
    assert main(["solve", "--scenario", path, "--format", "csv"]) == 2
    assert "/steps: N too large, estimated 20.1 GB for 359489025 nodes" in capsys.readouterr().err
    # the stopping oracles read labelled nodes, so a stopping run is sized as a CSV one
    assert main(["stopping", "--scenario", path]) == 2
    assert "/steps: N too large" in capsys.readouterr().err


def test_compare_uses_the_quotient_only_when_neither_terminal_reads_tau(tmp_path, monkeypatch):
    kinds = []
    solve = solver._solve

    def recorded(problems, **kwargs):
        batch = [problems] if isinstance(problems, solver._Problem) else problems
        kinds.extend(prob.lattice.quotient for prob in batch)
        return solve(problems, **kwargs)

    monkeypatch.setattr(cli, "_solve", recorded)
    monkeypatch.setattr(comparison, "_solve", recorded)
    base = {**_WORKFLOW_DOC, "steps": 4}
    p2 = _write(tmp_path, base, "s2.json")
    for extra, quotient in (("", True), (" + 0*tau", False)):
        kinds.clear()
        p1 = _write(tmp_path, {**base, "terminal": f"{base['terminal']} + 0.5{extra}"}, "s1.json")
        assert main(["compare", "--scenario", p1, "--scenario2", p2, "--out", str(tmp_path / "c.json")]) == 0
        assert kinds == [quotient, quotient]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["picard", "--max-iter", "0"], "--max-iter"),
        (["picard", "--rho", "0"], "--rho"),
        (["picard", "--rho", "nan"], "--rho"),
        (["picard", "--beta", "nan"], "--beta"),
        (["picard", "--beta", "-1"], "--beta"),
        (["solve", "--tol", "nan"], "--tol"),
        (["solve", "--tol", "-1"], "--tol"),
        (["solve", "--tol", "inf"], "--tol"),
        (["solve", "--seed", "-1"], "--seed"),
        (["compare", "--iterates", "-1"], "--iterates"),
        (["suite", "--seed", "-1"], "--seed"),
        (["suite", "--cases", "0"], "--cases"),
        (["suite", "--tol", "0"], "--tol"),
        (["suite", "--steps", "0"], "--steps"),
        (["suite", "--horizon", "nan"], "--horizon"),
        (["suite", "--intensity", "-1"], "--intensity"),
        (["picard", "--max-iter", "two"], "--max-iter"),
        # only suite draws random numbers; the other subcommands take no seed
        (["solve", "--seed", "3"], "--seed"),
        (["picard", "--seed", "0"], "--seed"),
        (["stopping", "--seed", "3"], "--seed"),
        (["compare", "--seed", "3"], "--seed"),
    ],
)
def test_bad_numeric_flag_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    path = _write(tmp_path, _WORKFLOW_DOC)
    if argv[0] != "suite":
        argv = argv[:1] + ["--scenario", path] + argv[1:]
    if argv[0] == "compare":
        argv += ["--scenario2", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


def _largest_picard_beta(n_steps, dt):
    """The largest beta whose weight e^(beta t) at t = T - dt is a finite float."""
    def overflows(beta):
        try:
            math.exp(beta * (n_steps - 1) * dt)
        except OverflowError:
            return True
        return False

    beta = math.log(sys.float_info.max) / ((n_steps - 1) * dt)
    while overflows(beta):
        beta = math.nextafter(beta, 0.0)
    while not overflows(math.nextafter(beta, math.inf)):
        beta = math.nextafter(beta, math.inf)
    return beta


def test_picard_refuses_a_beta_whose_weight_overflows(tmp_path, capsys):
    # a driver free of y, z and u: the second pass repeats the first, at any beta
    path = _write(tmp_path, {**MINIMAL, "steps": 4, "lambda": 0.3, "driver": "0.1"})
    top = _largest_picard_beta(4, 0.25)
    out = tmp_path / "picard.json"
    # the largest beta is accepted, and its weighted distances, taken in
    # log-sum-exp form, stay finite
    assert main(["picard", "--scenario", path, "--beta", repr(top), "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["picard"]["beta"] == top and data["pass"] is True
    assert all(math.isfinite(d) for d in data["picard"]["distances"])
    capsys.readouterr()
    for beta in (math.nextafter(top, math.inf), 1000.0):
        assert main(["picard", "--scenario", path, "--beta", repr(beta)]) == 2
        assert capsys.readouterr().err == (
            f"error: argument --beta: beta = {beta:.6g} overflows the Picard weight e^(beta t) at t = T - dt\n")
    # a beta resolved from --rho, 1 + 10 * rho * C'^2, names --rho; a given --beta wins over it
    for argv, flag, beta in ((["--rho", "1e10"], "--rho", "1e+11"),
                             (["--rho", "1e10", "--beta", "1000"], "--beta", "1000")):
        assert main(["picard", "--scenario", path, *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: argument {flag}: beta = {beta} overflows the Picard weight e^(beta t) at t = T - dt\n")
    # the default beta, 1 + 10 * C'^2 = 811, against a bound of 721 on 64 steps
    implicit = _write(tmp_path, {"horizon": 1.0, "steps": 64, "lambda": 0.3, "scheme": "implicit",
                                 "driver": "-9*y", "obstacle": "max(0.5 - w, 0)",
                                 "terminal": "max(0.5 - w, 0)"}, "implicit.json")
    assert main(["picard", "--scenario", implicit]) == 3
    assert capsys.readouterr().err == (
        "error: beta = 811 overflows the Picard weight e^(beta t) at t = T - dt; pass a smaller beta (--beta)\n")


_OVERFLOWING = {"horizon": 1.0, "steps": 40, "lambda": 0.0, "driver": "1e308", "obstacle": "-1e9", "terminal": "w"}


def test_picard_stops_at_a_nan_distance(tmp_path, capsys):
    path = _write(tmp_path, _OVERFLOWING)
    assert main(["picard", "--scenario", path]) == 3
    assert capsys.readouterr().err == (
        "error: Picard iteration did not reach tol=1e-12 within 1 iterations (last distance nan)\n")


def test_a_report_with_an_inf_in_it_does_not_pass(tmp_path):
    # Y = 1e160 from the terminal on: the first pass's beta * |dY|^2 overflows
    # a float, so the first distance is inf while every check passes
    path = _write(tmp_path, {"horizon": 1.0, "steps": 4, "delta_steps": 1, "lambda": 0.3,
                             "driver": "0.1", "obstacle": "-1e300", "terminal": "1e160"})
    out = tmp_path / "picard.json"
    assert main(["picard", "--scenario", path, "--beta", "4", "--out", str(out)]) == 3
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["picard"]["distances"] == ["inf", 0]
    assert all(c["pass"] for c in data["checks"]) and data["pass"] is False


def test_picard_distances_stay_finite_wherever_the_weight_does(tmp_path):
    # beta = 946 sits just inside the weight's overflow bound on 4 steps, where
    # beta * |dY|^2 * e^(beta t) * dt passes float max: the distances, taken in
    # log-sum-exp form, are finite and contract to the fixed point
    path = _write(tmp_path, {"horizon": 1.0, "steps": 4, "delta_steps": 1, "lambda": 0.3,
                             "driver": "0.1*y + 0.1*ey", "obstacle": "-100", "terminal": "w"})
    out = tmp_path / "picard.json"
    assert main(["picard", "--scenario", path, "--beta", "946", "--out", str(out)]) == 0
    distances = json.loads(out.read_text(encoding="utf-8"))["picard"]["distances"]
    assert distances[0] > 1e150 and all(math.isfinite(d) for d in distances)
    assert all(b < a for a, b in zip(distances, distances[1:]))


def test_an_implicit_driver_that_diverges_names_its_step(tmp_path, capsys):
    path = _write(tmp_path, {"horizon": 1.0, "steps": 4, "lambda": 0.3, "scheme": "implicit",
                             "driver": "50*y", "obstacle": "-100", "terminal": "w"})
    assert main(["solve", "--scenario", path]) == 3
    assert capsys.readouterr().err == "error: driver produced a non-finite value at step 3\n"


@pytest.mark.parametrize("command", ["solve", "compare", "picard"])
def test_an_overflowing_run_prints_no_numpy_warning(tmp_path, command):
    path = _write(tmp_path, _OVERFLOWING)
    cmd, env = _fresh_cli(command, "--scenario", path, *(["--scenario2", path] if command == "compare" else []),
                          "--out", str(tmp_path / "report.json"))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
