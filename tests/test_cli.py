"""Scenario files, reports, determinism, exit codes."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_scenario
from rabsde import IntensitySpec, cli, comparison, solver
from rabsde.cli import (
    RunFlags,
    emit_report,
    format_json,
    load_scenario,
    main,
    run,
    scenario_from_dict,
    scenario_to_dict,
)
from rabsde.errors import ScenarioError
from rabsde.solver import obstacle_field, solve_backward

MINIMAL = {
    "horizon": 1.0,
    "steps": 2,
    "lambda": 0.5,
    "driver": {"text": "0", "form": "M"},
    "obstacle": "-1e9",
    "terminal": "w",
}


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_load_minimal_scenario(tmp_path):
    scenario = load_scenario(_write(tmp_path, MINIMAL))
    assert scenario.n_steps == 2
    assert scenario.driver.base.source == "0"
    sol = solve_backward(scenario)
    assert sol.y0 == 0.0


def test_load_rejects_fractional_delta(tmp_path):
    doc = {**MINIMAL, "delta_steps": 1.5}
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_write(tmp_path, doc))
    assert any(ptr == "/delta_steps" for ptr, _ in exc.value.issues)


def test_load_rejects_terminal_below_obstacle(tmp_path):
    doc = {**MINIMAL, "obstacle": "w + 1", "terminal": "w"}
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_write(tmp_path, doc))
    assert any(ptr == "/terminal" for ptr, _ in exc.value.issues)


def test_load_rejects_unknown_key_and_bad_expression(tmp_path):
    doc = {**MINIMAL, "driver": {"text": "y + ", "form": "M"}, "typo_key": 1}
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_write(tmp_path, doc))
    pointers = {ptr for ptr, _ in exc.value.issues}
    assert "/typo_key" in pointers
    assert "/driver/text" in pointers


def test_load_rejects_wrong_lambda_length(tmp_path):
    doc = {**MINIMAL, "lambda": [0.1, 0.2, 0.3]}
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_write(tmp_path, doc))
    assert any(ptr == "/lambda" for ptr, _ in exc.value.issues)


def test_load_rejects_hazard_above_one(tmp_path):
    doc = {**MINIMAL, "horizon": 1.0, "steps": 4, "lambda": 5.0}
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_write(tmp_path, doc))
    assert any(ptr == "/lambda" for ptr, _ in exc.value.issues)


def test_load_rejects_obstacle_with_solution_variables(tmp_path):
    doc = {**MINIMAL, "obstacle": "y"}
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_write(tmp_path, doc))
    assert any(ptr == "/obstacle" for ptr, _ in exc.value.issues)


def test_scenario_round_trip_solves_identically(tmp_path):
    doc = {
        **MINIMAL,
        "steps": 4,
        "delta_steps": 1,
        "driver": {"text": "0.2*y + 0.1*ey - 0.1*u", "form": "H"},
        "terminal": "w + 0.5*h",
    }
    scenario = load_scenario(_write(tmp_path, doc))
    redone = scenario_from_dict(scenario_to_dict(scenario))
    a = solve_backward(scenario)
    b = solve_backward(redone)
    for k in range(5):
        assert np.array_equal(a.y.step(k), b.y.step(k))


def test_run_zero_driver_report():
    scenario = scenario_from_dict({**MINIMAL, "terminal": "h"})
    report = run(scenario, RunFlags())
    assert report.passed
    assert report.data["solve"]["y0"] == pytest.approx(0.4375, abs=1e-15)
    assert report.data["solve"]["k_expected_total"] == 0.0
    names = {c["name"] for c in report.data["checks"]}
    assert "equation_residual" in names
    assert all("tolerance" in c for c in report.data["checks"])


def test_run_crr_oracle_check():
    scenario = scenario_from_dict(
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
    flags = RunFlags(oracle="crr")
    report = run(scenario, flags)
    assert report.passed
    oracle = report.data["oracle"]
    assert oracle["gap"] <= 1e-10


def test_run_picard_history_decreases():
    scenario = scenario_from_dict(
        {
            **MINIMAL,
            "steps": 8,
            "delta_steps": 2,
            "driver": {"text": "0.3*y + 0.2*ey", "form": "M"},
            "terminal": "w + 0.5*h",
            "scheme": "implicit",
        }
    )
    flags = RunFlags(workflows={"solve", "validate", "picard"}, picard_tol=1e-12)
    report = run(scenario, flags)
    assert report.passed
    hist = report.data["picard"]["distances"]
    assert len(hist) >= 4
    assert all(b < a for a, b in zip(hist[1:], hist[2:]))


def test_emit_json_deterministic(tmp_path):
    scenario = scenario_from_dict(MINIMAL)
    report = run(scenario, RunFlags())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, "json", str(p1))
    emit_report(report, "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_row_count(tmp_path):
    scenario = scenario_from_dict(MINIMAL)
    report = run(scenario, RunFlags())
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


def test_compare_prepares_and_solves_each_scenario_once(tmp_path, monkeypatch):
    base = {**_WORKFLOW_DOC, "steps": 5, "name": "dominated"}
    p1 = _write(tmp_path, {**base, "terminal": f"{base['terminal']} + 0.5", "name": "dominating"}, "s1.json")
    p2 = _write(tmp_path, base, "s2.json")
    prepared, solved, frozen = [], [], []
    prepare, solve = solver._prepare, solver._solve

    def counted_prepare(scenario, lattice, *fields):
        prepared.append(scenario.name)
        return prepare(scenario, lattice, *fields)

    def counted_solve(prob, frozen_ey=None, frozen_driver=None):
        (solved if frozen_ey is None else frozen).append(prob.scenario.name)
        return solve(prob, frozen_ey=frozen_ey, frozen_driver=frozen_driver)

    for module in (solver, comparison):
        monkeypatch.setattr(module, "_prepare", counted_prepare)
        monkeypatch.setattr(module, "_solve", counted_solve)
    out = tmp_path / "cmp.json"
    # three iterates stop short of the 1e-8 limit check, so the run exits 3
    assert main(["compare", "--scenario", p1, "--scenario2", p2, "--iterates", "3", "--out", str(out)]) == 3
    data = json.loads(out.read_text(encoding="utf-8"))
    assert [c["name"] for c in data["checks"] if not c["pass"]] == ["iterate_limit_gap"]
    assert sorted(prepared) == sorted(solved) == ["dominated", "dominating"]
    assert data["comparison"]["iterates"]["count"] == 3 and frozen == ["dominated"] * 3


def test_compare_checks_the_hypotheses_once(tmp_path, monkeypatch):
    base = {**_WORKFLOW_DOC, "steps": 5}
    p1 = _write(tmp_path, {**base, "terminal": f"{base['terminal']} + 0.5"}, "s1.json")
    p2 = _write(tmp_path, base, "s2.json")
    calls = []
    check = comparison.check_hypotheses

    def counted_check(case, lattice=None):
        calls.append(lattice)
        return check(case, lattice)

    monkeypatch.setattr(comparison, "check_hypotheses", counted_check)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--scenario", p1, "--scenario2", p2, "--iterates", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text(encoding="utf-8"))["comparison"]["iterates"]["count"] == 3
    assert len(calls) == 1


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


def test_main_suite_subcommand(tmp_path):
    out = str(tmp_path / "suite.json")
    assert main(["suite", "--cases", "6", "--seed", "4", "--out", out]) == 0
    data = json.loads(Path(out).read_text(encoding="utf-8"))
    assert data["cases"] == 6
    assert data["failures"] == 0
    assert data["min_gap"] >= -1e-10


def test_emit_csv_matches_per_node_reference(tmp_path):
    rng = np.random.default_rng(31)
    for t in range(4):
        sc = random_scenario(rng, n_steps=int(rng.integers(2, 7)), binding=True)
        lam = [0.0 if t % 2 and i % 2 else v for i, v in enumerate(sc.intensity.values)]
        sc = dataclasses.replace(
            sc, intensity=IntensitySpec(values=tuple(lam), lambda_max=sc.intensity.lambda_max)
        )
        report = run(sc, RunFlags())
        sol = report.solution
        lat = sol.lattice
        fields = (sol.y, sol.z, sol.u, sol.dk, sol.psi, obstacle_field(sc, lat))
        lines = ["step,up_count,default_step,Y,Z,U,dK,psi,S"]
        for k in range(lat.n_steps + 1):
            for i in range(lat.n_nodes(k)):
                node = lat.node_at(k, i)
                cells = [str(k), str(node.up_count), str(node.default_step or 0)]
                cells += [format(float(f.step(k)[i]), ".17g") for f in fields]
                lines.append(",".join(cells))
        path = tmp_path / f"nodes{t}.csv"
        emit_report(report, "csv", str(path))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


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
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
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


def test_non_finite_terminal_prints_only_the_error_line(tmp_path):
    # a fresh process shows stderr as a user sees it, with Python's default
    # warning filters rather than the test run's
    path = _write(tmp_path, {**MINIMAL, "terminal": "exp(1000) + w"})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from rabsde.cli import main; sys.exit(main(sys.argv[1:]))",
         "solve", "--scenario", path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "RuntimeWarning" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "/terminal" in line


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
