"""Command-line surface: scenario files, workflow execution, report emission.

Scenario files are JSON documents (one scenario per file):

    {
      "horizon": 1.0,
      "steps": 8,
      "delta_steps": 2,
      "lambda": 0.3,                    // scalar or per-step array
      "lambda_max": 0.3,                // optional, defaults to max(lambda)
      "driver": {"text": "-0.05*y", "form": "H"},   // or a bare string (H form)
      "obstacle": "-1e9",
      "terminal": "w",
      "scheme": "explicit",
      "outputs": ["solve"],
      "oracle": {"kind": "crr", "spot": 1.0, "strike": 1.0,
                 "rate": 0.04, "sigma": 1.0}        // optional cross-check
    }

Subcommands: solve, picard, stopping, compare, suite.  Exit codes: 0 all
checks pass, 2 validation failure, 3 numerical check failure, 4 I/O error.
Reports are deterministic: sorted keys, floats printed with 17 significant
digits, no timing section unless --timing is passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .driver import DriverForm, DriverParseError, GridSpec, TransformedDriver, parse_driver
from .errors import (
    EnumerationError,
    HypothesisError,
    LatticeError,
    RabsdeError,
    ScenarioError,
    SolverError,
)
from .lattice import IntensitySpec, oversize_message
from .solver import (
    CHECK_TOL,
    DRIVER_VARS,
    OBSTACLE_VARS,
    TERMINAL_VARS,
    PicardOptions,
    Scenario,
    Scheme,
    Solution,
    ValidationReport,
    _beta_overflow,
    _lattice_for,
    _max,
    _min,
    _picard,
    _picard_beta,
    _prepare,
    _Problem,
    _solve,
    estimate_c_prime,
    validate_solution,
)
# comparison, stopping, crr and concurrent.futures are imported, and their
# functions looked up, only in the calls that use them: a solve loads none

_KNOWN_KEYS = {
    "horizon", "steps", "delta_steps", "lambda", "lambda_max", "driver",
    "obstacle", "terminal", "scheme", "implicit_tol", "implicit_max_iter",
    "outputs", "oracle", "name",
}
_KNOWN_OUTPUTS = {"solve", "validate", "picard", "stopping", "compare"}
_ORACLE_PARAMS = ("spot", "strike", "rate", "sigma")


# -- scenario loading ----------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    # an exact comparison: an int past the float range is refused, not converted
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and fully validate a Scenario; collects every issue found."""
    return _gate([_scenario_from_doc(doc)])[0].scenario


def _scenario_from_doc(doc: dict) -> Scenario:
    """The document's Scenario, checked field by field; collects every issue."""
    issues: list[tuple[str, str]] = []
    if not isinstance(doc, dict):
        raise ScenarioError([("", "scenario document must be a JSON object")])
    for key in doc:
        if key not in _KNOWN_KEYS:
            issues.append((f"/{key}", "unknown key"))

    def take(key: str, default, ok, rule: str, fallback):
        """``doc[key]`` (``default`` when absent) if ``ok`` accepts it, else
        ``fallback``, with the issue that it must be ``rule``."""
        value = doc.get(key, default)
        if ok(value):
            return value
        issues.append((f"/{key}", f"must be {rule}"))
        return fallback

    horizon = float(take("horizon", None, lambda v: _is_num(v) and v > 0, "a positive number", 1.0))
    steps = doc.get("steps")
    # the floor is checked before any per-step list
    bad_steps = ("must be a positive integer" if not _is_int(steps) or steps <= 0
                 else oversize_message(horizon, steps))
    if bad_steps:
        issues.append(("/steps", bad_steps))
        steps = 1
    delta = take("delta_steps", 0, lambda v: _is_int(v) and v >= 0,
                 "a non-negative integer (a multiple of dt)", 0)

    lam_raw = doc.get("lambda")
    if _is_num(lam_raw):
        lam_values = [float(lam_raw)] * steps
    elif isinstance(lam_raw, list) and lam_raw and all(_is_num(v) for v in lam_raw):
        if len(lam_raw) != steps and not bad_steps:  # not against the fallback step count
            issues.append(("/lambda", f"array must have one value per step ({steps})"))
            lam_values = [0.0] * steps
        else:
            lam_values = [float(v) for v in lam_raw]
    else:
        issues.append(("/lambda", "must be a number or an array of numbers"))
        lam_values = [0.0] * steps
    # JSON null means absent
    lam_max = take("lambda_max", None, lambda v: v is None or _is_num(v), "a number", None)
    lam_max = max(lam_values) if lam_max is None else float(lam_max)

    driver_raw = doc.get("driver")
    form = DriverForm.H
    driver_text = None
    if isinstance(driver_raw, str):
        driver_text = driver_raw
    elif isinstance(driver_raw, dict):
        issues += [(f"/driver/{key}", "unknown key") for key in driver_raw if key not in ("text", "form")]
        driver_text = driver_raw.get("text")
        form_raw = driver_raw.get("form", "H")
        if form_raw in ("H", "M"):
            form = DriverForm(form_raw)
        else:
            issues.append(("/driver/form", "must be 'H' or 'M'"))
        if not isinstance(driver_text, str):
            issues.append(("/driver/text", "must be a string"))
            driver_text = "0"
    else:
        issues.append(("/driver", "must be a string or {text, form} object"))
        driver_text = "0"

    def _parse(ptr: str, text, allowed, what: str):
        if not isinstance(text, str):
            issues.append((ptr, "must be a string"))
            return parse_driver("0")
        try:
            expr = parse_driver(text)
        except DriverParseError as exc:
            issues.append((ptr, str(exc)))
            return parse_driver("0")
        extra = expr.free_vars - allowed
        if extra:
            issues.append((ptr, f"{what} may only use {sorted(allowed)}; found {sorted(extra)}"))
        return expr

    driver_expr = _parse("/driver/text" if isinstance(driver_raw, dict) else "/driver",
                         driver_text, DRIVER_VARS, "driver")
    obstacle_expr = _parse("/obstacle", doc.get("obstacle"), OBSTACLE_VARS, "obstacle")
    terminal_expr = _parse("/terminal", doc.get("terminal"), TERMINAL_VARS, "terminal")

    scheme = take("scheme", "explicit", lambda v: v in ("explicit", "implicit"),
                  "'explicit' or 'implicit'", "explicit")
    implicit_tol = take("implicit_tol", Scenario.implicit_tol, lambda v: _is_num(v) and v > 0,
                        "a positive number", Scenario.implicit_tol)
    implicit_max_iter = take("implicit_max_iter", Scenario.implicit_max_iter, lambda v: _is_int(v) and v > 0,
                             "a positive integer", Scenario.implicit_max_iter)
    take("outputs", [], lambda v: isinstance(v, list) and all(isinstance(o, str) and o in _KNOWN_OUTPUTS for o in v),
         f"a list drawn from {sorted(_KNOWN_OUTPUTS)}", [])

    oracle = doc.get("oracle")
    if oracle is not None:
        if not isinstance(oracle, dict) or oracle.get("kind") != "crr":
            issues.append(("/oracle", "only {'kind': 'crr', ...} is supported"))
            oracle = None
        else:
            issues += [(f"/oracle/{key}", "unknown key") for key in oracle if key not in ("kind", *_ORACLE_PARAMS)]
            for key in _ORACLE_PARAMS:
                if not _is_num(oracle.get(key)):
                    issues.append((f"/oracle/{key}", "must be a number"))

    name = take("name", "", lambda v: isinstance(v, str), "a string", "")

    intensity = None
    if not issues:
        try:
            intensity = IntensitySpec(values=tuple(lam_values), lambda_max=lam_max)
        except RabsdeError as exc:
            issues.append(("/lambda", str(exc)))
    if issues:
        raise ScenarioError(issues)

    return Scenario(
        horizon=horizon,
        n_steps=steps,
        intensity=intensity,
        delta_steps=delta,
        driver=TransformedDriver(base=driver_expr, form=form),
        obstacle=obstacle_expr,
        terminal=terminal_expr,
        scheme=Scheme(scheme),
        implicit_tol=float(implicit_tol),
        implicit_max_iter=int(implicit_max_iter),
        oracle_params={key: float(oracle[key]) for key in _ORACLE_PARAMS} if oracle else None,
        name=name,
    )


def _gate(scenarios: list[Scenario], *, full_size: bool = False) -> list[_Problem]:
    """The whole-scenario checks of a run: every scenario prepared on the run's
    one lattice (``_lattice_for``), then its C' bound (kept on the problem, for
    Picard's default beta); collects every issue, those of a second scenario
    under ``--scenario2``."""
    def attempt(found: list, work, *args, **kwargs):
        """``work(*args, **kwargs)``, or None with its error's issue on ``found``."""
        try:
            return work(*args, **kwargs)
        except (LatticeError, SolverError) as exc:  # a lattice error is the intensity's
            found.append(("/lambda" if isinstance(exc, LatticeError) else exc.pointer or "", str(exc)))

    issues: list[tuple[str, str]] = []
    lattice = attempt(issues, _lattice_for, *scenarios, full_size=full_size)
    problems = []
    for source, scenario in zip(("", "--scenario2"), scenarios):
        found: list[tuple[str, str]] = []
        problem = None if lattice is None else attempt(found, _prepare, scenario, lattice)
        try:
            cp = estimate_c_prime(scenario)
        except RabsdeError as exc:
            found.append(("/driver", str(exc)))
        else:
            cp_dt = cp * scenario.horizon / scenario.n_steps
            if not math.isfinite(cp):
                found.append(("/driver", "driver depends on u where the intensity vanishes"))
            elif scenario.scheme is Scheme.EXPLICIT and cp_dt > 0.5:
                found.append(("/scheme", f"explicit scheme needs C'*dt <= 0.5 (estimated {cp_dt:.3g}); "
                                         "use the implicit scheme or more steps"))
        issues += [(source + pointer, message) for pointer, message in found]
        if not issues:
            problems.append(problem._replace(c_prime=cp))
    if issues:
        raise ScenarioError(issues)
    return problems


def _read_doc(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise ScenarioError([("", f"not valid JSON: {exc}")]) from None


def load_scenario_with_outputs(
    path: str, path2: str | None = None, *, command: str = "solve", fmt: str = "json"
) -> tuple[_Problem, _Problem | None, set[str]]:
    """The prepared problem of a scenario file, that of compare's second file
    ``path2`` (else None), and the first file's outputs.

    Both files are checked field by field, and as a comparison pair, before
    either is prepared, because they share one lattice.  A run that reads
    nodes by label, a CSV node table or the stopping oracles, keeps the full
    lattice's size bound."""
    doc = _read_doc(path)
    scenarios = [_scenario_from_doc(doc)]
    if path2 is not None:
        try:
            scenarios.append(_scenario_from_doc(_read_doc(path2)))
        except ScenarioError as exc:
            raise ScenarioError([("--scenario2" + ptr, msg) for ptr, msg in exc.issues]) from None
        from . import comparison as cmp
        cmp._check_pair(*scenarios)
    outputs = set(doc.get("outputs", []))
    full_size = fmt == "csv" or "stopping" in _workflows(command, outputs)
    problems = _gate(scenarios, full_size=full_size)
    return problems[0], problems[1] if path2 is not None else None, outputs


def _workflows(command: str, outputs: set[str]) -> set[str]:
    """The optional workflows a subcommand runs, after the solve and its
    validation that every run makes; ``solve`` takes the file's outputs (and
    ``main`` adds ``oracle`` under ``--oracle crr``)."""
    return {"solve": outputs & {"picard", "stopping"}, "picard": {"picard"},
            "stopping": {"stopping"}, "compare": {"compare"}}[command]


def scenario_to_dict(scenario: Scenario) -> dict:
    out = {
        "horizon": scenario.horizon,
        "steps": scenario.n_steps,
        "delta_steps": scenario.delta_steps,
        "lambda": list(scenario.intensity.values),
        "lambda_max": scenario.intensity.lambda_max,
        "driver": {"text": scenario.driver.base.source, "form": scenario.driver.form.value},
        "obstacle": scenario.obstacle.source,
        "terminal": scenario.terminal.source,
        "scheme": scenario.scheme.value,
    }
    if scenario.name:
        out["name"] = scenario.name
    if scenario.oracle_params:
        out["oracle"] = {"kind": "crr", **{k: float(v) for k, v in scenario.oracle_params.items()}}
    return out


# -- deterministic serialization -------------------------------------------------


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def format_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, fixed 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {format_json(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{format_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def node_table_rows(solution: Solution, k: int) -> str:
    """Step ``k`` of the per-node dump: one newline-terminated row per labelled node.

    A row is ``step,up_count,`` then ``default_step,`` then the six values.
    Each stored row's values are formatted once.  A stored block's text is
    cut where the default step goes, ``["k,0,", v0 + "k,1,", ..., v_k]``, so
    the labelled block of default step ``d`` is ``f"{d},".join(cut)``.  The
    stored block behind each labelled block comes from ``lattice.lift``: on a
    quotient the shared default block is joined once per reachable default step.
    """
    lat = solution.lattice
    width = k + 1
    fields = (solution.y, solution.z, solution.u, solution.dk, solution.psi,
              solution.obstacle_field())
    texts = [_NODE_VALUES % row for row in zip(*(f.step(k).tolist() for f in fields))]
    heads = [f"{k},{j}," for j in range(1, width)]
    cuts = [[f"{k},0,", *map(str.__add__, texts[s : s + k], heads), texts[s + k]]
            for s in range(0, len(texts), width)]
    stored = lat.lift(k, np.arange(len(texts)))[::width] // width  # per labelled block
    codes = (0,) + lat.default_steps(k)
    return "".join(f"{d},".join(cuts[b]) for d, b in zip(codes, stored.tolist()))


NODE_TABLE_HEADER = ["step", "up_count", "default_step", "Y", "Z", "U", "dK", "psi", "S"]
# '%.17g' % v matches format(v, ".17g"), nan and inf included
_NODE_VALUES = ",".join(["%.17g"] * 6) + "\n"


def _write_node_table(solution: Solution, fh) -> None:
    """Write the header, then each step's rows as soon as they are made."""
    fh.write(",".join(NODE_TABLE_HEADER) + "\n")
    for k in range(solution.lattice.n_steps + 1):
        fh.write(node_table_rows(solution, k))


def _quietly(stream, write) -> None:
    """``write(stream)``, then flush.  A reader that closes the pipe early
    (``| head``, with ``2>&1`` for stderr) ends the output quietly: the stream
    then points at the null device, so later writes and the interpreter's own
    flush at exit have nowhere to fail."""
    try:
        write(stream)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


@dataclass
class RunReport:
    """Serializable run outcome plus the solution backing the CSV dump."""

    data: dict
    solution: Solution | None = None
    timings: dict[str, float] = field(default_factory=dict)  # seconds per phase

    @property
    def passed(self) -> bool:
        return bool(self.data.get("pass", False))


def emit_report(report: RunReport, fmt: str, path: str | None = None) -> None:
    """Write the report deterministically to ``path``, or to stdout when it is
    None; csv emits the per-node table."""
    if fmt == "json":
        text = format_json(report.data) + "\n"
        write = lambda fh: fh.write(text)
    elif fmt == "csv":
        if report.solution is None:
            raise ScenarioError([("", "csv output requires a solved scenario")])
        write = functools.partial(_write_node_table, report.solution)
    else:
        raise ScenarioError([("", f"unknown report format '{fmt}'")])
    if path is None:
        _quietly(sys.stdout, write)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)


# -- workflows -------------------------------------------------------------------


class RunFlags(NamedTuple):
    workflows: set[str] | frozenset[str] = frozenset()  # of "oracle", "picard", "stopping", "compare"
    tol: float = CHECK_TOL
    picard: PicardOptions = PicardOptions()
    problem2: _Problem | None = None  # the dominated scenario of compare, prepared
    iterate_n: int = 0


def _check(name: str, tolerance: float, violation: float) -> dict:
    return {
        "name": name,
        "tolerance": tolerance,
        "violation": violation,
        "pass": bool(violation <= tolerance),
    }


def _finite(obj) -> bool:
    """Whether every float in a report body is finite."""
    if isinstance(obj, (dict, list, tuple)):
        return all(map(_finite, obj.values() if isinstance(obj, dict) else obj))
    return not isinstance(obj, (float, np.floating)) or math.isfinite(obj)


def _fields(obj, *names: str) -> dict:
    """The report entries of ``obj``'s attributes ``names``, under their own names."""
    return {name: getattr(obj, name) for name in names}


def _solve_sections(solution: Solution, validation: ValidationReport) -> dict:
    """The scenario and solve sections; the representation residual comes
    from the validation pass."""
    scenario = solution.scenario
    return {
        "scenario": scenario_to_dict(scenario),
        "solve": {
            "y0": solution.y0,
            "k_expected_total": solution.expected_total_k(),
            "k_max_path_total": solution.max_path_total_k(),
            "k_per_step_expected": list(solution.per_step_expected_dk()),
            "max_abs_psi": solution.max_abs_psi(),
            "weighted_psi": solution.weighted_psi(),
            "max_representation_residual": validation.representation_residual,
            "scheme": scenario.scheme.value,
        },
    }


def _oracle_section(problem: _Problem, solution: Solution, flags: RunFlags) -> tuple[dict, list[dict]]:
    scenario = problem.scenario
    params = scenario.oracle_params
    if not params:
        raise ScenarioError(
            [("/oracle", "scenario carries no oracle parameters for --oracle crr")]
        )
    from . import crr
    price = crr.crr_american_put(
        spot=float(params["spot"]),
        strike=float(params["strike"]),
        rate=float(params["rate"]),
        sigma=float(params["sigma"]),
        horizon=scenario.horizon,
        n_steps=scenario.n_steps,
        scheme=scenario.scheme,
    )
    gap = abs(price - solution.y0)
    return {"kind": "crr", "price": price, "gap": gap}, [_check("crr_cross_check", flags.tol, gap)]


def _picard_section(problem: _Problem, solution: Solution, flags: RunFlags) -> tuple[dict, list[dict]]:
    pic_solution, history = _picard(problem, flags.picard)
    gap = functools.reduce(_max, (np.max(np.abs(pic_solution.y.step(k) - solution.y.step(k)))
                                  for k in range(solution.lattice.n_steps + 1)), 0.0)
    section = {
        "beta": pic_solution.diagnostics["picard_beta"],
        "iterations": pic_solution.diagnostics["picard_iterations"],
        "distances": list(history),
        "converged": True,
        "gap_vs_backward": gap,
    }
    return section, [_check("picard_vs_backward", 10.0 * flags.picard.tol, gap)]


def _stopping_section(problem: _Problem, solution: Solution, flags: RunFlags) -> tuple[dict, list[dict]]:
    """Each oracle past its enumeration cap reports ``skipped`` and no check."""
    from . import stopping as stp
    section: dict = {}
    checks: list[dict] = []
    try:
        report = stp.snell_report(solution, problem.scenario)
    except EnumerationError as exc:
        section["brute_force"] = None
        section["skipped"] = str(exc)
    else:
        checks.append(_check("snell_vs_brute_force", flags.tol, report.gap))
        checks.append(_check("tau_achieves_snell", flags.tol, report.tau_gap))
        checks.append(
            _check(
                "tau_characterizations_coincide",
                0.0,
                0.0 if report.tau_rules_coincide else 1.0,
            )
        )
        section.update(_fields(report, "snell_value", "brute_force", "gap", "tau_payoff", "tau_gap",
                               "k_rule_payoff", "tau_rules_coincide"))
    try:
        krep = stp.k_running_max_check(solution, problem.scenario)
    except EnumerationError as exc:
        section["k_running_max"] = {"skipped": str(exc)}
    else:
        checks.append(_check("k_running_max", flags.tol, krep.max_gap))
        section["k_running_max"] = _fields(krep, "max_gap", "max_gap_z_only", "n_paths")
    return section, checks


def _compare_section(problem: _Problem, solution: Solution, flags: RunFlags) -> tuple[dict, list[dict]]:
    if flags.problem2 is None:
        raise ScenarioError([("", "compare requires --scenario2")])
    from . import comparison as cmp
    scenario = problem.scenario
    case = cmp._given_solution(cmp.ComparisonCase(
        scenario1=scenario, scenario2=flags.problem2.scenario,
        grid=GridSpec.for_horizon(scenario.horizon),
    ), solution, flags.problem2)
    verdict = cmp.run_comparison(case, tol=flags.tol)
    # a NaN gap fails the check
    checks = [_check("comparison_min_gap", flags.tol, _max(0.0, -verdict.min_gap))]
    hypotheses = verdict.hypotheses
    section = {
        **_fields(verdict, "min_gap", "y0_gap", "passed"),
        "hypotheses": {
            "monotone_in_anticipation": hypotheses.monotone.passed,
            "terminal_gap": hypotheses.terminal_gap,
            "obstacle_gap": hypotheses.obstacle_gap,
            "theta": hypotheses.theta.theta,
            "theta_passed": hypotheses.theta.passed,
            "dominance_min_gap": hypotheses.dominance.min_gap,
        },
    }
    if flags.iterate_n > 0:
        trace = cmp.iterate_sequence(case, flags.iterate_n)
        checks.append(_check("iterate_limit_gap", 1e-8, trace.final_gap))
        section["iterates"] = _fields(trace, "count", "sup_diffs", "final_gap")
    return section, checks


# (workflow and timing phase, report key, builder), in report order; a builder
# takes (problem, solution, flags) and returns its section and its checks
_SECTIONS = (
    ("oracle", "oracle", _oracle_section),
    ("picard", "picard", _picard_section),
    ("stopping", "stopping", _stopping_section),
    ("compare", "comparison", _compare_section),
)


def run(problem: _Problem, flags: RunFlags) -> RunReport:
    """Solve and validate a prepared scenario, run the requested workflows and
    assemble the report, with each phase's time on ``RunReport.timings``."""
    timings: dict[str, float] = {}

    def timed(phase: str, work, *args):
        t0 = time.perf_counter()
        out = work(*args)
        timings[phase] = time.perf_counter() - t0
        return out

    solution = timed("solve", _solve, problem)
    validation = timed("validate", validate_solution, solution, problem.scenario)
    data = timed("report", _solve_sections, solution, validation)
    checks = [_check(name, flags.tol, violation) for name, violation in validation.checks()]
    data["validate"] = _fields(validation, "driver_square_sum", "max_violation")
    for workflow, key, build in _SECTIONS:
        if workflow in flags.workflows:
            data[key], found = timed(workflow, build, problem, solution, flags)
            checks += found
    data["checks"] = checks
    # an inf or NaN anywhere in the body never passes, whatever the checks read
    data["pass"] = all(c["pass"] for c in checks) and _finite(data)
    return RunReport(data=data, solution=solution, timings=timings)


# -- suite ----------------------------------------------------------------------

_SUITE_CHUNK = 50


def run_suite(
    seed: int,
    n_cases: int,
    *,
    n_steps: int = 6,
    horizon: float = 1.0,
    lam: float = 0.3,
    tol: float = CHECK_TOL,
    workers: int = 1,
) -> dict:
    """Randomized comparison sweep, chunked deterministically (chunk size is
    fixed so the result does not depend on the worker count).  The size guard
    and the default probability lambda*dt < 1 are checked first, before any
    lattice or worker; the guard checks the floor of every lattice on
    ``n_steps`` before it builds the intensity, then counts the quotient's
    nodes, as generated terminals never read tau."""
    too_big = (oversize_message(horizon, n_steps)
               or oversize_message(horizon, n_steps, IntensitySpec.constant(lam, n_steps), quotient=True))
    if too_big:
        raise ScenarioError([("--steps", too_big)])
    p = lam * (horizon / n_steps)  # the lattice's default probability per step
    if p >= 1.0:
        raise ScenarioError([("--intensity", f"default probability lambda*dt = {p:.6g} >= 1; "
                                             "lower --intensity or raise --steps")])
    from . import comparison as cmp
    chunk = functools.partial(cmp.run_random_suite, n_steps=n_steps, horizon=horizon, lam=lam, tol=tol)
    sizes = [min(_SUITE_CHUNK, n_cases - start) for start in range(0, n_cases, _SUITE_CHUNK)]
    seeds = range(seed, seed + len(sizes))
    workers = min(workers, len(sizes), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk, seeds, sizes))
    else:
        results = list(map(chunk, seeds, sizes))
    failures = sum(r.failures for r in results)
    return {
        "cases": sum(r.cases for r in results),
        "min_gap": functools.reduce(_min, (r.min_gap for r in results)),
        "failures": failures,
        "delta_counts": [sum(counts) for counts in zip(*(r.delta_counts for r in results))],
        "tolerance": tol,
        "pass": failures == 0,
    }


# -- argument parsing -------------------------------------------------------------


def _flag(kind, ok, rule: str):
    """An argparse ``type``: ``kind(text)``, rejected unless ``ok`` holds."""

    def parse(text: str):
        value = kind(text)  # a ValueError reads "invalid <kind> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


_POSITIVE = _flag(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_AT_LEAST_ONE = _flag(int, lambda v: v >= 1, ">= 1")
_CASES = _flag(int, lambda v: 1 <= v <= 10**7, "between 1 and 10**7")  # the suite lists its chunks up front
_NON_NEGATIVE = _flag(int, lambda v: v >= 0, ">= 0")
_RHO = _flag(float, lambda v: math.isfinite(v) and v >= 1, "finite and >= 1")
_INTENSITY = _flag(float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")


class _Refused(argparse.Action):
    """A flag the subcommand does not take: any use is a usage error (exit 2)
    that names it, rather than an ``unrecognized arguments`` line."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise argparse.ArgumentError(self, "only the suite subcommand draws random numbers")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every ``main``
    call in the process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="rabsde",
        description="Solve and property-check reflected anticipated BSDEs with default on exact lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario2=False):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        if scenario2:
            p.add_argument("--scenario2", required=True, help="second scenario JSON file")
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--tol", type=_POSITIVE, default=None,
                       help=f"check tolerance (default {CHECK_TOL:g}), and picard's own (default {PicardOptions.tol:g})")
        p.add_argument("--seed", action=_Refused, help=argparse.SUPPRESS)
        p.add_argument("--timing", action="store_true")

    p_solve = sub.add_parser("solve", help="solve backward, validate, optional oracle")
    common(p_solve)
    p_solve.add_argument("--oracle", choices=["crr", "none"], default="none")

    p_picard = sub.add_parser("picard", help="fixed-point iteration with history")
    common(p_picard)
    p_picard.add_argument("--rho", type=_RHO)
    p_picard.add_argument("--beta", type=_POSITIVE)
    p_picard.add_argument("--max-iter", type=_AT_LEAST_ONE)

    p_stop = sub.add_parser("stopping", help="Snell oracle, tau rules, running-max")
    common(p_stop)

    p_cmp = sub.add_parser("compare", help="hypothesis checks plus node-wise comparison")
    common(p_cmp, scenario2=True)
    p_cmp.add_argument("--iterates", type=_NON_NEGATIVE, default=0,
                       help="run the monotone iterate bridge")

    p_suite = sub.add_parser("suite", help="randomized comparison sweep")
    p_suite.add_argument("--cases", type=_CASES, default=1000)
    p_suite.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p_suite.add_argument("--steps", type=_AT_LEAST_ONE, default=6)
    p_suite.add_argument("--horizon", type=_POSITIVE, default=1.0)
    p_suite.add_argument("--intensity", type=_INTENSITY, default=0.3)
    p_suite.add_argument("--tol", type=_POSITIVE, default=CHECK_TOL)
    p_suite.add_argument("--out", default=None)
    return parser


def _fail(code: int, line: str) -> int:
    """Write a refusal line to stderr and return its exit code."""
    _quietly(sys.stderr, lambda fh: fh.write(line + "\n"))
    return code


# no numpy warning reaches the user: the finite checks report a non-finite value
@np.errstate(all="ignore")
def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has written the usage error (exit 2) or the help
        return exc.code
    try:
        if args.command == "suite":
            threads = os.environ.get("RABSDE_THREADS", "1")
            try:
                workers = int(threads)
            except ValueError:
                return _fail(2, f"error: RABSDE_THREADS must be an integer, got {threads!r}")
            data = run_suite(
                args.seed,
                args.cases,
                n_steps=args.steps,
                horizon=args.horizon,
                lam=args.intensity,
                tol=args.tol,
                workers=max(workers, 1),
            )
            emit_report(RunReport(data=data), "json", args.out or None)
            return 0 if data["pass"] else 3

        t0 = time.perf_counter()
        problem, problem2, file_outputs = load_scenario_with_outputs(
            args.scenario, args.scenario2 if args.command == "compare" else None,
            command=args.command, fmt=args.format,
        )
        load_s = time.perf_counter() - t0
        # Picard's options from the flags this subcommand has, the rest at their defaults
        picard = {name: getattr(args, name, None) for name in ("tol", "rho", "beta", "max_iter")}
        # the flags only their own subcommands take: --oracle crr adds its workflow
        oracle = {"oracle"} if getattr(args, "oracle", None) == "crr" else set()
        flags = RunFlags(problem2=problem2, iterate_n=getattr(args, "iterates", 0),
                         workflows=_workflows(args.command, file_outputs) | oracle,
                         tol=CHECK_TOL if args.tol is None else args.tol,
                         picard=PicardOptions(**{k: v for k, v in picard.items() if v is not None}))
        flag = "--beta" if picard["beta"] is not None else "--rho" if picard["rho"] is not None else None
        overflow = flag and _beta_overflow(problem.lattice, _picard_beta(problem, flags.picard))
        if overflow:  # the flag, not the scenario, is at fault
            return _fail(2, f"error: argument {flag}: {overflow}")
        report = run(problem, flags)
        report.timings["load"] = load_s
        if args.timing and args.format == "json":
            report.data["timing"] = report.timings
        t1 = time.perf_counter()
        emit_report(report, args.format, args.out or None)
        if args.timing and args.format == "csv":  # the table holds no timing; it goes to stderr
            report.timings["emit"] = time.perf_counter() - t1
            line = json.dumps({"timing": report.timings}, sort_keys=True) + "\n"
            _quietly(sys.stderr, lambda fh: fh.write(line))
        return 0 if report.passed else 3
    except (ScenarioError, HypothesisError) as exc:
        return _fail(2, f"error: {exc}")
    except OSError as exc:
        return _fail(4, f"i/o error: {exc}")
    except RabsdeError as exc:  # a solver, Picard, enumeration or other numerical failure
        return _fail(3, f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
