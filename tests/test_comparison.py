"""Hypothesis checkers, node-wise ordering, monotone iterate bridge."""

from __future__ import annotations

import dataclasses
import math
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import driver_texts, grids, lambda_profiles, make_scenario, outcome
from rabsde import comparison, driver
from rabsde.comparison import (
    ComparisonCase,
    DominanceReport,
    MonotoneReport,
    SuiteResult,
    ThetaReport,
    check_dominance,
    check_monotone_in_anticipation,
    check_theta_condition,
    iterate_sequence,
    random_comparison_case,
    run_comparison,
    run_random_suite,
)
from rabsde.driver import DriverExpr, GridSpec, parse_driver
from rabsde.errors import DriverEvalError, HypothesisError, MonotonicityError, PicardConvergenceError, SolverError
from rabsde.lattice import DefaultLattice
from rabsde.solver import obstacle_field, solve_backward, solve_picard

GRID = GridSpec(points=5, n_base=16, seed=0)


def test_monotone_linear_increasing():
    report = check_monotone_in_anticipation(parse_driver("0.2*ey"), GRID)
    assert report.passed and report.witness is None


def test_monotone_decreasing_with_witness():
    report = check_monotone_in_anticipation(parse_driver("-ey"), GRID)
    assert not report.passed
    env, lo, hi, g_lo, g_hi = report.witness
    assert lo < hi and g_lo > g_hi  # the witness really violates the inequality
    expr = parse_driver("-ey")
    assert float(expr.compiled()({**env, "ey": lo})) > float(expr.compiled()({**env, "ey": hi}))


def test_monotone_saturating():
    report = check_monotone_in_anticipation(parse_driver("min(ey, 3)"), GRID)
    assert report.passed


def test_monotone_vacuous_without_ey():
    assert check_monotone_in_anticipation(parse_driver("0.3*y"), GRID).passed


def test_theta_independent_of_u():
    report = check_theta_condition(parse_driver("y + z"), 0.5, GRID)
    assert report.passed and report.theta == 0.0


def test_theta_violated_by_steep_negative_slope():
    report = check_theta_condition(parse_driver("-2*u"), 0.5, GRID)
    assert not report.passed
    assert report.theta == pytest.approx(-4.0, abs=1e-12)
    env, u_lo, u_hi, ratio = report.witness
    expr = parse_driver("-2*u")
    lhs = float(expr.compiled()({**env, "u": u_hi})) - float(expr.compiled()({**env, "u": u_lo}))
    assert lhs < -1.0 * 0.5 * (u_hi - u_lo)  # steeper down than theta = -1 allows


def test_theta_mild_positive_slope():
    report = check_theta_condition(parse_driver("0.25*u"), 0.5, GRID)
    assert report.passed
    assert report.theta == pytest.approx(0.5, abs=1e-12)


def test_theta_vacuous_when_intensity_zero():
    report = check_theta_condition(parse_driver("-2*u"), 0.0, GRID)
    assert report.passed and report.theta == 0.0


def test_dominance_detects_violation():
    report = check_dominance(parse_driver("y"), parse_driver("y + 0.1"), GRID)
    assert not report.passed
    assert report.min_gap == pytest.approx(-0.1, abs=1e-12)


def test_dominance_of_constant_drivers():
    report = check_dominance(parse_driver("1"), parse_driver("0"), GRID)
    assert report.passed and report.min_gap == 1.0


# -- per-env loop references: one small numpy call per base environment ----------


def _base_envs(grid, names):
    """The grid's base sample, one dict per row."""
    return [dict(zip(names, row)) for row in grid.base_sample(names).tolist()]


def _ref_monotone(g, grid):
    if "ey" not in g.free_vars:
        return MonotoneReport(passed=True, witness=None)
    fn = g.compiled()
    sweep = grid.axis("ey")
    for env in _base_envs(grid, sorted(g.free_vars - {"ey"})):
        arrs = {k: np.full(sweep.shape, v) for k, v in env.items()}
        arrs["ey"] = sweep
        vals = np.asarray(fn(arrs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise DriverEvalError("non-finite driver value on the monotonicity grid")
        bad = np.nonzero(np.diff(vals) < -1e-12)[0]
        if bad.size:
            i = int(bad[0])
            return MonotoneReport(
                passed=False,
                witness=(env, float(sweep[i]), float(sweep[i + 1]), float(vals[i]), float(vals[i + 1])),
            )
    return MonotoneReport(passed=True, witness=None)


def _ref_theta(g, lam_profile, grid):
    lam_of_t = lam_profile if callable(lam_profile) else (lambda t: float(lam_profile))
    if "u" not in g.free_vars:
        return ThetaReport(passed=True, theta=0.0, witness=None)
    fn = g.compiled()
    sweep = grid.axis("u")
    theta, witness, tested = math.inf, None, False
    for env in _base_envs(grid, sorted(g.free_vars - {"u"} | {"t"})):
        lam = lam_of_t(env["t"])
        if lam <= 0.0:
            continue
        tested = True
        arrs = {k: np.full(sweep.shape, v) for k, v in env.items()}
        arrs["u"] = sweep
        vals = np.asarray(fn(arrs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise DriverEvalError("non-finite driver value on the theta grid")
        ratios = np.diff(vals) / (lam * np.diff(sweep))
        i = int(np.argmin(ratios))
        if float(ratios[i]) < theta:
            theta = float(ratios[i])
            witness = (env, float(sweep[i]), float(sweep[i + 1]), theta)
    if not tested:
        return ThetaReport(passed=True, theta=0.0, witness=None)
    passed = theta >= -1.0 - 1e-12
    return ThetaReport(passed=passed, theta=theta, witness=None if passed else witness)


def _ref_dominance(g1, g2, grid):
    f1, f2 = g1.compiled(), g2.compiled()
    variables = sorted(g1.free_vars | g2.free_vars)
    min_gap, witness = math.inf, None
    for var in variables or ["y"]:
        sweep = grid.axis(var) if var != "h" else np.array([0.0, 1.0])
        for env in _base_envs(grid, variables):
            arrs = {k: np.full(sweep.shape, v) for k, v in env.items()}
            arrs[var] = sweep
            with np.errstate(over="ignore", invalid="ignore"):  # the finite check below decides
                gap = np.asarray(f1(arrs), dtype=float) - np.asarray(f2(arrs), dtype=float)
            gap = np.broadcast_to(gap, sweep.shape)  # two constant drivers give a scalar
            if not np.all(np.isfinite(gap)):
                raise DriverEvalError("non-finite driver value on the dominance grid")
            i = int(np.argmin(gap))
            if float(gap[i]) < min_gap:
                min_gap = float(gap[i])
                witness = {**env, var: float(sweep[i])}
    if not math.isfinite(min_gap):
        min_gap = 0.0
    passed = min_gap >= -1e-12
    return DominanceReport(passed=passed, min_gap=min_gap, witness=None if passed else witness)


_CHECK_VARS = ("t", "w", "h", "y", "z", "ey", "u")


@given(driver_texts(_CHECK_VARS), st.sampled_from([-0.5, 0.0, 0.5]), grids())
@settings(max_examples=150, deadline=None)
def test_monotone_check_matches_per_env_loop(text, c, grid):
    for src in (text, f"({text}) + {c!r}*ey"):
        g = parse_driver(src)
        assert outcome(check_monotone_in_anticipation, g, grid) == outcome(_ref_monotone, g, grid)


@given(driver_texts(_CHECK_VARS), st.sampled_from([-3.0, -0.5, 0.25]), lambda_profiles(), grids())
@settings(max_examples=150, deadline=None)
def test_theta_check_matches_per_env_loop(text, d, lam, grid):
    for src in (text, f"({text}) + {d!r}*u"):
        g = parse_driver(src)
        assert outcome(check_theta_condition, g, lam, grid) == outcome(_ref_theta, g, lam, grid)


@given(driver_texts(_CHECK_VARS), driver_texts(_CHECK_VARS), st.sampled_from([-0.5, 0.0, 1.0]),
       grids())
@settings(max_examples=150, deadline=None)
def test_dominance_check_matches_per_env_loop(text1, text2, c, grid):
    g2 = parse_driver(text2)
    for g1 in (parse_driver(text1), parse_driver(f"({text2}) + {c!r}")):
        assert outcome(check_dominance, g1, g2, grid) == outcome(_ref_dominance, g1, g2, grid)


def _per_variable_dominance(g1, g2, grid):
    """``check_dominance`` as it was before it stacked the sweeps: one call per
    driver and swept variable, on a contiguous (n_base, points) grid; its
    reference, equal byte for byte."""
    f1, f2 = g1.compiled(), g2.compiled()
    names = sorted(g1.free_vars | g2.free_vars)
    base = grid.base_sample(names)
    min_gap, worst = math.inf, None
    for var in names or ["y"]:
        sweep = grid.axis(var) if var != "h" else np.array([0.0, 1.0])
        env = {name: np.repeat(base[:, j, None], sweep.size, axis=1) for j, name in enumerate(names) if name != var}
        env[var] = np.repeat(sweep[None, :], base.shape[0], axis=0)
        v1, v2 = (np.broadcast_to(np.asarray(f(env), dtype=float), env[var].shape) for f in (f1, f2))
        with np.errstate(over="ignore", invalid="ignore"):
            gap = v1 - v2
        if not np.all(np.isfinite(gap)):
            raise DriverEvalError("non-finite driver value on the dominance grid")
        r, i = divmod(int(np.argmin(gap)), sweep.size)
        if float(gap[r, i]) < min_gap:
            min_gap, worst = float(gap[r, i]), (r, var, float(sweep[i]))
    passed = min_gap >= -1e-12
    if passed:
        return DominanceReport(passed=True, min_gap=min_gap, witness=None)
    r, var, value = worst
    return DominanceReport(passed=False, min_gap=min_gap,
                           witness={**dict(zip(names, base[r].tolist())), var: value})


@given(driver_texts(_CHECK_VARS), driver_texts(_CHECK_VARS), st.sampled_from(["0", "h", "-h", "0.5 - h", "h*y"]),
       grids())
@settings(max_examples=150, deadline=None)
def test_stacked_dominance_equals_the_per_variable_loop(text1, text2, extra, grid):
    # repr tells -0.0 from 0.0 and names NaN, so equal reprs are equal bytes
    for a, b in ((text1, text2), (f"({text2}) + {extra}", text2), (text1, extra), (extra, "0.25")):
        g1, g2 = parse_driver(a), parse_driver(b)
        assert repr(outcome(check_dominance, g1, g2, grid)) == repr(outcome(_per_variable_dominance, g1, g2, grid))


@pytest.mark.parametrize("a, b", [("1", "0"), ("0", "1"), ("-0.0", "0"), ("h", "0.5"), ("0.5", "h"),
                                  ("h - 1", "-h"), ("0.1*y", "0.1*y"), ("-0.0*t", "0*t"), ("y", "y + 0.1")])
def test_stacked_dominance_on_constants_and_h_sweeps(a, b):
    g1, g2 = parse_driver(a), parse_driver(b)
    assert repr(check_dominance(g1, g2, GRID)) == repr(_per_variable_dominance(g1, g2, GRID))


@pytest.mark.parametrize("obstacle1, obstacle2", [
    ("w - 1 + 0.5*t", "w - 0.5"),  # smallest at the root
    ("w - t", "w"),  # at the horizon
    ("w - 0.3*h", "w - 0.1*h*t"),  # on the default nodes of step 1
    ("abs(w) - 0.2*t", "-abs(w)"),
])
def test_obstacle_gap_is_the_smallest_gap_over_every_node(obstacle1, obstacle2):
    s1, s2 = (make_scenario(n_steps=5, lam=0.3, obstacle=text, terminal="abs(w) + 2") for text in (obstacle1, obstacle2))
    lat = DefaultLattice(1.0, 5, s1.intensity, quotient=True)
    per_step = zip(obstacle_field(s1, lat).values, obstacle_field(s2, lat).values)
    want = min(float(np.min(a - b)) for a, b in per_step)
    assert comparison.check_hypotheses(ComparisonCase(s1, s2, GRID)).obstacle_gap == want


def _case_pair(driver1, driver2, *, xi_shift=0.0, obs_shift=0.0, delta=1):
    common = dict(
        n_steps=5, lam=0.3, delta_steps=delta, form="M",
        obstacle="w - 1 + 0.2*t", terminal="w + 0.5*h + 0.5",
    )
    s2 = make_scenario(driver=driver2, **common)
    common1 = dict(common)
    common1["obstacle"] = f"w - 1 + 0.2*t + {obs_shift!r}"
    common1["terminal"] = f"w + 0.5*h + 0.5 + {xi_shift!r}"
    s1 = make_scenario(driver=driver1, **common1)
    return ComparisonCase(scenario1=s1, scenario2=s2, grid=GRID)


def test_equal_scenarios_compare_with_zero_gap():
    case = _case_pair("0.2*y + 0.1*ey", "0.2*y + 0.1*ey")
    verdict = run_comparison(case)
    assert verdict.passed
    assert verdict.min_gap == 0.0


def test_terminal_shift_produces_strict_ordering():
    case = _case_pair("0.2*y + 0.1*ey", "0.2*y + 0.1*ey", xi_shift=1.0)
    verdict = run_comparison(case)
    assert verdict.passed
    assert verdict.y0_gap > 0.5  # the terminal bump propagates to the root


def test_run_comparison_rejects_failing_hypotheses():
    # dominated driver decreasing in the anticipated slot violates monotonicity
    case = _case_pair("0.2*y - 0.1*ey + 0.2", "0.2*y - 0.1*ey")
    with pytest.raises(HypothesisError) as exc:
        run_comparison(case)
    assert "monotone" in str(exc.value)


def test_shared_lattice_required():
    s1 = make_scenario(n_steps=4, lam=0.3, terminal="w")
    s2 = make_scenario(n_steps=5, lam=0.3, terminal="w")
    with pytest.raises(HypothesisError):
        ComparisonCase(scenario1=s1, scenario2=s2, grid=GRID)


def test_comparison_driver_may_not_use_ez():
    s1 = make_scenario(n_steps=4, lam=0.3, driver="0.1*ez", delta_steps=1, terminal="w")
    s2 = make_scenario(n_steps=4, lam=0.3, driver="0", delta_steps=1, terminal="w")
    with pytest.raises(HypothesisError):
        ComparisonCase(scenario1=s1, scenario2=s2, grid=GRID)


def test_randomized_cases_pass(capsys):
    rng = np.random.default_rng(101)
    worst = np.inf
    for _ in range(60):
        case = random_comparison_case(rng)
        verdict = run_comparison(case)
        assert verdict.passed, case.scenario1.driver.base.source
        worst = min(worst, verdict.min_gap)
    assert worst >= -1e-10


def test_generator_covers_all_lags():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(30):
        case = random_comparison_case(rng)
        seen.add(case.scenario1.delta_steps)
    assert seen == {0, 1, 2}


def test_iterate_sequence_equal_scenarios_constant_after_first():
    case = _case_pair("0.2*y + 0.1*ey", "0.2*y + 0.1*ey")
    trace = iterate_sequence(case, 6)
    # the first bridge solve already equals the direct solution
    assert trace.sup_diffs[-1] <= 1e-13
    assert trace.final_gap <= 1e-13
    first = iterate_sequence(case, 1).last  # with one iterate, the last is the first
    for k in range(6):
        assert np.max(np.abs(first.y.step(k) - trace.solution2.y.step(k))) <= 1e-13


def test_iterate_sequence_monotone_convergence():
    rng = np.random.default_rng(33)
    case = random_comparison_case(rng, delta_steps=2)
    trace = iterate_sequence(case, 30)
    assert trace.final_gap <= 1e-8
    diffs = [d for d in trace.sup_diffs if d > 0]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))  # geometric-style decay


def test_an_iterate_is_solved_while_only_the_previous_iterates_y_is_alive(monkeypatch):
    rng = np.random.default_rng(33)
    case = random_comparison_case(rng, delta_steps=2)
    solve, iterates, alive = comparison._solve, [], []

    def tracked(prob, frozen_ey=None, frozen=None):
        if frozen_ey is not None:  # an iterate: which earlier iterates' Z are still alive
            alive.append([ref() is not None for ref, _ in iterates])
            assert all(y() is not None for _, y in iterates[-1:])
        sol = solve(prob, frozen_ey=frozen_ey, frozen=frozen)
        if frozen_ey is not None:
            iterates.append((weakref.ref(sol.z.nodes), weakref.ref(sol.y.nodes)))
        return sol

    monkeypatch.setattr(comparison, "_solve", tracked)
    trace = iterate_sequence(case, 3)
    assert trace.count == 3
    assert alive == [[], [False], [False, False]]
    assert iterates[-1][0]() is trace.last.z.nodes


def test_zero_lag_bridge_converges_to_the_dominated_solution():
    # with delta = 0 the explicit scheme's ey is its y-argument E[Y_{k+1} | F_k];
    # the bridge freezes that of the previous iterate, not the iterate's Y_k
    common = dict(n_steps=6, lam=0.3, delta_steps=0, obstacle="max(0.5 - w, 0) - 0.1*t")
    s2 = make_scenario(driver="0.3*ey - 0.1*y", terminal="max(0.5 - w, 0) + 0.2*h", **common)
    s1 = make_scenario(driver="0.3*ey - 0.1*y + 0.1", terminal="max(0.5 - w, 0) + 0.2*h + 0.3", **common)
    trace = iterate_sequence(ComparisonCase(scenario1=s1, scenario2=s2, grid=GRID), 40)
    assert trace.final_gap <= 1e-8


def test_iterate_sequence_prefix():
    rng = np.random.default_rng(34)
    case = random_comparison_case(rng, delta_steps=1)
    trace = iterate_sequence(case, 1)
    assert trace.count == 1
    lat = trace.solution1.lattice
    for k in range(lat.n_steps + 1):
        gap = trace.solution1.y.step(k) - trace.last.y.step(k)
        assert float(np.min(gap)) >= -1e-10  # dominating solution stays above


def test_suite_checks_hypotheses_once_per_candidate(monkeypatch):
    checked = []  # every case check_hypotheses saw, kept alive so identities stay unique
    accepted = []
    check, generate = comparison.check_hypotheses, comparison.random_comparison_case

    def counting_check(case):
        checked.append(case)
        return check(case)

    def recording_generate(*args, **kwargs):
        accepted.append(generate(*args, **kwargs))
        return accepted[-1]

    monkeypatch.setattr(comparison, "check_hypotheses", counting_check)
    monkeypatch.setattr(comparison, "random_comparison_case", recording_generate)
    result = run_random_suite(3, 12)
    assert result.cases == len(accepted) == 12 and result.failures == 0
    assert len({id(c) for c in checked}) == len(checked) > len(accepted)
    assert all(sum(c is a for c in checked) == 1 for a in accepted)


def _record_scenarios(monkeypatch) -> list:
    """Every Scenario the generator builds, rejected candidates included."""
    built = []
    make = comparison.Scenario
    monkeypatch.setattr(comparison, "Scenario", lambda **kw: built.append(make(**kw)) or built[-1])
    return built


def _assert_built_as_parsed(scenarios):
    for s in scenarios:
        for expr in (s.driver.base, s.obstacle, s.terminal):
            parsed = parse_driver(expr.source)
            # repr tells 0.0 from -0.0, which == does not
            assert expr == parsed and repr(expr.root) == repr(parsed.root), expr.source


def test_generated_expressions_equal_their_parse(monkeypatch):
    built = _record_scenarios(monkeypatch)
    for seed in range(50):
        for lam in (0.0, 0.3):
            for delta in (0, 1, 2):
                random_comparison_case(np.random.default_rng(seed), lam=lam, delta_steps=delta)
    assert len(built) > 2 * 50 * 6  # two scenarios per candidate, and some rejected
    _assert_built_as_parsed(built)


def test_negative_zero_coefficients_build_their_parse(monkeypatch):
    built = _record_scenarios(monkeypatch)
    monkeypatch.setattr(comparison, "_coef", lambda rng, lo, hi: -0.0)
    for seed in range(10):  # rng.random() decides whether min(ey, q) is drawn
        with pytest.raises(HypothesisError):  # an all-zero candidate is infeasible
            random_comparison_case(np.random.default_rng(seed), delta_steps=2, max_tries=1)
    sources = {s.driver.base.source for s in built}
    assert "-0.0*y - 0.0*ey - 0.0*z - 0.0*u - 0.0 - 0.0*min(ey, -0.0) + -0.0 + -0.0*max(w, 0)" in sources
    assert {s.obstacle.source for s in built} == {"-0.0 + -0.0*w - -0.0*t", "-0.0 + -0.0*w - -0.0*t + 0.0"}
    assert "-0.0 + -0.0*w + -0.0*h + -0.0 + -0.0*abs(w)" in {s.terminal.source for s in built}
    _assert_built_as_parsed(built)


def test_suite_evaluates_each_candidate_field_once_and_parses_nothing(monkeypatch):
    built = _record_scenarios(monkeypatch)
    calls, parses = Counter(), []
    compiled, parse = DriverExpr.compiled, driver._Parser.parse

    def counting_compiled(self):
        fn = compiled(self)

        def counted(env):
            calls[id(self)] += 1  # self stays alive in `built`, so ids stay unique
            return fn(env)

        return counted

    monkeypatch.setattr(DriverExpr, "compiled", counting_compiled)
    monkeypatch.setattr(driver._Parser, "parse", lambda self: parses.append(self) or parse(self))
    result = run_random_suite(3, 12)
    assert result.cases == 12 and result.failures == 0
    assert parses == []
    assert len(built) > 2 * 12
    # an obstacle field is one closure call per step, a terminal one call
    assert all(calls[id(s.obstacle)] <= s.n_steps + 1 for s in built)
    assert all(calls[id(s.terminal)] <= 1 for s in built)
    assert sum(calls[id(s.terminal)] for s in built) >= 2 * 12


def test_accepted_report_reused_only_on_the_same_grid(monkeypatch):
    case = random_comparison_case(np.random.default_rng(7))
    calls = []
    check = comparison.check_hypotheses
    monkeypatch.setattr(comparison, "check_hypotheses",
                        lambda c: calls.append(c) or check(c))
    run_comparison(case)  # the report that accepted the case holds
    iterate_sequence(case, 2)
    assert calls == []
    verdict = run_comparison(dataclasses.replace(case))  # a copy carries no report
    assert len(calls) == 1 and verdict.hypotheses.all_pass


def test_generator_refuses_an_oversized_lattice():
    # the size guard's SolverError is not an infeasible candidate to skip
    with pytest.raises(SolverError, match="N too large, estimated") as exc:
        random_comparison_case(np.random.default_rng(0), n_steps=100_000)
    assert exc.value.pointer == "/steps"


def test_random_suite_seed_0_is_pinned():
    assert run_random_suite(0, 1000) == SuiteResult(1000, 0.0010000000000000009, 0, (340, 320, 340))


def _recording_batches(monkeypatch) -> list:
    """Patch comparison._solve to record, per call, the batch size and how many
    solutions of earlier calls are still alive when it starts."""
    solve, calls, earlier = comparison._solve, [], []

    def recorded(problems, **kwargs):
        calls.append((len(problems), sum(ref() is not None for ref in earlier)))
        solutions = solve(problems, **kwargs)
        earlier.extend(weakref.ref(s.y) for s in solutions)
        return solutions

    monkeypatch.setattr(comparison, "_solve", recorded)
    return calls


def test_a_suite_chunk_is_solved_in_one_sweep(monkeypatch):
    calls = _recording_batches(monkeypatch)
    result = run_random_suite(5, 10)
    assert calls == [(20, 0)] and result.cases == 10 and result.failures == 0


def test_a_pair_past_the_batch_budget_is_swept_alone(monkeypatch):
    # as the suite did before batching: no earlier pair's solutions are alive
    # while the next pair is solved
    batched = run_random_suite(6, 5, n_steps=8)
    calls = _recording_batches(monkeypatch)
    monkeypatch.setattr(comparison, "_BATCH_NODES", 100)  # below a pair at N = 8: 2 * 89 quotient nodes
    assert run_random_suite(6, 5, n_steps=8) == batched
    assert calls == [(2, 0)] * 5


def test_a_failing_pair_raises_the_first_scenarios_error_as_one_by_one_solves_do():
    # scenario 1 fails at step 6, scenario 2 at step 7, which the sweep reaches first
    s1, s2 = (make_scenario(n_steps=8, lam=0.3, driver="0.5*y*y", scheme="implicit", terminal=f"{c} + w")
              for c in (1, 2))
    messages = []
    for sc in (s1, s2):
        with pytest.raises(SolverError) as exc:
            solve_backward(sc)
        messages.append(str(exc.value))
    assert messages == ["driver produced a non-finite value at step 6",
                        "driver produced a non-finite value at step 7"]
    for which in (1, 2):
        with pytest.raises(SolverError, match=f"^{messages[0]}$"):
            comparison._solved(ComparisonCase(scenario1=s1, scenario2=s2, grid=GRID), which)
    # a failing scenario 2 is raised once scenario 1 is swept through
    ok = make_scenario(n_steps=8, lam=0.3, driver="0.5*y*y", scheme="implicit", terminal="0.1")
    with pytest.raises(SolverError, match=f"^{messages[1]}$"):
        comparison._solved(ComparisonCase(scenario1=ok, scenario2=s2, grid=GRID), 1)


def _case_with_nan_in_solution1(step):
    case = random_comparison_case(np.random.default_rng(7))
    sol1 = solve_backward(case.scenario1)
    sol1.y.step(step)[0] = math.nan
    return comparison._given_solution(case, sol1, case._problems[2])  # prepared by the generator


def test_comparison_gaps_propagate_nan():
    # Python's min/max over steps drop a NaN that is not at the first step
    verdict = run_comparison(_case_with_nan_in_solution1(2))
    assert math.isnan(verdict.min_gap) and not verdict.passed
    assert math.isnan(iterate_sequence(_case_with_nan_in_solution1(2), 0).final_gap)
    # Y at the root is never anticipated, so the first iterate is finite
    trace = iterate_sequence(_case_with_nan_in_solution1(0), 1)
    assert math.isnan(trace.sup_diffs[0])


def test_library_calls_on_an_overflowing_scenario_raise_no_numpy_warning():
    # under the pyproject filter a RuntimeWarning from rabsde fails the test; Y
    # overflows to inf, and the values, not numpy warnings, say so
    sc = make_scenario(n_steps=40, lam=0.0, driver="1e308", obstacle="-1e9", terminal="w")
    assert math.isinf(solve_backward(sc).y0)
    with pytest.raises(PicardConvergenceError, match=r"\(last distance nan\)$"):
        solve_picard(sc)
    verdict = run_comparison(ComparisonCase(scenario1=sc, scenario2=sc, grid=GRID))
    assert math.isnan(verdict.min_gap) and not verdict.passed
    trace = iterate_sequence(ComparisonCase(scenario1=sc, scenario2=sc, grid=GRID), 3)
    assert math.isnan(trace.final_gap) and all(math.isnan(d) for d in trace.sup_diffs)


def test_an_iterate_above_its_predecessor_raises_naming_the_node():
    # lowering solution 1's Y at one terminal node puts the first iterate above it there
    case = random_comparison_case(np.random.default_rng(7))
    sol1 = solve_backward(case.scenario1)
    n = sol1.lattice.n_steps
    sol1.y.step(n)[0] -= 10.0
    node = sol1.lattice.labelled().node_at(n, 0)
    case = comparison._given_solution(case, sol1, case._problems[2])
    with pytest.raises(MonotonicityError, match=rf"^iterate increased by \S+ at node {re.escape(str(node))}$"):
        iterate_sequence(case, 1)


def test_check_hypotheses_raises_on_a_scenario_the_gate_rejects():
    case = random_comparison_case(np.random.default_rng(7))
    low = dataclasses.replace(case.scenario2, terminal=parse_driver("-10"))
    with pytest.raises(SolverError, match="falls below the obstacle") as exc:
        comparison.check_hypotheses(ComparisonCase(case.scenario1, low, case.grid))
    assert exc.value.pointer == "/terminal"


def _below(node):
    """The ids of every node strictly below ``node`` in its expression tree."""
    children = [*getattr(node, "args", ()), *(getattr(node, a) for a in ("left", "right", "operand")
                                              if hasattr(node, a))]
    return [i for child in children for i in (id(child), *_below(child))]


def test_a_subtree_shared_by_two_expressions_is_compiled_once(monkeypatch):
    # fresh leaves, so that no node is compiled already
    y, z = ("y", driver.Var("y")), ("z", driver.Var("z"))
    max_w = ("max(w, 0)", driver.Call("max", (driver.Var("w"), driver.Num(0.0))))
    g2 = comparison._sum(comparison._term(0.3, y), comparison._signed(-0.2, z))
    g1 = comparison._sum(g2, ("+", comparison._term(0.1)), ("+", comparison._term(0.2, max_w)))
    built = []
    closure = driver._closure
    monkeypatch.setattr(driver, "_closure", lambda node: built.append(id(node)) or closure(node))
    # the dominating expression first, as a comparison case prepares scenario 1 first
    f1, f2 = g1.compiled(), g2.compiled()
    assert sorted(built) == sorted({id(g1.root), *_below(g1.root)})  # every node once
    env = {"y": np.array([0.5, -1.0]), "z": np.array([2.0, 0.25]), "w": np.array([-0.3, 0.7])}
    assert f1(env).tobytes() == parse_driver(g1.source).compiled()(env).tobytes()
    assert f2(env).tobytes() == parse_driver(g2.source).compiled()(env).tobytes()
    # the suite builds each dominating expression on the dominated one's tree
    case = random_comparison_case(np.random.default_rng(7))
    for name in ("driver", "obstacle", "terminal"):
        e1, e2 = (getattr(sc, name) for sc in (case.scenario1, case.scenario2))
        e1, e2 = (e.base if name == "driver" else e for e in (e1, e2))
        assert id(e2.root) in _below(e1.root)
