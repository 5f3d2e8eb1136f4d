"""Hypothesis checkers, node-wise ordering, monotone iterate bridge."""

from __future__ import annotations

import dataclasses
import math
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
from rabsde.driver import DriverExpr, GridSpec, eval_driver, parse_driver
from rabsde.errors import DriverEvalError, HypothesisError
from rabsde.lattice import DefaultLattice, IntensitySpec

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
    assert eval_driver(expr, {**env, "ey": lo}) > eval_driver(expr, {**env, "ey": hi})


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
    lhs = eval_driver(expr, {**env, "u": u_hi}) - eval_driver(expr, {**env, "u": u_lo})
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


def _ref_monotone(g, grid):
    if "ey" not in g.free_vars:
        return MonotoneReport(passed=True, witness=None)
    fn = g.compiled()
    sweep = grid.axis("ey")
    for env in grid.base_envs(sorted(g.free_vars - {"ey"})):
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
        return ThetaReport(passed=True, theta=0.0, sup_theta_lambda=0.0, witness=None)
    fn = g.compiled()
    sweep = grid.axis("u")
    theta, sup_tl, witness, tested = math.inf, 0.0, None, False
    for env in grid.base_envs(sorted(g.free_vars - {"u"} | {"t"})):
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
        sup_tl = max(sup_tl, float(np.max(np.abs(ratios))) * lam)
    if not tested:
        return ThetaReport(passed=True, theta=0.0, sup_theta_lambda=0.0, witness=None)
    passed = theta >= -1.0 - 1e-12
    return ThetaReport(passed=passed, theta=theta, sup_theta_lambda=sup_tl,
                       witness=None if passed else witness)


def _ref_dominance(g1, g2, grid):
    f1, f2 = g1.compiled(), g2.compiled()
    variables = sorted(g1.free_vars | g2.free_vars)
    min_gap, witness = math.inf, None
    for var in variables or ["y"]:
        sweep = grid.axis(var) if var != "h" else np.array([0.0, 1.0])
        for env in grid.base_envs(variables):
            arrs = {k: np.full(sweep.shape, v) for k, v in env.items()}
            arrs[var] = sweep
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
    first = trace.iterates[0]
    for k in range(6):
        assert np.max(np.abs(first.y.step(k) - trace.solution2.y.step(k))) <= 1e-13


def test_iterate_sequence_monotone_convergence():
    rng = np.random.default_rng(33)
    case = random_comparison_case(rng, delta_steps=2)
    trace = iterate_sequence(case, 30)
    assert trace.final_gap <= 1e-8
    diffs = [d for d in trace.sup_diffs if d > 0]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))  # geometric-style decay


def test_iterate_sequence_prefix():
    rng = np.random.default_rng(34)
    case = random_comparison_case(rng, delta_steps=1)
    trace = iterate_sequence(case, 1)
    assert len(trace.iterates) == 1
    lat = trace.solution1.lattice
    for k in range(lat.n_steps + 1):
        gap = trace.solution1.y.step(k) - trace.iterates[0].y.step(k)
        assert float(np.min(gap)) >= -1e-10  # dominating solution stays above


def test_suite_checks_hypotheses_once_per_candidate(monkeypatch):
    checked = []  # every case check_hypotheses saw, kept alive so identities stay unique
    accepted = []
    check, generate = comparison.check_hypotheses, comparison.random_comparison_case

    def counting_check(case, lattice=None):
        checked.append(case)
        return check(case, lattice)

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
                        lambda c, lat=None: calls.append(c) or check(c, lat))
    run_comparison(case)  # builds an equal lattice: the accepted report holds
    iterate_sequence(case, 2)
    assert calls == []
    verdict = run_comparison(dataclasses.replace(case))  # a copy carries no report
    assert len(calls) == 1 and verdict.hypotheses.all_pass
    s = case.scenario1
    other = DefaultLattice(s.horizon, s.n_steps, IntensitySpec.constant(0.3, s.n_steps, 9.0))
    run_comparison(case, lattice=other)  # not the grid the case was accepted on
    assert len(calls) == 2


def test_random_suite_seed_0_is_pinned():
    assert run_random_suite(0, 1000) == SuiteResult(1000, 0.0010000000000000009, 0, (340, 320, 340))
