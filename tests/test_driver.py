"""Expression language: parsing, evaluation, rewrites, Lipschitz estimates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import driver_texts, grids, lambda_profiles, outcome
from rabsde.driver import (
    LIPSCHITZ_SLOTS,
    VARIABLES,
    GridSpec,
    check_M_form_lipschitz,
    estimate_lipschitz,
    eval_driver,
    parse_driver,
    to_M_form,
    DriverForm,
    TransformedDriver,
)
from rabsde.errors import DriverEvalError, DriverParseError

ENV_VARS = ("t", "w", "h", "y", "z", "ey", "ez", "u", "tau")


def test_parse_constant_zero():
    expr = parse_driver("0")
    assert expr.free_vars == frozenset()
    assert eval_driver(expr, {}) == 0.0


def test_parse_collects_variables():
    expr = parse_driver("-0.05*y + max(z, 0)")
    assert expr.free_vars == {"y", "z"}


def test_parse_error_position():
    with pytest.raises(DriverParseError) as exc:
        parse_driver("y + ")
    assert exc.value.position == 4


def test_parse_unknown_variable():
    with pytest.raises(DriverParseError):
        parse_driver("y + q")


def test_parse_unknown_function():
    with pytest.raises(DriverParseError):
        parse_driver("sin(y)")


def test_parse_arity_error():
    with pytest.raises(DriverParseError):
        parse_driver("min(y)")


def test_precedence_unary_minus_binds_tightest():
    expr = parse_driver("-0.05*y")
    assert eval_driver(expr, {"y": 100.0}) == -5.0


def test_left_associativity():
    assert eval_driver(parse_driver("8/4/2"), {}) == 1.0
    assert eval_driver(parse_driver("8-4-2"), {}) == 2.0


def test_eval_min():
    assert eval_driver(parse_driver("min(ey, y)"), {"ey": 2.0, "y": 3.0}) == 2.0


def test_eval_functions():
    assert eval_driver(parse_driver("exp(0)"), {}) == 1.0
    assert eval_driver(parse_driver("abs(-3.5)"), {}) == 3.5


def test_eval_division_by_zero():
    expr = parse_driver("u/(1-h)")
    with pytest.raises(DriverEvalError):
        eval_driver(expr, {"u": 1.0, "h": 1.0})


def test_compiled_scalar_division_by_zero_raises_driver_error():
    fn = parse_driver("1/0*y").compiled()
    with pytest.raises(DriverEvalError, match="division by zero"):
        fn({"y": np.ones(3)})
    with pytest.raises(DriverEvalError, match="division by zero"):
        parse_driver("t/(t - t)").compiled()({"t": 0.5})
    with pytest.raises(DriverEvalError, match="division by zero"):
        estimate_lipschitz(parse_driver("1/0*y"), GridSpec(), lambda t: 0.3)
    # an array operand keeps numpy's IEEE result
    assert parse_driver("y/0").compiled()({"y": np.array([1.0])})[0] == math.inf


def test_eval_unbound_variable():
    with pytest.raises(DriverEvalError):
        eval_driver(parse_driver("y"), {})


def test_scientific_literals():
    assert eval_driver(parse_driver("-1e9"), {}) == -1e9
    assert eval_driver(parse_driver("2.5e-3"), {}) == 2.5e-3


@st.composite
def _random_env(draw):
    return {
        name: draw(st.floats(-5, 5, allow_nan=False, allow_infinity=False))
        for name in ENV_VARS
    }


_SOURCES = [
    "0",
    "-0.05*y + max(z, 0)",
    "0.3*y - 0.2*ey + min(u, 1.5) - exp(w/4)",
    "abs(w)*h - (y + z)/2 + tau",
    "1e-2 + 2.5*ez - -u",
    "max(min(y, 2), -2) * 0.5 + t",
]


@given(st.sampled_from(_SOURCES), _random_env())
@settings(max_examples=300, deadline=None)
def test_print_parse_roundtrip_evaluates_identically(src, env):
    expr = parse_driver(src)
    reparsed = parse_driver(expr.to_source())
    assert eval_driver(reparsed, env) == eval_driver(expr, env)


@given(_random_env(), st.floats(0, 2), st.sampled_from([0.0, 1.0]))
@settings(max_examples=300, deadline=None)
def test_m_form_rewrite_identity(env, lam, h):
    f = parse_driver("0.3*y - 0.2*z + 0.5*u + min(ey, 1)")
    rule = to_M_form(f, lam, h)
    lhs = rule(env)
    rhs = eval_driver(f, env) - lam * (1.0 - h) * env["u"]
    assert lhs - rhs == 0.0


def test_m_form_vanishes_without_u():
    f = parse_driver("y + z")
    rule = to_M_form(f, 0.7, 0.0)
    env = {"y": 1.0, "z": 2.0, "u": 0.0}
    assert rule(env) == eval_driver(f, env)


def test_m_form_post_default():
    f = parse_driver("y + u")
    rule = to_M_form(f, 0.7, 1.0)
    env = {"y": 1.0, "u": 5.0}
    assert rule(env) == 6.0


def test_m_form_direct_arithmetic():
    rule = to_M_form(parse_driver("0"), 0.5, 0.0)
    assert rule({"u": 2.0}) == -1.0


def test_transformed_driver_m_form_value():
    td = TransformedDriver(base=parse_driver("0.2*u"), form=DriverForm.H)
    env = {"u": 2.0}
    assert td.m_form_value(env, lam_t=0.5, h=0.0) == 0.4 - 0.5 * 2.0
    td_m = TransformedDriver(base=parse_driver("0.2*u"), form=DriverForm.M)
    assert td_m.m_form_value(env, lam_t=0.5, h=0.0) == 0.4


def test_compiled_matches_scalar_eval():
    expr = parse_driver("0.3*y - 0.2*ey + min(u, 1.5) - exp(w/4)")
    fn = expr.compiled()
    env = {"y": 1.2, "ey": -0.4, "u": 3.0, "w": 0.8}
    assert fn(env) == pytest.approx(eval_driver(expr, env), abs=0)
    arr_env = {k: np.full(5, v) for k, v in env.items()}
    assert np.allclose(fn(arr_env), eval_driver(expr, env))


def test_lipschitz_linear_coefficients_exact():
    grid = GridSpec(points=5, n_base=8, seed=1)
    est = estimate_lipschitz(parse_driver("3*y"), grid, 0.5)
    assert est.as_tuple() == (3.0, 0.0, 0.0, 0.0, 0.0)
    est = estimate_lipschitz(parse_driver("2*y - 1.5*z + 0.25*ey + 4*ez"), grid, 0.5)
    assert est.as_tuple() == pytest.approx((2.0, 1.5, 0.25, 4.0, 0.0), abs=1e-12)


def test_lipschitz_u_slot_is_intensity_weighted():
    grid = GridSpec(points=5, n_base=8, seed=1)
    est = estimate_lipschitz(parse_driver("0.5*u"), grid, 0.5)
    assert est.c_u == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_piecewise_expression():
    grid = GridSpec(bounds=(("y", 0.0, 4.0),), points=5, n_base=4, seed=0)
    est = estimate_lipschitz(parse_driver("min(y, 2)"), grid, 0.0)
    assert est.c_y == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_u_with_zero_intensity_is_infinite():
    grid = GridSpec(points=5, n_base=4, seed=0)
    est = estimate_lipschitz(parse_driver("u"), grid, 0.0)
    assert math.isinf(est.c_u)


def test_m_form_lipschitz_covers_u_with_one():
    grid = GridSpec(points=5, n_base=4, seed=0)
    est = estimate_lipschitz(parse_driver("0"), grid, 0.5)
    out = check_M_form_lipschitz(est, lambda_max=0.5)
    assert out.as_tuple() == (0.0, 0.0, 0.0, 0.0, 1.0)


def test_m_form_lipschitz_adds_one_to_u():
    grid = GridSpec(points=5, n_base=8, seed=1)
    est = estimate_lipschitz(
        parse_driver("3*y + z + 1.0*u"), grid, 0.5
    )  # c_u = 1/0.5 = 2
    assert est.c_u == pytest.approx(2.0, abs=1e-12)
    out = check_M_form_lipschitz(est, lambda_max=0.5)
    assert out.c_u == pytest.approx(3.0, abs=1e-12)
    assert out.overall == pytest.approx(3.0, abs=1e-12)


def test_m_form_lipschitz_zero_intensity_unchanged():
    grid = GridSpec(points=5, n_base=8, seed=1)
    est = estimate_lipschitz(parse_driver("3*y + z"), grid, 0.0)
    out = check_M_form_lipschitz(est, lambda_max=0.0)
    assert out.as_tuple() == est.as_tuple()


def test_default_box_is_for_horizon_one():
    assert GridSpec() == GridSpec.for_horizon(1.0)
    grid = GridSpec.for_horizon(2.5, points=5, n_base=12, seed=3)
    assert grid.bound_for("t") == grid.bound_for("tau") == (0.0, 2.5)
    assert all(grid.bound_for(v) == (-2.0, 2.0) for v in ("w", "y", "z", "ey", "ez", "u"))
    assert (grid.points, grid.n_base, grid.seed) == (5, 12, 3)


def _ref_lipschitz(expr, grid, lam_profile):
    """Per-env loop: one small numpy call per base environment and slot."""
    lam_of_t = lam_profile if callable(lam_profile) else (lambda t: float(lam_profile))
    fn = expr.compiled()
    out = {}
    envs = grid.base_envs(sorted(VARIABLES))
    for slot in LIPSCHITZ_SLOTS:
        if slot not in expr.free_vars:
            out[slot] = 0.0
            continue
        best = 0.0
        sweep = grid.axis(slot)
        for env in envs:
            arrs = {k: np.full(sweep.shape, v) for k, v in env.items()}
            arrs[slot] = sweep
            vals = np.asarray(fn(arrs), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise DriverEvalError(f"non-finite driver value while sweeping '{slot}' on the grid")
            ratios = np.abs(np.diff(vals)) / np.diff(sweep)
            r = float(np.max(ratios)) if ratios.size else 0.0
            if slot == "u":
                lam = lam_of_t(env["t"])
                r = 0.0 if r == 0.0 else (math.inf if lam == 0.0 else r / lam)
            best = max(best, r)
        out[slot] = best
    return tuple(out[s] for s in LIPSCHITZ_SLOTS)


@given(driver_texts(), lambda_profiles(), grids())
@settings(max_examples=200, deadline=None)
def test_lipschitz_matches_per_env_loop(text, lam, grid):
    expr = parse_driver(text)
    for e in (expr, parse_driver(f"({text}) * u")):
        got = outcome(lambda: estimate_lipschitz(e, grid, lam).as_tuple())
        assert got == outcome(_ref_lipschitz, e, grid, lam)
