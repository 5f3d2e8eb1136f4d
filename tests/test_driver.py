"""Expression language: parsing, evaluation, the dH -> dM rewrite, Lipschitz estimates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import driver_texts, grids, lambda_profiles, make_scenario, outcome
from rabsde.driver import (
    LIPSCHITZ_SLOTS,
    MAX_DEPTH,
    VARIABLES,
    GridSpec,
    check_M_form_lipschitz,
    estimate_lipschitz,
    parse_driver,
)
from rabsde.errors import DriverEvalError, DriverParseError
from rabsde.solver import solve_backward

ENV_VARS = ("t", "w", "h", "y", "z", "ey", "ez", "u", "tau")


def test_parse_constant_zero():
    expr = parse_driver("0")
    assert expr.free_vars == frozenset()
    assert float(expr.compiled()({})) == 0.0


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
    assert float(expr.compiled()({"y": 100.0})) == -5.0


def test_left_associativity():
    assert float(parse_driver("8/4/2").compiled()({})) == 1.0
    assert float(parse_driver("8-4-2").compiled()({})) == 2.0


def test_eval_min():
    assert float(parse_driver("min(ey, y)").compiled()({"ey": 2.0, "y": 3.0})) == 2.0


def test_eval_functions():
    assert float(parse_driver("exp(0)").compiled()({})) == 1.0
    assert float(parse_driver("abs(-3.5)").compiled()({})) == 3.5


def test_eval_division_by_zero():
    expr = parse_driver("u/(1-h)")
    with pytest.raises(DriverEvalError):
        float(expr.compiled()({"u": 1.0, "h": 1.0}))


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
        float(parse_driver("y").compiled()({}))


def test_scientific_literals():
    assert float(parse_driver("-1e9").compiled()({})) == -1e9
    assert float(parse_driver("2.5e-3").compiled()({})) == 2.5e-3


@st.composite
def _random_env(draw):
    return {
        name: draw(st.floats(-5, 5, allow_nan=False, allow_infinity=False))
        for name in ENV_VARS
    }


def _exp(x):
    """numpy's exp, which the engine calls (math.exp may differ in the last bit,
    and exp(x) - 1 near x = 0 turns that into a large relative error), raising
    OverflowError where math.exp does."""
    math.exp(x)
    return float(np.exp(x))


_PY_FUNCS = {"exp": _exp, "abs": abs, "min": min, "max": max}


@st.composite
def _chains(draw):
    """Driver texts joined by bare operators, some negated: conftest's texts
    parenthesize every operation, so these exercise precedence and associativity."""
    parts = draw(st.lists(driver_texts(), min_size=1, max_size=3))
    ops = [draw(st.sampled_from([" + ", " - ", " * ", " / "])) for _ in parts[1:]]
    signs = [draw(st.sampled_from(["", "-", "- -"])) for _ in parts]
    return "".join(op + sign + part for op, sign, part in zip(["", *ops], signs, parts))


@given(_chains(), _random_env())
@settings(max_examples=200, deadline=None)
def test_engine_matches_python_eval(text, env):
    """The grammar is a subset of Python's: Python's own evaluation is an
    independent reference for parsing, precedence, associativity and the
    arithmetic.  Draws where Python raises (a zero division, an exp overflow)
    are skipped; the engine's answer there is IEEE's (see the next test)."""
    try:
        expected = eval(text, {"__builtins__": {}}, {**_PY_FUNCS, **env})
    except ArithmeticError:
        assume(False)
    assume(math.isfinite(expected))
    got = float(parse_driver(text).compiled()(env))
    # == rather than bytes: np.minimum(0.0, -0.0) is -0.0, min() gives 0.0
    assert got == expected


def test_engine_follows_numpy_where_python_would_raise_or_drop_nan():
    nan = math.nan
    assert math.isnan(float(parse_driver("min(y, 1)").compiled()({"y": nan})))
    assert math.isnan(float(parse_driver("max(1, y)").compiled()({"y": nan})))
    assert float(parse_driver("exp(1000)").compiled()({})) == math.inf
    # a NumPy scalar operand divides with IEEE semantics: 0/0 through abs is NaN
    assert math.isnan(float(parse_driver("t/(t/(1+abs(t)))").compiled()({"t": 0.0})))
    assert float(parse_driver("1/abs(t)").compiled()({"t": 0.0})) == math.inf


def test_compiled_closure_is_built_once_and_is_strict():
    expr = parse_driver("y + 1")
    assert expr.compiled() is expr.compiled()
    assert expr == parse_driver("y + 1")  # the kept closure is not part of the value
    with pytest.raises(DriverEvalError, match="unbound variable 'y'"):
        expr.compiled()({"z": 1.0})


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 250 + "y" + ")" * 250, MAX_DEPTH),
        ("(" * 5000 + "y" + ")" * 5000, MAX_DEPTH),
        ("exp(" * 300 + "y" + ")" * 300, 4 * MAX_DEPTH),
        ("-" * 1000 + "y", MAX_DEPTH),
        (" + ".join(["y"] * 1000), 4 * MAX_DEPTH - 2),  # at the 100th '+'
        ("-" * MAX_DEPTH + "y", 0),  # nesting at the bound, the tree one deeper
    ],
    ids=["parens-250", "parens-5000", "calls-300", "minus-1000", "sum-1000", "minus-tree"],
)
def test_parse_rejects_expressions_nested_past_the_bound(text, offset):
    with pytest.raises(DriverParseError, match=f"nests deeper than {MAX_DEPTH} levels") as exc:
        parse_driver(text)
    assert exc.value.position == offset


def test_parse_accepts_expressions_at_the_bound():
    env = {"y": 0.5}
    assert float(parse_driver("(" * MAX_DEPTH + "y" + ")" * MAX_DEPTH).compiled()(env)) == 0.5
    assert float(parse_driver("-" * (MAX_DEPTH - 1) + "y").compiled()(env)) == -0.5
    assert float(parse_driver("+".join(["y"] * MAX_DEPTH)).compiled()(env)) == 0.5 * MAX_DEPTH


_H_DRIVER = "0.3*y - 0.2*z + 0.5*u + min(ey, 1)"


def test_m_form_rewrite_identity():
    """The solver's dH -> dM rewrite is the M-form text (f) - lam*(1 - h)*u,
    bit for bit, at every node of every step; an M-form driver is not rewritten."""
    for lam in (0.0, 0.3, 0.7, 1.2):
        for delta in (0, 2):
            common = dict(n_steps=6, lam=lam, delta_steps=delta,
                          obstacle="max(0.3 - w, 0) - 0.1*t",
                          terminal="max(0.3 - w, 0) + 0.4*h + 0.1*tau")
            h_sol = solve_backward(make_scenario(driver=_H_DRIVER, form="H", **common))
            m_sol = solve_backward(make_scenario(
                driver=f"({_H_DRIVER}) - {lam!r}*(1 - h)*u", form="M", **common))
            for k in range(7):
                for name in ("driver_values", "y"):
                    assert (getattr(h_sol, name).step(k).tobytes()
                            == getattr(m_sol, name).step(k).tobytes()), (lam, delta, k, name)
    sol = solve_backward(make_scenario(n_steps=4, lam=0.5, driver="0.2*u", form="M", terminal="w + h"))
    assert np.all(sol.u.step(0) != 0.0)
    for k in range(5):
        assert sol.driver_values.step(k).tobytes() == (0.2 * sol.u.step(k)).tobytes()


def test_compiled_matches_scalar_eval():
    expr = parse_driver("0.3*y - 0.2*ey + min(u, 1.5) - exp(w/4)")
    fn = expr.compiled()
    env = {"y": 1.2, "ey": -0.4, "u": 3.0, "w": 0.8}
    y, ey, u, w = env["y"], env["ey"], env["u"], env["w"]
    expected = 0.3*y - 0.2*ey + min(u, 1.5) - math.exp(w/4)
    assert fn(env) == pytest.approx(expected, rel=1e-15)
    assert float(expr.compiled()(env)) == pytest.approx(expected, rel=1e-15)
    arr_env = {k: np.full(5, v) for k, v in env.items()}
    assert np.allclose(fn(arr_env), expected)


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
    names = sorted(VARIABLES)
    envs = [dict(zip(names, row)) for row in grid.base_sample(names).tolist()]
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


def _per_slot_lipschitz(expr, grid, lam_profile):
    """``estimate_lipschitz`` as it was before it stacked the slots: one call per
    swept slot on a contiguous (n_base, points) grid; its reference, equal byte
    for byte."""
    lam_of_t = lam_profile if callable(lam_profile) else (lambda t: float(lam_profile))
    fn = expr.compiled()
    names = sorted(VARIABLES)
    base = grid.base_sample(names)
    out = []
    for slot in LIPSCHITZ_SLOTS:
        if slot not in expr.free_vars:
            out.append(0.0)
            continue
        sweep = grid.axis(slot)
        env = {name: np.repeat(base[:, j, None], sweep.size, axis=1) for j, name in enumerate(names) if name != slot}
        env[slot] = np.repeat(sweep[None, :], base.shape[0], axis=0)
        vals = np.broadcast_to(np.asarray(fn(env), dtype=float), env[slot].shape)
        if not np.all(np.isfinite(vals)):
            raise DriverEvalError(f"non-finite driver value while sweeping '{slot}' on the grid")
        r = np.max(np.abs(np.diff(vals)) / np.diff(sweep), axis=1)
        if slot == "u":
            lam = np.array([lam_of_t(t) for t in base[:, names.index("t")].tolist()], dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(r == 0.0, 0.0, np.where(lam == 0.0, math.inf, r / lam))
        out.append(float(np.max(r, initial=0.0)))
    return tuple(out)


@given(driver_texts(), lambda_profiles(), grids())
@settings(max_examples=200, deadline=None)
def test_stacked_lipschitz_equals_the_per_slot_loop(text, lam, grid):
    # repr tells -0.0 from 0.0 and names NaN, so equal reprs are equal bytes
    for e in (parse_driver(text), parse_driver(f"({text}) * u"), parse_driver(f"({text}) + y*z - ez")):
        got = outcome(lambda: estimate_lipschitz(e, grid, lam).as_tuple())
        assert repr(got) == repr(outcome(_per_slot_lipschitz, e, grid, lam))


def _ref_base_envs(grid, variables):
    """The per-value draw that GridSpec.base_sample vectorizes: one rng call per value."""
    rng = np.random.default_rng(grid.seed)
    envs = []
    for _ in range(grid.n_base):
        env: dict[str, float] = {}
        for name in variables:
            if name == "h":
                env[name] = float(rng.integers(0, 2))
            else:
                lo, hi = grid.bound_for(name)
                env[name] = float(rng.uniform(lo, hi))
        envs.append(env)
    return envs


@st.composite
def _variable_lists(draw):
    """Distinct grid variables in any order, h absent or at any position."""
    names = draw(st.lists(st.sampled_from(sorted(VARIABLES - {"h"})), unique=True))
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), "h")
    return names


@given(_variable_lists(), st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 3.0]))
@settings(max_examples=300, deadline=None)
def test_base_sample_matches_per_value_draw(names, n_base, seed, horizon):
    grid = GridSpec.for_horizon(horizon, n_base=n_base, seed=seed)
    ref = _ref_base_envs(grid, names)
    want = np.array([[env[name] for name in names] for env in ref], dtype=float).reshape(n_base, len(names))
    got = grid.base_sample(names)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert [dict(zip(names, row)) for row in got.tolist()] == ref
