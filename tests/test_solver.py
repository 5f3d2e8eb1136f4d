"""Backward induction, Picard iteration, weighted norm, validation."""

from __future__ import annotations

import collections
import dataclasses
import importlib.util
import itertools
import math
import pathlib
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import driver_texts, make_scenario, outcome, random_scenario, step_intensities
from rabsde import IntensitySpec, PicardConvergenceError, SolverError, cli, solver
from rabsde.crr import american_put_scenario, crr_american_put
from rabsde.driver import parse_driver
from rabsde.errors import DriverEvalError, LatticeError
from rabsde.lattice import DefaultLattice, ProcessField
from rabsde.solver import (
    PicardOptions,
    beta_norm,
    estimate_c_prime,
    obstacle_field,
    solve_backward,
    solve_picard,
    validate_solution,
)


def _at_root(sol):
    """(y, z, u, psi, dk) of a solution at the root."""
    return tuple(float(f.step(0)[0]) for f in (sol.y, sol.z, sol.u, sol.psi, sol.dk))


def test_backward_step_martingale_terminal():
    sc = make_scenario(n_steps=3, lam=0.4, terminal="w")
    sol = solve_backward(sc)
    y, z, u, psi, dk = _at_root(sol)
    assert y == pytest.approx(0.0, abs=1e-15)
    assert z == pytest.approx(1.0, abs=1e-14)
    assert u == 0.0
    assert psi == 0.0
    assert dk == 0.0


def test_backward_step_default_indicator_two_steps():
    sc = make_scenario(n_steps=2, lam=0.5, terminal="h")
    sol = solve_backward(sc)
    y, z, u, psi, dk = _at_root(sol)
    assert y == pytest.approx(0.4375, abs=1e-15)
    assert z == pytest.approx(0.0, abs=1e-15)
    assert u == pytest.approx(0.75, abs=1e-15)  # mean defaulted minus mean alive value
    assert dk == 0.0


def test_backward_step_obstacle_dominates_interior():
    # high obstacle on interior steps, released at the horizon so xi >= S_T
    sc = make_scenario(
        n_steps=5,
        lam=0.3,
        driver="0",
        obstacle="5 - 50*max(t - 0.9, 0)",
        terminal="0",
    )
    sol = solve_backward(sc)
    for k in range(5):
        assert np.all(sol.y.step(k) == 5.0)
        assert np.min(sol.dk.step(k)) >= 0.0
    # the increment is strictly positive exactly where continuation dips below 5,
    # i.e. at the step whose children already see the released obstacle
    assert np.all(sol.dk.step(4) > 0.1)
    y, _, _, _, dk = _at_root(sol)
    assert y == 5.0 and dk >= 0.0


def test_non_finite_terminal_is_named_before_the_obstacle_gap():
    # -inf would also fall below the obstacle; the solver names the payoff itself
    sc = make_scenario(n_steps=3, obstacle="w", terminal="-exp(1000) + w")
    with pytest.raises(SolverError, match="terminal payoff evaluates to a non-finite value"):
        solve_backward(sc)


@pytest.mark.parametrize(
    "obstacle, terminal, pointer, message",
    [
        ("-1 + 0/w", "exp(1000) + w", "/terminal", "terminal payoff evaluates to a non-finite value"),
        ("-1 + 0/w", "w + 1", "/obstacle", "obstacle evaluates to a non-finite value at step 0"),
        ("w + 1", "w", "/terminal", "terminal payoff falls below the obstacle at the horizon"),
    ],
)
def test_prepare_names_the_scenario_field_at_fault(obstacle, terminal, pointer, message):
    # the terminal is checked first, so both fields non-finite reports the terminal only
    sc = make_scenario(n_steps=3, obstacle=obstacle, terminal=terminal)
    with pytest.raises(SolverError, match=message) as exc:
        solve_backward(sc)
    assert exc.value.pointer == pointer


def _per_step_obstacle(scenario, lattice, t=float):
    """``obstacle_field`` as it was before it made one compiled call over the
    whole lattice: one call per step, with ``t`` a Python float; its reference.
    With ``t=np.float64`` the per-step values follow numpy's division rules."""
    fn = scenario.obstacle.compiled()
    arrays = []
    for k in range(lattice.n_steps + 1):
        env = {"t": t(k * lattice.dt), "w": lattice.w_values(k), "h": lattice.h_values(k)}
        arrays.append(np.broadcast_to(np.asarray(fn(env), dtype=float), (lattice.n_nodes(k),)).copy())
    return arrays


def _bytes(fields):
    return [a.tobytes() for a in fields]


_OBSTACLE_LAMBDAS = [0.3, 0.0, 0.5, 0.0, 0.2, 0.1]


@given(driver_texts(("t", "w", "h")), st.integers(2, 6), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_whole_lattice_obstacle_equals_the_per_step_loop(text, n, quotient, data):
    lam = data.draw(step_intensities(n))
    lat = DefaultLattice(1.0, n, IntensitySpec(values=tuple(lam), lambda_max=max(lam)), quotient=quotient)
    sc = make_scenario(n_steps=n, lam=lam, obstacle=text)
    got = outcome(lambda: _bytes(obstacle_field(sc, lat).values))
    want = outcome(lambda: _bytes(_per_step_obstacle(sc, lat)))
    if want == (DriverEvalError, "division by zero") and got != want:
        # the loop divided the Python float t by zero; the whole-lattice t gives IEEE inf or NaN there
        want = _bytes(_per_step_obstacle(sc, lat, t=np.float64))
    assert got == want


@pytest.mark.parametrize("text", [
    "exp(800*w)", "-exp(800*w) + h", "(w - w) / (w - w)", "exp(800*t) - exp(800*t)", "exp(900*t) * h",
    "min(w, 0) / max(h, 0)", "-1e308 * (1 + t)", "abs(w) - 0.25*t", "max(w, t) / (1 + abs(w))", "1.5", "-0.5*t",
])
@pytest.mark.parametrize("quotient", [False, True])
def test_node_data_names_the_first_non_finite_step_as_the_per_step_loop(text, quotient):
    sc = make_scenario(n_steps=6, lam=_OBSTACLE_LAMBDAS, obstacle=text, terminal="1e308")
    lat = DefaultLattice(1.0, 6, sc.intensity, quotient=quotient)
    want = _per_step_obstacle(sc, lat)
    assert _bytes(obstacle_field(sc, lat).values) == _bytes(want)
    bad = [k for k, a in enumerate(want) if not np.isfinite(a).all()]
    if not bad:
        assert _bytes(solver._node_data(sc, lat)[0].values) == _bytes(want)
        return
    with pytest.raises(SolverError, match=f"^obstacle evaluates to a non-finite value at step {bad[0]}$") as exc:
        solver._node_data(sc, lat)
    assert exc.value.pointer == "/obstacle"


def test_an_obstacle_that_divides_by_t_follows_numpy_at_t_zero():
    # the per-step loop raised "division by zero" at t = 0, where t was a Python
    # float; t is an array now, so 1/t is inf there, and min(1/t, 5) is 5
    for text, first_bad in (("1/t", 0), ("min(1/t, 5) - w", None), ("1/(t - 0.5)", 2)):
        sc = make_scenario(n_steps=4, lam=0.3, obstacle=text, terminal="1e308")
        lat = DefaultLattice(1.0, 4, sc.intensity, quotient=True)
        with pytest.raises(DriverEvalError, match="^division by zero$"):
            _per_step_obstacle(sc, lat)
        assert _bytes(obstacle_field(sc, lat).values) == _bytes(_per_step_obstacle(sc, lat, t=np.float64))
        if first_bad is None:
            solver._node_data(sc, lat)
            continue
        with pytest.raises(SolverError, match=f"^obstacle evaluates to a non-finite value at step {first_bad}$"):
            solver._node_data(sc, lat)


def test_solve_martingale_terminal_fields():
    sc = make_scenario(n_steps=4, lam=0.5, terminal="w")
    sol = solve_backward(sc)
    lat = sol.lattice
    for k in range(5):
        assert np.max(np.abs(sol.y.step(k) - lat.w_values(k))) <= 1e-14
        if k < 4:
            assert np.max(np.abs(sol.z.step(k) - 1.0)) <= 1e-14
        assert np.all(sol.u.step(k) == 0.0)
        assert np.all(sol.dk.step(k) == 0.0)


@pytest.mark.parametrize("terminal", ["w", "h", "w*(1-h)"])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_zero_driver_reproduces_conditional_expectation(terminal, lam):
    sc = make_scenario(n_steps=5, lam=lam, terminal=terminal)
    sol = solve_backward(sc)
    lat = sol.lattice
    xi = sol.y.step(5)
    for k in range(6):
        expected = lat.pullback(xi, 5, k)
        assert np.max(np.abs(sol.y.step(k) - expected)) <= 1e-12


def test_crr_oracle_n8():
    sc = american_put_scenario(1.0, 1.0, 0.04, 1.0, 1.0, 8)
    sol = solve_backward(sc)
    price = crr_american_put(1.0, 1.0, 0.04, 1.0, 1.0, 8)
    assert sol.y0 == pytest.approx(price, abs=1e-12)
    assert sol.expected_total_k() > 0  # early exercise region exists


def test_h_form_equals_m_form_with_rewritten_text():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        lam = round(float(rng.uniform(0.1, 0.7)), 3)
        f_src = "0.2*y - 0.1*z + 0.3*u + 0.1*ey"
        common = dict(
            n_steps=n,
            lam=lam,
            delta_steps=int(rng.integers(0, 3)),
            obstacle="w - 0.6 + 0.3*t",
            terminal="w + 0.5*h + 1.5",
        )
        a = solve_backward(make_scenario(driver=f_src, form="H", **common))
        b = solve_backward(
            make_scenario(driver=f"{f_src} - {lam!r}*(1-h)*u", form="M", **common)
        )
        for k in range(n + 1):
            assert np.max(np.abs(a.y.step(k) - b.y.step(k))) <= 1e-12
            assert np.max(np.abs(a.z.step(k) - b.z.step(k))) <= 1e-12
            assert np.max(np.abs(a.u.step(k) - b.u.step(k))) <= 1e-12
            assert np.max(np.abs(a.dk.step(k) - b.dk.step(k))) <= 1e-12


def test_post_default_driver_flattening():
    sc = make_scenario(n_steps=3, lam=0.6, driver="1 + u", form="H", terminal="h")
    sol = solve_backward(sc)
    lat = sol.lattice
    for k in range(3):
        h = lat.h_values(k)
        fv = sol.driver_values.step(k)
        # the jump-term correction vanishes after default: F = f = 1 + u = 1 there
        assert np.all(fv[h == 1.0] == 1.0)


def test_zero_intensity_kills_jump_fields():
    sc = make_scenario(n_steps=6, lam=0.0, driver="0.3*y", terminal="max(w, 0)")
    sol = solve_backward(sc)
    for k in range(7):
        assert np.all(sol.u.step(k) == 0.0)
        assert np.all(sol.psi.step(k) == 0.0)


def test_anticipation_beyond_horizon_freezes_at_terminal():
    kwargs = dict(n_steps=4, lam=0.3, driver="0.5*ey + 0.2*ez", terminal="w + h")
    a = solve_backward(make_scenario(delta_steps=4, **kwargs))
    b = solve_backward(make_scenario(delta_steps=9, **kwargs))
    for k in range(5):
        assert np.array_equal(a.y.step(k), b.y.step(k))


def test_delta_zero_feeds_y_argument():
    # with delta = 0 the anticipated slot equals the current y-argument
    a = solve_backward(make_scenario(n_steps=4, lam=0.3, driver="0.2*y + 0.3*ey"))
    b = solve_backward(make_scenario(n_steps=4, lam=0.3, driver="0.5*y"))
    for k in range(5):
        assert np.max(np.abs(a.y.step(k) - b.y.step(k))) <= 1e-14


def test_terminal_below_obstacle_rejected():
    sc = make_scenario(n_steps=2, lam=0.3, obstacle="w + 1", terminal="w")
    with pytest.raises(SolverError):
        solve_backward(sc)


def test_negative_delta_rejected():
    with pytest.raises(SolverError):
        make_scenario(delta_steps=-1)


def test_implicit_inner_loop_divergence_reported():
    sc = make_scenario(n_steps=2, lam=0.0, driver="5*y", scheme="implicit", terminal="w + 2")
    with pytest.raises(SolverError):
        solve_backward(sc)


def test_implicit_matches_explicit_for_y_free_driver():
    kwargs = dict(n_steps=5, lam=0.4, driver="0.3*z - 0.2*u + 0.1", terminal="w + h")
    a = solve_backward(make_scenario(scheme="explicit", **kwargs))
    b = solve_backward(make_scenario(scheme="implicit", **kwargs))
    for k in range(6):
        assert np.max(np.abs(a.y.step(k) - b.y.step(k))) <= 1e-12


# -- weighted norm ---------------------------------------------------------------


def test_beta_norm_zero_on_equal():
    sc = make_scenario(n_steps=3, lam=0.5, terminal="w + h")
    sol = solve_backward(sc)
    assert beta_norm(sol, sol, beta=3.0) == 0.0


def test_beta_norm_quadratic_scaling():
    sc = make_scenario(n_steps=3, lam=0.5, terminal="w + h")
    sol = solve_backward(sc)
    lat = sol.lattice

    class Triple:
        def __init__(self, scale):
            self.y = ProcessField(lat, scale * sol.y.nodes)
            self.z = ProcessField(lat, scale * sol.z.nodes)
            self.u = ProcessField(lat, scale * sol.u.nodes)

    zero = Triple(0.0)
    assert beta_norm(Triple(2.0), zero, 2.5) == pytest.approx(
        4.0 * beta_norm(Triple(1.0), zero, 2.5), rel=1e-14
    )


def test_beta_norm_hand_computed_single_step():
    # one-step lattice: norm = e^0 * dt * (beta*dy^2 + dz^2 + lambda*du^2) at the root
    sc = make_scenario(n_steps=1, lam=0.5, terminal="w")
    sol = solve_backward(sc)
    lat = sol.lattice

    def shifted(dy, dz, du):
        class T:
            y = ProcessField(
                lat, np.concatenate([sol.y.step(0) + dy, sol.y.step(1)])
            )
            z = ProcessField(
                lat, np.concatenate([sol.z.step(0) + dz, sol.z.step(1)])
            )
            u = ProcessField(
                lat, np.concatenate([sol.u.step(0) + du, sol.u.step(1)])
            )

        return T()

    val = beta_norm(shifted(0.3, 0.2, 0.1), sol, beta=2.0)
    assert val == pytest.approx(2.0 * 0.09 + 0.04 + 0.5 * 0.01, abs=1e-15)  # = 0.225


def test_beta_norm_refuses_a_beta_whose_weight_overflows():
    sol = solve_backward(make_scenario(n_steps=4, lam=0.3, driver="0.1", terminal="w"))
    with pytest.raises(SolverError, match=r"^beta = 1000 overflows the Picard weight e\^\(beta t\) at t = T - dt$"):
        beta_norm(sol, sol, 1000.0)


def test_beta_norm_lattice_mismatch():
    a = solve_backward(make_scenario(n_steps=3, lam=0.5, terminal="w"))
    b = solve_backward(make_scenario(n_steps=4, lam=0.5, terminal="w"))
    with pytest.raises(LatticeError):
        beta_norm(a, b, 2.0)


# -- Picard ----------------------------------------------------------------------


def test_picard_constant_map_converges_immediately():
    sc = make_scenario(n_steps=4, lam=0.4, driver="0", terminal="w + h")
    sol, history = solve_picard(sc, PicardOptions(tol=1e-30))
    assert len(history) == 2  # first pass lands on the fixed point, second detects it
    assert history[-1] == 0.0
    direct = solve_backward(sc)
    for k in range(5):
        assert np.array_equal(sol.y.step(k), direct.y.step(k))


def test_picard_geometric_decay_and_match():
    sc = make_scenario(
        n_steps=8,
        lam=0.3,
        delta_steps=2,
        driver="0.3*y + 0.2*ey",
        terminal="w + 0.5*h",
        scheme="implicit",
    )
    sol, history = solve_picard(sc, PicardOptions(tol=1e-20))
    ratios = [history[i + 1] / history[i] for i in range(1, len(history) - 1) if history[i] > 1e-28]
    assert all(r < 1.0 for r in ratios)
    direct = solve_backward(sc)
    gap = max(
        float(np.max(np.abs(sol.y.step(k) - direct.y.step(k)))) for k in range(9)
    )
    assert gap <= 1e-10


def test_picard_max_iter_error_keeps_history():
    sc = make_scenario(
        n_steps=8,
        lam=0.3,
        delta_steps=2,
        driver="0.3*y + 0.2*ey",
        terminal="w + 0.5*h",
        scheme="implicit",
    )
    with pytest.raises(PicardConvergenceError) as exc:
        solve_picard(sc, PicardOptions(tol=1e-12, max_iter=1))
    assert len(exc.value.history) == 1


def test_picard_explicit_scheme_fixed_point_matches():
    sc = make_scenario(
        n_steps=8, lam=0.4, delta_steps=1, driver="0.4*y - 0.2*u", terminal="w + h"
    )
    sol, _ = solve_picard(sc, PicardOptions(tol=1e-26))
    direct = solve_backward(sc)
    for k in range(9):
        assert np.max(np.abs(sol.y.step(k) - direct.y.step(k))) <= 1e-12
        assert np.max(np.abs(sol.dk.step(k) - direct.dk.step(k))) <= 1e-12


def test_picard_rho_below_one_rejected():
    with pytest.raises(SolverError):
        PicardOptions(rho=0.5)


def test_picard_refuses_a_beta_whose_weight_overflows():
    # the weight e^(beta t) at t = T - dt overflows a float for beta above ln(float max) / (T - dt)
    explicit = make_scenario(n_steps=4, lam=0.3, driver="0.1", terminal="w")
    with pytest.raises(SolverError, match=r"^beta = 1000 overflows the Picard weight e\^\(beta t\) at t = T - dt; "):
        solve_picard(explicit, PicardOptions(beta=1000.0))
    # the default 1 + 10 * C'^2 = 811 on 64 steps, where the bound is 721
    default = make_scenario(n_steps=64, lam=0.3, driver="-9*y", scheme="implicit",
                            obstacle="max(0.5 - w, 0)", terminal="max(0.5 - w, 0)")
    with pytest.raises(SolverError, match=r"^beta = 811 overflows .*; pass a smaller beta \(--beta\)$"):
        solve_picard(default)


def test_a_nan_picard_distance_ends_the_iteration():
    sc = make_scenario(n_steps=40, lam=0.0, driver="1e308", obstacle="-1e9", terminal="w")
    with pytest.raises(PicardConvergenceError, match=r"\(last distance nan\)$") as exc:
        solve_picard(sc)  # Y overflows, so every pass's distance is NaN
    assert len(exc.value.history) < 60 and math.isnan(exc.value.history[-1])


def test_a_non_finite_driver_value_names_its_step():
    # 1/w is finite at step 3, whose w values are odd multiples of sqrt(dt), and inf at w = 0
    sc = make_scenario(n_steps=4, lam=0.3, driver="1/w", terminal="w")
    with pytest.raises(SolverError, match="^driver produced a non-finite value at step 2$"):
        solve_backward(sc)


def test_a_non_finite_implicit_driver_value_names_its_step():
    # the inner loop checks finiteness once per step: the same step as the explicit scheme
    sc = make_scenario(n_steps=4, lam=0.3, driver="1/w", terminal="w", scheme="implicit")
    with pytest.raises(SolverError, match="^driver produced a non-finite value at step 2$"):
        solve_backward(sc)


def test_a_diverging_implicit_iterate_names_the_step_of_its_non_finite_driver_value():
    # y -> E[Y_{k+1}] + 50 y dt grows 12.5-fold a pass: the iterate overflows
    # while the driver is finite, and the next pass's driver value is inf
    sc = make_scenario(n_steps=4, lam=0.3, driver="50*y", obstacle="-100", terminal="w", scheme="implicit")
    with pytest.raises(SolverError, match="^driver produced a non-finite value at step 3$"):
        solve_backward(sc)


def test_an_overflowing_implicit_solve_raises_its_error_and_no_warning():
    # a finite driver whose iterate overflows iterates on, to the iteration cap
    sc = make_scenario(n_steps=40, lam=0.0, driver="1e308", obstacle="-1e9", terminal="w", scheme="implicit")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="^implicit inner loop did not converge at step 3 within 500 "):
            solve_backward(sc)


def _plain_fixed_point_step(prob, k, ey, ez, frozen, out):
    """``solver._step_values`` as it was before the Aitken step: the implicit
    scheme iterates y -> E[Y_{k+1} | F_k] + F(y) dt from the mean, plainly;
    step k's (y, z, u, psi, dk, driver values) are written into ``out``,
    whose first four hold the projection (y the mean)."""
    lat, dt = prob.lattice, prob.lattice.dt
    mean, z, u, psi = out[:4]
    yarg, zarg, uarg = frozen if frozen is not None else (mean, z, u)
    h = lat.h_values(k)
    env = {"t": k * dt, "w": lat.w_values(k), "h": h, "z": zarg, "u": uarg,
           "ez": zarg if ez is None else ez}
    jump = lat.intensity.values[k] * (1.0 - h) * uarg if prob.scenario.driver.form is solver.DriverForm.H else None
    implicit = frozen is None and prob.scenario.scheme is solver.Scheme.IMPLICIT
    ycur = yarg
    for _ in range(prob.scenario.implicit_max_iter if implicit else 1):
        env["y"] = ycur
        env["ey"] = ycur if ey is None else ey
        fv = prob.driver_fn(env)
        fv = fv if jump is None else fv - jump
        if not implicit:
            break
        ynew = mean + fv * dt
        gap = float(np.abs(ynew - ycur).max())
        if gap <= prob.scenario.implicit_tol or not math.isfinite(gap) and not np.isfinite(fv).all():
            break
        ycur = ynew
    else:
        raise SolverError(f"implicit inner loop did not converge at step {k}")
    if not np.isfinite(fv).all():
        raise SolverError(f"driver produced a non-finite value at step {k}")
    y_tilde = ynew if implicit else mean + fv * dt
    y = np.maximum(y_tilde, prob.obstacle.step(k))
    for dst, src in zip(out, (y, z, u, psi, y - y_tilde, fv)):
        dst[...] = src


def _plain_solve(prob):
    with unittest.mock.patch.object(solver, "_step_values", _plain_fixed_point_step):
        return solver._solve(prob)


@st.composite
def _implicit_scenarios(draw):
    n = draw(st.integers(4, 8))
    lam = draw(st.sampled_from([0.0, 0.3, 1.5]))
    # affine and kinked in y.  The plain loop stops within implicit_tol * |q| / (1 - q) of the
    # fixed point, q = (y-slope) * dt the step's contraction, so that factor stays at most 1/3
    driver = draw(st.sampled_from([
        "-0.4*y + 0.1*ey - 0.1*u + 0.05", "0.8*y - 0.3*ez + 0.2*z",
        "max(y, 0.2) - 0.2*ey + 0.1*u", "abs(y - 0.1) + 0.2*ez - 0.3*u",
        "min(0.9*y, -0.6*y) + 0.1*ey", "-1.5*y + 0.2*w",
    ]))
    return make_scenario(
        n_steps=n, lam=lam, delta_steps=draw(st.sampled_from([0, 1, n // 2])), driver=driver,
        form=draw(st.sampled_from(["H", "M"])), scheme="implicit",
        obstacle="max(0.3 - w, 0) - 0.1*t",
        terminal=draw(st.sampled_from(["max(0.3 - w, 0) + 0.4*h", "max(0.3 - w, 0) + 0.1*w*w"])),
    )


@given(_implicit_scenarios())
@settings(max_examples=150, deadline=None)
def test_the_implicit_step_equals_the_plain_fixed_point_loop(sc):
    prob = solver._prepare(sc)
    got, want = solver._solve(prob), _plain_solve(prob)
    bound = 1e-13 * np.maximum(1.0, np.abs(want.y.nodes))
    for name in ("y", "z", "u", "psi", "dk"):
        assert np.all(np.abs(getattr(got, name).nodes - getattr(want, name).nodes) <= bound), name
    # a driver value is (y_tilde - mean) / dt
    assert np.all(np.abs(got.driver_values.nodes - want.driver_values.nodes) * prob.lattice.dt <= bound)


def test_an_affine_implicit_step_makes_three_driver_evaluations():
    # solve_kernel's seed-0 inputs: 16 put-family scenarios at N = 96, implicit
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    docs = workloads.SolveKernel(0, "").docs
    steps, evaluations = 0, collections.Counter()
    for doc in docs:
        prob = solver._prepare(cli.scenario_from_dict(doc))
        for name, solve in (("aitken", solver._solve), ("plain", _plain_solve)):

            def counted(env, fn=prob.driver_fn, name=name):
                evaluations[name] += 1
                return fn(env)

            solve(prob._replace(driver_fn=counted))
        steps += prob.scenario.n_steps
    assert (len(docs), steps) == (16, 16 * 96)
    assert evaluations["aitken"] == 3 * steps
    assert round(evaluations["plain"] / steps, 2) == 6.00


def test_estimate_c_prime_includes_jump_unit():
    sc = make_scenario(n_steps=8, lam=0.5, driver="0.3*y", form="H")
    cp = estimate_c_prime(sc)
    assert cp == pytest.approx(1.0, abs=1e-9)  # u slot picks up the rewrite unit


# -- validation --------------------------------------------------------------------


def test_validate_solution_self_consistency():
    rng = np.random.default_rng(5)
    for _ in range(5):
        sc = random_scenario(rng)
        sol = solve_backward(sc)
        report = validate_solution(sol, sc)
        assert report.passes(1e-10), report
        assert math.isfinite(report.driver_square_sum)


def test_validate_flags_corrupted_y():
    sc = make_scenario(n_steps=4, lam=0.4, driver="0.2*y", terminal="w + h")
    sol = solve_backward(sc)
    sol.y.step(2)[3] += 1e-3
    report = validate_solution(sol, sc)
    assert report.equation_residual >= 1e-4
    assert report.k_decrease == 0.0


def _anticipated_put(delta_steps: int = 2):
    return make_scenario(n_steps=8, lam=0.3, delta_steps=delta_steps, driver="-0.05*y + 0.1*ey - 0.1*u",
                         form="H", obstacle="max(1 - exp(w), 0)", terminal="max(1 - exp(w), 0) + 0.1*h")


def test_validate_does_not_pass_a_scenario_the_solution_does_not_solve():
    sol = solve_backward(_anticipated_put())
    assert validate_solution(sol, sol.scenario).passes()
    report = validate_solution(sol, _anticipated_put(delta_steps=3))
    assert not report.passes()
    assert len(report.checks()) == 4 and report.max_violation <= 1e-10


def test_validate_passes_an_equal_copy_of_the_solved_scenario():
    sol = solve_backward(_anticipated_put())
    copy = _anticipated_put()
    assert copy is not sol.scenario and copy == sol.scenario
    assert validate_solution(sol, copy).passes()


def test_validate_flags_decreasing_k():
    sc = make_scenario(n_steps=4, lam=0.4, driver="0.2*y", terminal="w + h")
    sol = solve_backward(sc)
    sol.dk.step(1)[0] -= 0.5
    report = validate_solution(sol, sc)
    assert report.k_decrease == pytest.approx(0.5, abs=1e-12)


def test_reflection_invariants_on_binding_scenarios():
    rng = np.random.default_rng(17)
    binding = 0
    for _ in range(10):
        sc = random_scenario(rng, binding=True)
        sol = solve_backward(sc)
        lat = sol.lattice
        obstacle = sol.obstacle_field()
        for k in range(lat.n_steps + 1):
            y, s, dk = sol.y.step(k), obstacle.step(k), sol.dk.step(k)
            assert np.min(y - s) >= -1e-12
            assert np.min(dk) >= 0.0
            assert np.max(np.abs(dk * (y - s))) <= 1e-12
        binding += sol.expected_total_k() > 0
    assert binding >= 3  # the family must actually exercise reflection


# -- reflection path totals ----------------------------------------------------------


def test_max_path_total_k_equals_path_enumeration():
    rng = np.random.default_rng(23)
    binding = 0
    for _ in range(12):
        sc = random_scenario(rng, n_steps=int(rng.integers(2, 8)), binding=True)
        lam = [0.0 if rng.random() < 0.4 else v for v in sc.intensity.values]
        sc = dataclasses.replace(
            sc, intensity=IntensitySpec(values=tuple(lam), lambda_max=sc.intensity.lambda_max)
        )
        sol = solve_backward(sc)
        best = -math.inf
        for path in sol.lattice.iter_paths():
            total = 0.0
            for k, i in enumerate(path.indices):
                total += sol.dk.step(k)[i]
            best = max(best, total)
        assert sol.max_path_total_k() == best
        binding += best > 0.0
    assert binding >= 4


def test_max_path_total_k_propagates_nan():
    sc = make_scenario(n_steps=3, lam=0.4, terminal="w")
    sol = solve_backward(sc)
    sol.dk.step(1)[0] = math.nan
    assert math.isnan(sol.max_path_total_k())


def test_psi_metrics_propagate_nan():
    # Python's max(acc, nan) keeps acc: a NaN after the first step was dropped
    sc = make_scenario(n_steps=4, lam=0.4, driver="0.2*y", obstacle="w - 0.3", terminal="max(w, 0) + h")
    sol = solve_backward(sc)
    sol.psi.step(2)[0] = math.nan
    assert math.isnan(sol.max_abs_psi())
    assert math.isnan(sol.weighted_psi())


# -- non-finite values fail closed ----------------------------------------------------


def test_non_finite_obstacle_rejected():
    sc = make_scenario(n_steps=4, lam=0.3, obstacle="-1 + 0/w", terminal="w + 1")
    with pytest.raises(SolverError, match="obstacle"):
        solve_backward(sc)


@given(
    st.sampled_from(["y", "z", "u", "psi", "dk", "driver_values"]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(0, 3),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_injected_non_finite_value_never_passes(field, bad, k, pos):
    sc = make_scenario(n_steps=4, lam=0.4, driver="0.2*y", obstacle="w - 0.3", terminal="w + h")
    sol = solve_backward(sc)
    arrays = [a.copy() for a in getattr(sol, field).values]
    arrays[k][pos % arrays[k].size] = bad
    sol = sol._replace(**{field: ProcessField(sol.lattice, np.concatenate(arrays))})
    report = validate_solution(sol, sc)
    assert not report.passes(1e-10)
    values = [report.driver_square_sum] + [v for _, v in report.checks()]
    assert not all(math.isfinite(v) for v in values)


def test_solve_rejects_oversized_lattice():
    # zero intensity keeps the lattice object small: 8e10 nodes, about 4.5 TB of fields
    sc = make_scenario(n_steps=400_000, lam=0.0, obstacle="w", terminal="w + 1")
    with pytest.raises(SolverError, match="N too large, estimated"):
        solve_backward(sc)


@pytest.mark.parametrize("solve", [solve_backward, solve_picard])
def test_size_guard_runs_before_the_lattice_is_built(solve):
    # at N = 100000 and lambda = 0.3 even the quotient holds 1e10 nodes (560 GB
    # of fields): refused without allocating anything of that size
    sc = make_scenario(n_steps=100_000, lam=0.3, obstacle="w", terminal="w + 1")
    tracemalloc.start()
    try:
        with pytest.raises(SolverError, match="N too large, estimated") as exc:
            solve(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert exc.value.pointer == "/steps"


# -- the closed-form anticipation against per-step pullbacks -------------------


def _anticipation(sol, k, delta, mean, expect):
    """ey and ez at step k by ``expect(values, m, k)``, the closed form or the
    pullback (delta == 0: the y- and z-arguments themselves)."""
    lat, N = sol.lattice, sol.lattice.n_steps
    if delta == 0:
        return mean, sol.z.step(k)
    m = min(k + delta, N)
    return expect(sol.y.step(m), m, k), expect(sol.z.step(m), m, k)


@st.composite
def _anticipating_scenarios(draw):
    n = draw(st.integers(2, 7))
    lam = draw(step_intensities(n))
    driver = draw(st.sampled_from(["ey", "ez", "ey - 0.5*ez", "0.3*ey + 0.2*ez + 0.1*y - 0.2*z"]))
    # a terminal that reads tau solves on the full lattice, the other on the quotient
    terminal = draw(st.sampled_from(["max(0.3 - w, 0) + 0.4*h + 0.1*tau", "max(0.3 - w, 0) + 0.4*h"]))
    return make_scenario(
        n_steps=n, lam=lam, delta_steps=draw(st.integers(0, n + 1)), driver=driver,
        obstacle="max(0.3 - w, 0) - 0.1*t", terminal=terminal,
    )


_FIELDS = ("y", "z", "u", "psi", "dk", "driver_values")


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("tau", [False, True], ids=["quotient", "full"])
def test_a_batch_sweep_equals_each_problem_solved_alone(lam, tau):
    # every scheme, form and lag delta in {0, 1, 2, N} on one lattice; a
    # terminal that reads tau puts the batch on the full lattice
    n, drivers = 6, ["-0.4*y + 0.1*ey - 0.1*u - 0.8", "0.8*y - 0.3*ez + 0.2*z - 0.8",
                     "max(y, 0.2) - 0.2*ey + 0.1*u - 0.8", "0.1*ey - 0.2*ez + 0.3*y - 0.8"]
    scenarios = [make_scenario(n_steps=n, lam=lam, delta_steps=delta, driver=drivers[i % 4], form=form,
                               scheme=scheme, obstacle=f"max(0.3 - w, 0) - {0.05 + 0.01 * i!r}*t",
                               terminal="max(0.3 - w, 0) + 0.4*h" + (" + 0.1*tau" if tau and i == 5 else ""))
                 for i, (scheme, form, delta) in enumerate(itertools.product(
                     ("explicit", "implicit"), ("H", "M"), (0, 1, 2, n)))]
    lat = solver._lattice_for(*scenarios)
    assert lat.quotient is not tau
    problems = [solver._prepare(sc, lat) for sc in scenarios]
    batch = solver._solve(problems)
    assert [s.problem for s in batch] == problems
    assert all(np.any(s.dk.nodes > 0.0) for s in batch)  # every obstacle binds somewhere
    for got, prob in zip(batch, problems):
        alone = solver._solve(prob)
        for name in _FIELDS:
            assert getattr(got, name).nodes.tobytes() == getattr(alone, name).nodes.tobytes(), name
    # the batch's leading prefix, and a batch of one, sweep alike
    for size in (1, 5):
        for got, want in zip(solver._solve(problems[:size]), batch):
            assert all(getattr(got, f).nodes.tobytes() == getattr(want, f).nodes.tobytes() for f in _FIELDS)


@given(_anticipating_scenarios())
@settings(max_examples=120, deadline=None)
def test_sweep_reads_the_closed_form_anticipation_at_every_step(sc):
    sol = solve_backward(sc)
    lat, N, delta = sol.lattice, sc.n_steps, sc.delta_steps
    fn = sc.driver.base.compiled()
    prob = solver._prepare(sc, lat)
    for k in range(N):
        mean = lat.step_expectation(k, sol.y.step(k + 1))
        ey, ez = _anticipation(sol, k, delta, mean, lat.expectation)
        env = {"t": k * lat.dt, "w": lat.w_values(k), "h": lat.h_values(k), "y": mean,
               "z": sol.z.step(k), "u": sol.u.step(k), "ey": ey, "ez": ez}
        expected = np.broadcast_to(np.asarray(fn(env), dtype=float), ey.shape).tobytes()
        assert sol.driver_values.step(k).tobytes() == expected
        # one step recomputed from the closed form gives the solution's fields
        window = (None, None) if delta == 0 else (ey, ez)
        step = tuple(np.empty(lat.n_nodes(k)) for _ in range(6))
        lat.project_martingale(k, sol.y.step(k + 1), step[:4])
        solver._step_values(prob, k, *window, None, step)
        for got, field in zip(step, (sol.y, sol.z, sol.u, sol.psi, sol.dk)):
            assert got.tobytes() == field.step(k).tobytes()
    # a Picard pass and an iterate-bridge pass frozen at the solution reproduce
    # it, driver values included: they read the same closed form
    again = (solver._solve(prob, frozen=solver._Triple(sol.y, sol.z, sol.u)),
             solver._solve(prob, frozen_ey=sol.y))
    for other in again:
        for name in ("y", "z", "u", "psi", "dk", "driver_values"):
            got, want = getattr(other, name).values, getattr(sol, name).values
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], name


@given(_anticipating_scenarios())
@settings(max_examples=60, deadline=None)
def test_closed_form_anticipation_equals_pullbacks_at_every_step(sc):
    sol = solve_backward(sc)
    lat, N, delta = sol.lattice, sc.n_steps, sc.delta_steps
    for k in range(N):
        mean = lat.step_expectation(k, sol.y.step(k + 1))
        closed = _anticipation(sol, k, delta, mean, lat.expectation)
        tower = _anticipation(sol, k, delta, mean, lat.pullback)
        m = min(k + delta, N)
        for got, want, field in zip(closed, tower, (sol.y, sol.z)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(field.step(m)))


def _tower_longdouble(lat, values, m, k):
    """E[field at m | node at k] by the one-step tower in long double: the
    reference of the accuracy test."""
    out = np.asarray(values, dtype=np.longdouble)
    for i in range(m - 1, k - 1, -1):
        V, p = lat._blocks(i + 1, out), np.longdouble(lat.p[i])
        pairs = V[:, 1:] + V[:, :-1]
        alive = (1 - p) / 2 * pairs[0] + (p / 2 * pairs[-1] if lat.p[i] > 0.0 else 0)
        out = np.concatenate([alive, pairs[1 : 1 + lat._def_blocks[i]].reshape(-1) / 2])
    return out


def test_closed_form_anticipation_is_as_accurate_as_the_tower():
    # the benchmark's put family at N = 256, delta = 32, on the quotient
    sc = make_scenario(n_steps=256, lam=0.3, delta_steps=32, driver="-0.4*y + 0.1*ey - 0.1*u + 0.05",
                       form="H", obstacle="max(0.6 - w, 0) - 0.1*t", terminal="max(0.6 - w, 0) + 0.3*h")
    sol = solve_backward(sc)
    lat, N = sol.lattice, sc.n_steps
    assert lat.quotient
    closed = tower = 0.0
    for k in range(N):
        m = min(k + sc.delta_steps, N)
        y = sol.y.step(m)
        ref = _tower_longdouble(lat, y, m, k)
        closed = max(closed, float(np.max(np.abs(lat.expectation(y, m, k) - ref))))
        tower = max(tower, float(np.max(np.abs(lat.pullback(y, m, k) - ref))))
    assert closed <= tower


def _count_calls(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(DefaultLattice, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(DefaultLattice, name, counted)
    return counts


@pytest.mark.parametrize("driver", ["0.2*y + 0.1*ey", "0.1*ez + 0.2*y", "0.1*ey - 0.1*ez"])
def test_one_kernel_call_per_step_for_anticipation(monkeypatch, driver):
    sc = make_scenario(n_steps=12, lam=0.3, delta_steps=4, driver=driver, scheme="implicit")
    counts = _count_calls(monkeypatch, "expectation", "step_expectation", "pullback")
    # one closed form per step for each of ey and ez that the driver reads
    want = {"expectation": 12 * (("ey" in driver) + ("ez" in driver)), "step_expectation": 0,
            "pullback": 0}
    sol = solve_backward(sc)
    assert counts == want
    # validation finds children by index arithmetic: no kernel call at all
    report = validate_solution(sol, sc)
    assert counts == want
    assert report.representation_residual <= 1e-12  # carried by the report: no further call
    assert counts == want


def test_explicit_picard_reads_one_y_argument_per_step(monkeypatch):
    sc = make_scenario(n_steps=12, lam=0.3, delta_steps=2, driver="0.2*y + 0.1*ey")
    counts = _count_calls(monkeypatch, "expectation", "step_expectation", "pullback")
    sol, _history = solve_picard(sc, PicardOptions(beta=4.0))
    passes = sol.diagnostics["picard_iterations"]
    assert passes > 1
    # per step and pass: one E[Y_{k+1} | F_k] for the frozen y-argument, one closed form for ey
    assert counts == {"expectation": 12 * passes, "step_expectation": 12 * passes, "pullback": 0}


# -- the whole-lattice validation against a per-step reference --------------------


def _reference_representation(sol, k, mean):
    """Max error of Y_{k+1} = mean + z dW + u dM + psi dW dM over the edges out
    of step k, by the slicing kernel's block layout, including |u| and |psi|
    where dM = 0; ``mean`` is E[Y_{k+1} | step k]."""
    lat, y_next = sol.lattice, sol.y.step(k + 1)
    z, u, psi = sol.z.step(k), sol.u.step(k), sol.psi.step(k)
    V = lat._blocks(k + 1, y_next)
    s = lat.sqrt_dt
    p = lat.p[k]
    width = k + 1
    best = 0.0
    za, ua, pa, ma = z[:width], u[:width], psi[:width], mean[:width]
    alive = V[0]
    if p > 0.0:
        dm_alive, dm_def = -p, 1.0 - p
        dnew = V[-1]
        for sign in (1.0, -1.0):
            actual = alive[1:] if sign > 0 else alive[:-1]
            pred = ma + sign * za * s + ua * dm_alive + pa * sign * s * dm_alive
            best = solver._max(best, np.max(np.abs(actual - pred)))
            actual = dnew[1:] if sign > 0 else dnew[:-1]
            pred = ma + sign * za * s + ua * dm_def + pa * sign * s * dm_def
            best = solver._max(best, np.max(np.abs(actual - pred)))
    else:
        for sign in (1.0, -1.0):
            actual = alive[1:] if sign > 0 else alive[:-1]
            pred = ma + sign * za * s
            best = solver._max(best, np.max(np.abs(actual - pred)))
    n_def = lat._blocks(k, z).shape[0] - 1
    if n_def:
        B = V[1 : n_def + 1]
        zb = z[width:].reshape(n_def, width)
        mb = mean[width:].reshape(n_def, width)
        for sign in (1.0, -1.0):
            actual = B[:, 1:] if sign > 0 else B[:, :-1]
            pred = mb + sign * zb * s
            best = solver._max(best, np.max(np.abs(actual - pred)))
    start = width if p > 0.0 else 0
    best = solver._max(best, np.max(np.abs(u[start:]), initial=0.0))
    best = solver._max(best, np.max(np.abs(psi[start:]), initial=0.0))
    return best


def _reference_validation(solution):
    """validate_solution as one loop over the steps, reading E[Y_{k+1} | F_k]
    from the slicing kernel (``step_expectation``)."""
    _max = solver._max
    lat = solution.lattice
    N = lat.n_steps
    obstacle = solution.obstacle_field()
    sq = residual = representation = k_dec = skorokhod = obs_viol = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N + 1):
            yk, sk, dkk = solution.y.step(k), obstacle.step(k), solution.dk.step(k)
            obs_viol = _max(obs_viol, np.max(sk - yk))
            k_dec = _max(k_dec, np.max(-dkk))
            skorokhod = _max(skorokhod, np.max(np.abs(dkk * (yk - sk))))
            if k < N:
                fv = solution.driver_values.step(k)
                sq += lat.dt * float(np.dot(lat.node_probabilities(k), fv * fv))
                mean = lat.step_expectation(k, solution.y.step(k + 1))
                eq = yk - (mean + fv * lat.dt + dkk)
                residual = _max(residual, np.max(np.abs(eq)))
                representation = _max(representation, _reference_representation(solution, k, mean))
                residual = _max(residual, representation)
    return solver.ValidationReport(
        driver_square_sum=sq, equation_residual=residual, k_decrease=_max(k_dec, 0.0),
        skorokhod_product=skorokhod, obstacle_violation=_max(obs_viol, 0.0),
        representation_residual=representation,
    )


def _same_report(a, b):
    """Field by field: the same float, sign of zero included, or both NaN."""
    return all((x == y and math.copysign(1.0, x) == math.copysign(1.0, y)) or (math.isnan(x) and math.isnan(y))
               for x, y in zip(a, b))


@st.composite
def _validation_cases(draw):
    n = draw(st.integers(2, 6))
    sc = make_scenario(
        n_steps=n, lam=draw(step_intensities(n)), delta_steps=draw(st.integers(0, 3)),
        driver=draw(st.sampled_from(["0.2*y + 0.1*ey - 0.1*u", "0.1*z - 0.2*y", "0.3*ez + 0.1*w"])),
        form=draw(st.sampled_from(["H", "M"])), scheme=draw(st.sampled_from(["explicit", "implicit"])),
        obstacle="max(0.3 - w, 0) - 0.1*t", terminal="max(0.3 - w, 0) + 0.4*h",
    )
    lat = DefaultLattice(sc.horizon, n, sc.intensity, quotient=draw(st.booleans()))
    sol = solver._solve(solver._prepare(sc, lat))
    field = draw(st.sampled_from([None, "y", "z", "u", "psi", "dk", "driver_values"]))
    if field is not None:
        arrays = [a.copy() for a in getattr(sol, field).values]
        k = draw(st.integers(0, n))
        arrays[k][draw(st.integers(0, arrays[k].size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        sol = sol._replace(**{field: ProcessField(lat, np.concatenate(arrays))})
    return sol, draw(st.integers(1, 40))


@given(_validation_cases())
@settings(max_examples=200, deadline=None)
def test_whole_lattice_validation_equals_the_per_step_reference(case):
    sol, budget = case
    want = _reference_validation(sol)
    # a budget of a few nodes puts chunk boundaries inside the lattice
    for chunk_nodes in (budget, solver._CHUNK_NODES):
        with unittest.mock.patch.object(solver, "_CHUNK_NODES", chunk_nodes):
            got = validate_solution(sol, sol.scenario)
        assert _same_report(got, want), (chunk_nodes, got, want)


@pytest.mark.parametrize("quotient", [False, True])
@pytest.mark.parametrize("chunk_nodes", [1, 1 << 10])  # one step per chunk; every step in one chunk
def test_validation_never_writes_into_the_solution(quotient, chunk_nodes, monkeypatch):
    sc = make_scenario(n_steps=6, lam=0.4, delta_steps=2, driver="0.2*y + 0.1*ey - 0.1*z + 0.1*u - 1",
                       obstacle="max(0.2 - w, 0)", terminal="max(0.2 - w, 0) + 0.3*h")
    lat = DefaultLattice(sc.horizon, sc.n_steps, sc.intensity, quotient=quotient)
    sol = solver._solve(solver._prepare(sc, lat))
    fields = (sol.y, sol.z, sol.u, sol.psi, sol.dk, sol.driver_values, sol.obstacle_field())
    before = [f.nodes.tobytes() for f in fields]
    assert np.any(sol.z.nodes != 0.0) and np.any(sol.dk.nodes != 0.0)
    monkeypatch.setattr(solver, "_CHUNK_NODES", chunk_nodes)
    assert validate_solution(sol, sc).passes()
    assert [f.nodes.tobytes() for f in fields] == before


# -- every field is one whole-lattice array ----------------------------------------


def _assert_one_array(f):
    lat = f.lattice
    sizes = [lat.n_nodes(k) for k in range(lat.n_steps + 1)]
    assert f.nodes.shape == (sum(sizes),)
    assert [a.shape for a in f.values] == [(n,) for n in sizes]
    assert all(np.shares_memory(a, f.nodes) for a in f.values)


@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
def test_every_field_is_one_array_with_per_step_views(scheme):
    sc = make_scenario(n_steps=5, lam=[0.3, 0.1, 0.5, 0.2, 0.4], delta_steps=2, scheme=scheme,
                       driver="0.2*y + 0.1*ey - 0.1*u", obstacle="0.2 - w", terminal="max(0.2 - w, 0) + 0.3*h")
    sol = solve_backward(sc)
    assert sol.lattice.quotient
    runs = [sol, solve_picard(sc)[0], sol.labelled(),
            solver._solve(sol.problem, frozen=solver._Triple(sol.y, sol.z, sol.u)),  # a Picard pass
            solver._solve(sol.problem, frozen_ey=sol.y)]  # an iterate of the comparison bridge
    assert not runs[2].lattice.quotient
    for run in runs:
        for f in (run.y, run.z, run.u, run.psi, run.dk, run.driver_values, run.obstacle_field()):
            assert f.lattice is run.lattice
            _assert_one_array(f)
    _assert_one_array(obstacle_field(sc, sol.lattice))
    _assert_one_array(ProcessField.zeros(sol.lattice))


# -- the representation residual against a per-edge oracle ----------------------


def _residual_by_edges(sol):
    """max |y_next(child) - (mean + z dW + u dM + psi dW dM)| over every edge that
    children() lists, with |u| and |psi| where dM = 0; NaN-propagating."""
    sol = sol.labelled()
    lat, s = sol.lattice, sol.lattice.sqrt_dt
    best = 0.0

    def bump(value):
        nonlocal best
        if value > best or math.isnan(value):
            best = value

    for k in range(lat.n_steps):
        y_next = sol.y.step(k + 1)
        mean = lat.step_expectation(k, y_next)
        z, u, psi = sol.z.step(k), sol.u.step(k), sol.psi.step(k)
        p = lat.p[k]
        for i in range(lat.n_nodes(k)):
            node = lat.node_at(k, i)
            jumps = node.is_alive and p > 0.0
            if not jumps:
                bump(abs(float(u[i])))
                bump(abs(float(psi[i])))
            for child, _prob, dw, dh in lat.children(node):
                sign = 1.0 if dw > 0 else -1.0
                if jumps:
                    dm = dh - p
                    pred = mean[i] + sign * z[i] * s + u[i] * dm + psi[i] * sign * s * dm
                else:
                    pred = mean[i] + sign * z[i] * s
                bump(abs(float(y_next[lat.index(child)] - pred)))
    return best


@given(
    st.integers(0, 10_000),
    st.sampled_from([None, "y", "z", "u", "psi", "dk"]),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_representation_residual_matches_per_edge_oracle(seed, field, pos):
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, n_steps=int(rng.integers(2, 6)), scheme="implicit")
    lam = [0.0 if rng.random() < 0.3 else v for v in sc.intensity.values]
    sc = dataclasses.replace(sc, intensity=IntensitySpec(values=tuple(lam), lambda_max=max(lam)),
                             driver=sc.driver._replace(base=parse_driver("0.1*y + 0.1*ey")))
    sol = solve_backward(sc)
    if field is not None:
        arrays = [a.copy() for a in getattr(sol, field).values]
        k = pos % sc.n_steps + (field == "y")
        arrays[k][pos % arrays[k].size] = math.nan
        sol = sol._replace(**{field: ProcessField(sol.lattice, np.concatenate(arrays))})
    report = validate_solution(sol, sc)
    got, want = report.representation_residual, _residual_by_edges(sol)
    assert got == want or (math.isnan(got) and math.isnan(want))
    if field == "dk":  # a NaN in dK fails the equation residual, not the representation
        assert math.isnan(report.equation_residual) and 0.0 <= got <= 1e-12
    elif field is not None:
        assert math.isnan(got)
    else:
        assert 0.0 <= got <= 1e-12
