"""Stopping rules, brute-force Snell oracle, running-max identity."""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_scenario, random_scenario, step_intensities
from rabsde import ALIVE, EnumerationError, IntensitySpec, NodeId
from rabsde import stopping
from rabsde.solver import _max
from rabsde.crr import american_put_scenario
from rabsde.solver import solve_backward, obstacle_field
from rabsde.stopping import (
    StoppingRule,
    brute_force_value,
    snell_report,
    k_running_max_check,
    stopping_payoff,
    tau_characterizations,
)

# Frozen via the direct kernel enumeration below (independent of the solver):
# 2-step lattice, lambda = 0.5, zero driver, S = 0.3 - 0.5 w + 0.2 h, xi = w + 3,
# rule stopping at (1,1,ALIVE) and (1,0,d=1) only.
MIXED_RULE_VALUE = 1.4098349570550446


def _two_step_scenario():
    return make_scenario(
        n_steps=2,
        lam=0.5,
        driver="0",
        obstacle="0.3 - 0.5*w + 0.2*h",
        terminal="w + 3",
    )


def _mixed_rule(lat):
    stop = [np.zeros(lat.n_nodes(k), dtype=bool) for k in range(3)]
    stop[1][lat.index(NodeId(1, 1, ALIVE))] = True
    stop[1][lat.index(NodeId(1, 0, 1))] = True
    return StoppingRule.from_arrays(lat, stop)


def _enumeration_oracle(lat, rule, solution, scenario):
    """Direct kernel sum over all paths; independent of any backward pass."""
    obstacle = obstacle_field(scenario, lat)
    xi = solution.y.step(lat.n_steps)
    total = 0.0
    for path in lat.iter_paths():
        value = None
        drift = 0.0
        for k in range(1, lat.n_steps):
            if rule.stop[k][path.indices[k]]:
                value = obstacle.step(k)[path.indices[k]]
                break
            drift += solution.driver_values.step(k)[path.indices[k]] * lat.dt
        if value is None:
            value = xi[path.indices[-1]]
        root_drift = solution.driver_values.step(0)[0] * lat.dt
        if rule.stop[0][0]:
            value, drift, root_drift = obstacle.step(0)[0], 0.0, 0.0
        total += path.probability * (root_drift + drift + value)
    return total


def test_stopping_payoff_mixed_rule_matches_enumeration():
    sc = _two_step_scenario()
    sol = solve_backward(sc)
    rule = _mixed_rule(sol.lattice)
    value = stopping_payoff(rule, sol, sc, sol.lattice.root())
    oracle = _enumeration_oracle(sol.lattice, rule, sol, sc)
    assert value == pytest.approx(MIXED_RULE_VALUE, abs=1e-13)
    assert oracle == pytest.approx(MIXED_RULE_VALUE, abs=1e-13)


def test_stopping_payoff_stop_at_root_pays_obstacle():
    sc = _two_step_scenario()
    sol = solve_backward(sc)
    lat = sol.lattice
    rule = StoppingRule.from_arrays(lat, [np.ones(lat.n_nodes(k), dtype=bool) for k in range(3)])
    assert stopping_payoff(rule, sol, sc, sol.lattice.root()) == 0.3


def test_stopping_payoff_never_early_zero_driver_gives_expectation():
    sc = _two_step_scenario()
    sol = solve_backward(sc)
    lat = sol.lattice
    rule = StoppingRule.from_arrays(lat, [np.zeros(lat.n_nodes(k), dtype=bool) for k in range(3)])
    value = stopping_payoff(rule, sol, sc, sol.lattice.root())
    expected = float(
        np.dot(sol.lattice.node_probabilities(2), sol.y.step(2))
    )
    assert value == pytest.approx(expected, abs=1e-14)


def test_brute_force_obstacle_never_binds():
    sc = make_scenario(n_steps=3, lam=0.4, driver="0.1", terminal="w + 1", obstacle="-1e9")
    sol = solve_backward(sc)
    value, rule = brute_force_value(sol, sc, sol.lattice.root())
    # never stopping early is optimal: value = E[xi] + sum F dt
    assert value == pytest.approx(sol.y0, abs=1e-12)
    for k in range(3):
        assert not np.any(rule.stop[k])


def test_brute_force_obstacle_dominates_at_root():
    sc = make_scenario(
        n_steps=3, lam=0.4, driver="0",
        obstacle="100 - 1000*max(t - 0.5, 0)", terminal="0",
    )
    sol = solve_backward(sc)
    value, rule = brute_force_value(sol, sc, sol.lattice.root())
    assert value == pytest.approx(100.0, abs=1e-12)
    assert rule.stop[0][0]  # the root


def test_brute_force_matches_dynamic_programming():
    sc = make_scenario(
        n_steps=3,
        lam=0.4,
        driver="0.1*y",
        form="M",
        obstacle="0.8 - w - 0.2*h",
        terminal="max(0.8 - w - 0.2*h, 0) + 0.4",
    )
    sol = solve_backward(sc)
    value, _ = brute_force_value(sol, sc, sol.lattice.root())
    assert abs(value - sol.y0) <= 1e-10


def test_brute_force_from_interior_node():
    sc = make_scenario(n_steps=3, lam=0.5, driver="0.2*y", terminal="w + h",
                       obstacle="w - 0.5")
    sol = solve_backward(sc)
    node = NodeId(1, 0, ALIVE)
    value, _ = brute_force_value(sol, sc, node)
    assert value == pytest.approx(sol.y.step(1)[sol.lattice.index(node)], abs=1e-10)


def test_brute_force_cap():
    sc = make_scenario(n_steps=6, lam=0.3, terminal="w")
    sol = solve_backward(sc)
    with pytest.raises(EnumerationError):
        brute_force_value(sol, sc, sol.lattice.root(), max_nodes=22)


def _decision_nodes(lat, node):
    """(step, index) of the non-terminal nodes reachable from ``node``, step-major
    and index-minor (the oracle's bit order), found by walking children()."""
    level, out = {lat.index(node)}, []
    for k in range(node.step, lat.n_steps):
        out.extend((k, i) for i in sorted(level))
        level = {lat.index(c) for i in level for c, *_ in lat.children(lat.node_at(k, i))}
    return out


@st.composite
def _oracle_inputs(draw):
    """A solved binding scenario on 2-4 steps (zero-intensity steps likely) and
    a start node, root or interior, with at most 10 decision nodes below it."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sc = random_scenario(rng, n_steps=n, lam=0.3, delta_steps=draw(st.integers(0, 2)))
    lam = draw(step_intensities(n))
    sc = dataclasses.replace(sc, intensity=IntensitySpec(values=tuple(lam), lambda_max=max(lam)))
    sol = solve_backward(sc)
    lat = sol.lattice.labelled()
    steps = [[node for node in (lat.node_at(k, i) for i in range(lat.n_nodes(k)))
              if len(_decision_nodes(lat, node)) <= 10]
             for k in range(n)]
    return sc, sol, draw(st.sampled_from(draw(st.sampled_from([s for s in steps if s]))))


@given(_oracle_inputs())
@settings(max_examples=40, deadline=None)
def test_brute_force_matches_every_rule_evaluated_one_by_one(inputs):
    sc, sol, node = inputs
    lat = sol.lattice.labelled()
    decisions = _decision_nodes(lat, node)
    payoffs = []
    for rule_id in range(1 << len(decisions)):
        stop = [np.zeros(lat.n_nodes(k), dtype=bool) for k in range(lat.n_steps + 1)]
        for bit, (k, i) in enumerate(decisions):
            stop[k][i] = bool(rule_id >> bit & 1)
        payoffs.append(stopping_payoff(StoppingRule.from_arrays(lat, stop), sol, sc, node))
    best = max(payoffs)
    value, rule = brute_force_value(sol, sc, node)
    rule_id = sum(int(rule.stop[k][i]) << bit for bit, (k, i) in enumerate(decisions))
    assert abs(value - best) <= 1e-12
    assert abs(payoffs[rule_id] - best) <= 1e-12
    assert rule_id == min(j for j, v in enumerate(payoffs) if v >= best - 1e-12)
    for batch_size in (1 << 4, 1 << 8, 1 << 30):
        other, other_rule = brute_force_value(sol, sc, node, batch_size=batch_size)
        assert other.hex() == value.hex() and other_rule.same_rule(rule)


@pytest.mark.parametrize("node", [NodeId(0, 0, ALIVE), NodeId(2, 1, ALIVE), NodeId(3, 2, 1), NodeId(4, 0, 3)])
def test_brute_force_cap_counts_the_reachable_decision_nodes(node):
    # zero intensities on steps 1 and 4 leave default steps 2 and 5 unreachable
    sc = make_scenario(n_steps=6, lam=[0.3, 0.0, 0.5, 0.2, 0.0, 0.4], terminal="w")
    sol = solve_backward(sc)
    m = len(_decision_nodes(sol.labelled().lattice, node))
    with pytest.raises(EnumerationError, match=f"^{m} decision nodes exceed the enumeration cap of {m - 1}$"):
        brute_force_value(sol, sc, node, max_nodes=m - 1)


def test_brute_force_cap_is_checked_before_the_lattice_is_walked(monkeypatch):
    sc = make_scenario(n_steps=64, lam=0.3, terminal="w")
    sol = solve_backward(sc)

    def no_walk(*args):
        raise AssertionError("walked the lattice node by node")

    monkeypatch.setattr(stopping, "_descendant_masks", no_walk)
    with pytest.raises(EnumerationError, match="^89440 decision nodes exceed the enumeration cap of 22$"):
        brute_force_value(sol, sc, sol.lattice.root())


def test_brute_force_rejects_an_empty_batch():
    sc = make_scenario(n_steps=2, lam=0.3, terminal="w")
    sol = solve_backward(sc)
    with pytest.raises(EnumerationError, match="batch_size"):
        brute_force_value(sol, sc, sol.lattice.root(), batch_size=0)


def test_no_rule_beats_snell_value():
    sc = make_scenario(
        n_steps=3, lam=0.4, driver="0.1*y", form="M",
        obstacle="0.8 - w - 0.2*h", terminal="max(0.8 - w - 0.2*h, 0) + 0.4",
    )
    sol = solve_backward(sc)
    lat = sol.lattice
    rng = np.random.default_rng(3)
    for _ in range(50):
        stop = [rng.random(lat.n_nodes(k)) < 0.4 for k in range(4)]
        rule = StoppingRule.from_arrays(lat, stop)
        assert stopping_payoff(rule, sol, sc, lat.root()) <= sol.y0 + 1e-10


def test_optimal_tau_never_binding_stops_at_horizon():
    sc = make_scenario(n_steps=3, lam=0.4, terminal="w", obstacle="-1e9")
    sol = solve_backward(sc)
    rule = tau_characterizations(sol, sc)[0]
    for k in range(3):
        assert not np.any(rule.stop[k])
    assert np.all(rule.stop[3])


def test_optimal_tau_immediate_when_root_binds():
    sc = make_scenario(
        n_steps=3, lam=0.4, driver="0",
        obstacle="100 - 1000*max(t - 0.5, 0)", terminal="0",
    )
    sol = solve_backward(sc)
    rule = tau_characterizations(sol, sc)[0]
    assert rule.stop[0][0]  # the root


def test_tau_characterizations_coincide_mid_tree():
    # generic binding scenario: curvature breaks any exact continuation ties
    sc = make_scenario(
        n_steps=5, lam=0.4, driver="-0.3*y", form="M",
        obstacle="0.1 + 0.4*w + 0.2*h - 0.05*t", terminal="0.2 + 0.4*w + 0.2*h",
    )
    sol = solve_backward(sc)
    assert sol.expected_total_k() > 0
    y_rule, k_rule, same = tau_characterizations(sol, sc)
    assert same
    assert any(np.any(y_rule.stop[k]) for k in range(5))  # binds before the horizon


def test_tau_rules_on_flat_tie_region_both_optimal():
    # the put's zero-payoff region has Y = S = 0 exactly: the first-touch rule
    # stops there while K never increases, so the rules differ node-by-node
    # yet both achieve the value
    sc = american_put_scenario(1.0, 1.0, 0.06, 1.0, 1.0, 5)
    sol = solve_backward(sc)
    y_rule, k_rule, _same = tau_characterizations(sol, sc)
    py = stopping_payoff(y_rule, sol, sc, sol.lattice.root())
    pk = stopping_payoff(k_rule, sol, sc, sol.lattice.root())
    assert abs(py - sol.y0) <= 1e-10
    assert abs(pk - sol.y0) <= 1e-10


def test_tau_rule_achieves_snell_value():
    rng = np.random.default_rng(23)
    for _ in range(10):
        sc = random_scenario(rng, n_steps=int(rng.integers(3, 7)))
        sol = solve_backward(sc)
        rule = tau_characterizations(sol, sc)[0]
        value = stopping_payoff(rule, sol, sc, sol.lattice.root())
        assert abs(value - sol.y0) <= 1e-10


def test_snell_report_bundles_all_checks():
    sc = make_scenario(
        n_steps=3, lam=0.4, driver="0.1*y", form="M",
        obstacle="0.8 - w - 0.2*h", terminal="max(0.8 - w - 0.2*h, 0) + 0.4",
    )
    sol = solve_backward(sc)
    report = snell_report(sol, sc)
    assert report.gap <= 1e-10
    assert report.tau_gap <= 1e-10
    assert report.tau_rules_coincide
    assert abs(report.k_rule_payoff - report.snell_value) <= 1e-10
    assert report.brute_force == pytest.approx(report.snell_value, abs=1e-10)


def test_k_running_max_zero_when_obstacle_never_binds():
    sc = make_scenario(n_steps=4, lam=0.5, driver="0.2*y", terminal="w + h",
                       obstacle="-1e9")
    sol = solve_backward(sc)
    report = k_running_max_check(sol, sc)
    assert sol.expected_total_k() == 0.0
    assert report.max_gap == 0.0
    assert report.max_gap_z_only == 0.0


def test_k_running_max_american_put_paths():
    sc = american_put_scenario(1.0, 1.0, 0.04, 1.0, 1.0, 4)
    sol = solve_backward(sc)
    assert sol.expected_total_k() > 0
    report = k_running_max_check(sol, sc)
    assert report.n_paths == 16  # zero intensity: plain binomial paths
    assert report.max_gap <= 1e-10
    assert report.max_gap_z_only <= 1e-10  # no jump terms when intensity is zero


def test_k_running_max_single_step_forced_reflection():
    # one-step lattice where the obstacle forces reflection at the root
    sc = make_scenario(
        n_steps=1, lam=0.5, driver="0",
        obstacle="2 - 2*t", terminal="w + 1.5",
    )
    sol = solve_backward(sc)
    dk0 = float(sol.dk.step(0)[0])
    assert dk0 == pytest.approx(2.0 - 1.5, abs=1e-14)  # S_0 - E[xi]
    report = k_running_max_check(sol, sc)
    assert report.max_gap <= 1e-14


def test_k_running_max_with_default_jump_terms():
    sc = make_scenario(
        n_steps=4, lam=0.6, driver="-0.3*y - 0.3*u", form="M",
        obstacle="w + 0.5*h + 0.5 + 0.05*t", terminal="w + 0.5*h + 0.6",
    )
    sol = solve_backward(sc)
    assert sol.expected_total_k() > 0
    report = k_running_max_check(sol, sc)
    assert report.max_gap <= 1e-10
    # dropping the jump integrals breaks the identity when defaults matter
    assert report.max_gap_z_only > 1e-6


def test_k_running_max_gap_propagates_nan():
    sc = make_scenario(n_steps=3, lam=0.4, driver="0.1*y", obstacle="0.3 - w", terminal="max(0.3 - w, 0)")
    sol = solve_backward(sc)
    sol.dk.step(1)[0] = math.nan
    rep = k_running_max_check(sol, sc)
    assert math.isnan(rep.max_gap) and math.isnan(rep.max_gap_z_only)


def _reference_running_max(solution):
    """The per-path loop that ``k_running_max_check`` replaced, kept as its
    reference: (max_gap, max_gap_z_only, n_paths)."""
    lat = solution.lattice
    N = lat.n_steps
    obstacle = solution.obstacle_field()
    fv = [solution.driver_values.step(k) for k in range(N)]
    zs = [solution.z.step(k) for k in range(N)]
    us = [solution.u.step(k) for k in range(N)]
    ps = [solution.psi.step(k) for k in range(N)]
    dks = [solution.dk.step(k) for k in range(N + 1)]
    hs = [lat.h_values(k) for k in range(N)]
    obs = [obstacle.step(k) for k in range(N + 1)]
    xi = solution.y.step(N)
    max_gap = 0.0
    max_gap_z = 0.0
    n_paths = 0
    for path in lat.iter_paths():
        n_paths += 1
        idx = path.indices
        fpath = np.array([fv[r][idx[r]] for r in range(N)]) * lat.dt
        zpath = np.array([zs[r][idx[r]] for r in range(N)])
        upath = np.array([us[r][idx[r]] for r in range(N)])
        ppath = np.array([ps[r][idx[r]] for r in range(N)])
        alive = np.array([1.0 - hs[r][idx[r]] for r in range(N)])
        dm = path.dh - lat.p[:N] * alive
        mart = zpath * path.dw + upath * dm + ppath * path.dw * dm
        mart_z = zpath * path.dw
        spath = np.array([obs[v][idx[v]] for v in range(N + 1)])
        dkpath = np.array([dks[r][idx[r]] for r in range(N)])
        xi_v = float(xi[idx[N]])
        for mpart, tracker in ((mart, "full"), (mart_z, "z")):
            tail_f = np.concatenate([np.cumsum(fpath[::-1])[::-1], [0.0]])
            tail_m = np.concatenate([np.cumsum(mpart[::-1])[::-1], [0.0]])
            a = xi_v + tail_f - tail_m - spath
            neg = np.maximum(-a, 0.0)
            run_max = np.maximum.accumulate(neg[::-1])[::-1]
            target = np.concatenate([np.cumsum(dkpath[::-1])[::-1], [0.0]])
            gap = float(np.max(np.abs(target - run_max)))
            if tracker == "full":
                max_gap = _max(max_gap, gap)
            else:
                max_gap_z = _max(max_gap_z, gap)
    return max_gap, max_gap_z, n_paths


_PLANTED = ("y", "z", "u", "psi", "dk", "driver_values", "obstacle")


@given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_batched_running_max_equals_the_per_path_loop(n, seed, data):
    """Random binding scenarios with zero-intensity steps likely, on the
    quotient and on the full lattice, with a NaN planted in one field, in
    batches of one path, a few paths or all of them."""
    sc = random_scenario(np.random.default_rng(seed), n_steps=n, lam=0.3)
    lam = data.draw(step_intensities(n))
    sc = dataclasses.replace(sc, intensity=IntensitySpec(values=tuple(lam), lambda_max=max(lam)))
    sol = solve_backward(sc)
    if data.draw(st.booleans(), label="full lattice"):
        sol = sol.labelled()
    name = data.draw(st.sampled_from((None,) + _PLANTED), label="NaN in")
    if name is not None:
        field = sol.obstacle_field() if name == "obstacle" else getattr(sol, name)
        k = data.draw(st.integers(0, n), label="step")
        field.step(k)[data.draw(st.integers(0, sol.lattice.n_nodes(k) - 1), label="node")] = math.nan
    batch = data.draw(st.sampled_from([1, 3, stopping._PATH_BATCH]), label="batch")
    with mock.patch.object(stopping, "_PATH_BATCH", batch):
        report = k_running_max_check(sol, sc)
    max_gap, max_gap_z, n_paths = _reference_running_max(sol)
    assert report.max_gap.hex() == max_gap.hex()
    assert report.max_gap_z_only.hex() == max_gap_z.hex()
    assert report.n_paths == n_paths


def _stopping_outcomes(sol, sc):
    """Every stopping check on ``sc``, as the numbers and flags that decide a pass."""
    root = sol.lattice.root()
    report = snell_report(sol, sc)
    y_rule, _k_rule, same = tau_characterizations(sol, sc)
    krep = k_running_max_check(sol, sc)
    return {
        "brute_force": brute_force_value(sol, sc, root)[0],
        "payoff": stopping_payoff(y_rule, sol, sc, root),
        "coincide": same,
        "gap": report.gap, "tau_gap": report.tau_gap, "report_coincide": report.tau_rules_coincide,
        "k_gap": krep.max_gap, "k_gap_z_only": krep.max_gap_z_only,
    }


def test_stopping_checks_on_a_foreign_scenario_do_not_pass():
    sc = make_scenario(n_steps=3, lam=0.4, driver="0.1*y", form="M",
                       obstacle="0.8 - w - 0.2*h", terminal="max(0.8 - w - 0.2*h, 0) + 0.4")
    sol = solve_backward(sc)
    own = _stopping_outcomes(sol, sc)
    assert own["gap"] <= 1e-10 and own["tau_gap"] <= 1e-10 and own["k_gap"] <= 1e-10 and own["coincide"]
    # an equal scenario is the solution's own; a scenario the solution does not solve is not
    assert _stopping_outcomes(sol, dataclasses.replace(sc)) == own
    for foreign in (dataclasses.replace(sc, obstacle=make_scenario(obstacle="0.7 - w").obstacle),
                    dataclasses.replace(sc, delta_steps=1)):
        got = _stopping_outcomes(sol, foreign)  # raises nothing
        assert not got["coincide"] and not got["report_coincide"]
        numbers = [v for v in got.values() if not isinstance(v, bool)]
        assert all(math.isnan(v) for v in numbers)
        assert not any(v <= 1e-10 for v in numbers)
