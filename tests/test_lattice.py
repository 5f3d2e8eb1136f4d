"""Lattice construction, kernel moments, conditional expectations."""

from __future__ import annotations

import ast
import dataclasses
import gc
import math
import pathlib
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bracket_oracle import bracket_checks, martingale_M
from conftest import make_scenario, step_intensities
from rabsde import (
    ALIVE,
    IntensitySpec,
    LatticeError,
    NodeId,
    ProcessField,
    build_lattice,
)
from rabsde import lattice as lattice_module
from rabsde.comparison import run_random_suite
from rabsde.errors import SolverError
from rabsde.lattice import oversize_message
from rabsde.solver import _lattice_for


def test_zero_intensity_degenerates_to_binomial():
    lat = build_lattice(1.0, 1, IntensitySpec.constant(0.0, 1))
    nodes = [lat.node_at(1, i) for i in range(lat.n_nodes(1))]
    assert nodes == [NodeId(1, 0, ALIVE), NodeId(1, 1, ALIVE)]
    children = lat.children(lat.root())
    assert len(children) == 2
    assert all(prob == 0.5 for _, prob, _, _ in children)
    assert all(child.is_alive for child, _, _, _ in children)


def test_four_child_kernel_and_node_count():
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    assert np.allclose(lat.p, 0.25)
    # enumerate the kernel from the root and check the (k+1)^2 count
    seen = set()
    frontier = {lat.root()}
    for k in range(2):
        nxt = set()
        for node in frontier:
            for child, prob, dw, dh in lat.children(node):
                assert prob > 0
                nxt.add(child)
        frontier = nxt
        seen = frontier
        assert len(seen) == (k + 2) ** 2
    assert lat.n_nodes(2) == 9


def test_transition_probabilities():
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    kids = lat.children(lat.root())
    probs = sorted(prob for _, prob, _, _ in kids)
    assert probs == [0.125, 0.125, 0.375, 0.375]
    assert math.isclose(sum(p for _, p, _, _ in kids), 1.0)
    defaulted = NodeId(1, 0, 1)
    kids = lat.children(defaulted)
    assert [prob for _, prob, _, _ in kids] == [0.5, 0.5]
    assert all(child.default_step == 1 for child, _, _, _ in kids)


def test_rejects_intensity_too_large_for_step():
    with pytest.raises(LatticeError):
        build_lattice(1.0, 4, IntensitySpec.constant(5.0, 4))


def test_rejects_negative_intensity():
    with pytest.raises(LatticeError):
        IntensitySpec(values=(0.1, -0.2), lambda_max=0.5)


def test_rejects_value_above_lambda_max():
    with pytest.raises(LatticeError):
        IntensitySpec(values=(0.6,), lambda_max=0.5)


def test_node_count_formula_all_positive():
    lat = build_lattice(1.0, 6, IntensitySpec.constant(0.3, 6))
    for k in range(7):
        assert lat.n_nodes(k) == (k + 1) ** 2


def test_node_count_with_mixed_intensity():
    lat = build_lattice(1.0, 2, IntensitySpec(values=(0.5, 0.0), lambda_max=0.5))
    # default can only happen at step 1
    assert lat.default_steps(2) == (1,)
    assert lat.n_nodes(2) == 6


def _cond_expect(lat, values, k_field, at):
    """E[field at step k_field | at], read off the pullback."""
    return float(lat.pullback(values, k_field, at.step)[lat.index(at)])


def test_cond_expect_zero_field():
    lat = build_lattice(1.0, 3, IntensitySpec.constant(0.4, 3))
    assert _cond_expect(lat, np.zeros(lat.n_nodes(3)), 3, lat.root()) == 0.0


def test_cond_expect_martingale_w():
    lat = build_lattice(1.0, 3, IntensitySpec.constant(0.4, 3))
    for i in range(lat.n_nodes(1)):
        node = lat.node_at(1, i)
        w = lat.w_values(1)[i]
        assert _cond_expect(lat, lat.w_values(2), 2, node) == pytest.approx(w, abs=1e-15)


def test_cond_expect_default_probability():
    # two-step default indicator from the alive root: 1 - (1 - p)^2
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    assert _cond_expect(lat, lat.h_values(2), 2, lat.root()) == pytest.approx(0.4375, abs=1e-15)


def test_cond_expect_zero_distance_returns_value():
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    vals = np.arange(lat.n_nodes(1), dtype=float)
    assert _cond_expect(lat, vals, 1, NodeId(1, 1, ALIVE)) == 1.0


def test_cond_expect_rejects_later_node():
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    with pytest.raises(LatticeError):
        _cond_expect(lat, np.zeros(1), 0, NodeId(1, 0, ALIVE))


def test_cond_expect_rejects_foreign_node():
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    with pytest.raises(LatticeError):
        _cond_expect(lat, np.zeros(9), 2, NodeId(1, 5, ALIVE))


def test_martingale_m_zero_intensity():
    lat = build_lattice(1.0, 3, IntensitySpec.constant(0.0, 3))
    m = martingale_M(lat)
    for k in range(4):
        assert np.all(m.step(k) == 0.0)


def test_martingale_m_values():
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    m = martingale_M(lat)
    assert m.step(1)[lat.index(NodeId(1, 0, ALIVE))] == pytest.approx(-0.25, abs=0)
    # compensator frozen at the default step
    assert m.step(2)[lat.index(NodeId(2, 1, 1))] == pytest.approx(0.75, abs=0)


def test_martingale_m_one_step_expectation():
    lat = build_lattice(1.0, 4, IntensitySpec.constant(0.7, 4))
    m = martingale_M(lat)
    for k in range(4):
        em = lat.step_expectation(k, m.step(k + 1))
        assert np.max(np.abs(em - m.step(k))) <= 1e-15


def test_bracket_checks_zero_intensity_exact():
    report = bracket_checks(build_lattice(1.0, 4, IntensitySpec.constant(0.0, 4)))
    assert report.max_violation == 0.0


def test_bracket_checks_small_violations():
    report = bracket_checks(build_lattice(1.0, 4, IntensitySpec.constant(0.5, 4)))
    assert report.max_violation <= 1e-12


def test_bracket_jump_matches_default_step():
    lat = build_lattice(1.0, 3, IntensitySpec.constant(0.5, 3))
    # along a path defaulting at step 2, H jumps by exactly one at that step
    h = [lat.h_values(k) for k in range(4)]
    path_nodes = [lat.root(), NodeId(1, 1, ALIVE), NodeId(2, 1, 2), NodeId(3, 2, 2)]
    jumps = [
        h[k + 1][lat.index(path_nodes[k + 1])] - h[k][lat.index(path_nodes[k])]
        for k in range(3)
    ]
    assert jumps == [0.0, 1.0, 0.0]


def test_kernel_moments_by_direct_summation():
    lat = build_lattice(2.0, 4, IntensitySpec.constant(0.6, 4))
    for k in range(4):
        p = lat.p[k]
        for i in range(lat.n_nodes(k)):
            node = lat.node_at(k, i)
            kids = lat.children(node)
            pre_default = node.is_alive
            dm = [dh - (p if pre_default else 0.0) for _, _, _, dh in kids]
            e_dw = sum(prob * dw for (_, prob, dw, _) in kids)
            e_dw2 = sum(prob * dw * dw for (_, prob, dw, _) in kids)
            e_dm = sum(prob * m for (_, prob, _, _), m in zip(kids, dm))
            e_dm2 = sum(prob * m * m for (_, prob, _, _), m in zip(kids, dm))
            e_cross = sum(prob * dw * m for (_, prob, dw, _), m in zip(kids, dm))
            e_cross_dw = sum(prob * dw * m * dw for (_, prob, dw, _), m in zip(kids, dm))
            e_cross_dm = sum(prob * dw * m * m for (_, prob, dw, _), m in zip(kids, dm))
            assert abs(e_dw) <= 1e-15
            assert e_dw2 == pytest.approx(lat.dt, abs=1e-15)
            assert abs(e_dm) <= 1e-15
            if pre_default:
                assert e_dm2 == pytest.approx(p * (1 - p), abs=1e-15)
            assert abs(e_cross) <= 1e-15
            assert abs(e_cross_dw) <= 1e-16
            assert abs(e_cross_dm) <= 1e-16


def test_node_probabilities_sum_to_one():
    lat = build_lattice(1.0, 8, IntensitySpec.constant(0.4, 8))
    for k in range(9):
        assert np.sum(lat.node_probabilities(k)) == pytest.approx(1.0, abs=1e-14)


def test_path_enumeration_consistent_with_probabilities():
    lat = build_lattice(1.0, 4, IntensitySpec.constant(0.5, 4))
    total = 0.0
    count = 0
    terminal = np.zeros(lat.n_nodes(4))
    for path in lat.iter_paths():
        total += path.probability
        terminal[path.indices[-1]] += path.probability
        count += 1
    assert count == lat.n_paths()
    assert total == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(terminal - lat.node_probabilities(4))) <= 1e-14


@st.composite
def _field_pair(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    lat = build_lattice(1.0, 4, IntensitySpec.constant(0.5, 4))
    k_field = draw(st.integers(m, 4))
    size = lat.n_nodes(k_field)
    return lat, k_field, m, rng.normal(size=size), rng.normal(size=size)


@given(_field_pair(), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_cond_expect_linear_and_monotone(data, alpha, beta):
    lat, k_field, m, f1, f2 = data
    at = lat.node_at(k_field - m, 0)
    e1 = _cond_expect(lat, f1, k_field, at)
    e2 = _cond_expect(lat, f2, k_field, at)
    combo = _cond_expect(lat, alpha * f1 + beta * f2, k_field, at)
    assert combo == pytest.approx(alpha * e1 + beta * e2, abs=1e-11)
    lo = np.minimum(f1, f2)
    e_lo = _cond_expect(lat, lo, k_field, at)
    assert e_lo <= min(e1, e2) + 1e-13


@given(_field_pair())
@settings(max_examples=40, deadline=None)
def test_tower_property(data):
    lat, k_field, m, f1, _ = data
    at = lat.node_at(k_field - m, 0)
    direct = _cond_expect(lat, f1, k_field, at)
    # split the pullback at every intermediate step
    for mid in range(k_field - m, k_field + 1):
        inner = lat.pullback(f1, k_field, mid)
        nested = _cond_expect(lat, inner, mid, at)
        assert nested == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("quotient", [False, True])
def test_node_data_arrays_are_read_only_and_built_once(monkeypatch, quotient):
    intensity = IntensitySpec(values=(0.3, 0.0, 0.5, 0.2), lambda_max=0.5)
    lat = lattice_module.DefaultLattice(1.0, 4, intensity, quotient=quotient)
    for k in range(5):
        w, h = lat.w_values(k), lat.h_values(k)
        j = np.arange(k + 1, dtype=float)
        assert w.tobytes() == np.tile((2.0 * j - k) * lat.sqrt_dt, lat.n_nodes(k) // (k + 1)).tobytes()
        assert h.tobytes() == np.repeat([0.0, 1.0], [k + 1, lat.n_nodes(k) - k - 1]).tobytes()
        assert lat.w_values(k) is w
        for values in (w, h):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
    # past the cache's budget a step's w is built per call, read-only too
    monkeypatch.setattr(lattice_module, "_W_CACHE_NODES", 0)
    lat = lattice_module.DefaultLattice(1.0, 4, intensity, quotient=quotient)
    w = lat.w_values(3)
    assert w is not lat.w_values(3)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0


def test_process_field_accessors():
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    field = ProcessField(lat, np.concatenate([lat.w_values(k) for k in range(3)]))
    assert field.step(1)[lat.index(NodeId(1, 1, ALIVE))] == pytest.approx(lat.sqrt_dt)
    assert field.step(2) is field.values[2]
    assert sum(arr.size for arr in field.values) == field.nodes.size == 1 + 4 + 9
    nodes = np.arange(14.0)
    split = ProcessField(lat, nodes)
    assert [a.tolist() for a in split.values] == [[0.0], [1.0, 2.0, 3.0, 4.0], [float(x) for x in range(5, 14)]]
    assert split.nodes is nodes and all(np.shares_memory(a, nodes) for a in split.values)


def test_process_field_shape_mismatch():
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    with pytest.raises(LatticeError, match=r"^field has shape \(13,\), lattice has 14 nodes$"):
        ProcessField(lat, np.zeros(13))
    with pytest.raises(LatticeError, match=r"^field has shape \(2, 7\), lattice has 14 nodes$"):
        ProcessField(lat, np.zeros((2, 7)))
    with pytest.raises(LatticeError, match="does not cover step 3"):
        ProcessField.zeros(lat).step(3)


@st.composite
def _push_case(draw):
    n = draw(st.integers(1, 6))
    lam = draw(st.lists(st.sampled_from([0.0, 0.3, 0.9]), min_size=n, max_size=n))
    lat = build_lattice(1.0, n, IntensitySpec(values=tuple(lam), lambda_max=0.9))
    k = draw(st.integers(0, n - 1))
    values = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False),
            min_size=lat.n_nodes(k),
            max_size=lat.n_nodes(k),
        )
    )
    return lat, k, np.array(values)


@given(_push_case())
@settings(max_examples=80, deadline=None)
def test_push_matches_per_edge_accumulation(case):
    lat, k, values = case
    best = np.full(lat.n_nodes(k + 1), -np.inf)
    for i in range(lat.n_nodes(k)):
        for child, _prob, _dw, _dh in lat.children(lat.node_at(k, i)):
            c = lat.index(child)
            best[c] = max(best[c], values[i])
    assert np.array_equal(lat.push(k, values), best)


def test_push_rejects_a_wrong_shape():
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    with pytest.raises(LatticeError):
        lat.push(1, np.ones(3))
    with pytest.raises(LatticeError):
        lat.push(2, np.ones(9))


def _pushed_law(lat) -> list:
    """The node law by the forward mass push the lattice used before its closed
    form: per step, 0.5 (1 - p_k) of an alive node to each alive child, 0.5 p_k
    to each new-default child (p_k > 0), 0.5 of a defaulted node to each child."""
    law = [np.ones(1)]
    for k in range(lat.n_steps):
        V, p = lat._blocks(k, law[-1]), lat.p[k]
        out = np.zeros((1 + lat._def_blocks[k + 1], k + 2))

        def spread(dst, src):
            np.add(dst[..., 1:], src, out=dst[..., 1:])
            np.add(dst[..., :-1], src, out=dst[..., :-1])

        spread(out[0], 0.5 * (1.0 - p) * V[0])
        spread(out[1 : V.shape[0]], 0.5 * V[1:])
        if p > 0.0:
            spread(out[-1], 0.5 * p * V[0])
        law.append(out.reshape(-1))
    return law


@st.composite
def _law_case(draw):
    """(quotient, per-step intensities up to N = 8 with zero and late steps likely)."""
    n = draw(st.integers(1, 8))
    lam = draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 0.9]), min_size=n, max_size=n))
    return draw(st.booleans()), tuple(lam)


@given(_law_case())
@example((False, (0.0, 0.0, 0.0, 0.9)))  # the only label is made at the last step
@example((True, (0.0, 0.0, 0.0, 0.9)))
@example((True, (0.0,) * 5))  # no label at all: the plain binomial tree
@example((False, (0.9, 0.0, 0.3, 0.0, 0.9, 0.3, 0.0, 0.9)))
@example((True, (0.0, 0.9, 0.9, 0.3, 0.9, 0.3, 0.9, 0.9)))  # 7 labels share one block
@settings(max_examples=60, deadline=None)
def test_closed_form_node_law_equals_the_push_and_the_paths(case):
    quotient, lam = case
    lat = lattice_module.DefaultLattice(1.0, len(lam), IntensitySpec(values=lam, lambda_max=0.9),
                                        quotient=quotient)
    for k, want in enumerate(_pushed_law(lat)):
        assert np.max(np.abs(lat.node_probabilities(k) - want)) <= 1e-15
    # each node's paths summed exactly: a quotient's shared node gathers up to 2^8 * 8 of them
    paths = [[] for _ in range(lat.n_nodes(lat.n_steps))]
    for path in lat.iter_paths():
        paths[path.indices[-1]].append(path.probability)
    terminal = np.array([math.fsum(p) for p in paths])
    assert np.max(np.abs(lat.node_probabilities(lat.n_steps) - terminal)) <= 1e-15


@given(_push_case())
@settings(max_examples=60, deadline=None)
def test_node_law_matches_a_per_edge_mass_push(case):
    lat, k, _values = case
    mass = np.zeros(lat.n_nodes(k + 1))
    for i, prob_i in enumerate(lat.node_probabilities(k)):
        for child, prob, _dw, _dh in lat.children(lat.node_at(k, i)):
            mass[lat.index(child)] += prob * prob_i
    assert np.max(np.abs(lat.node_probabilities(k + 1) - mass)) <= 1e-15


@pytest.mark.parametrize("quotient", [False, True])
def test_w_from_the_walk_row_equals_the_tile_formula(quotient):
    # up to N = 300: past the cache's 2^16 nodes on both kinds, so the steps
    # built per call are held too
    lam = tuple(0.0 if k % 7 == 3 else 0.3 for k in range(300))
    lat = lattice_module.DefaultLattice(1.0, 300, IntensitySpec(values=lam, lambda_max=0.3), quotient=quotient)
    for k in range(301):
        blocks = lat.n_nodes(k) // (k + 1)
        want = np.tile((2.0 * np.arange(k + 1, dtype=float) - k) * lat.sqrt_dt, blocks)
        assert lat.w_values(k).tobytes() == want.tobytes()
    assert lat._w[300] is None  # past the cache


@pytest.mark.parametrize("quotient", [False, True])
def test_project_martingale_writes_into_its_output_the_bytes_it_returns(quotient):
    # k = 0, zero-intensity steps with and without default blocks, and jump steps
    lam = (0.0, 0.9, 0.0, 0.3, 0.9)
    lat = lattice_module.DefaultLattice(1.0, 5, IntensitySpec(values=lam, lambda_max=0.9), quotient=quotient)
    rng = np.random.default_rng(7)
    for k in range(5):
        values = rng.normal(size=lat.n_nodes(k + 1))
        out = tuple(np.full(lat.n_nodes(k), np.nan) for _ in range(4))
        returned = lat.project_martingale(k, values, out)
        assert all(a is b for a, b in zip(returned, out))
        for got, want in zip(out, lat.project_martingale(k, values)):
            assert got.tobytes() == want.tobytes()


@st.composite
def _expectation_case(draw):
    """(quotient, per-step intensities with zero steps likely, to_step k,
    from_step m > k, seed of the field at m)."""
    n = draw(st.integers(1, 8))
    lam = tuple(draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 0.9]), min_size=n, max_size=n)))
    k = draw(st.integers(0, n - 1))
    return draw(st.booleans()), lam, k, draw(st.integers(k + 1, n)), draw(st.integers(0, 2**32 - 1))


@given(_expectation_case())
@example((False, (0.3, 0.0, 0.0, 0.3), 1, 3, 0))  # no label is reachable in (1, 3]
@example((True, (0.3, 0.0, 0.0, 0.3), 1, 3, 0))
@example((False, (0.0, 0.3, 0.0, 0.9), 1, 4, 1))  # labels 2 and 4: 4 is made at step m
@example((True, (0.0, 0.3, 0.0, 0.9), 1, 4, 1))
@example((False, (0.9, 0.3, 0.0, 0.9), 2, 4, 2))  # default blocks at k, and label 4 at m
@settings(max_examples=200, deadline=None)
def test_closed_form_expectation_equals_the_tower(case):
    quotient, lam, k, m, seed = case
    lat = lattice_module.DefaultLattice(1.0, len(lam), IntensitySpec(values=lam, lambda_max=0.9),
                                        quotient=quotient)
    values = np.random.default_rng(seed).normal(size=lat.n_nodes(m)) * 10.0 ** (seed % 7 - 3)
    got = lat.expectation(values, m, k)
    assert got.shape == (lat.n_nodes(k),)
    assert np.max(np.abs(got - lat.pullback(values, m, k))) <= 1e-13 * np.max(np.abs(values))


@pytest.mark.parametrize("quotient", [False, True])
@pytest.mark.parametrize("lam", [(0.3, 0.0, 0.0, 0.9, 0.0, 0.3), (0.0,) * 6], ids=["mixed", "zero"])
def test_a_stack_is_projected_and_anticipated_as_its_rows_are(quotient, lam):
    # steps 1, 2 and 4 have p_k = 0; from step 1 or 2 no label is reachable
    # two steps on, so the anticipation's mix weights q are empty there
    lat = lattice_module.DefaultLattice(1.0, 6, IntensitySpec(values=lam, lambda_max=0.9), quotient=quotient)
    rng = np.random.default_rng(11)
    for k in range(6):
        stack = rng.normal(size=(3, lat.n_nodes(k + 1))) * 10.0 ** rng.uniform(-3, 3, size=(3, 1))
        for got, want in zip(lat.project_martingale(k, stack), zip(*(lat.project_martingale(k, r) for r in stack))):
            assert got.tobytes() == np.stack(want).tobytes()
        for delta in range(0, 7 - k):  # every lag, m = k .. N
            m = k + delta
            stack = rng.normal(size=(2, 3, lat.n_nodes(m))) * 10.0 ** rng.uniform(-3, 3, size=(2, 3, 1))
            want = np.stack([[lat.expectation(r, m, k) for r in rows] for rows in stack])
            assert lat.expectation(stack, m, k).tobytes() == want.tobytes()


def test_only_the_projection_and_the_anticipation_take_a_stack():
    lat = build_lattice(1.0, 2, IntensitySpec.constant(0.5, 2))
    with pytest.raises(LatticeError):
        lat.push(1, np.ones((2, 4)))
    with pytest.raises(LatticeError):
        lattice_module.DefaultLattice(1.0, 2, IntensitySpec.constant(0.5, 2), quotient=True).lift(1, np.ones((2, 4)))
    assert lat.project_martingale(0, np.ones((2, 4)))[0].shape == (2, 1)
    assert lat.expectation(np.ones((3, 2, 9)), 2, 0).shape == (3, 2, 1)
    # a stack's last axis is the step's nodes, 4 at step 1
    for values in (np.ones((4, 2)), np.float64(1.0), np.ones((4, 9))):
        with pytest.raises(LatticeError):
            lat.step_expectation(0, values)
        with pytest.raises(LatticeError):
            lat.expectation(values, 1, 0)


# Functions that may still walk the lattice node by node.  The Snell oracle's
# dense kernel checks the block kernel and must stay independent of it;
# iterate_sequence names the offending node in an error message.
_NODE_WALK_ALLOWED = {
    ("stopping.py", "_descendant_masks"),
    ("stopping.py", "_transition_matrix"),
    ("comparison.py", "iterate_sequence"),
}


def _call_sites(path, names, kind):
    """(file, enclosing function) for every call of one of ``names``, made as
    ``x.name(`` (kind ast.Attribute) or as ``name(`` (kind ast.Name)."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and isinstance(node.func, kind):
            if (node.func.attr if kind is ast.Attribute else node.func.id) in names:
                found.add((path.name, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def _assert_call_sites(names, kind, allowed):
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "rabsde"
    sites = set()
    for path in sorted(src.glob("*.py")):
        sites |= _call_sites(path, names, kind)
    assert sites - allowed == set(), f"call of {sorted(names)} outside the allow-list"
    assert allowed - sites == set(), "stale allow-list entry"


def test_no_per_node_lattice_walks_in_production():
    _assert_call_sites({"children", "node_at"}, ast.Attribute, _NODE_WALK_ALLOWED)


def test_node_data_is_evaluated_only_by_the_gate():
    # _node_data evaluates and checks a scenario's terminal and obstacle; every
    # other production path reads the prepared problem's arrays
    _assert_call_sites({"obstacle_field", "terminal_values"}, ast.Name, {("solver.py", "_node_data")})


def test_size_and_node_data_are_checked_only_by_the_gate_and_the_suite_guard():
    # one preparation per scenario: the load, the solvers and the comparison
    # harness all go through _prepare, on a lattice the rule has sized; the
    # suite checks its size before any lattice, and the loader checks the step
    # count's floor before it builds the per-step intensity
    _assert_call_sites({"_node_data", "oversize_message"}, ast.Name,
                       {("solver.py", "_prepare"), ("solver.py", "_lattice_for"), ("cli.py", "run_suite"),
                        ("cli.py", "_scenario_from_doc")})


def test_only_the_lattice_rule_picks_a_lattice():
    # _lattice_for decides every run's lattice; labelled() builds the full
    # lattice a quotient's labels name, and build_lattice is the public
    # constructor of a full lattice
    names = {"DefaultLattice", "build_lattice"}
    _assert_call_sites(names, ast.Name, {("solver.py", "_lattice_for"), ("lattice.py", "build_lattice"),
                                         ("lattice.py", "DefaultLattice.labelled")})
    _assert_call_sites(names, ast.Attribute, set())


def test_one_backward_sweep_evaluates_the_driver():
    # solves, Picard passes and the iterate bridge all run in _solve: one
    # closed-form anticipation per source and one driver env per step
    _assert_call_sites({"expectation"}, ast.Attribute, {("solver.py", "_solve")})
    _assert_call_sites({"_driver_values"}, ast.Name, {("solver.py", "_step_values")})


def test_validation_reads_no_kernel():
    # the whole-lattice check finds children by its own index arithmetic, so it
    # stays independent of the slicing kernel it checks
    kernel = {"step_expectation", "expectation", "project_martingale", "pullback", "push", "_blocks"}
    validation = {"validate_solution", "_edges", "_representation_errors"}
    solver_py = pathlib.Path(__file__).resolve().parents[1] / "src" / "rabsde" / "solver.py"
    defined = {node.name for node in ast.walk(ast.parse(solver_py.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert validation <= defined, "stale name in the validation list"
    sites = {scope for _, scope in _call_sites(solver_py, kernel, ast.Attribute)}
    assert sites & validation == set()


def _counting_builds(monkeypatch) -> list:
    """Patch DefaultLattice.__init__ to record a weak reference to every lattice
    it builds (a strong one would keep the lattice alive)."""
    built, init = [], lattice_module.DefaultLattice.__init__

    def counted(self, *args, **kwargs):
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(lattice_module.DefaultLattice, "__init__", counted)
    return built


# each test below draws its own horizon, so that no lattice of an earlier test is on its grid
def test_a_live_lattice_serves_every_scenario_on_its_grid(monkeypatch):
    built = _counting_builds(monkeypatch)
    sc = make_scenario(horizon=1.25, n_steps=5, lam=[0.3, 0.0, 0.5, 0.0, 0.2], obstacle="w - 1")
    lat = _lattice_for(sc)
    # another scenario on an equal grid, the pair rule and the full-size guard get that same lattice
    other = dataclasses.replace(sc, intensity=IntensitySpec(values=(0.3, 0.0, 0.5, 0.0, 0.2), lambda_max=0.5),
                                obstacle=make_scenario(obstacle="-w").obstacle)
    assert _lattice_for(other) is lat and _lattice_for(sc, other) is lat and _lattice_for(sc, full_size=True) is lat
    assert [ref() for ref in built] == [lat] and lat.quotient
    # a terminal that reads tau, another grid, or a zero intensity of the other sign gets its own
    with_tau = dataclasses.replace(sc, terminal=make_scenario(terminal="w + tau").terminal)
    tau = _lattice_for(with_tau)
    assert not tau.quotient and _lattice_for(sc, with_tau) is tau
    others = [_lattice_for(dataclasses.replace(sc, **change)) for change in (
        {"horizon": 2.5},
        {"n_steps": 4, "intensity": IntensitySpec(values=(0.3, 0.0, 0.5, 0.0), lambda_max=0.5)},
        {"intensity": IntensitySpec(values=(0.3, 0.0, 0.5, 0.0, 0.3), lambda_max=0.5)},
        {"intensity": IntensitySpec(values=(0.3, -0.0, 0.5, 0.0, 0.2), lambda_max=0.5)},
    )]
    assert [ref() for ref in built] == [lat, tau, *others]
    assert len({id(x) for x in [lat, tau, *others]}) == 6


def test_the_size_guard_refuses_before_a_live_lattice_is_returned(monkeypatch):
    sc = make_scenario(horizon=1.5, n_steps=5, lam=0.3)
    lat = _lattice_for(sc)
    built = _counting_builds(monkeypatch)
    monkeypatch.setattr(lattice_module.os, "sysconf", lambda name: 1)  # a 1-byte machine
    with pytest.raises(SolverError) as exc:
        _lattice_for(sc)
    assert exc.value.pointer == "/steps" and str(exc.value).startswith("N too large")
    assert built == [] and lat.n_steps == 5


def test_a_lattice_nothing_holds_is_built_again(monkeypatch):
    built = _counting_builds(monkeypatch)
    sc = make_scenario(horizon=1.75, n_steps=5, lam=0.3)
    lat = _lattice_for(sc)
    assert _lattice_for(sc) is lat and len(built) == 1
    del lat
    gc.collect()
    assert built[0]() is None  # the memo holds no lattice alive
    fresh = _lattice_for(sc)
    assert len(built) == 2 and built[1]() is fresh


def test_a_suite_builds_lattices_only_for_its_first_case(monkeypatch):
    # every case of a suite is on one grid, and each case holds its lattice
    # while the next is drawn; rejected candidates of the first case build anew
    built = _counting_builds(monkeypatch)
    run_random_suite(3, 1, horizon=1.375, n_steps=5)
    gc.collect()
    first = len(built)
    assert first >= 1 and all(ref() is None for ref in built)
    run_random_suite(3, 12, horizon=1.375, n_steps=5)
    assert len(built) == 2 * first


def test_oversize_message_counts_nodes_exactly(monkeypatch):
    spec = IntensitySpec(values=(0.3, 0.0, 0.5, 0.0, 0.2), lambda_max=0.5)
    lat = build_lattice(1.0, 5, spec)
    nodes = sum(lat.n_nodes(k) for k in range(6))
    assert oversize_message(1.0, 5, spec) is None
    monkeypatch.setattr(lattice_module.os, "sysconf", lambda name: 1)  # a 1-byte machine
    assert oversize_message(1.0, 5, spec).startswith(
        f"N too large, estimated {nodes * 7 * 8 / 1e9:.3g} GB for {nodes} nodes"
    )


def _reference_projection(lat, k, values_next):
    """``project_martingale`` as it was before it formed each block's pair sums
    and slopes once: its reference, equal byte for byte."""
    V = values_next.reshape(-1, k + 2)
    p, n_def, width, s2 = lat.p[k], lat._def_blocks[k], k + 1, 2.0 * lat.sqrt_dt
    n = lat.n_nodes(k)
    mean, z, u, psi = np.empty(n), np.empty(n), np.zeros(n), np.zeros(n)
    alive = V[0]
    slope_alive = (alive[1:] - alive[:-1]) / s2
    if p > 0.0:
        dnew = V[-1]
        slope_def = (dnew[1:] - dnew[:-1]) / s2
        mean[:width] = 0.5 * (1.0 - p) * (alive[1:] + alive[:-1]) + 0.5 * p * (dnew[1:] + dnew[:-1])
        z[:width] = (1.0 - p) * slope_alive + p * slope_def
        u[:width] = 0.5 * ((dnew[1:] + dnew[:-1]) - (alive[1:] + alive[:-1]))
        psi[:width] = slope_def - slope_alive
    else:
        mean[:width] = 0.5 * (alive[1:] + alive[:-1])
        z[:width] = slope_alive
    if n_def:
        B = V[1 : n_def + 1]
        mean[width:] = (0.5 * (B[:, 1:] + B[:, :-1])).reshape(-1)
        z[width:] = ((B[:, 1:] - B[:, :-1]) / s2).reshape(-1)
    return mean, z, u, psi


@given(st.integers(2, 9), st.booleans(), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_project_martingale_equals_the_per_block_formulas(n, quotient, seed, data):
    lam = data.draw(step_intensities(n))
    lat = lattice_module.DefaultLattice(1.0, n, IntensitySpec(values=tuple(lam), lambda_max=max(lam)),
                                        quotient=quotient)
    k = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(seed)
    size = lat.n_nodes(k + 1)
    values = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size=size)
    for got, want in zip(lat.project_martingale(k, values), _reference_projection(lat, k, values)):
        assert got.tobytes() == want.tobytes()
