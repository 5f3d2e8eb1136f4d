"""The quotient lattice: one shared default block per step for scenarios whose
terminal does not read tau, checked bit for bit against the full lattice."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scenario, random_scenario, step_intensities
from rabsde import IntensitySpec, build_lattice
from rabsde import stopping as stp
from rabsde.errors import LatticeError, PicardConvergenceError
from rabsde.lattice import ALIVE, DefaultLattice, NodeId
from rabsde.solver import PicardOptions, _picard, _prepare, _solve, solve_backward

_FIELDS = ("y", "z", "u", "psi", "dk", "driver_values")


def _blocks_match(quotient, full) -> None:
    """Every field of the quotient solution equals the full solution's alive
    block and each of its default blocks, bit for bit."""
    q, f = quotient.lattice, full.lattice
    assert q.quotient and not f.quotient
    for name in _FIELDS:
        for k in range(f.n_steps + 1):
            a, b = getattr(quotient, name).step(k), getattr(full, name).step(k)
            qb = a.reshape(-1, k + 1)
            fb = b.reshape(1 + len(f.default_steps(k)), k + 1)
            assert qb.shape[0] == 1 + min(len(f.default_steps(k)), 1)
            assert qb[0].tobytes() == fb[0].tobytes(), (name, k, "alive")
            for d in range(1, fb.shape[0]):
                assert qb[1].tobytes() == fb[d].tobytes(), (name, k, f.default_steps(k)[d - 1])


def _both(sc):
    """The scenario prepared on its own lattice (the quotient) and on the full one."""
    return _prepare(sc), _prepare(sc, build_lattice(sc.horizon, sc.n_steps, sc.intensity))


@st.composite
def _tau_free_scenarios(draw):
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sc = random_scenario(rng, n_steps=n, lam=0.3, delta_steps=draw(st.integers(0, 3)),
                         scheme=draw(st.sampled_from(["explicit", "implicit"])),
                         form=draw(st.sampled_from(["H", "M"])))
    lam = draw(step_intensities(n))
    return dataclasses.replace(sc, intensity=IntensitySpec(values=tuple(lam), lambda_max=max(lam)))


@given(_tau_free_scenarios())
@settings(max_examples=60, deadline=None)
def test_quotient_solves_equal_every_full_block(sc):
    pq, pf = _both(sc)
    assert pq.lattice.quotient
    plain_q, plain_f = _solve(pq), _solve(pf)
    _blocks_match(plain_q, plain_f)
    assert plain_q.max_path_total_k() == plain_f.max_path_total_k()
    assert abs(plain_q.expected_total_k() - plain_f.expected_total_k()) <= 1e-12
    # the iterate bridge, its anticipated slot frozen at the plain solution
    _blocks_match(_solve(pq, frozen_ey=plain_q.y), _solve(pf, frozen_ey=plain_f.y))
    opts = PicardOptions(beta=4.0, tol=1e-10)
    try:
        pic_q, hist_q = _picard(pq, opts)
    except PicardConvergenceError:
        with pytest.raises(PicardConvergenceError):
            _picard(pf, opts)
    else:
        pic_f, hist_f = _picard(pf, opts)
        _blocks_match(pic_q, pic_f)
        assert len(hist_q) == len(hist_f)
        assert max(abs(a - b) for a, b in zip(hist_q, hist_f)) <= 1e-12


def test_a_terminal_that_reads_tau_gets_the_full_lattice():
    tau = make_scenario(n_steps=4, delta_steps=1, driver="0.1*ey", terminal="w + tau")
    assert not _prepare(tau).lattice.quotient
    assert not solve_backward(tau).lattice.quotient
    assert _prepare(make_scenario(n_steps=4, terminal="w + h")).lattice.quotient
    plain = make_scenario(n_steps=4, terminal="w")
    assert not _prepare(plain, build_lattice(1.0, 4, plain.intensity)).lattice.quotient
    with pytest.raises(LatticeError, match="reads tau"):
        _prepare(tau, DefaultLattice(1.0, 4, tau.intensity, quotient=True))


@pytest.mark.parametrize("method", ["node_at", "default_step_codes", "tau_values"])
def test_storage_to_label_methods_raise_on_a_quotient(method):
    spec = IntensitySpec(values=(0.3, 0.0, 0.5, 0.2), lambda_max=0.5)
    lat = DefaultLattice(1.0, 4, spec, quotient=True)
    args = (3, 0) if method == "node_at" else (3,)
    with pytest.raises(LatticeError, match=method):
        getattr(lat, method)(*args)
    full = lat.labelled()
    assert not full.quotient and full.same_grid(build_lattice(1.0, 4, spec))
    getattr(full, method)(*args)


def test_labels_map_onto_the_shared_block():
    spec = IntensitySpec(values=(0.3, 0.0, 0.5, 0.2), lambda_max=0.5)
    lat, full = DefaultLattice(1.0, 4, spec, quotient=True), build_lattice(1.0, 4, spec)
    assert not lat.same_grid(full) and lat.labelled().same_grid(full)
    assert lat.default_steps(4) == full.default_steps(4) == (1, 3, 4)
    assert [lat.n_nodes(k) for k in range(5)] == [1, 4, 6, 8, 10]
    for d in (1, 3, 4):
        assert lat.index(NodeId(4, 2, d)) == 5 + 2
    assert lat.index(NodeId(4, 2, ALIVE)) == 2
    with pytest.raises(LatticeError):
        lat.index(NodeId(4, 2, 2))  # no default at step 2: p_1 = 0
    assert lat.n_paths() == full.n_paths()
    assert lat.children(NodeId(2, 1, 1)) == full.children(NodeId(2, 1, 1))
    for qp, fp in zip(lat.iter_paths(), full.iter_paths()):
        assert qp.probability == fp.probability and np.array_equal(qp.dh, fp.dh)
        assert qp.indices == tuple(lat.index(full.node_at(k, i)) for k, i in enumerate(fp.indices))
    values = np.arange(10.0)
    assert lat.lift(4, values).tolist() == list(range(5)) + list(range(5, 10)) * 3


def test_the_stopping_oracles_read_a_quotient_through_its_lift():
    sc = make_scenario(n_steps=3, lam=[0.4, 0.0, 0.4], driver="-0.1*y", obstacle="0.3 - 0.5*w + 0.2*h",
                       terminal="max(0.3 - 0.5*w + 0.2*h, 0) + 0.1")
    pq, pf = _both(sc)
    sq, sf = _solve(pq), _solve(pf)
    rq, rf = stp.snell_report(sq, sc), stp.snell_report(sf, sc)
    for name in ("snell_value", "brute_force", "tau_payoff", "k_rule_payoff", "tau_rules_coincide"):
        assert getattr(rq, name) == getattr(rf, name), name
    assert rq.best_rule.same_rule(rf.best_rule)
    assert stp.k_running_max_check(sq, sc) == stp.k_running_max_check(sf, sc)
