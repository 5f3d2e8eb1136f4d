"""The records' printed form, pinned on fixed inputs: a report, a trace or a
node prints the same ``Name(field=value, ...)`` text, byte for byte, whatever
class machinery builds it.  Each pin is the sha256 of the repr, with memory
addresses masked (a lattice or a compiled closure prints its own); every
expression printed reads at most one variable, since a frozenset of several
prints in the process's string-hash order."""

from __future__ import annotations

import hashlib
import re

import numpy as np

from conftest import make_scenario
from rabsde.comparison import (ComparisonCase, iterate_sequence, random_comparison_case, run_comparison,
                               run_random_suite)
from rabsde.driver import (DriverForm, GridSpec, TransformedDriver, check_M_form_lipschitz,
                           estimate_lipschitz, parse_driver)
from rabsde.lattice import ALIVE, DefaultLattice, IntensitySpec, NodeId
from rabsde.solver import solve_backward, validate_solution
from rabsde.stopping import k_running_max_check, snell_report


def _digest(obj) -> str:
    return hashlib.sha256(re.sub(r" at 0x[0-9a-f]+", " at 0x", repr(obj)).encode()).hexdigest()


def _put(**kwargs):
    return make_scenario(n_steps=3, driver="-0.05*y", obstacle="0.5 - w", terminal="max(0.5 - w, 0)",
                         form="H", **kwargs)


def test_validation_report_repr_is_pinned():
    sc = _put()
    sol = solve_backward(sc)
    reports = (validate_solution(sol, sc), validate_solution(sol, _put(delta_steps=1)))
    assert not reports[1].passes() and reports[0].passes()
    assert _digest(reports) == "cecbce8f0f7b056df57293dfc8332c6ce813b0cdedfbbdca11fb4b13ea323004"


def test_stopping_reports_repr_is_pinned():
    sc = _put()
    sol = solve_backward(sc)
    reports = (snell_report(sol, sc), k_running_max_check(sol, sc))
    assert _digest(reports[0]) == "a194ead169336afb720c7ade319c745a6578387c23be855463ef174115e201b3"
    assert _digest(reports[1]) == "514214e0f0f6b1b3ab1fce4040407f2ca9c80d7c54cc032c388c8fab1245510c"


def _pair(n_steps=4):
    """A passing comparison pair whose scenarios print the same in every process."""
    s1, s2 = (make_scenario(n_steps=n_steps, delta_steps=1, driver=g, obstacle=s, terminal=xi)
              for g, s, xi in (("0.1*ey + 0.2", "-1", "max(w, 0) + 1"), ("0.1*ey", "-2", "max(w, 0)")))
    return ComparisonCase(scenario1=s1, scenario2=s2, grid=GridSpec.for_horizon(1.0, points=5, n_base=12))


def test_comparison_verdict_and_iterate_trace_repr_are_pinned():
    case = _pair()
    verdict = run_comparison(case)
    trace = iterate_sequence(case, 10)
    assert verdict.passed and trace.count == len(trace.iterates) == len(trace.sup_diffs) > 1
    assert _digest(verdict) == "f9eaf6493b0893baaa5768a62309e97d18ea2c978de44502fcc9e563b6c97c9b"
    assert _digest(trace) == "e606b59bbc4164ce252e186db7ea373857bcceb5b138b2da70107068c5a38e3a"
    generated = random_comparison_case(np.random.default_rng(3))
    assert _digest(run_comparison(generated)) == \
        "21108bbe3580fe2e7607672418ad21229aae1881e77814e0cad1563eaa9bac3e"


def test_suite_result_repr_is_pinned():
    results = (run_random_suite(0, 20), run_random_suite(5, 7, lam=0.0, n_steps=4))
    assert _digest(results) == "d7c578df10112216f84b78c68dcb8d8cf979f2664a9dfc64cd10c2541de54857"


def test_lipschitz_estimate_repr_is_pinned():
    grid = GridSpec.for_horizon(2.0, points=5, n_base=8, seed=4)
    est = estimate_lipschitz(parse_driver("0.5*y - 0.3*abs(z) + 0.2*ey*ez - 0.7*u + t"), grid, 0.4)
    zero = estimate_lipschitz(parse_driver("w + h"), grid)
    estimates = (est, check_M_form_lipschitz(est, 0.4), check_M_form_lipschitz(est, 0.0), zero)
    assert _digest(estimates) == "47b4d67596b5b9c94aeeafde31b6bfc0706ab5fef20041fd94d784b38e93162c"
    assert est.overall == max(est.c_y, est.c_z, est.c_ey, est.c_ez, est.c_u)


def test_node_id_repr_order_and_hash_are_pinned():
    lat = DefaultLattice(1.0, 4, IntensitySpec(values=(0.5, 0.0, 0.5, 0.5), lambda_max=0.5))
    nodes = [lat.node_at(k, i) for k in range(5) for i in range(lat.n_nodes(k))]
    again = [lat.node_at(k, i) for k in range(5) for i in range(lat.n_nodes(k))]
    assert len(set(nodes) | set(again)) == len(nodes)  # equal nodes hash alike, ALIVE ones included
    defaulted = sorted({node for node in nodes + again if not node.is_alive}, reverse=True)
    alive = sorted({node for node in nodes if node.default_step is ALIVE})
    assert _digest((defaulted, alive)) == "698af593ba88c5ace3bd0a6463a620ba7dc11f187bf9b3442092cb90e9477d79"
    # a node's hash is its coordinates' (None's hash varies by process: defaulted nodes only)
    assert _digest([hash(node) for node in defaulted]) == \
        "355d5d1ca69d015c1843c8299ae445b0e9542ae18a76bddd5fefade9a7e413dc"
    assert [str(node) for node in (lat.root(), defaulted[0])] == ["(k=0, j=0, ALIVE)", "(k=4, j=4, d=4)"]
    assert NodeId(2, 1, 1) < NodeId(2, 1, 3) < NodeId(2, 2, 1) < NodeId(3, 0, 1)


def test_lattice_path_repr_is_pinned():
    lat = DefaultLattice(1.0, 3, IntensitySpec(values=(0.5, 0.0, 0.5), lambda_max=0.5))
    assert _digest(list(lat.iter_paths())) == "f0f44d6d4c8def91918af1749c372ace5a9ad48bbd38ba969a05b8247dad4b0a"


def test_transformed_driver_repr_is_pinned():
    drivers = (TransformedDriver(base=parse_driver("-0.05*y")),
               TransformedDriver(base=parse_driver("max(u, -1) / 2"), form=DriverForm.M),
               TransformedDriver(parse_driver("-(3)"), DriverForm.H))
    assert drivers[0] == TransformedDriver(parse_driver("-0.05*y"), DriverForm.H) != drivers[1]
    assert _digest(drivers) == "d36cd430edd770228fc9ac2a9da165a738281954754c6ab340d19e78599d1e7d"
