"""The benchmark's tracing hooks (perfbench/tracing.py) wrap rabsde names given
as strings; renaming or deleting one of them breaks every traced run.  These
tests import the hooks and check them against the package."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

from conftest import make_scenario
from rabsde import solver

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(tracing):
    """Every module and class the hooks patch, with a snapshot of its namespace."""
    owners = [importlib.import_module(m) for m in tracing._MODULES]
    owners += [getattr(importlib.import_module(m), c) for m, c, *_ in tracing._METHODS]
    owners.append(importlib.import_module("rabsde.driver").DriverExpr)
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_install_resolves_every_hooked_name_and_restore_puts_them_back():
    tracing = _tracing()
    before = _owners(tracing)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)  # a KeyError or AttributeError names a missing hook
    try:
        for modname, fname, *_ in tracing._FUNCTIONS:
            module = importlib.import_module(modname)
            assert getattr(module, fname) is not before[id(module)][1][fname], fname
        for modname, cname, meth, *_ in tracing._METHODS:
            cls = getattr(importlib.import_module(modname), cname)
            assert cls.__dict__[meth] is not before[id(cls)][1][meth], f"{cname}.{meth}"
        solver.solve_backward(make_scenario(n_steps=3, driver="0.1*y", terminal="w + h"))
        names = {span[0] for span in tracer.spans}
        assert {"solver.solve_backward", "lattice.build", "driver.eval"} <= names
        # obstacle and terminal: the sweep runs the driver's bare closure tree
        assert tracer.counts["driver.compiled_calls"] == 2
    finally:
        restore()
    for owner, namespace in before.values():
        now = vars(owner)
        assert now.keys() == namespace.keys()
        assert all(now[k] is v for k, v in namespace.items()), owner
