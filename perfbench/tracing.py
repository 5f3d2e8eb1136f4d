"""Per-layer tracing from outside the package.

``install`` replaces each layer's public entry points with wrappers: module
functions are rebound in every rabsde module that holds them (the attribute
its callers look up, e.g. ``rabsde.cli.solve_backward``), methods are
replaced on their class.  A wrapper records a span (name, start, end, parent,
op id) in memory, and a few also add a count derived from their arguments or
result.  ``children`` and ``node_at`` run once per lattice node, so they are
counted only.  Nothing under ``src/`` changes; untraced runs never call
``install``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "lattice", "driver", "solver", "stopping", "comparison", "crr")

# Per-op metrics reported by a traced run, in report order, with their unit.
# ``*_s`` is self time, everything else a count; ``trace.overhead_frac`` is
# filled in by run.py from the untraced and traced windows.
PER_LAYER = (
    ("cli.load_s", "s"), ("cli.run_s", "s"), ("cli.node_table_rows_s", "s"),
    ("cli.emit_report_s", "s"), ("cli.report_bytes", "bytes"),
    ("lattice.build_s", "s"), ("lattice.nodes", "count"),
    ("lattice.step_expectation_calls", "count"), ("lattice.step_expectation_s", "s"),
    ("lattice.project_martingale_calls", "count"), ("lattice.project_martingale_s", "s"),
    ("lattice.pullback_calls", "count"), ("lattice.pullback_s", "s"),
    ("lattice.children_calls", "count"), ("lattice.node_at_calls", "count"),
    ("lattice.bytes_computed", "bytes"),
    ("driver.compiled_calls", "count"), ("driver.eval_calls", "count"),
    ("driver.eval_s", "s"), ("driver.estimate_lipschitz_s", "s"),
    ("solver.solve_backward_calls", "count"), ("solver.solve_backward_s", "s"),
    ("solver.validate_s", "s"), ("solver.max_path_total_k_s", "s"),
    ("solver.report_metrics_s", "s"), ("solver.estimate_c_prime_s", "s"),
    ("solver.solve_picard_s", "s"), ("solver.picard_passes", "count"),
    ("solver.beta_norm_s", "s"),
    ("stopping.brute_force_s", "s"), ("stopping.rules_enumerated", "count"),
    ("stopping.k_running_max_s", "s"), ("stopping.paths_enumerated", "count"),
    ("stopping.tau_payoff_s", "s"),
    ("comparison.random_case_s", "s"), ("comparison.case_accept_ratio", "ratio"),
    ("comparison.check_hypotheses_calls", "count"), ("comparison.check_hypotheses_s", "s"),
    ("comparison.check_dominance_s", "s"), ("comparison.check_theta_s", "s"),
    ("comparison.check_monotone_s", "s"), ("comparison.run_comparison_s", "s"),
    ("comparison.iterate_sequence_s", "s"), ("comparison.iterates", "count"),
    ("crr.price_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

OP_SPAN = "op"


class Tracer:
    """In-memory span and counter store for one traced window."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent id, op id)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1

    def wrap(self, name: str, fn, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op_id)
            if post is not None:
                post(self.counts, args, result)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def run_op(self, op_id: int, fn, *args):
        self.op_id = op_id
        return self.wrap(OP_SPAN, fn)(*args)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{op}\n")


# -- count hooks: (counts, call args, result) --------------------------------


def _lattice_nodes(counts, args, _result):
    lat = args[0]
    counts["lattice.nodes"] += sum(lat.n_nodes(k) for k in range(lat.n_steps + 1))


def _kernel_bytes(counts, args, result):
    """Input plus output array bytes of one kernel call (computed, not measured)."""
    import numpy as np

    arrays = result if isinstance(result, tuple) else (result,)
    counts["lattice.bytes_computed"] += (
        np.asarray(args[2], dtype=float).nbytes + sum(a.nbytes for a in arrays)
    )


def _report_bytes(counts, args, _result):
    counts["cli.report_bytes"] += os.path.getsize(args[2])


def _picard_passes(counts, _args, result):
    counts["solver.picard_passes"] += result[0].diagnostics["picard_iterations"]


def _rules(counts, args, _result):
    """2^m for the m non-terminal nodes reachable from the start node."""
    lat, node = args[0].lattice, args[2]
    m = 0
    for k in range(node.step, lat.n_steps):
        width = k - node.step + 1
        if node.is_alive:
            later = sum(1 for d in lat.default_steps(k) if d > node.step)
            m += width * (1 + later)
        else:
            m += width
    counts["stopping.rules_enumerated"] += 2**m


def _paths(counts, _args, result):
    counts["stopping.paths_enumerated"] += result.n_paths


def _iterates(counts, _args, result):
    counts["comparison.iterates"] += len(result.iterates)


# (defining module, function, span name, count hook)
_FUNCTIONS = (
    ("rabsde.cli", "load_scenario_with_outputs", "cli.load", None),
    ("rabsde.cli", "run", "cli.run", None),
    ("rabsde.cli", "node_table_rows", "cli.node_table_rows", None),
    ("rabsde.cli", "emit_report", "cli.emit_report", _report_bytes),
    ("rabsde.driver", "estimate_lipschitz", "driver.estimate_lipschitz", None),
    ("rabsde.solver", "solve_backward", "solver.solve_backward", None),
    ("rabsde.solver", "validate_solution", "solver.validate", None),
    ("rabsde.solver", "estimate_c_prime", "solver.estimate_c_prime", None),
    ("rabsde.solver", "solve_picard", "solver.solve_picard", _picard_passes),
    ("rabsde.solver", "beta_norm", "solver.beta_norm", None),
    ("rabsde.stopping", "brute_force_value", "stopping.brute_force", _rules),
    ("rabsde.stopping", "k_running_max_check", "stopping.k_running_max", _paths),
    ("rabsde.stopping", "stopping_payoff", "stopping.tau_payoff", None),
    ("rabsde.comparison", "random_comparison_case", "comparison.random_case", None),
    ("rabsde.comparison", "check_hypotheses", "comparison.check_hypotheses", None),
    ("rabsde.comparison", "check_dominance", "comparison.check_dominance", None),
    ("rabsde.comparison", "check_theta_condition", "comparison.check_theta", None),
    ("rabsde.comparison", "check_monotone_in_anticipation", "comparison.check_monotone", None),
    ("rabsde.comparison", "run_comparison", "comparison.run_comparison", None),
    ("rabsde.comparison", "iterate_sequence", "comparison.iterate_sequence", _iterates),
    ("rabsde.crr", "crr_american_put", "crr.price", None),
)

# (defining module, class, method, span name or None to count only, hook)
_METHODS = (
    ("rabsde.lattice", "DefaultLattice", "__init__", "lattice.build", _lattice_nodes),
    ("rabsde.lattice", "DefaultLattice", "step_expectation", "lattice.step_expectation", _kernel_bytes),
    ("rabsde.lattice", "DefaultLattice", "project_martingale", "lattice.project_martingale", _kernel_bytes),
    ("rabsde.lattice", "DefaultLattice", "pullback", "lattice.pullback", None),
    ("rabsde.lattice", "DefaultLattice", "children", None, None),
    ("rabsde.lattice", "DefaultLattice", "node_at", None, None),
    ("rabsde.solver", "Solution", "max_path_total_k", "solver.max_path_total_k", None),
    ("rabsde.solver", "Solution", "per_step_expected_dk", "solver.report_metrics", None),
    ("rabsde.solver", "Solution", "expected_total_k", "solver.report_metrics", None),
    ("rabsde.solver", "Solution", "max_abs_psi", "solver.report_metrics", None),
    ("rabsde.solver", "Solution", "weighted_psi", "solver.report_metrics", None),
)

_MODULES = ("rabsde", "rabsde.cli", "rabsde.comparison", "rabsde.crr", "rabsde.driver",
            "rabsde.lattice", "rabsde.solver", "rabsde.stopping")


def install(tracer: Tracer):
    """Patch every entry point; returns a function that restores them."""
    modules = [importlib.import_module(m) for m in _MODULES]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for modname, fname, span, hook in _FUNCTIONS:
        orig = getattr(importlib.import_module(modname), fname)
        wrapped = tracer.wrap(span, orig, hook)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    replace(mod, attr, wrapped)

    for modname, cname, meth, span, hook in _METHODS:
        cls = getattr(importlib.import_module(modname), cname)
        orig = cls.__dict__[meth]
        if span is None:
            replace(cls, meth, tracer.count(f"lattice.{meth}_calls", orig))
        else:
            replace(cls, meth, tracer.wrap(span, orig, hook))

    # Each compiled closure is one evaluation site; time every call into it.
    driver_expr = importlib.import_module("rabsde.driver").DriverExpr
    compiled = driver_expr.__dict__["compiled"]

    def traced_compiled(self):
        tracer.counts["driver.compiled_calls"] += 1
        return tracer.wrap("driver.eval", compiled(self))

    replace(driver_expr, "compiled", functools.wraps(compiled)(traced_compiled))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def layer_metrics(tracer: Tracer, n_ops: int) -> tuple[dict, dict]:
    """Per-op metrics and per-layer self-time shares of the op wall time."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict = defaultdict(float)
    calls: Counter = Counter()
    candidates = 0  # hypothesis checks made while drawing a comparison case
    op_time = 0.0
    for sid, (name, start, end, parent, _op) in enumerate(spans):
        self_time[name] += end - start - child_time[sid]
        calls[name] += 1
        if name == OP_SPAN:
            op_time += end - start
        elif name == "comparison.check_hypotheses" and parent >= 0 \
                and spans[parent][0] == "comparison.random_case":
            candidates += 1

    per_op = {}
    for metric, _unit in PER_LAYER:
        if metric.endswith("_s"):
            per_op[metric] = self_time.get(metric[:-2], 0.0) / n_ops
        elif metric.endswith("_calls") and metric[:-6] in calls:
            per_op[metric] = calls[metric[:-6]] / n_ops
        else:
            per_op[metric] = tracer.counts.get(metric, 0) / n_ops
    per_op["comparison.case_accept_ratio"] = (
        calls["comparison.random_case"] / candidates if candidates else 0.0
    )

    shares = {layer: 0.0 for layer in LAYERS}
    for name, t in self_time.items():
        layer = name.split(".", 1)[0]
        if layer in shares:
            shares[layer] += t
    shares["untraced"] = self_time.get(OP_SPAN, 0.0)
    shares = {k: (v / op_time if op_time else 0.0) for k, v in shares.items()}
    return per_op, shares
