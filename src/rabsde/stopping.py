"""Optimal-stopping checks: brute-force Snell oracle, first-hit rules, and the
pathwise running-max identity for the reflection process.

Each check takes a solution and the scenario it solves, and reads the obstacle
field the solution was prepared with.  Asked on any other scenario, a check
does not raise for it, and its result does not pass: the values it compares
are NaN and the two optimal-time rules do not coincide.  The oracles name
nodes by label, so a solution on a quotient lattice is read through its exact
lift (``Solution.labelled``); the path enumeration maps each label onto its
block.

The brute-force oracle enumerates every adapted stopping rule (a stop flag per
reachable non-terminal node) and therefore stays independent of the dynamic
programming it cross-checks; instances are capped by the number of decision
nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EnumerationError, LatticeError
from .lattice import DefaultLattice, NodeId
from .solver import CHECK_TOL, Scenario, Solution

DEFAULT_ENUMERATION_CAP = 22
# k_running_max_check walks at most this many paths
_PATH_CAP = 1 << 20
_PATH_BATCH = 1 << 11  # paths per batch: under about 10 MB at the cap (N <= 20)


@dataclass(frozen=True)
class StoppingRule:
    """Adapted {stop, continue} labeling; terminal nodes always stop."""

    lattice: DefaultLattice
    stop: tuple[np.ndarray, ...]  # bool array per step 0..N

    def __post_init__(self):
        lat = self.lattice
        if len(self.stop) != lat.n_steps + 1:
            raise LatticeError("stopping rule must label every step 0..N")
        for k, arr in enumerate(self.stop):
            if arr.shape != (lat.n_nodes(k),) or arr.dtype != np.bool_:
                raise LatticeError(f"bad stop array at step {k}")
        if not bool(np.all(self.stop[lat.n_steps])):
            raise LatticeError("terminal nodes must stop")

    @classmethod
    def from_arrays(cls, lattice: DefaultLattice, arrays) -> "StoppingRule":
        out = [np.asarray(a, dtype=bool).copy() for a in arrays]
        out[lattice.n_steps][:] = True
        return cls(lattice, tuple(out))

    def same_rule(self, other: "StoppingRule") -> bool:
        for k in range(self.lattice.n_steps + 1):
            if not np.array_equal(self.stop[k], other.stop[k]):
                return False
        return True


def stopping_payoff(
    rule: StoppingRule, solution: Solution, scenario: Scenario, from_node: NodeId
) -> float:
    """Exact expected payoff of a stopping rule started at ``from_node``.

    Accumulates the solved driver values up to (not including) the stopping
    step, then pays the obstacle when stopping early and the terminal payoff
    at the horizon.  A rule on the full lattice reads the solution's lift.
    """
    if not rule.lattice.quotient:
        solution = solution.labelled()
    lat = solution.lattice
    if rule.lattice is not lat and not rule.lattice.same_grid(lat):
        raise LatticeError("rule and solution live on different lattices")
    obstacle = solution.obstacle_field()
    N = lat.n_steps
    v = solution.y.step(N).copy()  # terminal payoff xi
    for k in range(N - 1, from_node.step - 1, -1):
        cont = solution.driver_values.step(k) * lat.dt + lat.step_expectation(k, v)
        v = np.where(rule.stop[k], obstacle.step(k), cont)
    return float(v[lat.index(from_node)]) if solution.solves(scenario) else math.nan


def _descendant_masks(lat: DefaultLattice, from_node: NodeId) -> list[np.ndarray]:
    k0 = from_node.step
    masks = [np.zeros(lat.n_nodes(k0), dtype=bool)]
    masks[0][lat.index(from_node)] = True
    for k in range(k0, lat.n_steps):
        nxt = np.zeros(lat.n_nodes(k + 1), dtype=bool)
        for i in np.nonzero(masks[-1])[0]:
            for child, _p, _dw, _dh in lat.children(lat.node_at(k, int(i))):
                nxt[lat.index(child)] = True
        masks.append(nxt)
    return masks


def _transition_matrix(lat: DefaultLattice, k: int, mask_k, mask_next) -> np.ndarray:
    """Dense kernel restricted to descendant nodes (rows: step k, cols: k+1)."""
    rows = np.nonzero(mask_k)[0]
    cols = np.nonzero(mask_next)[0]
    col_pos = {int(c): j for j, c in enumerate(cols)}
    W = np.zeros((rows.size, cols.size))
    for r, i in enumerate(rows):
        for child, prob, _dw, _dh in lat.children(lat.node_at(k, int(i))):
            W[r, col_pos[lat.index(child)]] += prob
    return W


def brute_force_value(
    solution: Solution,
    scenario: Scenario,
    from_node: NodeId,
    *,
    max_nodes: int = DEFAULT_ENUMERATION_CAP,
    batch_size: int = 1 << 15,
) -> tuple[float, StoppingRule]:
    """Exact maximum of ``stopping_payoff`` over all adapted rules.

    Enumerates stop/continue flags on the non-terminal nodes reachable from
    ``from_node`` (2^m rules); raises EnumerationError when m exceeds
    ``max_nodes``.  Rule ids are step-major, node-minor bit strings, so a
    rule's flags at steps >= k fix its continuation value at step k.  Each
    batch of 2^b aligned ids (2^b <= ``batch_size``) walks backward from the
    terminal row: at step k the continuation is computed once per distinct
    pattern of the later steps' bits, then the rows are expanded by the step-k
    bits that vary inside the batch.  The last row vector holds every rule's
    payoff in id order; the lowest id attaining the maximum is returned.
    """
    solution = solution.labelled()
    lat = solution.lattice
    k0 = from_node.step
    N = lat.n_steps
    if batch_size < 1:
        raise EnumerationError(f"batch_size must be at least 1, got {batch_size}")
    # decision nodes per step: k-k0+1 up-counts in each reachable block, the
    # alive one and, from an alive node, one per default step in (k0, k]
    n0 = len(lat.default_steps(k0))
    counts = [(k - k0 + 1) * (1 + (len(lat.default_steps(k)) - n0 if from_node.is_alive else 0))
              for k in range(k0, N)]
    m = sum(counts)
    if m > max_nodes:
        raise EnumerationError(
            f"{m} decision nodes exceed the enumeration cap of {max_nodes}"
        )
    masks = _descendant_masks(lat, from_node)
    obstacle = solution.obstacle_field()
    # bit layout: step-major, node-index-minor, starting at from_node's step
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(int)
    mats = [
        _transition_matrix(lat, k, masks[k - k0], masks[k + 1 - k0]) for k in range(k0, N)
    ]
    f_loc = [
        solution.driver_values.step(k)[masks[k - k0]] * lat.dt for k in range(k0, N)
    ]
    s_loc = [obstacle.step(k)[masks[k - k0]] for k in range(k0, N)]
    xi_loc = solution.y.step(N)[masks[N - k0]]
    b = min(m, batch_size.bit_length() - 1)  # id bits that vary inside a batch
    best_val = -math.inf
    best_id = 0
    for start in range(0, 1 << m, 1 << b):
        v = xi_loc[None, :]  # one row per pattern of the bits above the step
        for k in range(N - 1, k0 - 1, -1):
            i = k - k0
            cont = f_loc[i] + v @ mats[i].T
            # the step's bits below b take every pattern (rows in id order), the
            # rest are the batch's; start is 0 below bit b, so + is a bitwise or
            n_var = min(max(b - offsets[i], 0), counts[i])
            local = (start >> int(offsets[i])) + np.arange(1 << n_var)
            flags = ((local[:, None] >> np.arange(counts[i])) & 1).astype(bool)
            v = np.where(flags, s_loc[i], cont[:, None, :]).reshape(-1, counts[i])
        vals = v[:, 0]
        j = int(np.argmax(vals))
        if float(vals[j]) > best_val:
            best_val = float(vals[j])
            best_id = start + j
    stop = [np.zeros(lat.n_nodes(k), dtype=bool) for k in range(N + 1)]
    bit = 0
    for k in range(k0, N):
        for i in np.nonzero(masks[k - k0])[0]:
            stop[k][int(i)] = bool((best_id >> bit) & 1)
            bit += 1
    rule = StoppingRule.from_arrays(lat, stop)
    return (best_val if solution.solves(scenario) else math.nan), rule


def tau_characterizations(
    solution: Solution, scenario: Scenario
) -> tuple[StoppingRule, StoppingRule, bool]:
    """Both optimal-time characterizations: first Y <= S + CHECK_TOL and first K increase.

    Returns (y_rule, k_rule, coincide); the rules coincide node-by-node on
    every generic scenario because reflection pins Y to S exactly where K
    grows.
    """
    solution = solution.labelled()
    lat = solution.lattice
    N = lat.n_steps
    obstacle = solution.obstacle_field()
    stop_y = []
    stop_k = []
    for k in range(N + 1):  # from_arrays makes every terminal node stop
        stop_y.append(solution.y.step(k) - obstacle.step(k) <= CHECK_TOL)
        stop_k.append(solution.dk.step(k) > 0.0)
    y_rule = StoppingRule.from_arrays(lat, stop_y)
    k_rule = StoppingRule.from_arrays(lat, stop_k)
    return y_rule, k_rule, solution.solves(scenario) and y_rule.same_rule(k_rule)


class StoppingReport(NamedTuple):
    """Snell-value cross-check at the root."""

    snell_value: float
    brute_force: float
    gap: float
    best_rule: StoppingRule
    tau_payoff: float
    tau_gap: float
    k_rule_payoff: float
    tau_rules_coincide: bool


def snell_report(solution: Solution, scenario: Scenario) -> StoppingReport:
    solution = solution.labelled()
    node = solution.lattice.root()
    snell = solution.y0
    value, best_rule = brute_force_value(solution, scenario, node)
    y_rule, k_rule, same = tau_characterizations(solution, scenario)
    tau_payoff = stopping_payoff(y_rule, solution, scenario, node)
    k_payoff = stopping_payoff(k_rule, solution, scenario, node)
    return StoppingReport(
        snell_value=snell,
        brute_force=value,
        gap=abs(snell - value),
        best_rule=best_rule,
        tau_payoff=tau_payoff,
        tau_gap=abs(tau_payoff - snell),
        k_rule_payoff=k_payoff,
        tau_rules_coincide=same,
    )


class KRunningMaxReport(NamedTuple):
    """Pathwise gap between K increments and the running-max expression."""

    max_gap: float
    max_gap_z_only: float
    n_paths: int


def k_running_max_check(solution: Solution, scenario: Scenario) -> KRunningMaxReport:
    """Compare suffix sums of dK with the pathwise running max of the negative
    part of (terminal payoff + remaining driver - remaining martingale part
    - obstacle), on ``iter_paths``'s paths taken ``_PATH_BATCH`` at a time.

    ``max_gap`` uses the full one-step martingale part (z dW + u dM +
    psi dW dM) and is exact up to round-off; ``max_gap_z_only`` drops the jump
    terms, which coincides whenever the intensity vanishes.
    """
    lat = solution.lattice
    if lat.n_paths() > _PATH_CAP:
        raise EnumerationError(f"{lat.n_paths()} paths exceed the cap of {_PATH_CAP}")
    N = lat.n_steps
    obstacle = solution.obstacle_field()
    fields = (solution.driver_values.step, solution.z.step, solution.u.step, solution.psi.step,
              solution.dk.step, lat.h_values)

    def suffix_sums(x):  # along the last axis, the sums over entries r.. for r = 0..n (0 at n)
        tails = np.cumsum(x[..., ::-1], axis=-1)[..., ::-1]
        return np.concatenate([tails, np.zeros(x.shape[:-1] + (1,))], axis=-1)

    gaps = np.zeros(2)  # max_gap, max_gap_z_only
    n_paths = 0
    paths = lat.iter_paths()
    while batch := list(itertools.islice(paths, _PATH_BATCH)):
        n_paths += len(batch)
        # arrays of shape (paths, steps), one gather per field per step
        idx = np.array([path.indices for path in batch])
        dw = np.array([path.dw for path in batch])
        fv, z, u, psi, dk, h = (np.stack([step(r)[idx[:, r]] for r in range(N)], axis=1)
                                for step in fields)
        spath = np.stack([obstacle.step(r)[idx[:, r]] for r in range(N + 1)], axis=1)
        dm = np.array([path.dh for path in batch]) - lat.p[:N] * (1.0 - h)
        xi_f = solution.y.step(N)[idx[:, N], None] + suffix_sums(fv * lat.dt)  # xi + remaining driver
        target = suffix_sums(dk)
        mart = np.stack([z * dw + u * dm + psi * dw * dm, z * dw])  # full, z only
        neg = np.maximum(-(xi_f - suffix_sums(mart) - spath), 0.0)
        run_max = np.maximum.accumulate(neg[..., ::-1], axis=-1)[..., ::-1]
        gaps = np.maximum(gaps, np.max(np.abs(target - run_max), axis=(1, 2)))  # a NaN stays
    if not solution.solves(scenario):
        gaps[:] = math.nan
    return KRunningMaxReport(max_gap=float(gaps[0]), max_gap_z_only=float(gaps[1]), n_paths=n_paths)
