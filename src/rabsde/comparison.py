"""Property harness for the comparison results on reflected systems with
anticipation in the y-slot only.

A comparison case pairs two scenarios on the same lattice and anticipation
lag.  Before asserting any ordering, the harness grid-verifies the required
hypotheses: monotonicity of the dominated driver in the anticipated slot,
ordering of terminal payoffs and obstacles on the lattice, the one-sided
intensity-weighted slope condition in the jump slot, and driver dominance.
A grid pass is a necessary check, not a proof; verdicts are labeled
grid-verified.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .driver import (BinOp, Call, DriverExpr, DriverForm, Expr, GridSpec, GridSweep, Neg, Num,
                     TransformedDriver, Var, _free_vars, _lambda_at)
from .errors import DriverEvalError, HypothesisError, MonotonicityError, SolverError
from .lattice import IntensitySpec
from .solver import CHECK_TOL, Scenario, Scheme, Solution, _lattice_for, _max, _min, _Problem, _prepare, _solve

COMPARISON_DRIVER_VARS = frozenset({"t", "w", "h", "y", "z", "ey", "u"})

# the round-off a grid hypothesis forgives: a difference, gap or ratio this far past its bound passes
_GRID_SLACK = 1e-12

# iterate_sequence stops once successive iterates agree within this sup distance
_ITERATES_AGREE = 1e-13

# run_random_suite sweeps its cases in batches of at most this many nodes (3 MB of fields)
_BATCH_NODES = 1 << 16


class MonotoneReport(NamedTuple):
    """Grid outcome for nondecreasingness in the anticipated slot."""

    passed: bool
    witness: tuple[dict, float, float, float, float] | None  # env, ey, ey', g, g'


class ThetaReport(NamedTuple):
    """Grid outcome for the intensity-weighted one-sided slope condition."""

    passed: bool
    theta: float  # worst difference ratio over the grid
    witness: tuple[dict, float, float, float] | None  # env, u, u', ratio


class DominanceReport(NamedTuple):
    passed: bool
    min_gap: float
    witness: dict | None


def _hypothesis_sweep(grid: GridSpec, g1: DriverExpr, g2: DriverExpr) -> GridSweep:
    """The one grid sweep of the three driver hypotheses: "ey" sweeps g2's ey,
    "shared" each variable of either driver (y for two constants), and "u"
    g1's u with t in its base; "ey" or "u" is None when the driver ignores it.
    Each check takes its grid, for a sweep of its own, or the pair's sweep."""
    shared = sorted(g1.free_vars | g2.free_vars)
    return GridSweep(grid, {"ey": (sorted(g2.free_vars - {"ey"}), ("ey",)) if "ey" in g2.free_vars else None,
                            "shared": (shared, shared or ["y"]),
                            "u": (sorted(g1.free_vars - {"u"} | {"t"}), ("u",)) if "u" in g1.free_vars else None})


def check_monotone_in_anticipation(g: DriverExpr, grid: GridSpec | GridSweep) -> MonotoneReport:
    """Finite-difference test that g is nondecreasing in the ey slot: the first
    violation in base-row order; a non-finite row raises unless one precedes it."""
    sweep = grid if isinstance(grid, GridSweep) else _hypothesis_sweep(grid, g, g)
    group = sweep.groups["ey"]
    if group is None:
        return MonotoneReport(passed=True, witness=None)
    (vals,) = sweep.values(g, group)
    finite = np.isfinite(vals).all(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf
        bad = vals[:, 1:] - vals[:, :-1] < -_GRID_SLACK
    events = bad | ~finite[:, None]
    r, i = divmod(int(events.argmax()), events.shape[1])
    if not events[r, i]:
        return MonotoneReport(passed=True, witness=None)
    if not finite[r]:
        raise DriverEvalError("non-finite driver value on the monotonicity grid")
    axis = group.axes[0]
    return MonotoneReport(
        passed=False,
        witness=(group.row(r), float(axis[i]), float(axis[i + 1]), float(vals[r, i]), float(vals[r, i + 1])),
    )


def check_theta_condition(g: DriverExpr, lam_profile, grid: GridSpec | GridSweep) -> ThetaReport:
    """Worst grid ratio (g(u) - g(u')) / (lambda_t (u - u')); needs >= -1.

    Vacuously true when the driver ignores u or the intensity vanishes at
    every sampled time (the jump slot never enters the dynamics there).
    """
    sweep = grid if isinstance(grid, GridSweep) else _hypothesis_sweep(grid, g, g)
    group = sweep.groups["u"]
    lam = np.zeros(0) if group is None else _lambda_at(lam_profile, group.base[:, group.names.index("t")])
    kept = (lam > 0.0).nonzero()[0]
    if not kept.size:
        return ThetaReport(passed=True, theta=0.0, witness=None)
    vals = sweep.values(g, group)[0, kept]
    if not np.isfinite(vals).all():
        raise DriverEvalError("non-finite driver value on the theta grid")
    (axis,) = group.axes
    ratios = (vals[:, 1:] - vals[:, :-1]) / (lam[kept, None] * (axis[1:] - axis[:-1]))
    r, i = divmod(int(ratios.argmin()), ratios.shape[1])
    theta = float(ratios[r, i])
    passed = theta >= -1.0 - _GRID_SLACK
    return ThetaReport(
        passed=passed,
        theta=theta,
        witness=None if passed else (group.row(int(kept[r])), float(axis[i]), float(axis[i + 1]), theta),
    )


def check_dominance(g1: DriverExpr, g2: DriverExpr, grid: GridSpec | GridSweep) -> DominanceReport:
    """Grid test of g1 >= g2 over sweeps of every variable of either driver, h
    over {0, 1}.  The least gap is the first in layer (name), row and column
    order; the witness sweeps that layer's variable."""
    sweep = grid if isinstance(grid, GridSweep) else _hypothesis_sweep(grid, g1, g2)
    group = sweep.groups["shared"]
    with np.errstate(over="ignore", invalid="ignore"):  # the finite check below decides
        gap = sweep.values(g1, group) - sweep.values(g2, group)
    if not np.isfinite(gap).all():
        raise DriverEvalError("non-finite driver value on the dominance grid")
    v, r, i = np.unravel_index(gap.argmin(), gap.shape)
    min_gap = float(gap[v, r, i])
    passed = min_gap >= -_GRID_SLACK
    witness = None if passed else {**group.row(r), group.swept[v]: float(group.axes[v, i])}
    return DominanceReport(passed=passed, min_gap=min_gap, witness=witness)


@dataclass(frozen=True)
class ComparisonCase:
    """Two scenarios sharing lattice and anticipation lag, plus a check grid."""

    scenario1: Scenario
    scenario2: Scenario
    grid: GridSpec
    # the report of the first passing check: the one that accepted a generated
    # case, else the first run_comparison or iterate_sequence
    _accepted: HypothesisReport | None = field(default=None, init=False, compare=False, repr=False)
    # scenario 1 or 2 -> its prepared problem (both on one lattice) and its
    # solution, filled by _problem and _solved so that the generator, the checks
    # and the solves on one case prepare and solve each scenario once
    _problems: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _solutions: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_pair(self.scenario1, self.scenario2)


def _check_pair(s1: Scenario, s2: Scenario) -> None:
    """Raise HypothesisError unless the two scenarios can be compared: one
    lattice, one anticipation lag, drivers anticipating in the y-slot only."""
    if (s1.horizon, s1.n_steps, s1.intensity) != (s2.horizon, s2.n_steps, s2.intensity):
        raise HypothesisError("comparison scenarios must share the lattice")
    if s1.delta_steps != s2.delta_steps:
        raise HypothesisError("comparison scenarios must share the anticipation lag")
    for s in (s1, s2):
        extra = s.driver.base.free_vars - COMPARISON_DRIVER_VARS
        if extra:
            raise HypothesisError(
                f"comparison drivers may not use {sorted(extra)} "
                "(anticipation is restricted to the y-slot)"
            )


class HypothesisReport(NamedTuple):
    """Outcomes of the five comparison hypotheses (grid-verified)."""

    monotone: MonotoneReport
    terminal_gap: float  # min over terminal nodes of xi1 - xi2
    obstacle_gap: float  # min over all nodes of S1 - S2
    theta: ThetaReport
    dominance: DominanceReport

    @property
    def all_pass(self) -> bool:
        return not self.failed_names()

    def failed_names(self) -> list[str]:
        """The hypotheses that fail, a NaN gap included."""
        checks = (("monotone_in_anticipation", self.monotone.passed),
                  ("terminal_ordering", self.terminal_gap >= -_GRID_SLACK),
                  ("obstacle_ordering", self.obstacle_gap >= -_GRID_SLACK),
                  ("theta_condition", self.theta.passed),
                  ("driver_dominance", self.dominance.passed))
        return [name for name, passed in checks if not passed]


def _problem(case: ComparisonCase, which: int) -> _Problem:
    """Scenario ``which`` (1 or 2) of the case prepared; the first call prepares
    both on the pair's ``_lattice_for`` lattice and keeps them on the case.
    Raises SolverError as ``_prepare`` does."""
    if not case._problems:
        lat = _lattice_for(case.scenario1, case.scenario2)
        case._problems.update({1: _prepare(case.scenario1, lat), 2: _prepare(case.scenario2, lat)})
    return case._problems[which]


def check_hypotheses(case: ComparisonCase) -> HypothesisReport:
    """Grid-check the five hypotheses, the three on the drivers over one
    ``_hypothesis_sweep``; raises SolverError when a scenario's terminal or
    obstacle fails ``_prepare``'s checks on the lattice."""
    p1, p2 = _problem(case, 1), _problem(case, 2)
    lat = p1.lattice
    g1, g2 = case.scenario1.driver.base, case.scenario2.driver.base
    sweep = _hypothesis_sweep(case.grid, g1, g2)
    return HypothesisReport(
        monotone=check_monotone_in_anticipation(g2, sweep),
        terminal_gap=float(np.min(p1.xi - p2.xi)),
        obstacle_gap=float(np.min(p1.obstacle.nodes - p2.obstacle.nodes)),
        theta=check_theta_condition(g1, lambda t: lat.intensity.at_time(t, lat.dt), sweep),
        dominance=check_dominance(g1, g2, sweep),
    )


def _passing_hypotheses(case: ComparisonCase) -> HypothesisReport:
    """The case's passing report, else a fresh check that the case then keeps;
    raises HypothesisError when a hypothesis fails."""
    if case._accepted is None:
        report = check_hypotheses(case)
        if not report.all_pass:
            raise HypothesisError(
                f"comparison hypotheses failed: {', '.join(report.failed_names())}",
                report,
            )
        object.__setattr__(case, "_accepted", report)
    return case._accepted


def _solve_cases(cases: list[ComparisonCase]) -> None:
    """Solve the cases' unsolved scenarios (on one lattice) in one sweep, kept on the cases."""
    todo = [(case, which) for case in cases for which in (1, 2) if which not in case._solutions]
    for (case, which), solution in zip(todo, _solve([_problem(case, which) for case, which in todo])):
        case._solutions[which] = solution


def _solved(case: ComparisonCase, which: int) -> Solution:
    """Scenario ``which`` (1 or 2) of the case solved, once (the pair in one sweep)."""
    if which not in case._solutions:
        _solve_cases([case])
    return case._solutions[which]


def _given_solution(case: ComparisonCase, solution: Solution, problem2: _Problem) -> ComparisonCase:
    """Hand the case the solved dominating scenario and the dominated one's
    prepared problem, so that the checks and solves on the case redo neither."""
    case._problems.update({1: solution.problem, 2: problem2})
    case._solutions[1] = solution
    return case


class ComparisonVerdict(NamedTuple):
    hypotheses: HypothesisReport
    min_gap: float  # min over all nodes and steps of Y1 - Y2
    y0_gap: float
    passed: bool


@np.errstate(all="ignore")
def run_comparison(case: ComparisonCase, *, tol: float = CHECK_TOL) -> ComparisonVerdict:
    """Check the hypotheses, solve both scenarios, and compare node-wise.

    The case keeps the first passing report (a case from
    ``random_comparison_case`` already holds the one that accepted it), and
    both solutions for ``iterate_sequence``.  Raises HypothesisError when a
    hypothesis fails (the ordering is not asserted then).
    """
    report = _passing_hypotheses(case)
    sol1, sol2 = _solved(case, 1), _solved(case, 2)
    min_gap = functools.reduce(
        _min, (np.min(sol1.y.step(k) - sol2.y.step(k)) for k in range(sol1.lattice.n_steps + 1)), math.inf
    )
    return ComparisonVerdict(
        hypotheses=report,
        min_gap=min_gap,
        y0_gap=sol1.y0 - sol2.y0,
        passed=min_gap >= -tol,
    )


class IterateTrace(NamedTuple):
    """Monotone bridge from the dominating solution down to the dominated one.

    Iterate i solves the dominated scenario with its anticipated slot frozen
    at the previous element (starting from the dominating solution);
    ``sup_diffs[i]`` is the sup-node distance to that previous element.  Only
    the last iterate is kept (None when none ran).
    """

    solution1: Solution
    solution2: Solution
    last: Solution | None
    sup_diffs: tuple[float, ...]
    final_gap: float

    @property
    def count(self) -> int:
        return len(self.sup_diffs)

    @property
    def iterates(self) -> tuple[Solution | None, ...]:
        """One entry per iterate: None for each one not kept, then the last."""
        return (None,) * (self.count - 1) + (self.last,) if self.count else ()


@np.errstate(all="ignore")
def iterate_sequence(case: ComparisonCase, n_max: int) -> IterateTrace:
    """Solve the dominated scenario repeatedly with frozen anticipation.

    Each iterate freezes the anticipated slot at the previous solution, which
    must decrease node-wise (up to ``CHECK_TOL``); a violation raises
    MonotonicityError naming the node.  Stops after ``n_max`` iterates or when
    successive iterates agree within ``_ITERATES_AGREE``.  Both scenarios are solved
    once per case (``run_comparison`` on the same case shares them), and every
    iterate reuses the dominated scenario's prepared problem.
    """
    _passing_hypotheses(case)
    sol1, sol2 = _solved(case, 1), _solved(case, 2)
    lat = sol2.lattice
    sup_diffs: list[float] = []
    prev, last = sol1.y, None  # the Y the next iterate freezes ey at, and the last iterate
    for _ in range(n_max):
        last = None  # of the previous iterate only its Y, prev, lives through the next solve
        last = _solve(sol2.problem, frozen_ey=prev)
        sup = 0.0
        for k in range(lat.n_steps + 1):
            gap = prev.step(k) - last.y.step(k)
            worst = float(np.min(gap))
            if worst < -CHECK_TOL:  # the first such node by label, on the lift of a quotient
                i = int(np.argmin(lat.lift(k, gap)))
                raise MonotonicityError(
                    f"iterate increased by {-worst:.3g} at node {lat.labelled().node_at(k, i)}"
                )
            sup = _max(sup, np.max(np.abs(gap)))
        sup_diffs.append(sup)
        prev = last.y
        if sup <= _ITERATES_AGREE:
            break
    final_gap = functools.reduce(
        _max, (np.max(np.abs(prev.step(k) - sol2.y.step(k))) for k in range(lat.n_steps + 1)), 0.0
    )
    return IterateTrace(
        solution1=sol1,
        solution2=sol2,
        last=last,
        sup_diffs=tuple(sup_diffs),
        final_gap=final_gap,
    )


# -- randomized case generation ------------------------------------------------


def _coef(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


# A generated expression is built as its source text and, alongside, the tree
# that parse_driver makes of that text, so the candidate loop parses nothing.
# A term is a (text, tree) pair; a factor is the (text, tree) it multiplies.


def _literal(c: float) -> Expr:
    """The tree of repr(c): a leading minus, -0.0's included, is a Neg."""
    return Neg(Num(-c)) if math.copysign(1.0, c) < 0 else Num(c)


def _term(c: float, factor: tuple[str, Expr] | None = None) -> tuple[str, Expr]:
    """The term ``c`` or ``c*factor``."""
    if factor is None:
        return repr(c), _literal(c)
    return f"{c!r}*{factor[0]}", BinOp("*", _literal(c), factor[1])


def _signed(c: float, factor: tuple[str, Expr] | None = None) -> tuple[str, tuple[str, Expr]]:
    """``+ c*factor`` with ``+ -`` written ``- ``, as the dominated driver's text has it."""
    if math.copysign(1.0, c) < 0:
        return "-", _term(-c, factor)
    return "+", _term(c, factor)


def _sum(first: DriverExpr | tuple[str, Expr], *rest: tuple[str, tuple[str, Expr]]) -> DriverExpr:
    """``first op term op term ...``, left-associative as parse_driver reads it;
    ``first`` is a term or an expression built before."""
    if isinstance(first, DriverExpr):
        text, root, free = first.source, first.root, first.free_vars
    else:
        (text, root), free = first, _free_vars(first[1])
    for op, (term_text, term_root) in rest:
        text, root = f"{text} {op} {term_text}", BinOp(op, root, term_root)
        free |= _free_vars(term_root)
    return DriverExpr(root=root, source=text, free_vars=free)


_Y, _Z, _U, _EY, _W, _H, _T = ((name, Var(name)) for name in ("y", "z", "u", "ey", "w", "h", "t"))
_MAX_W = ("max(w, 0)", Call("max", (Var("w"), Num(0.0))))
_ABS_W = ("abs(w)", Call("abs", (Var("w"),)))


def random_comparison_case(
    rng: np.random.Generator,
    *,
    n_steps: int = 6,
    horizon: float = 1.0,
    lam: float = 0.3,
    delta_steps: int | None = None,
    max_tries: int = 400,
) -> ComparisonCase:
    """Generate a case satisfying all five hypotheses.

    The dominated data is drawn first; the dominating driver, terminal and
    obstacle add nonnegative expressions, which guarantees ordering and
    dominance by construction.  Monotonicity and the jump-slope condition are
    enforced by checker filtering (the jump coefficient is drawn wide enough
    to be rejected sometimes).  Each candidate prepares its two scenarios
    once, for the feasibility test, the checks and the solves.
    """
    delta = int(rng.integers(0, 3)) if delta_steps is None else delta_steps
    intensity = IntensitySpec.constant(lam, n_steps)
    grid = GridSpec.for_horizon(horizon, points=5, n_base=12, seed=int(rng.integers(0, 2**31)))

    def scenario(driver: DriverExpr, obstacle: DriverExpr, terminal: DriverExpr) -> Scenario:
        return Scenario(
            horizon=horizon,
            n_steps=n_steps,
            intensity=intensity,
            delta_steps=delta,
            driver=TransformedDriver(base=driver, form=DriverForm.M),
            obstacle=obstacle,
            terminal=terminal,
            scheme=Scheme.EXPLICIT,
        )

    for _ in range(max_tries):
        a = _coef(rng, -0.4, 0.4)
        b = _coef(rng, -0.4, 0.4)
        d = _coef(rng, -1.4 * lam, 0.6 * lam) if lam > 0 else 0.0
        e0 = _coef(rng, -0.3, 0.3)
        # g2 = a*y [+ c*ey] + b*z [+ d*u] + e0 [+ c2*min(ey, q)]
        g2_rest = [_signed(b, _Z), _signed(e0)]
        if lam > 0:
            g2_rest.insert(1, _signed(d, _U))
        if delta > 0:
            c = _coef(rng, 0.0, 0.35)
            g2_rest.insert(0, _signed(c, _EY))
            if rng.random() < 0.3:
                c2 = _coef(rng, 0.0, 0.3)
                q = _coef(rng, -1.0, 1.0)
                g2_rest.append(_signed(c2, (f"min(ey, {q!r})", Call("min", (Var("ey"), _literal(q))))))
        g2 = _sum(_term(a, _Y), *g2_rest)
        n0 = _coef(rng, 0.0, 0.4)
        n1 = _coef(rng, 0.0, 0.3)
        g1 = _sum(g2, ("+", _term(n0)), ("+", _term(n1, _MAX_W)))
        q0 = _coef(rng, -0.5, 0.5)
        q1 = _coef(rng, -0.5, 0.5)
        q2 = _coef(rng, -0.5, 0.5)
        xi2 = _sum(_term(q0), ("+", _term(q1, _W)), ("+", _term(q2, _H)))
        m0 = _coef(rng, 0.0, 0.5)
        m1 = _coef(rng, 0.0, 0.3)
        xi1 = _sum(xi2, ("+", _term(m0)), ("+", _term(m1, _ABS_W)))
        s0 = _coef(rng, -2.5, -0.2)
        s1c = _coef(rng, -0.3, 0.3)
        s2c = _coef(rng, 0.0, 0.4)
        obs2 = _sum(_term(s0), ("+", _term(s1c, _W)), ("-", _term(s2c, _T)))
        c_obs = _coef(rng, 0.0, m0) if m0 > 0 else 0.0
        obs1 = _sum(obs2, ("+", _term(c_obs)))

        case = ComparisonCase(scenario1=scenario(g1, obs1, xi1), scenario2=scenario(g2, obs2, xi2), grid=grid)
        # terminal feasibility on the case's lattice, for both scenarios
        try:
            if any(float(np.min(p.xi - p.obstacle.step(n_steps))) < 1e-9
                   for p in (_problem(case, which) for which in (1, 2))):
                continue
        except SolverError as exc:  # xi < S_N, which _prepare rejects
            if exc.pointer == "/steps":
                raise
            continue
        report = check_hypotheses(case)
        if report.all_pass:
            object.__setattr__(case, "_accepted", report)
            return case
    raise HypothesisError(f"no admissible case found in {max_tries} tries")


class SuiteResult(NamedTuple):
    cases: int
    min_gap: float
    failures: int
    delta_counts: tuple[int, int, int]  # cases with delta = 0, 1, 2


def run_random_suite(
    seed: int,
    n_cases: int,
    *,
    n_steps: int = 6,
    horizon: float = 1.0,
    lam: float = 0.3,
    tol: float = CHECK_TOL,
) -> SuiteResult:
    """Randomized comparison sweep; the zero-lag subcases exercise the
    non-anticipated ordering result.  Cases are drawn, then swept, in batches of
    at most _BATCH_NODES nodes (or one pair), which draw nothing from ``rng``."""
    rng = np.random.default_rng(seed)
    min_gap, failures, deltas, batch = math.inf, 0, [0, 0, 0], []
    for drawn in range(1, n_cases + 1):
        # every case is on one grid, and a batch holds its lattice (as ``case``
        # does while the next batch is drawn): only the first case builds lattices
        case = random_comparison_case(rng, n_steps=n_steps, horizon=horizon, lam=lam)
        batch.append(case)
        if drawn < n_cases and (len(batch) + 1) * 2 * _problem(case, 1).lattice._slices[-1].stop <= _BATCH_NODES:
            continue
        _solve_cases(batch)
        for case in batch:
            verdict = run_comparison(case, tol=tol)
            min_gap = _min(min_gap, verdict.min_gap)
            deltas[case.scenario1.delta_steps] += 1
            failures += not verdict.passed
        batch = []
    return SuiteResult(
        cases=n_cases,
        min_gap=min_gap,
        failures=failures,
        delta_counts=(deltas[0], deltas[1], deltas[2]),
    )
