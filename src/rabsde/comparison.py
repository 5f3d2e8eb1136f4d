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

import math
from dataclasses import dataclass, field

import numpy as np

from .driver import DriverExpr, DriverForm, GridSpec, TransformedDriver, _grid_values, parse_driver
from .errors import DriverEvalError, HypothesisError, MonotonicityError
from .lattice import DefaultLattice, IntensitySpec, ProcessField
from .solver import (
    Scenario,
    _Anticipation,
    Scheme,
    Solution,
    _Problem,
    _prepare,
    _solve,
    obstacle_field,
    terminal_values,
)

COMPARISON_DRIVER_VARS = frozenset({"t", "w", "h", "y", "z", "ey", "u"})


@dataclass(frozen=True)
class MonotoneReport:
    """Grid outcome for nondecreasingness in the anticipated slot."""

    passed: bool
    witness: tuple[dict, float, float, float, float] | None  # env, ey, ey', g, g'


@dataclass(frozen=True)
class ThetaReport:
    """Grid outcome for the intensity-weighted one-sided slope condition."""

    passed: bool
    theta: float  # worst difference ratio over the grid
    sup_theta_lambda: float
    witness: tuple[dict, float, float, float] | None  # env, u, u', ratio


@dataclass(frozen=True)
class DominanceReport:
    passed: bool
    min_gap: float
    witness: dict | None


def check_monotone_in_anticipation(g: DriverExpr, grid: GridSpec) -> MonotoneReport:
    """Finite-difference test that g is nondecreasing in the ey slot."""
    if "ey" not in g.free_vars:
        return MonotoneReport(passed=True, witness=None)
    envs = grid.base_envs(sorted(g.free_vars - {"ey"}))
    sweep = grid.axis("ey")
    vals = _grid_values(g.compiled(), envs, "ey", sweep)
    finite = np.all(np.isfinite(vals), axis=1)
    with np.errstate(invalid="ignore"):
        bad = np.diff(vals) < -1e-12
    # rows in base-env order: a non-finite row raises unless a violation precedes it
    rows = np.nonzero(~finite | np.any(bad, axis=1))[0]
    if not rows.size:
        return MonotoneReport(passed=True, witness=None)
    r = int(rows[0])
    if not finite[r]:
        raise DriverEvalError("non-finite driver value on the monotonicity grid")
    i = int(np.argmax(bad[r]))
    return MonotoneReport(
        passed=False,
        witness=(envs[r], float(sweep[i]), float(sweep[i + 1]), float(vals[r, i]), float(vals[r, i + 1])),
    )


def check_theta_condition(
    g: DriverExpr, lam_profile, grid: GridSpec
) -> ThetaReport:
    """Worst grid ratio (g(u) - g(u')) / (lambda_t (u - u')); needs >= -1.

    Vacuously true when the driver ignores u or the intensity vanishes at
    every sampled time (the jump slot never enters the dynamics there).
    """
    lam_of_t = lam_profile if callable(lam_profile) else (lambda t: float(lam_profile))
    vacuous = ThetaReport(passed=True, theta=0.0, sup_theta_lambda=0.0, witness=None)
    if "u" not in g.free_vars:
        return vacuous
    envs = grid.base_envs(sorted(g.free_vars - {"u"} | {"t"}))
    lam = np.array([lam_of_t(env["t"]) for env in envs], dtype=float)
    kept = np.nonzero(lam > 0.0)[0]
    if not kept.size:
        return vacuous
    envs, lam = [envs[j] for j in kept], lam[kept]
    sweep = grid.axis("u")
    vals = _grid_values(g.compiled(), envs, "u", sweep)
    if not np.all(np.isfinite(vals)):
        raise DriverEvalError("non-finite driver value on the theta grid")
    ratios = np.diff(vals) / (lam[:, None] * np.diff(sweep))
    r, i = divmod(int(np.argmin(ratios)), ratios.shape[1])
    theta = float(ratios[r, i])
    passed = theta >= -1.0 - 1e-12
    return ThetaReport(
        passed=passed,
        theta=theta,
        sup_theta_lambda=float(np.max(np.max(np.abs(ratios), axis=1) * lam)),
        witness=None if passed else (envs[r], float(sweep[i]), float(sweep[i + 1]), theta),
    )


def check_dominance(g1: DriverExpr, g2: DriverExpr, grid: GridSpec) -> DominanceReport:
    """Grid test of g1 >= g2 over sweeps of every shared driver variable."""
    f1 = g1.compiled()
    f2 = g2.compiled()
    variables = sorted(g1.free_vars | g2.free_vars)
    envs = grid.base_envs(variables)
    min_gap = math.inf
    witness = None
    for var in variables or ["y"]:
        sweep = grid.axis(var) if var != "h" else np.array([0.0, 1.0])
        gap = _grid_values(f1, envs, var, sweep) - _grid_values(f2, envs, var, sweep)
        if not np.all(np.isfinite(gap)):
            raise DriverEvalError("non-finite driver value on the dominance grid")
        r, i = divmod(int(np.argmin(gap)), sweep.size)
        if float(gap[r, i]) < min_gap:
            min_gap = float(gap[r, i])
            witness = {**envs[r], var: float(sweep[i])}
    if not math.isfinite(min_gap):
        min_gap = 0.0
    passed = min_gap >= -1e-12
    return DominanceReport(passed=passed, min_gap=min_gap, witness=None if passed else witness)


@dataclass(frozen=True)
class ComparisonCase:
    """Two scenarios sharing lattice and anticipation lag, plus a check grid."""

    scenario1: Scenario
    scenario2: Scenario
    grid: GridSpec
    # (lattice, report) of the first passing check: the one that accepted a
    # generated case, else the first run_comparison or iterate_sequence
    _accepted: tuple[DefaultLattice, HypothesisReport] | None = field(
        default=None, init=False, compare=False, repr=False
    )
    # scenario 1 or 2 -> (lattice, prepared problem or None, solution), filled by
    # _solved so that the checks on one case prepare and solve each scenario once
    _solutions: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        s1, s2 = self.scenario1, self.scenario2
        if (
            s1.horizon != s2.horizon
            or s1.n_steps != s2.n_steps
            or s1.intensity != s2.intensity
        ):
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


@dataclass(frozen=True)
class HypothesisReport:
    """Outcomes of the five comparison hypotheses (grid-verified)."""

    monotone: MonotoneReport
    terminal_gap: float  # min over terminal nodes of xi1 - xi2
    obstacle_gap: float  # min over all nodes of S1 - S2
    theta: ThetaReport
    dominance: DominanceReport

    @property
    def all_pass(self) -> bool:
        return (
            self.monotone.passed
            and self.terminal_gap >= -1e-12
            and self.obstacle_gap >= -1e-12
            and self.theta.passed
            and self.dominance.passed
        )

    def failed_names(self) -> list[str]:
        out = []
        if not self.monotone.passed:
            out.append("monotone_in_anticipation")
        if self.terminal_gap < -1e-12:
            out.append("terminal_ordering")
        if self.obstacle_gap < -1e-12:
            out.append("obstacle_ordering")
        if not self.theta.passed:
            out.append("theta_condition")
        if not self.dominance.passed:
            out.append("driver_dominance")
        return out


def check_hypotheses(case: ComparisonCase, lattice: DefaultLattice | None = None) -> HypothesisReport:
    lat = lattice if lattice is not None else case.scenario1.build_lattice()
    xi1 = terminal_values(case.scenario1, lat)
    xi2 = terminal_values(case.scenario2, lat)
    s1 = obstacle_field(case.scenario1, lat)
    s2 = obstacle_field(case.scenario2, lat)
    obstacle_gap = min(
        float(np.min(s1.step(k) - s2.step(k))) for k in range(lat.n_steps + 1)
    )
    dt = lat.dt
    lam_of_t = lambda t: lat.intensity.at_time(t, dt)
    return HypothesisReport(
        monotone=check_monotone_in_anticipation(case.scenario2.driver.base, case.grid),
        terminal_gap=float(np.min(xi1 - xi2)),
        obstacle_gap=obstacle_gap,
        theta=check_theta_condition(case.scenario1.driver.base, lam_of_t, case.grid),
        dominance=check_dominance(
            case.scenario1.driver.base, case.scenario2.driver.base, case.grid
        ),
    )


def _passing_hypotheses(case: ComparisonCase, lat: DefaultLattice) -> HypothesisReport:
    """The case's passing report on this grid, else a fresh check that the
    case then keeps; raises HypothesisError when a hypothesis fails."""
    if case._accepted is not None and lat.same_grid(case._accepted[0]):
        return case._accepted[1]
    report = check_hypotheses(case, lat)
    if not report.all_pass:
        raise HypothesisError(
            f"comparison hypotheses failed: {', '.join(report.failed_names())}",
            report,
        )
    object.__setattr__(case, "_accepted", (lat, report))
    return report


def _solved(case: ComparisonCase, which: int, lat: DefaultLattice) -> tuple[_Problem | None, Solution]:
    """Scenario ``which`` (1 or 2) of the case, prepared and solved once per
    grid; the problem is None for a solution handed in by ``_given_solution``."""
    held = case._solutions.get(which)
    if held is None or not lat.same_grid(held[0]):
        prob = _prepare(case.scenario1 if which == 1 else case.scenario2, lat)
        held = case._solutions[which] = (lat, prob, _solve(prob))
    return held[1], held[2]


def _given_solution(case: ComparisonCase, solution: Solution) -> ComparisonCase:
    """Hand the case an already-solved dominating scenario, so that
    ``run_comparison`` and ``iterate_sequence`` do not solve it again."""
    case._solutions[1] = (solution.lattice, None, solution)
    return case


@dataclass(frozen=True)
class ComparisonVerdict:
    hypotheses: HypothesisReport
    min_gap: float  # min over all nodes and steps of Y1 - Y2
    y0_gap: float
    passed: bool


def run_comparison(
    case: ComparisonCase,
    *,
    lattice: DefaultLattice | None = None,
    tol: float = 1e-10,
) -> ComparisonVerdict:
    """Check the hypotheses, solve both scenarios, and compare node-wise.

    The case keeps the first passing report (a case from
    ``random_comparison_case`` already holds the one that accepted it), which
    is reused on a lattice with the same grid; the case also keeps both
    solutions for ``iterate_sequence`` on that grid.  Raises HypothesisError
    when a hypothesis fails (the ordering is not asserted then).
    """
    lat = lattice if lattice is not None else case.scenario1.build_lattice()
    report = _passing_hypotheses(case, lat)
    _, sol1 = _solved(case, 1, lat)
    _, sol2 = _solved(case, 2, lat)
    min_gap = min(
        float(np.min(sol1.y.step(k) - sol2.y.step(k))) for k in range(lat.n_steps + 1)
    )
    return ComparisonVerdict(
        hypotheses=report,
        min_gap=min_gap,
        y0_gap=sol1.y0 - sol2.y0,
        passed=min_gap >= -tol,
    )


@dataclass(frozen=True)
class IterateTrace:
    """Monotone bridge from the dominating solution down to the dominated one.

    ``iterates[i]`` solves the dominated scenario with its anticipated slot
    frozen at the previous element (starting from the dominating solution);
    ``sup_diffs[i]`` is the sup-node distance to that previous element.
    """

    solution1: Solution
    solution2: Solution
    iterates: tuple[Solution, ...]
    sup_diffs: tuple[float, ...]
    final_gap: float


def _anticipated_field(solution: Solution, delta: int) -> ProcessField:
    lat, y = solution.lattice, solution.y.values
    arrays = [None] * lat.n_steps
    window = _Anticipation(lat, delta, (y, True))
    for k in reversed(range(lat.n_steps)):
        (ey,) = window.condition(k)
        arrays[k] = y[k] if ey is None else ey
        window.insert(k)
    return ProcessField.from_arrays(lat, 0, arrays)


def iterate_sequence(
    case: ComparisonCase,
    n_max: int,
    *,
    lattice: DefaultLattice | None = None,
    tol: float = 1e-10,
    stop_tol: float = 1e-13,
) -> IterateTrace:
    """Solve the dominated scenario repeatedly with frozen anticipation.

    Each iterate freezes the anticipated slot at the previous solution, which
    must decrease node-wise (up to ``tol``); a violation raises
    MonotonicityError naming the node.  Stops after ``n_max`` iterates or when
    successive iterates agree within ``stop_tol``.  Both scenarios are solved
    once per case and grid (``run_comparison`` on the same case shares them),
    and every iterate reuses the dominated scenario's prepared problem.
    """
    lat = lattice if lattice is not None else case.scenario1.build_lattice()
    _passing_hypotheses(case, lat)
    _, sol1 = _solved(case, 1, lat)
    prob2, sol2 = _solved(case, 2, lat)
    iterates: list[Solution] = []
    sup_diffs: list[float] = []
    prev = sol1
    for _ in range(n_max):
        frozen = _anticipated_field(prev, case.scenario2.delta_steps)
        cur = _solve(prob2, frozen_ey=frozen)
        sup = 0.0
        for k in range(lat.n_steps + 1):
            gap = prev.y.step(k) - cur.y.step(k)
            worst = float(np.min(gap))
            if worst < -tol:
                i = int(np.argmin(gap))
                raise MonotonicityError(
                    f"iterate increased by {-worst:.3g} at node {lat.node_at(k, i)}"
                )
            sup = max(sup, float(np.max(np.abs(gap))))
        iterates.append(cur)
        sup_diffs.append(sup)
        prev = cur
        if sup <= stop_tol:
            break
    final_gap = max(
        float(np.max(np.abs(prev.y.step(k) - sol2.y.step(k))))
        for k in range(lat.n_steps + 1)
    )
    return IterateTrace(
        solution1=sol1,
        solution2=sol2,
        iterates=tuple(iterates),
        sup_diffs=tuple(sup_diffs),
        final_gap=final_gap,
    )


# -- randomized case generation ------------------------------------------------


def _coef(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


def random_comparison_case(
    rng: np.random.Generator,
    *,
    n_steps: int = 6,
    horizon: float = 1.0,
    lam: float = 0.3,
    delta_steps: int | None = None,
    lattice: DefaultLattice | None = None,
    max_tries: int = 400,
) -> ComparisonCase:
    """Generate a case satisfying all five hypotheses.

    The dominated data is drawn first; the dominating driver, terminal and
    obstacle add nonnegative expressions, which guarantees ordering and
    dominance by construction.  Monotonicity and the jump-slope condition are
    enforced by checker filtering (the jump coefficient is drawn wide enough
    to be rejected sometimes).
    """
    delta = int(rng.integers(0, 3)) if delta_steps is None else delta_steps
    intensity = IntensitySpec.constant(lam, n_steps)
    lat = lattice if lattice is not None else DefaultLattice(horizon, n_steps, intensity)
    grid = GridSpec.for_horizon(horizon, points=5, n_base=12, seed=int(rng.integers(0, 2**31)))
    for _ in range(max_tries):
        a = _coef(rng, -0.4, 0.4)
        b = _coef(rng, -0.4, 0.4)
        d = _coef(rng, -1.4 * lam, 0.6 * lam) if lam > 0 else 0.0
        e0 = _coef(rng, -0.3, 0.3)
        terms = [f"{a!r}*y", f"{b!r}*z", f"{e0!r}"]
        if lam > 0:
            terms.insert(2, f"{d!r}*u")
        if delta > 0:
            c = _coef(rng, 0.0, 0.35)
            terms.insert(1, f"{c!r}*ey")
            if rng.random() < 0.3:
                c2 = _coef(rng, 0.0, 0.3)
                q = _coef(rng, -1.0, 1.0)
                terms.append(f"{c2!r}*min(ey, {q!r})")
        g2_src = " + ".join(terms).replace("+ -", "- ")
        n0 = _coef(rng, 0.0, 0.4)
        n1 = _coef(rng, 0.0, 0.3)
        g1_src = f"{g2_src} + {n0!r} + {n1!r}*max(w, 0)"
        q0 = _coef(rng, -0.5, 0.5)
        q1 = _coef(rng, -0.5, 0.5)
        q2 = _coef(rng, -0.5, 0.5)
        xi2_src = f"{q0!r} + {q1!r}*w + {q2!r}*h"
        m0 = _coef(rng, 0.0, 0.5)
        m1 = _coef(rng, 0.0, 0.3)
        xi1_src = f"{xi2_src} + {m0!r} + {m1!r}*abs(w)"
        s0 = _coef(rng, -2.5, -0.2)
        s1c = _coef(rng, -0.3, 0.3)
        s2c = _coef(rng, 0.0, 0.4)
        obs2_src = f"{s0!r} + {s1c!r}*w - {s2c!r}*t"
        c_obs = _coef(rng, 0.0, m0) if m0 > 0 else 0.0
        obs1_src = f"{obs2_src} + {c_obs!r}"

        def scenario(driver_src: str, obstacle_src: str, terminal_src: str) -> Scenario:
            return Scenario(
                horizon=horizon,
                n_steps=n_steps,
                intensity=intensity,
                delta_steps=delta,
                driver=TransformedDriver(base=parse_driver(driver_src), form=DriverForm.M),
                obstacle=parse_driver(obstacle_src),
                terminal=parse_driver(terminal_src),
                scheme=Scheme.EXPLICIT,
            )

        s_dom = scenario(g1_src, obs1_src, xi1_src)
        s_sub = scenario(g2_src, obs2_src, xi2_src)
        # terminal feasibility on the actual lattice, for both scenarios
        feasible = True
        for s in (s_dom, s_sub):
            xi = terminal_values(s, lat)
            sN = obstacle_field(s, lat).step(lat.n_steps)
            if float(np.min(xi - sN)) < 1e-9:
                feasible = False
                break
        if not feasible:
            continue
        case = ComparisonCase(scenario1=s_dom, scenario2=s_sub, grid=grid)
        report = check_hypotheses(case, lat)
        if report.all_pass:
            object.__setattr__(case, "_accepted", (lat, report))
            return case
    raise HypothesisError(f"no admissible case found in {max_tries} tries")


@dataclass(frozen=True)
class SuiteResult:
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
    tol: float = 1e-10,
) -> SuiteResult:
    """Randomized comparison sweep; the zero-lag subcases exercise the
    non-anticipated ordering result."""
    rng = np.random.default_rng(seed)
    intensity = IntensitySpec.constant(lam, n_steps)
    lat = DefaultLattice(horizon, n_steps, intensity)
    min_gap = math.inf
    failures = 0
    deltas = [0, 0, 0]
    for _ in range(n_cases):
        case = random_comparison_case(
            rng, n_steps=n_steps, horizon=horizon, lam=lam, lattice=lat
        )
        verdict = run_comparison(case, lattice=lat, tol=tol)
        min_gap = min(min_gap, verdict.min_gap)
        deltas[case.scenario1.delta_steps] += 1
        if not verdict.passed:
            failures += 1
    return SuiteResult(
        cases=n_cases,
        min_gap=min_gap,
        failures=failures,
        delta_counts=(deltas[0], deltas[1], deltas[2]),
    )
