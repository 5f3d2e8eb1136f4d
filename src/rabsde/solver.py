"""Backward induction and Picard iteration for reflected anticipated BSDEs.

One-step recursion at a node of step k, with dt = T/N and the driver written
against the compensated jump martingale:

    (z, u, psi) = exact projection of Y_{k+1} onto (dW, dM, dW*dM),
    y_tilde     = E[Y_{k+1} | node] + F(t_k, y_arg, z, ey, ez, u) * dt,
    Y_k         = max(y_tilde, S_k),      dK_k = Y_k - y_tilde,

where ey = E[Y_{k+delta} | node] and ez = E[Z_{k+delta} | node], both read
from already-solved future steps (the terminal value extends Y beyond the
horizon and Z vanishes there).  The explicit scheme evaluates the driver at
y_arg = E[Y_{k+1} | node]; the implicit scheme solves the inner fixed point
y_arg = y_tilde by plain iteration from the mean, with one Aitken step
y1 + s1 / (1 - q) after the second evaluation at each node whose observed
contraction q = s1 / s0 of the iteration steps s_n has |q| < 1 (exact for a driver
affine in y: 3 evaluations a step); it ends at |y_tilde - y_arg| <= implicit_tol.
Drivers declared in dH form are rewritten on the fly by
subtracting lambda_k * (1 - h) * u.  A Picard pass and an iterate of the
comparison bridge run the same sweep with arguments read from the previous
iterate instead (see ``_solve``).  The sweep runs the driver's bare closure tree
under its one np.errstate and checks the driver values once per step for finiteness.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .driver import (
    DriverExpr,
    DriverForm,
    GridSpec,
    TransformedDriver,
    _compile,
    check_M_form_lipschitz,
    estimate_lipschitz,
)
from .errors import DriverEvalError, LatticeError, PicardConvergenceError, SolverError
from .lattice import DefaultLattice, IntensitySpec, ProcessField, oversize_message

DRIVER_VARS = frozenset({"t", "w", "h", "y", "z", "ey", "ez", "u"})
OBSTACLE_VARS = frozenset({"t", "w", "h"})
TERMINAL_VARS = frozenset({"w", "h", "tau"})

# the default tolerance of the checks a run reports
CHECK_TOL = 1e-10


class Scheme(str, Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


@dataclass(frozen=True)
class Scenario:
    """Full problem statement for one reflected anticipated BSDE."""

    horizon: float
    n_steps: int
    intensity: IntensitySpec
    delta_steps: int
    driver: TransformedDriver
    obstacle: DriverExpr
    terminal: DriverExpr
    scheme: Scheme = Scheme.EXPLICIT
    implicit_tol: float = 1e-13
    implicit_max_iter: int = 500
    oracle_params: Mapping[str, float] | None = None
    name: str = ""

    def __post_init__(self):
        if self.delta_steps < 0 or int(self.delta_steps) != self.delta_steps:
            raise SolverError(f"delta_steps must be a non-negative integer, got {self.delta_steps}")


class Solution(NamedTuple):
    """Node-indexed solution processes plus the realized driver values.

    ``dk`` holds the per-node reflection increments; cumulative K along a
    path is their running sum with K(0-) = 0 (the lattice recombines, so the
    cumulative process is pathwise, not node-indexed).  All fields cover
    steps 0..N with z = u = psi = dk = 0 at the terminal step.  The scenario,
    lattice and obstacle field are those of the prepared ``problem`` it was
    solved from, held by reference.
    """

    problem: _Problem
    y: ProcessField
    z: ProcessField
    u: ProcessField
    psi: ProcessField
    dk: ProcessField
    driver_values: ProcessField
    diagnostics: dict

    @property
    def scenario(self) -> Scenario:
        return self.problem.scenario

    @property
    def lattice(self) -> DefaultLattice:
        return self.problem.lattice

    def solves(self, scenario: Scenario) -> bool:
        """Whether ``scenario`` is the one this solution solves: its own object
        or one equal to it.  A check asked for on any other scenario does not pass."""
        return scenario is self.scenario or scenario == self.scenario

    @property
    def y0(self) -> float:
        return float(self.y.step(0)[0])

    def obstacle_field(self) -> ProcessField:
        return self.problem.obstacle

    def labelled(self) -> Solution:
        """This solution on ``lattice.labelled()``, for readers that name nodes by
        label: on a quotient every field, the obstacle and the terminal values
        are lifted step by step (exact, as the shared block's values do not
        depend on the default step); on a full lattice, the solution itself."""
        lat = self.lattice
        if not lat.quotient:
            return self
        full = lat.labelled()

        def lift(f: ProcessField) -> ProcessField:
            lifted = ProcessField.zeros(full)
            for k, a in enumerate(f.values):
                lifted.values[k][...] = lat.lift(k, a)
            return lifted

        problem = self.problem._replace(lattice=full, obstacle=lift(self.problem.obstacle),
                                        xi=lat.lift(lat.n_steps, self.problem.xi))
        return self._replace(problem=problem, y=lift(self.y), z=lift(self.z), u=lift(self.u),
                             psi=lift(self.psi), dk=lift(self.dk), driver_values=lift(self.driver_values))

    def per_step_expected_dk(self) -> tuple[float, ...]:
        lat = self.lattice
        return tuple(float(np.dot(lat.node_probabilities(k), self.dk.step(k))) for k in range(lat.n_steps + 1))

    def expected_total_k(self) -> float:
        return float(sum(self.per_step_expected_dk()))

    def max_path_total_k(self) -> float:
        """Largest cumulative K over all paths, by forward max-plus dynamic
        programming: cum_{k+1} = max over parents of cum_k, plus dK_{k+1}."""
        cum = self.dk.step(0)
        for k in range(self.lattice.n_steps):
            cum = self.lattice.push(k, cum) + self.dk.step(k + 1)
        return float(np.max(cum))

    def max_abs_psi(self) -> float:
        return functools.reduce(_max, (np.max(np.abs(a)) for a in self.psi.values), 0.0)

    def weighted_psi(self) -> float:
        """Largest L2-weighted cross-term coefficient max |psi| * ||dW dM||_L2.

        The raw coefficient converges to the inter-regime slope gap of the
        value function (an O(1) quantity); weighting by the kernel norm of
        dW*dM measures the term's actual contribution to the one-step
        martingale representation, which vanishes linearly in dt.
        """
        lat = self.lattice
        best = 0.0
        for k, (pk, _, _, stay) in enumerate(lat._coef):
            weight = math.sqrt(lat.dt * pk * stay)
            if weight == 0.0:
                continue
            best = _max(best, weight * float(np.max(np.abs(self.psi.step(k)))))
        return best


class _Problem(NamedTuple):
    scenario: Scenario
    lattice: DefaultLattice
    driver_fn: Callable
    obstacle: ProcessField
    xi: np.ndarray
    need_ey: bool
    need_ez: bool
    c_prime: float | None = None  # the load gate's estimate_c_prime, when it ran


def _check_vars(expr: DriverExpr, allowed: frozenset[str], what: str) -> None:
    extra = expr.free_vars - allowed
    if extra:
        raise SolverError(
            f"{what} expression may only use {sorted(allowed)}; found {sorted(extra)}"
        )


def obstacle_field(scenario: Scenario, lattice: DefaultLattice) -> ProcessField:
    """The obstacle per node, evaluated as is (NaN and inf included): one
    compiled call over the whole lattice's t, w and h (the lattice's per-step
    node data, step after step), whose result is the field's ``nodes``."""
    N = lattice.n_steps
    sizes = [lattice.n_nodes(k) for k in range(N + 1)]
    used = scenario.obstacle.free_vars
    env = {}
    if "t" in used:
        env["t"] = np.repeat(np.arange(N + 1) * lattice.dt, sizes)
    if "w" in used:  # written step by step: past the lattice's cache each step's w is built per call
        env["w"] = np.empty(sum(sizes))
        for k, nodes in enumerate(lattice._slices):
            env["w"][nodes] = lattice.w_values(k)
    if "h" in used:
        env["h"] = np.concatenate([lattice.h_values(k) for k in range(N + 1)])
    values = np.asarray(scenario.obstacle.compiled()(env), dtype=float)
    if values.shape != (sum(sizes),):
        values = np.broadcast_to(values, (sum(sizes),)).copy()
    return ProcessField(lattice, values)


def terminal_values(scenario: Scenario, lattice: DefaultLattice) -> np.ndarray:
    """The terminal payoff per horizon node, evaluated as is (NaN and inf included)."""
    fn = scenario.terminal.compiled()
    N = lattice.n_steps
    env = {"w": lattice.w_values(N), "h": lattice.h_values(N)}
    if "tau" in scenario.terminal.free_vars:
        env["tau"] = lattice.tau_values(N)
    return np.broadcast_to(np.asarray(fn(env), dtype=float), (lattice.n_nodes(N),)).copy()


def _node_data(scenario: Scenario, lattice: DefaultLattice) -> tuple[ProcessField, np.ndarray]:
    """The scenario's obstacle field and terminal values on the lattice, checked
    in this order: the terminal is finite, the obstacle is finite, xi >= S_N.
    The one place either is evaluated; a failure, an evaluation error included,
    raises SolverError whose pointer is ``/terminal`` or ``/obstacle``."""
    try:
        xi = terminal_values(scenario, lattice)
    except DriverEvalError as exc:
        raise SolverError(str(exc), pointer="/terminal") from None
    if not np.all(np.isfinite(xi)):
        raise SolverError("terminal payoff evaluates to a non-finite value", pointer="/terminal")
    try:
        obstacle = obstacle_field(scenario, lattice)
    except DriverEvalError as exc:
        raise SolverError(str(exc), pointer="/obstacle") from None
    if not np.isfinite(obstacle.nodes).all():
        k = next(k for k, arr in enumerate(obstacle.values) if not np.isfinite(arr).all())
        raise SolverError(f"obstacle evaluates to a non-finite value at step {k}", pointer="/obstacle")
    worst = float(np.min(xi - obstacle.step(lattice.n_steps)))
    if worst < -1e-12:
        raise SolverError(
            f"terminal payoff falls below the obstacle at the horizon (worst gap {worst:.3g}); "
            "the reflected system requires xi >= S_T",
            pointer="/terminal",
        )
    return obstacle, xi


# the live lattice of each grid: the memo holds none of them alive
_LIVE_LATTICES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _lattice_for(*scenarios: Scenario, full_size: bool = False) -> DefaultLattice:
    """The one lattice a run of these scenarios solves on, on the first one's
    grid once the size guard (pointer ``/steps``) has cleared it: the quotient
    unless a terminal reads ``tau``.  The guard counts the nodes of that
    lattice, or with ``full_size`` those of the full lattice (for output that
    writes one row per labelled node).  A lattice of the same grid and kind
    that is still alive is returned as it is; else one is built.  The memo
    keeps none alive: a caller shares one lattice across calls only while it
    holds it (``run_random_suite`` does, through the previous case)."""
    sc = scenarios[0]
    quotient = not any("tau" in s.terminal.free_vars for s in scenarios)
    too_big = oversize_message(sc.horizon, sc.n_steps, sc.intensity,
                               quotient=quotient and not full_size)
    if too_big:
        raise SolverError(too_big, pointer="/steps")
    # 0.0 == -0.0, but the dH->dM rewrite reads the lattice's intensity: the
    # key tells the two zeros apart
    key = (sc.horizon, sc.n_steps, sc.intensity, np.signbit(sc.intensity.values).tobytes(), quotient)
    lattice = _LIVE_LATTICES.get(key)
    if lattice is None:
        lattice = _LIVE_LATTICES[key] = DefaultLattice(sc.horizon, sc.n_steps, sc.intensity, quotient=quotient)
    return lattice


def _prepare(scenario: Scenario, lattice: DefaultLattice | None = None) -> _Problem:
    """The scenario checked and set up on ``lattice``, else on its own
    ``_lattice_for`` lattice."""
    lat = lattice if lattice is not None else _lattice_for(scenario)
    if (lat.horizon, lat.n_steps, lat.intensity) != (scenario.horizon, scenario.n_steps, scenario.intensity):
        raise LatticeError("lattice does not match scenario grid")
    if lat.quotient and "tau" in scenario.terminal.free_vars:
        raise LatticeError("a terminal that reads tau needs the full lattice, not a quotient")
    _check_vars(scenario.driver.base, DRIVER_VARS, "driver")
    _check_vars(scenario.obstacle, OBSTACLE_VARS, "obstacle")
    _check_vars(scenario.terminal, TERMINAL_VARS, "terminal")
    obstacle, xi = _node_data(scenario, lat)
    base = scenario.driver.base
    return _Problem(
        scenario=scenario,
        lattice=lat,
        driver_fn=_compile(base.root),
        obstacle=obstacle,
        xi=xi,
        need_ey="ey" in base.free_vars,
        need_ez="ez" in base.free_vars,
    )


def _driver_values(prob: _Problem, env: dict, jump: np.ndarray | None):
    """The driver in dM form, unchecked and maybe a scalar: the bare closure tree
    less ``jump``, the dH->dM correction lambda_k * (1 - h) * u (None for M form)."""
    vals = prob.driver_fn(env)
    return vals if jump is None else vals - jump


def _step_values(prob: _Problem, k: int, ey: np.ndarray | None, ez: np.ndarray | None,
                 frozen: tuple[np.ndarray, np.ndarray, np.ndarray] | None, out: tuple[np.ndarray, ...]) -> None:
    """Solve one backward step into ``out``, step k's (y, z, u, psi, dk, fv)
    arrays, whose first four hold the step's projection (the mean in y).  The
    driver reads (y-argument, z, u) from the projection, or from ``frozen``
    when given; ey and ez default to the y- and z-arguments."""
    lat, dt = prob.lattice, prob.lattice.dt
    y, z, u, psi, dk, fvals = out
    mean = y  # y's until y_tilde is known
    yarg, zarg, uarg = frozen if frozen is not None else (mean, z, u)
    h = lat.h_values(k)
    env = {"t": k * dt, "w": lat.w_values(k), "h": h, "z": zarg, "u": uarg,
           "ez": zarg if ez is None else ez}
    jump = lat.intensity.values[k] * (1.0 - h) * uarg if prob.scenario.driver.form is DriverForm.H else None
    # the implicit scheme iterates y -> E[Y_{k+1} | F_k] + F(y) dt (see the module docstring)
    implicit = frozen is None and prob.scenario.scheme is Scheme.IMPLICIT
    ycur = yarg
    for i in range(prob.scenario.implicit_max_iter if implicit else 1):
        env["y"] = ycur
        env["ey"] = ycur if ey is None else ey
        fv = _driver_values(prob, env, jump)
        if not implicit:
            break
        ynew = mean + fv * dt
        step = ynew - ycur
        gap = float(np.abs(step).max())
        # a non-finite fv makes the gap inf or NaN; a finite fv whose iterate overflows iterates on
        if gap <= prob.scenario.implicit_tol or not math.isfinite(gap) and not np.isfinite(fv).all():
            break
        if i == 1:  # the Aitken step, where |q| < 1; elsewhere (q NaN, inf or |q| >= 1) the plain iterate
            q = step / prev
            ynew = np.where(np.abs(q) < 1.0, ycur + step / (1.0 - q), ynew)
        prev, ycur = step, ynew
    else:
        raise SolverError(
            f"implicit inner loop did not converge at step {k} within "
            f"{prob.scenario.implicit_max_iter} iterations; "
            "dt is too large relative to the driver's Lipschitz constant"
        )
    if not np.isfinite(fv).all():
        raise SolverError(f"driver produced a non-finite value at step {k}")
    y_tilde = ynew if implicit else mean + fv * dt
    fvals[...] = fv  # before y: fv may be the mean itself (a driver "y")
    np.maximum(y_tilde, prob.obstacle.values[k], out=y)
    np.subtract(y, y_tilde, out=dk)


@np.errstate(all="ignore")  # library callers see inf and nan values, not numpy warnings
def _solve(problems: _Problem | list[_Problem], frozen_ey: ProcessField | None = None,
           frozen: _Triple | None = None) -> Solution | list[Solution]:
    """The backward sweep over a batch of problems on one lattice (a bare problem
    is a batch of one, solved to its Solution).  Each field is one (problems,
    nodes) array whose rows the solutions hold; per step, one projection and
    one anticipation per lag and field read serve the batch, while each
    problem's driver and reflection run on its own rows.  A failure is raised
    once no earlier problem can fail, as one-by-one solves would.  With
    ``frozen`` (a Picard pass) the driver reads every argument from that
    previous triple, with ``frozen_ey`` (a bridge iterate) ey from that Y, each
    for a batch of one: a frozen y-argument is Y_k (implicit) or E[Y_{k+1} | F_k]
    (explicit), and with delta = 0 ey is that y-argument."""
    batch = [problems] if isinstance(problems, _Problem) else problems
    lat = batch[0].lattice
    N, cols = lat.n_steps, lat._slices
    arrays = [np.zeros((len(batch), cols[-1].stop)) for _ in range(6)]
    arrays[0][:, cols[N]] = [p.xi for p in batch]
    fields = [[ProcessField(lat, a[i]) for a in arrays] for i in range(len(batch))]  # each problem's own rows
    rows = [list(zip(*(f.values for f in problem))) for problem in fields]  # rows[i][k]: problem i's step-k views
    # steps[k]: the batch's step-k (y, z, u, psi) views; a batch of one's own rows serve (faster than (1, n) views)
    steps = rows[0] if len(batch) == 1 else [[a[:, c] for a in arrays[:4]] for c in cols]
    past_y = frozen.y if frozen is not None else frozen_ey
    # (delta, 0) per lag delta > 0 at which a driver reads ey, (delta, 1) for ez, from the batch's or frozen Y and Z
    reads = sorted({(p.scenario.delta_steps, j) for p in batch if p.scenario.delta_steps
                    for j, read in enumerate((p.need_ey, p.need_ez)) if read})
    sources = [[s[j] for s in steps] if field is None else field.values
               for j, field in enumerate((past_y, frozen.z if frozen is not None else None))]
    live, failure = len(batch), None  # the drivers of problems [0, live) are still evaluated
    for k in range(N - 1, -1, -1):
        lat.project_martingale(k, steps[k + 1][0], steps[k][:4])
        ahead = {}
        for delta, j in reads:
            m = min(k + delta, N)
            ahead[delta, j] = lat.expectation(sources[j][m], m, k).reshape(len(batch), -1)
        for i, p in enumerate(batch[:live]):
            # ey and ez stay None for delta == 0: the y- and z-arguments double as them
            delta, fixed = p.scenario.delta_steps, None
            ey = ahead[delta, 0][i] if p.need_ey and delta else None
            ez = ahead[delta, 1][i] if p.need_ez and delta else None
            if frozen is not None or (frozen_ey is not None and delta == 0 and p.need_ey):
                implicit = p.scenario.scheme is Scheme.IMPLICIT
                yarg = past_y.values[k] if implicit else lat.step_expectation(k, past_y.values[k + 1])
                ey, fixed = (yarg, None) if frozen is None else (ey, (yarg, frozen.z.values[k], frozen.u.values[k]))
            try:
                _step_values(p, k, ey, ez, fixed, rows[i][k])
            except (SolverError, DriverEvalError) as exc:
                if not i:
                    raise
                live, failure = i, exc  # rows from i on still ride the batch's kernel calls, unread
                break
    if failure is not None:
        raise failure
    solutions = [Solution(p, *fields[i], {"scheme": p.scenario.scheme.value}) for i, p in enumerate(batch)]
    return solutions[0] if isinstance(problems, _Problem) else solutions


def _max(acc: float, value) -> float:
    """Python's max(acc, value), except that a NaN on either side propagates."""
    value = float(value)
    return value if value > acc or math.isnan(value) else acc


def _min(acc: float, value) -> float:
    """Python's min(acc, value), except that a NaN on either side propagates."""
    value = float(value)
    return value if value < acc or math.isnan(value) else acc


def solve_backward(scenario: Scenario) -> Solution:
    """Solve by backward induction; anticipated values are already available
    when each step is processed, so no outer iteration is needed."""
    return _solve(_prepare(scenario))


# -- Picard iteration ---------------------------------------------------------


@dataclass(frozen=True)
class PicardOptions:
    """Controls for the fixed-point iteration and its weighted norm."""

    rho: float = 1.0
    beta: float | None = None  # default resolved as 1 + 10 * rho * C'^2
    tol: float = 1e-12
    max_iter: int = 60

    def __post_init__(self):
        if self.rho < 1.0:
            raise SolverError(f"rho must be >= 1, got {self.rho}")
        if self.tol <= 0:
            raise SolverError("tol must be positive")


class _Triple(NamedTuple):
    y: ProcessField
    z: ProcessField
    u: ProcessField


@np.errstate(all="ignore")
def beta_norm(a, b, beta: float) -> float:
    """Squared exponentially-weighted distance between two solution triples.

    Discrete analogue of E[ integral of e^(beta t) (beta |dY|^2 + |dZ|^2
    + lambda |dU|^2) dt ] under the root law; quadratic in the difference.
    """
    return float(np.exp(_log_beta_norm(a, b, beta)))


@np.errstate(all="ignore")
def _log_beta_norm(a, b, beta: float) -> float:
    """The log of ``beta_norm``, summed in log-sum-exp form: step k adds
    beta t_k + log(dt * E[quad_k]), so that the distance, e^(log / 2), stays
    finite wherever e^(beta t) does."""
    lat = a.y.lattice
    if not (lat is b.y.lattice or lat.same_grid(b.y.lattice)):
        raise LatticeError("beta_norm requires both triples on the same lattice")
    overflow = _beta_overflow(lat, beta)
    if overflow is not None:
        raise SolverError(overflow)
    x = np.empty(lat.n_steps)
    for k in range(lat.n_steps):
        probs = lat.node_probabilities(k)
        lam = lat.intensity.values[k]
        dy = a.y.step(k) - b.y.step(k)
        dz = a.z.step(k) - b.z.step(k)
        du = a.u.step(k) - b.u.step(k)
        quad = beta * dy * dy + dz * dz + lam * du * du
        x[k] = beta * k * lat.dt + np.log(lat.dt * float(np.dot(probs, quad)))
    return float(np.logaddexp.reduce(x))


def _beta_overflow(lat: DefaultLattice, beta: float) -> str | None:
    """Why ``beta_norm``'s largest weight, e^(beta t) at t = T - dt, overflows; None if it does not."""
    try:
        math.exp(beta * (lat.n_steps - 1) * lat.dt)
    except OverflowError:
        return f"beta = {beta:.6g} overflows the Picard weight e^(beta t) at t = T - dt"
    return None


def estimate_c_prime(scenario: Scenario) -> float:
    """Grid estimate of the dM-form driver's Lipschitz constant."""
    dt = scenario.horizon / scenario.n_steps
    lam_of_t = lambda t: scenario.intensity.at_time(t, dt)
    est = estimate_lipschitz(scenario.driver.base, GridSpec.for_horizon(scenario.horizon), lam_of_t)
    if scenario.driver.form is DriverForm.H:
        return check_M_form_lipschitz(est, scenario.intensity.lambda_max).overall
    return est.overall


def solve_picard(scenario: Scenario, opts: PicardOptions | None = None) -> tuple[Solution, list[float]]:
    """Iterate the solution map with all driver arguments frozen at the
    previous triple, starting from zero processes.

    Each pass solves a reflected system whose driver is a known node field,
    so it needs no inner iteration.  The frozen y-argument mirrors the
    scenario's scheme (one-step conditional mean for the explicit scheme, the
    iterate itself for the implicit one) so the fixed point coincides with
    ``solve_backward`` on the same scenario.  Returns the final solution and
    the history of weighted distances between successive triples.
    """
    return _picard(_prepare(scenario), opts)


def _picard_beta(prob: _Problem, opts: PicardOptions) -> float:
    """Picard's beta: ``opts.beta``, else 1 + 10 * rho * C'^2 from the
    problem's C' (the load gate's, else estimated here)."""
    if opts.beta is not None:
        return opts.beta
    c_prime = prob.c_prime if prob.c_prime is not None else estimate_c_prime(prob.scenario)
    if not math.isfinite(c_prime):
        raise SolverError(
            "cannot resolve the default weight: the driver depends on u "
            "where the intensity vanishes; pass beta explicitly"
        )
    return 1.0 + 10.0 * opts.rho * c_prime**2


@np.errstate(all="ignore")  # a distance past float max is inf
def _picard(prob: _Problem, opts: PicardOptions | None) -> tuple[Solution, list[float]]:
    """``solve_picard`` on a prepared problem."""
    opts = opts if opts is not None else PicardOptions()
    beta = _picard_beta(prob, opts)
    overflow = _beta_overflow(prob.lattice, beta)
    if overflow is not None:
        raise SolverError(f"{overflow}; pass a smaller beta (--beta)")
    zero = ProcessField.zeros(prob.lattice)  # the first pass only reads its triple
    prev = _Triple(y=zero, z=zero, u=zero)
    history: list[float] = []
    for iteration in range(1, opts.max_iter + 1):
        solution = _solve(prob, frozen=prev)
        cur = _Triple(y=solution.y, z=solution.z, u=solution.u)
        # beta_norm is the quadratic form; a distance is its root, from its log (finite where it overflows)
        dist = float(np.exp(0.5 * _log_beta_norm(cur, prev, beta)))
        history.append(dist)
        if dist <= opts.tol:
            solution.diagnostics["picard_iterations"] = iteration
            solution.diagnostics["picard_beta"] = beta
            return solution, history
        if math.isnan(dist):  # no later pass can reach tol
            break
        prev = cur
        del solution  # its psi, dK and driver values go before the next pass is solved
    raise PicardConvergenceError(
        f"Picard iteration did not reach tol={opts.tol} within {len(history)} "
        f"iterations (last distance {history[-1]:.3g})",
        history,
    )


# -- solution validation ------------------------------------------------------


class ValidationReport(NamedTuple):
    """Per-condition max violations for the four solution requirements."""

    driver_square_sum: float
    equation_residual: float
    k_decrease: float
    skorokhod_product: float
    obstacle_violation: float
    # the representation part of equation_residual alone, for the report; not a check
    representation_residual: float
    # the report was asked for against a scenario the solution does not solve
    foreign_scenario: bool = False

    def checks(self) -> tuple[tuple[str, float], ...]:
        return (
            ("equation_residual", self.equation_residual),
            ("k_decrease", self.k_decrease),
            ("skorokhod_product", self.skorokhod_product),
            ("obstacle_violation", self.obstacle_violation),
        )

    @property
    def max_violation(self) -> float:
        return functools.reduce(_max, (v for _, v in self.checks()))

    def passes(self, tol: float = CHECK_TOL) -> bool:
        values = [self.driver_square_sum] + [v for _, v in self.checks()]
        return (not self.foreign_scenario and all(math.isfinite(v) for v in values)
                and self.max_violation <= tol)


# validate_solution takes the steps whose first node falls in one window of
# this many nodes (of the whole lattice's) as one chunk
_CHUNK_NODES = 1 << 14


def _edges(p: np.ndarray, off: np.ndarray, k0: int, k1: int):
    """For steps k0..k1-1's nodes: the down child's index counted from step k0's
    first node (``off[k+1] + b*(k+2) + j`` for node (k, block b, j); the up child
    is one further on), the mask and indices of the jump nodes (alive, p_k > 0),
    their p_k, and their new-default down child (in step k+1's last block)."""
    ks, n = np.arange(k0, k1), np.diff(off[k0 : k1 + 1])
    step = np.repeat(ks, n)
    g = np.arange(step.size)
    block = (g - np.repeat(off[k0:k1] - off[k0], n)) // (step + 1)
    down = g + np.repeat(n, n) + block
    jump = (block == 0) & (p[step] > 0.0)
    J = np.flatnonzero(jump)
    new = down[J] + (np.diff(off[k0 + 1 : k1 + 2]) - (ks + 2))[step[J] - k0]
    return down, jump, J, p[step[J]], new


def _representation_errors(Y, down, jump, J, pJ, new, mean, z, u, psi, s):
    """The errors of Y_{k+1} = mean + z dW + u dM + psi dW dM on a chunk's edges,
    one array at a time (``mean`` and ``z`` are overwritten): dM = -p_k on a jump
    node's alive pair and 1 - p_k on its new-default pair; where dM = 0, u and
    psi must be exactly 0 (and a NaN must not hide behind it)."""
    yield u[~jump]
    yield psi[~jump]
    zs = np.multiply(z, s, out=z)
    up, dn = mean + zs, np.subtract(mean, zs, out=mean)
    uJ, psJ, dm = u[J], psi[J] * s, 1.0 - pJ
    yield Y[new + 1] - ((up[J] + uJ * dm) + psJ * dm)
    yield Y[new] - ((dn[J] + uJ * dm) - psJ * dm)
    up[J], dn[J] = (up[J] - uJ * pJ) - psJ * pJ, (dn[J] - uJ * pJ) + psJ * pJ
    yield Y[down + 1] - up
    yield Y[down] - dn


def validate_solution(solution: Solution, scenario: Scenario) -> ValidationReport:
    """Check the four defining conditions on a solved scenario; never raises.
    ``scenario`` is the scenario the solution solves: the checks read the
    obstacle field the solution was prepared with, and the report on any
    other scenario does not pass.  One pass over chunks of consecutive steps,
    each a slice of every field's ``nodes``, independent of the slicing kernel."""
    lat, obstacle = solution.lattice, solution.obstacle_field()
    N, dt, s = lat.n_steps, lat.dt, lat.sqrt_dt
    off = np.cumsum([0, *(lat.n_nodes(k) for k in range(N + 1))])  # off[k]: step k's first node
    window = off[:-1] // _CHUNK_NODES
    cuts = [0, *(np.flatnonzero(np.diff(window)) + 1).tolist(), N + 1]
    sq = residual = representation = k_dec = skorokhod = obs_viol = 0.0
    probs = [lat.node_probabilities(k) for k in range(N)]  # up front: kept arrays amid chunk temporaries fragment the heap
    # a NaN or inf must reach the report, which passes() rejects, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1 in zip(cuts, cuts[1:]):
            ke = min(k1, N)  # steps k0 .. ke-1 have children, in steps up to ke
            n0, n1, ne = off[k0], off[k1], off[ke]  # nodes n0:n1 are steps k0 .. k1-1, n0:ne have children
            Y = solution.y.nodes[n0 : off[ke + 1]]
            y, dk = Y[: n1 - n0], solution.dk.nodes[n0:n1]
            gap = y - obstacle.nodes[n0:n1]
            obs_viol = _max(obs_viol, np.max(-gap))
            k_dec = _max(k_dec, np.max(-dk))
            skorokhod = _max(skorokhod, np.max(np.abs(dk * gap)))
            if ke == k0:
                continue
            fv = solution.driver_values.nodes[n0:ne]
            for k in range(k0, ke):
                f = solution.driver_values.step(k)
                sq += dt * float(np.dot(probs[k], f * f))
            down, jump, J, pJ, new = _edges(lat.p, off, k0, ke)
            mean = 0.5 * (Y[down + 1] + Y[down])
            mean[J] = (0.5 * (1.0 - pJ)) * (Y[down[J] + 1] + Y[down[J]]) + (0.5 * pJ) * (Y[new + 1] + Y[new])
            residual = _max(residual, np.max(np.abs(y[: ne - n0] - (mean + fv * dt + dk[: ne - n0]))))
            del gap  # each chunk temporary goes once read, to keep the pass small
            # _representation_errors overwrites z: a copy, not a view of the solution
            z, u, psi = solution.z.nodes[n0:ne].copy(), solution.u.nodes[n0:ne], solution.psi.nodes[n0:ne]
            errors = _representation_errors(Y, down, jump, J, pJ, new, mean, z, u, psi, s)
            representation = functools.reduce(_max, (np.max(np.abs(e), initial=0.0) for e in errors),
                                              representation)
    return ValidationReport(driver_square_sum=sq, equation_residual=_max(residual, representation),
                            k_decrease=k_dec, skorokhod_product=skorokhod, obstacle_violation=obs_viol,
                            representation_residual=representation,
                            foreign_scenario=not solution.solves(scenario))
