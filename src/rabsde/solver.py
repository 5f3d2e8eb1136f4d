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
y_arg = y_tilde.  Drivers declared in dH form are rewritten on the fly by
subtracting lambda_k * (1 - h) * u.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .driver import (
    DriverExpr,
    DriverForm,
    GridSpec,
    TransformedDriver,
    check_M_form_lipschitz,
    estimate_lipschitz,
)
from .errors import LatticeError, PicardConvergenceError, SolverError
from .lattice import (
    DefaultLattice,
    IntensitySpec,
    ProcessField,
    build_lattice,
    oversize_message,
)

DRIVER_VARS = frozenset({"t", "w", "h", "y", "z", "ey", "ez", "u"})
OBSTACLE_VARS = frozenset({"t", "w", "h"})
TERMINAL_VARS = frozenset({"w", "h", "tau"})


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

    @property
    def delta(self) -> float:
        return self.delta_steps * self.horizon / self.n_steps

    def build_lattice(self) -> DefaultLattice:
        return build_lattice(self.horizon, self.n_steps, self.intensity)


@dataclass(frozen=True)
class Solution:
    """Node-indexed solution processes plus the realized driver values.

    ``dk`` holds the per-node reflection increments; cumulative K along a
    path is their running sum with K(0-) = 0 (the lattice recombines, so the
    cumulative process is pathwise, not node-indexed).  All fields cover
    steps 0..N with z = u = psi = dk = 0 at the terminal step.
    """

    scenario: Scenario
    lattice: DefaultLattice
    y: ProcessField
    z: ProcessField
    u: ProcessField
    psi: ProcessField
    dk: ProcessField
    driver_values: ProcessField
    diagnostics: dict

    @property
    def y0(self) -> float:
        return float(self.y.step(0)[0])

    def obstacle_field(self) -> ProcessField:
        return obstacle_field(self.scenario, self.lattice)

    def per_step_expected_dk(self) -> tuple[float, ...]:
        out = []
        for k in range(self.lattice.n_steps + 1):
            probs = self.lattice.node_probabilities(k)
            out.append(float(np.dot(probs, self.dk.step(k))))
        return tuple(out)

    def expected_total_k(self) -> float:
        return float(sum(self.per_step_expected_dk()))

    def max_path_total_k(self) -> float:
        """Largest cumulative K over all paths, by forward max-plus dynamic
        programming: cum_{k+1} = max over parents of cum_k, plus dK_{k+1}."""
        cum = self.dk.step(0)
        for k in range(self.lattice.n_steps):
            cum = self.lattice.push(k, cum, combine="max") + self.dk.step(k + 1)
        return float(np.max(cum))

    def max_abs_psi(self) -> float:
        return max(float(np.max(np.abs(self.psi.step(k)))) for k in self.psi.step_range)

    def weighted_psi(self) -> float:
        """Largest L2-weighted cross-term coefficient max |psi| * ||dW dM||_L2.

        The raw coefficient converges to the inter-regime slope gap of the
        value function (an O(1) quantity); weighting by the kernel norm of
        dW*dM measures the term's actual contribution to the one-step
        martingale representation, which vanishes linearly in dt.
        """
        lat = self.lattice
        best = 0.0
        for k in range(lat.n_steps):
            pk = lat.p[k]
            weight = math.sqrt(lat.dt * pk * (1.0 - pk))
            if weight == 0.0:
                continue
            best = max(best, weight * float(np.max(np.abs(self.psi.step(k)))))
        return best


@dataclass(frozen=True)
class _Problem:
    scenario: Scenario
    lattice: DefaultLattice
    driver_fn: Callable
    obstacle: list[np.ndarray]
    xi: np.ndarray
    need_ey: bool
    need_ez: bool


def _check_vars(expr: DriverExpr, allowed: frozenset[str], what: str) -> None:
    extra = expr.free_vars - allowed
    if extra:
        raise SolverError(
            f"{what} expression may only use {sorted(allowed)}; found {sorted(extra)}"
        )


def obstacle_field(scenario: Scenario, lattice: DefaultLattice) -> ProcessField:
    fn = scenario.obstacle.compiled()
    arrays = []
    for k in range(lattice.n_steps + 1):
        env = {"t": k * lattice.dt, "w": lattice.w_values(k), "h": lattice.h_values(k)}
        arrays.append(np.broadcast_to(np.asarray(fn(env), dtype=float), (lattice.n_nodes(k),)).copy())
    return ProcessField.from_arrays(lattice, 0, arrays)


def _finite_obstacle(field: ProcessField) -> ProcessField:
    for k, arr in enumerate(field.values):
        if not np.all(np.isfinite(arr)):
            raise SolverError(f"obstacle evaluates to a non-finite value at step {k}")
    return field


def finite_obstacle_field(scenario: Scenario, lattice: DefaultLattice) -> ProcessField:
    """The obstacle field; raises SolverError if any node value is NaN or infinite."""
    return _finite_obstacle(obstacle_field(scenario, lattice))


def _finite_terminal(xi: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(xi)):
        raise SolverError("terminal payoff evaluates to a non-finite value")
    return xi


def terminal_values(scenario: Scenario, lattice: DefaultLattice) -> np.ndarray:
    """The terminal payoff per horizon node; raises SolverError if any is NaN or infinite."""
    fn = scenario.terminal.compiled()
    N = lattice.n_steps
    env = {"w": lattice.w_values(N), "h": lattice.h_values(N), "tau": lattice.tau_values(N)}
    return _finite_terminal(np.broadcast_to(np.asarray(fn(env), dtype=float), (lattice.n_nodes(N),)).copy())


def _prepare(
    scenario: Scenario,
    lattice: DefaultLattice,
    fields: tuple[ProcessField, np.ndarray] | None = None,
) -> _Problem:
    """The scenario checked and set up on the lattice.  ``fields`` holds the
    (obstacle field, terminal values) already evaluated on this grid, if the
    caller has them; they pass the same finiteness and xi >= S_N checks."""
    if lattice.horizon != scenario.horizon or lattice.n_steps != scenario.n_steps:
        raise LatticeError("lattice does not match scenario grid")
    _check_vars(scenario.driver.base, DRIVER_VARS, "driver")
    _check_vars(scenario.obstacle, OBSTACLE_VARS, "obstacle")
    _check_vars(scenario.terminal, TERMINAL_VARS, "terminal")
    too_big = oversize_message(lattice.horizon, lattice.n_steps, lattice.intensity)
    if too_big:
        raise SolverError(too_big)
    if fields is None:
        obstacle, xi = finite_obstacle_field(scenario, lattice), terminal_values(scenario, lattice)
    else:
        obstacle, xi = _finite_obstacle(fields[0]), _finite_terminal(fields[1])
    gap = xi - obstacle.step(lattice.n_steps)
    if np.min(gap) < -1e-12:
        raise SolverError(
            f"terminal payoff falls below the obstacle at the horizon "
            f"(worst gap {np.min(gap):.3g}); the reflected system requires xi >= S_T"
        )
    base = scenario.driver.base
    return _Problem(
        scenario=scenario,
        lattice=lattice,
        driver_fn=base.compiled(),
        obstacle=[obstacle.step(k) for k in range(lattice.n_steps + 1)],
        xi=xi,
        need_ey=base.uses("ey"),
        need_ez=base.uses("ez"),
    )


def _driver_values(
    prob: _Problem,
    k: int,
    env: dict,
    u: np.ndarray,
    h: np.ndarray,
) -> np.ndarray:
    vals = np.asarray(prob.driver_fn(env), dtype=float)
    if prob.scenario.driver.form is DriverForm.H:
        lam = prob.lattice.intensity.values[k]
        vals = vals - lam * (1.0 - h) * u
    vals = np.broadcast_to(vals, u.shape)
    if not np.all(np.isfinite(vals)):
        raise SolverError(f"driver produced a non-finite value at step {k}")
    return vals


def _step_values(
    prob: _Problem,
    k: int,
    y_next: np.ndarray,
    ey: np.ndarray | None,
    ez: np.ndarray | None,
    frozen_driver: np.ndarray | None = None,
):
    """Solve one backward step; returns (y, z, u, psi, dk, y_tilde, fv)."""
    lat = prob.lattice
    dt = lat.dt
    mean, z, u, psi = lat.project_martingale(k, y_next)
    if frozen_driver is not None:
        fv = frozen_driver
    else:
        env = {
            "t": k * dt,
            "w": lat.w_values(k),
            "h": lat.h_values(k),
            "z": z,
            "u": u,
        }
        h = env["h"]
        if prob.scenario.scheme is Scheme.EXPLICIT:
            env["y"] = mean
            env["ey"] = ey if ey is not None else mean
            env["ez"] = ez if ez is not None else z
            fv = _driver_values(prob, k, env, u, h)
        else:
            ycur = mean
            fv = None
            for _ in range(prob.scenario.implicit_max_iter):
                env["y"] = ycur
                env["ey"] = ey if ey is not None else ycur
                env["ez"] = ez if ez is not None else z
                fv = _driver_values(prob, k, env, u, h)
                ynew = mean + fv * dt
                if float(np.max(np.abs(ynew - ycur))) <= prob.scenario.implicit_tol:
                    ycur = ynew
                    break
                ycur = ynew
            else:
                raise SolverError(
                    f"implicit inner loop did not converge at step {k} within "
                    f"{prob.scenario.implicit_max_iter} iterations; "
                    "dt is too large relative to the driver's Lipschitz constant"
                )
    y_tilde = mean + fv * dt
    s = prob.obstacle[k]
    y = np.maximum(y_tilde, s)
    dk = y - y_tilde
    return y, z, u, psi, dk, y_tilde, fv


class _Anticipation:
    """Anticipated values E[X_{min(k+delta, N)} | F_k] of node fields X, one
    stacked kernel call per step going backward.

    Before step k the window holds E[X_m | F_{k+1}] for m = k+1 .. min(k+delta, N);
    ``condition(k)`` conditions it on step k and returns its last row per source
    (None for a source that is off, or for delta = 0).  ``insert(k)`` then puts
    the step-k fields in front and drops the row that step k-1 no longer reads.
    Sources are (per-step arrays, on) pairs; the window starts at the horizon.
    After ``condition(k)``, ``rows[s, 0]`` is E[X_{k+1} | F_k] of the s-th source on.
    """

    def __init__(self, lat: DefaultLattice, delta: int, *sources):
        self.lat, self.delta = lat, delta
        self.on = [bool(on) and delta > 0 for _, on in sources]
        self.sources = [arrays for (arrays, _), on in zip(sources, self.on) if on]
        self.rows = self._fields(lat.n_steps) if self.sources else None

    def _fields(self, m: int) -> np.ndarray:
        return np.stack([arrays[m] for arrays in self.sources])[:, None, :]

    def condition(self, k: int) -> list:
        if not self.sources:
            return [None] * len(self.on)
        self.rows = self.lat.step_expectation(k, self.rows)
        last = iter(self.rows[:, -1].copy())  # a kept view would pin the whole window
        return [next(last) if on else None for on in self.on]

    def insert(self, k: int) -> None:
        if self.sources:
            keep = min(self.delta, self.lat.n_steps - k + 1) - 1
            self.rows = np.concatenate([self._fields(k), self.rows[:, :keep]], axis=1)


def _solve(
    prob: _Problem,
    frozen_ey: ProcessField | None = None,
    frozen_driver: Sequence[np.ndarray] | None = None,
) -> Solution:
    lat = prob.lattice
    N = lat.n_steps
    delta = prob.scenario.delta_steps
    y: list[np.ndarray] = [None] * (N + 1)  # type: ignore[list-item]
    z: list[np.ndarray] = [None] * (N + 1)  # type: ignore[list-item]
    u: list[np.ndarray] = [None] * (N + 1)  # type: ignore[list-item]
    psi: list[np.ndarray] = [None] * (N + 1)  # type: ignore[list-item]
    dk: list[np.ndarray] = [None] * (N + 1)  # type: ignore[list-item]
    fvals: list[np.ndarray] = [None] * (N + 1)  # type: ignore[list-item]
    nN = lat.n_nodes(N)
    y[N] = prob.xi.copy()
    for arr in (z, u, psi, dk, fvals):
        arr[N] = np.zeros(nN)
    # ey and ez stay None for delta == 0 (the y- and z-arguments double as them)
    # and under a frozen driver, which reads neither
    live = frozen_driver is None
    window = _Anticipation(lat, delta, (y, live and prob.need_ey and frozen_ey is None),
                           (z, live and prob.need_ez))
    for k in range(N - 1, -1, -1):
        ey, ez = window.condition(k)
        if frozen_ey is not None:
            ey = frozen_ey.step(k)
        fd = frozen_driver[k] if frozen_driver is not None else None
        y[k], z[k], u[k], psi[k], dk[k], _, fvals[k] = _step_values(
            prob, k, y[k + 1], ey, ez, frozen_driver=fd
        )
        window.insert(k)
    diagnostics = {"scheme": prob.scenario.scheme.value}
    return Solution(
        scenario=prob.scenario,
        lattice=lat,
        y=ProcessField.from_arrays(lat, 0, y),
        z=ProcessField.from_arrays(lat, 0, z),
        u=ProcessField.from_arrays(lat, 0, u),
        psi=ProcessField.from_arrays(lat, 0, psi),
        dk=ProcessField.from_arrays(lat, 0, dk),
        driver_values=ProcessField.from_arrays(lat, 0, fvals),
        diagnostics=diagnostics,
    )


def _max(acc: float, value) -> float:
    """Python's max(acc, value), except that a NaN on either side propagates."""
    value = float(value)
    return value if value > acc or math.isnan(value) else acc


def _representation_residual(sol: Solution, k: int, mean: np.ndarray) -> float:
    """Max error of Y_{k+1} = mean + z dW + u dM + psi dW dM over the reachable
    edges out of step k, including |u| and |psi| where dM = 0; ``mean`` is
    E[Y_{k+1} | step k].  Runs inside validate_solution's np.errstate."""
    lat, y_next = sol.lattice, sol.y.step(k + 1)
    z, u, psi = sol.z.step(k), sol.u.step(k), sol.psi.step(k)
    V = y_next.reshape(1 + len(lat.default_steps(k + 1)), k + 2)
    s = lat.sqrt_dt
    p = lat.p[k]
    width = k + 1
    best = 0.0
    za, ua, pa, ma = z[:width], u[:width], psi[:width], mean[:width]
    alive = V[0]
    if p > 0.0:
        dm_alive, dm_def = -p, 1.0 - p
        dnew = V[-1]
        for sign in (1.0, -1.0):
            actual = alive[1:] if sign > 0 else alive[:-1]
            pred = ma + sign * za * s + ua * dm_alive + pa * sign * s * dm_alive
            best = _max(best, np.max(np.abs(actual - pred)))
            actual = dnew[1:] if sign > 0 else dnew[:-1]
            pred = ma + sign * za * s + ua * dm_def + pa * sign * s * dm_def
            best = _max(best, np.max(np.abs(actual - pred)))
    else:
        for sign in (1.0, -1.0):
            actual = alive[1:] if sign > 0 else alive[:-1]
            pred = ma + sign * za * s
            best = _max(best, np.max(np.abs(actual - pred)))
    n_def = len(lat.default_steps(k))
    if n_def:
        B = V[1 : n_def + 1]
        zb = z[width:].reshape(n_def, width)
        mb = mean[width:].reshape(n_def, width)
        for sign in (1.0, -1.0):
            actual = B[:, 1:] if sign > 0 else B[:, :-1]
            pred = mb + sign * zb * s
            best = _max(best, np.max(np.abs(actual - pred)))
    # u and psi multiply dM, which vanishes after default and on zero-intensity
    # steps; there they must be exactly 0 (and a NaN must not hide behind dM = 0)
    start = width if p > 0.0 else 0
    best = _max(best, np.max(np.abs(u[start:]), initial=0.0))
    best = _max(best, np.max(np.abs(psi[start:]), initial=0.0))
    return best


def solve_backward(
    scenario: Scenario,
    *,
    lattice: DefaultLattice | None = None,
    frozen_ey: ProcessField | None = None,
) -> Solution:
    """Solve by backward induction; anticipated values are already available
    when each step is processed, so no outer iteration is needed.

    ``frozen_ey`` replaces the anticipated y-argument with a precomputed
    node field (used by the monotone iterate bridge in the comparison
    harness).
    """
    lat = lattice if lattice is not None else scenario.build_lattice()
    prob = _prepare(scenario, lat)
    return _solve(prob, frozen_ey=frozen_ey)


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


@dataclass(frozen=True)
class _Triple:
    y: ProcessField
    z: ProcessField
    u: ProcessField


def beta_norm(a, b, beta: float) -> float:
    """Squared exponentially-weighted distance between two solution triples.

    Discrete analogue of E[ integral of e^(beta t) (beta |dY|^2 + |dZ|^2
    + lambda |dU|^2) dt ] under the root law; quadratic in the difference.
    """
    lat = a.y.lattice
    if not (lat is b.y.lattice or lat.same_grid(b.y.lattice)):
        raise LatticeError("beta_norm requires both triples on the same lattice")
    total = 0.0
    for k in range(lat.n_steps):
        probs = lat.node_probabilities(k)
        lam = lat.intensity.values[k]
        dy = a.y.step(k) - b.y.step(k)
        dz = a.z.step(k) - b.z.step(k)
        du = a.u.step(k) - b.u.step(k)
        quad = beta * dy * dy + dz * dz + lam * du * du
        total += math.exp(beta * k * lat.dt) * lat.dt * float(np.dot(probs, quad))
    return total


def estimate_c_prime(scenario: Scenario, grid: GridSpec | None = None) -> float:
    """Grid estimate of the dM-form driver's Lipschitz constant."""
    if grid is None:
        grid = GridSpec.for_horizon(scenario.horizon)
    dt = scenario.horizon / scenario.n_steps
    lam_of_t = lambda t: scenario.intensity.at_time(t, dt)
    est = estimate_lipschitz(scenario.driver.base, grid, lam_of_t)
    if scenario.driver.form is DriverForm.H:
        return check_M_form_lipschitz(est, scenario.intensity.lambda_max).overall
    return est.overall


def _frozen_driver_arrays(prob: _Problem, triple: _Triple) -> list[np.ndarray]:
    lat = prob.lattice
    delta = prob.scenario.delta_steps
    scheme = prob.scenario.scheme
    N = lat.n_steps
    out = [None] * N
    y_arrays, z_arrays = triple.y.values, triple.z.values
    window = _Anticipation(lat, delta, (y_arrays, prob.need_ey), (z_arrays, prob.need_ez))
    for k in range(N - 1, -1, -1):
        ey, ez = window.condition(k)
        if scheme is Scheme.IMPLICIT:
            yarg = y_arrays[k]
        elif ey is not None:  # the window holds Y: its first row is E[Y_{k+1} | F_k]
            yarg = window.rows[0, 0].copy()
        else:
            yarg = lat.step_expectation(k, y_arrays[k + 1])
        zarg = z_arrays[k]
        uarg = triple.u.step(k)
        window.insert(k)
        env = {
            "t": k * lat.dt,
            "w": lat.w_values(k),
            "h": lat.h_values(k),
            "y": yarg,
            "z": zarg,
            "ey": yarg if ey is None else ey,
            "ez": zarg if ez is None else ez,
            "u": uarg,
        }
        out[k] = _driver_values(prob, k, env, uarg, env["h"])
    return out


def solve_picard(
    scenario: Scenario,
    opts: PicardOptions | None = None,
    *,
    lattice: DefaultLattice | None = None,
) -> tuple[Solution, list[float]]:
    """Iterate the solution map with all driver arguments frozen at the
    previous triple, starting from zero processes.

    Each pass solves a reflected system whose driver is a known node field,
    so it needs no inner iteration.  The frozen y-argument mirrors the
    scenario's scheme (one-step conditional mean for the explicit scheme, the
    iterate itself for the implicit one) so the fixed point coincides with
    ``solve_backward`` on the same scenario.  Returns the final solution and
    the history of squared weighted distances between successive triples.
    """
    opts = opts if opts is not None else PicardOptions()
    lat = lattice if lattice is not None else scenario.build_lattice()
    prob = _prepare(scenario, lat)
    if opts.beta is not None:
        beta = opts.beta
    else:
        c_prime = estimate_c_prime(scenario)
        if not math.isfinite(c_prime):
            raise SolverError(
                "cannot resolve the default weight: the driver depends on u "
                "where the intensity vanishes; pass beta explicitly"
            )
        beta = 1.0 + 10.0 * opts.rho * c_prime**2
    prev = _Triple(
        y=ProcessField.zeros(lat),
        z=ProcessField.zeros(lat),
        u=ProcessField.zeros(lat),
    )
    history: list[float] = []
    for iteration in range(1, opts.max_iter + 1):
        frozen = _frozen_driver_arrays(prob, prev)
        solution = _solve(prob, frozen_driver=frozen)
        cur = _Triple(y=solution.y, z=solution.z, u=solution.u)
        # beta_norm is the quadratic form; distances are its square root
        dist = math.sqrt(beta_norm(cur, prev, beta))
        history.append(dist)
        if dist <= opts.tol:
            solution.diagnostics["picard_iterations"] = iteration
            solution.diagnostics["picard_beta"] = beta
            solution.diagnostics["picard_distances"] = tuple(history)
            return solution, history
        prev = cur
    raise PicardConvergenceError(
        f"Picard iteration did not reach tol={opts.tol} within {opts.max_iter} "
        f"iterations (last distance {history[-1]:.3g})",
        history,
    )


# -- solution validation ------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Per-condition max violations for the four solution requirements."""

    driver_square_sum: float
    equation_residual: float
    k_decrease: float
    skorokhod_product: float
    obstacle_violation: float
    # the representation part of equation_residual alone, for the report; not a check
    representation_residual: float

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

    def passes(self, tol: float = 1e-10) -> bool:
        values = [self.driver_square_sum] + [v for _, v in self.checks()]
        return all(math.isfinite(v) for v in values) and self.max_violation <= tol


def validate_solution(solution: Solution, scenario: Scenario) -> ValidationReport:
    """Check the four defining conditions on a solved scenario; never raises."""
    lat = solution.lattice
    N = lat.n_steps
    obstacle = obstacle_field(scenario, lat)
    sq = 0.0
    residual = 0.0
    representation = 0.0
    k_dec = 0.0
    skorokhod = 0.0
    obs_viol = 0.0
    # a NaN or inf in the solution must reach the report, where passes() rejects
    # it, without a floating-point warning on the way (here and in the residual)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N + 1):
            yk = solution.y.step(k)
            sk = obstacle.step(k)
            dkk = solution.dk.step(k)
            probs = lat.node_probabilities(k)
            obs_viol = _max(obs_viol, np.max(sk - yk))
            k_dec = _max(k_dec, np.max(-dkk))
            skorokhod = _max(skorokhod, np.max(np.abs(dkk * (yk - sk))))
            if k < N:
                fv = solution.driver_values.step(k)
                sq += lat.dt * float(np.dot(probs, fv * fv))
                mean = lat.step_expectation(k, solution.y.step(k + 1))
                eq = yk - (mean + fv * lat.dt + dkk)
                residual = _max(residual, np.max(np.abs(eq)))
                representation = _max(representation, _representation_residual(solution, k, mean))
                residual = _max(residual, representation)
    return ValidationReport(
        driver_square_sum=sq,
        equation_residual=residual,
        k_decrease=_max(k_dec, 0.0),
        skorokhod_product=skorokhod,
        obstacle_violation=_max(obs_viol, 0.0),
        representation_residual=representation,
    )
