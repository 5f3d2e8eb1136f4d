"""Shared scenario builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from rabsde import IntensitySpec
from rabsde.driver import DriverForm, GridSpec, TransformedDriver, parse_driver
from rabsde.errors import RabsdeError
from rabsde.solver import Scenario, Scheme


def make_scenario(
    *,
    horizon: float = 1.0,
    n_steps: int = 4,
    lam: float | list[float] = 0.5,
    delta_steps: int = 0,
    driver: str = "0",
    form: str = "M",
    obstacle: str = "-1e9",
    terminal: str = "w",
    scheme: str = "explicit",
    implicit_tol: float = 1e-13,
) -> Scenario:
    if isinstance(lam, (int, float)):
        intensity = IntensitySpec.constant(float(lam), n_steps)
    else:
        intensity = IntensitySpec(values=tuple(lam), lambda_max=max(lam))
    return Scenario(
        horizon=horizon,
        n_steps=n_steps,
        intensity=intensity,
        delta_steps=delta_steps,
        driver=TransformedDriver(base=parse_driver(driver), form=DriverForm(form)),
        obstacle=parse_driver(obstacle),
        terminal=parse_driver(terminal),
        scheme=Scheme(scheme),
        implicit_tol=implicit_tol,
    )


def _c(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


def random_scenario(
    rng: np.random.Generator,
    *,
    n_steps: int | None = None,
    lam: float | None = None,
    delta_steps: int | None = None,
    scheme: str = "explicit",
    form: str = "M",
    binding: bool = True,
    max_coeff: float = 0.4,
) -> Scenario:
    """Random scenario whose terminal dominates the horizon obstacle by
    construction; obstacles shadow the terminal shape so reflection binds on
    a decent fraction of draws when the driver drifts downward."""
    n = int(rng.integers(2, 11)) if n_steps is None else n_steps
    lam_v = round(float(rng.uniform(0.05, 0.8)), 3) if lam is None else lam
    delta = int(rng.integers(0, 3)) if delta_steps is None else delta_steps
    a = _c(rng, -max_coeff, max_coeff if not binding else 0.0)
    b = _c(rng, -max_coeff, max_coeff)
    d = _c(rng, -0.3 * lam_v, 0.3 * lam_v) if lam_v > 0 else 0.0
    e0 = _c(rng, -0.2, 0.2)
    terms = [f"{a!r}*y", f"{b!r}*z", f"{e0!r}"]
    if lam_v > 0:
        terms.insert(1, f"{d!r}*u")
    if delta > 0:
        terms.insert(1, f"{_c(rng, -0.2, 0.2)!r}*ey")
    driver = " + ".join(terms).replace("+ -", "- ")
    q0 = _c(rng, -0.5, 0.5)
    q1 = _c(rng, -0.6, 0.6)
    q2 = _c(rng, -0.5, 0.5)
    terminal = f"{q0!r} + {q1!r}*w + {q2!r}*h"
    if binding:
        m0 = _c(rng, 0.02, 0.25)
        m1 = _c(rng, 0.0, m0 / 1.0)
        obstacle = f"{q0 - m0!r} + {m1!r}*t + {q1!r}*w + {q2!r}*h"
    else:
        obstacle = "-1e9"
    return make_scenario(
        horizon=1.0,
        n_steps=n,
        lam=lam_v,
        delta_steps=delta,
        driver=driver,
        form=form,
        obstacle=obstacle,
        terminal=terminal,
        scheme=scheme,
    )


# -- Hypothesis strategies for the grid-check oracles ----------------------------

_GRID_VARS = ("t", "w", "h", "y", "z", "ey", "ez", "u", "tau")


def _grow(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/"]), sub).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"),
        st.tuples(sub, sub).map(lambda p: f"({p[0]} / (1 + abs({p[1]})))"),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
            lambda p: f"{p[0]}({p[1]}, {p[2]})"),
        st.tuples(st.sampled_from(["exp", "abs"]), sub).map(lambda p: f"{p[0]}({p[1]})"),
    )


def driver_texts(variables=_GRID_VARS):
    """Driver sources over ``variables`` with exp, abs, min, max, division
    (plain, so some grids hit a zero denominator, and guarded) and constants."""
    leaf = st.one_of(st.sampled_from(variables), st.sampled_from(["0", "1", "0.5", "-1.25", "3"]))
    return st.recursive(leaf, _grow, max_leaves=6)


@st.composite
def grids(draw):
    horizon = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return GridSpec.for_horizon(
        horizon,
        points=draw(st.integers(2, 7)),
        n_base=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 10_000)),
    )


_INTENSITIES = [0.0, 0.0, 0.05, 0.3, 1.2]


def step_intensities(n_steps: int):
    """One intensity per lattice step, zero steps likely (p = lambda*dt < 1 for n_steps >= 2)."""
    return st.lists(st.sampled_from(_INTENSITIES), min_size=n_steps, max_size=n_steps)


@st.composite
def lambda_profiles(draw, horizon: float = 2.0):
    """A constant intensity or a per-step profile with zero steps, as lambda(t)."""
    values = draw(st.lists(st.sampled_from(_INTENSITIES), min_size=1, max_size=5))
    if len(values) == 1:
        return values[0]
    spec = IntensitySpec(values=tuple(values), lambda_max=max(values))
    return lambda t: spec.at_time(t, horizon / len(values))


def outcome(fn, *args):
    """The call's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (RabsdeError, ArithmeticError) as exc:  # ArithmeticError: a constant 1/0
        return type(exc), str(exc)
