"""End-to-end acceptance suite.

One test per advertised guarantee; each prints a single pass/fail line with
the tolerance it enforces (run with ``pytest tests/test_acceptance.py -s`` to
see the lines as they stream).
"""

from __future__ import annotations

import time

import numpy as np

from bracket_oracle import bracket_checks
from conftest import make_scenario, random_scenario
from rabsde import DefaultLattice, IntensitySpec
from rabsde.comparison import iterate_sequence, random_comparison_case, run_random_suite
from rabsde.crr import american_put_scenario, crr_american_put
from rabsde.solver import (
    PicardOptions,
    estimate_c_prime,
    obstacle_field,
    solve_backward,
    solve_picard,
)
from rabsde.stopping import brute_force_value, stopping_payoff, tau_characterizations


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_martingale_structure():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 9, 16):
        for lam in (0.0, 0.3, 0.9):
            lat = DefaultLattice(1.0, n, IntensitySpec.constant(lam, n))
            worst = max(worst, bracket_checks(lat).max_violation)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (martingale structure)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max violation {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_conditional_expectation_identity():
    worst = 0.0
    for lam, n in ((0.4, 5), (0.0, 4), ([0.2, 0.0, 0.6], 3)):
        for terminal in ("w", "h", "w*(1-h)"):
            sc = make_scenario(n_steps=n, lam=lam, driver="0", form="M", terminal=terminal)
            sol = solve_backward(sc)
            lat = sol.lattice
            xi = sol.y.step(n)
            for k in range(n + 1):
                gap = np.max(np.abs(sol.y.step(k) - lat.pullback(xi, n, k)))
                worst = max(worst, float(gap))
    _report(
        "criterion 2 (zero driver reproduces conditional expectation)",
        worst <= 1e-12,
        f"max gap {worst:.2e} (tol 1e-12)",
    )


def test_criterion_03_h_form_m_form_equivalence():
    rng = np.random.default_rng(301)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        lam = round(float(rng.uniform(0.05, 0.8)), 3)
        coef = lambda lo, hi: round(float(rng.uniform(lo, hi)), 3)
        f_src = (
            f"{coef(-0.3, 0.3)!r}*y + {coef(-0.3, 0.3)!r}*z + "
            f"{coef(-0.3, 0.3)!r}*u + {coef(-0.2, 0.2)!r}*ey + {coef(-0.2, 0.2)!r}"
        )
        common = dict(
            n_steps=n,
            lam=lam,
            delta_steps=int(rng.integers(0, 3)),
            obstacle="w - 0.6 + 0.3*t",
            terminal="w + 0.5*h + 1.5",
        )
        a = solve_backward(make_scenario(driver=f_src, form="H", **common))
        b = solve_backward(
            make_scenario(driver=f"{f_src} - {lam!r}*(1-h)*u", form="M", **common)
        )
        for k in range(n + 1):
            for fa, fb in ((a.y, b.y), (a.z, b.z), (a.dk, b.dk), (a.u, b.u)):
                worst = max(worst, float(np.max(np.abs(fa.step(k) - fb.step(k)))))
    _report(
        "criterion 3 (dH-form and dM-form solves agree)",
        worst <= 1e-12,
        f"max field gap {worst:.2e} over 50 scenarios (tol 1e-12)",
    )


def _scenario_pool(seed: int, count: int):
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(count):
        if i % 2 == 0:
            pool.append(random_scenario(rng, n_steps=3, lam=round(float(rng.uniform(0.2, 0.8)), 3)))
        else:
            pool.append(random_scenario(rng, n_steps=5, lam=0.0))
    return pool


def test_criterion_04_reflection_skorokhod():
    rng = np.random.default_rng(401)
    worst_y = worst_dk = worst_prod = 0.0
    binding = 0
    scenarios = [random_scenario(rng) for _ in range(30)]
    scenarios.append(american_put_scenario(1.0, 1.0, 0.04, 1.0, 1.0, 8))
    for sc in scenarios:
        sol = solve_backward(sc)
        obstacle = obstacle_field(sc, sol.lattice)
        for k in range(sol.lattice.n_steps + 1):
            y, s, dk = sol.y.step(k), obstacle.step(k), sol.dk.step(k)
            worst_y = max(worst_y, float(np.max(s - y)))
            worst_dk = max(worst_dk, float(np.max(-dk)))
            worst_prod = max(worst_prod, float(np.max(np.abs(dk * (y - s)))))
        binding += sol.expected_total_k() > 0
    ok = worst_y <= 1e-12 and worst_dk <= 0.0 and worst_prod <= 1e-12 and binding >= 8
    _report(
        "criterion 4 (reflection and minimality of K)",
        ok,
        f"Y>=S viol {worst_y:.2e}, dK>=0 viol {worst_dk:.2e}, "
        f"dK(Y-S) {worst_prod:.2e} (tol 1e-12), {binding}/31 scenarios bind",
    )


def test_criterion_05_classical_limit_crr_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16):
        sc = american_put_scenario(1.0, 1.0, 0.04, 1.0, 1.0, n)
        sol = solve_backward(sc)
        price = crr_american_put(1.0, 1.0, 0.04, 1.0, 1.0, n)
        worst = max(worst, abs(sol.y0 - price))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5 (zero-intensity put matches the independent binomial pricer)",
        worst <= 1e-10 and elapsed < 1.0,
        f"max gap {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_06_brute_force_snell():
    t0 = time.perf_counter()
    pool = _scenario_pool(601, 100)
    worst = 0.0
    for sc in pool:
        sol = solve_backward(sc)
        value, _rule = brute_force_value(sol, sc, sol.lattice.root())
        worst = max(worst, abs(value - sol.y0))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6 (enumerated stopping rules never beat the solved value)",
        worst <= 1e-10 and elapsed < 60.0,
        f"max |brute force - Y0| {worst:.2e} over 100 scenarios (tol 1e-10), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_07_tau_rule_equivalence():
    pool = _scenario_pool(701, 60)
    worst_pay = 0.0
    mismatches = 0
    for sc in pool:
        sol = solve_backward(sc)
        y_rule, k_rule, same = tau_characterizations(sol, sc)
        mismatches += not same
        for rule in (y_rule, k_rule):
            pay = stopping_payoff(rule, sol, sc, sol.lattice.root())
            worst_pay = max(worst_pay, abs(pay - sol.y0))
    _report(
        "criterion 7 (first-touch and first-K-increase rules coincide and are optimal)",
        mismatches == 0 and worst_pay <= 1e-10,
        f"{mismatches} rule mismatches, max payoff gap {worst_pay:.2e} (tol 1e-10)",
    )


def test_criterion_08_picard_contraction():
    rng = np.random.default_rng(801)
    worst_gap = 0.0
    worst_ratio = 0.0
    checked = 0
    for _ in range(20):
        lam = round(float(rng.uniform(0.1, 0.6)), 3)
        coef = lambda lo, hi: round(float(rng.uniform(lo, hi)), 3)
        driver = (
            f"{coef(-0.4, 0.4)!r}*y + {coef(-0.3, 0.3)!r}*z + "
            f"{coef(0.0, 0.3)!r}*ey + {coef(-0.3 * lam, 0.3 * lam)!r}*u"
        )
        sc = make_scenario(
            n_steps=8,
            lam=lam,
            delta_steps=int(rng.integers(0, 3)),
            driver=driver,
            form="M",
            obstacle="w - 0.8 + 0.2*t",
            terminal="w + 0.5*h + 1.0",
            scheme="implicit",
        )
        assert estimate_c_prime(sc) * sc.horizon / sc.n_steps <= 0.25
        sol, history = solve_picard(sc, PicardOptions(tol=1e-12))
        direct = solve_backward(sc)
        gap = max(
            float(np.max(np.abs(sol.y.step(k) - direct.y.step(k))))
            for k in range(sc.n_steps + 1)
        )
        worst_gap = max(worst_gap, gap)
        ratios = [
            history[i + 1] / history[i]
            for i in range(2, len(history) - 1)
            if history[i] > 1e-15
        ]
        if ratios:
            checked += 1
            worst_ratio = max(worst_ratio, max(ratios))
    _report(
        "criterion 8 (fixed-point iteration contracts and matches backward induction)",
        worst_gap <= 1e-10 and worst_ratio < 1.0 and checked >= 15,
        f"max fixed-point gap {worst_gap:.2e} (tol 1e-10), "
        f"worst late ratio {worst_ratio:.3f} (< 1) on {checked}/20 scenarios",
    )


def test_criterion_09_comparison_sweep():
    t0 = time.perf_counter()
    result = run_random_suite(0, 1000)
    elapsed = time.perf_counter() - t0
    ok = (
        result.failures == 0
        and result.min_gap >= -1e-10
        and result.delta_counts[0] > 0
        and elapsed < 120.0
    )
    _report(
        "criterion 9 (node-wise ordering under the grid-verified hypotheses)",
        ok,
        f"{result.cases} cases, min gap {result.min_gap:.2e} (tol -1e-10), "
        f"0-lag subcases {result.delta_counts[0]}, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_10_monotone_iterate_bridge():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        case = random_comparison_case(rng, delta_steps=int(rng.integers(1, 3)))
        trace = iterate_sequence(case, 40)  # raises if monotonicity ever fails
        worst = max(worst, trace.final_gap)
    _report(
        "criterion 10 (frozen-anticipation iterates decrease to the direct solution)",
        worst <= 1e-8,
        f"max limit gap {worst:.2e} over 50 cases (tol 1e-8)",
    )


def test_criterion_11_cross_term_decay():
    def family(n):
        return make_scenario(
            n_steps=n,
            lam=0.6,
            delta_steps=n // 4,
            driver="0.2*y - 0.3*u + 0.1*ey",
            form="M",
            obstacle="w*(1-h) + 0.5*h + 0.3 + 0.25*t",
            terminal="w*(1-h) + 0.5*h + 0.6",
        )

    weighted = []
    raw = []
    for n in (4, 8, 16, 32):
        sol = solve_backward(family(n))
        weighted.append(sol.weighted_psi())
        raw.append(sol.max_abs_psi())
    ratios = [b / a for a, b in zip(weighted, weighted[1:])]
    _report(
        "criterion 11 (cross-term contribution halves as the grid refines)",
        all(r <= 0.6 for r in ratios),
        f"weighted-psi ratios {[f'{r:.3f}' for r in ratios]} (<= 0.6); "
        f"raw coefficients {[f'{v:.3f}' for v in raw]} stay O(1) as expected",
    )
