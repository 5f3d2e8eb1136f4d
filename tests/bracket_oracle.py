"""The lattice's martingale structure checked edge by edge: the test oracle of
the block kernel, kept independent of it.  Criterion 01 of the acceptance
suite and the lattice tests read it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rabsde.lattice import DefaultLattice, ProcessField


def compensator_values(lattice: DefaultLattice, k: int) -> np.ndarray:
    """Integrated intensity up to step k ^ default step, per node: a prefix sum
    of lambda * dt."""
    hazard = np.concatenate([[0.0], np.cumsum(lattice.p)])
    codes = lattice.default_step_codes(k)
    return hazard[np.where(codes > 0, codes, k)]


def martingale_M(lattice: DefaultLattice) -> ProcessField:
    """Compensated default indicator M_k = H_k - accumulated hazard up to k ^ d."""
    arrays = [lattice.h_values(k) - compensator_values(lattice, k) for k in range(lattice.n_steps + 1)]
    return ProcessField(lattice, np.concatenate(arrays))


@dataclass(frozen=True)
class BracketReport:
    """Exact-martingale diagnostics; every entry is a max absolute violation."""

    dw_mean: float
    dm_mean: float
    bracket_vs_h: float
    compensator_gap: float

    @property
    def max_violation(self) -> float:
        return max(self.dw_mean, self.dm_mean, self.bracket_vs_h, self.compensator_gap)


def bracket_checks(lattice: DefaultLattice) -> BracketReport:
    """Verify [M] = H pathwise and that the hazard exactly compensates H.

    Checks, for every node: E[dW | node] = 0 and E[dM | node] = 0; for every
    positive-probability edge: (dH)^2 equals the jump of H (so [M] telescopes
    to H along every path); and for every step: E[H_k - <M>_k] = 0 under the
    root law.
    """
    m_field = martingale_M(lattice)
    dw_mean = 0.0
    dm_mean = 0.0
    comp_gap = 0.0
    bracket = 0.0
    for k in range(lattice.n_steps):
        w_next = lattice.w_values(k + 1)
        ew = lattice.step_expectation(k, w_next) - lattice.w_values(k)
        dw_mean = max(dw_mean, float(np.max(np.abs(ew))))
        em = lattice.step_expectation(k, m_field.step(k + 1)) - m_field.step(k)
        dm_mean = max(dm_mean, float(np.max(np.abs(em))))
        h_k = lattice.h_values(k)
        for i in range(lattice.n_nodes(k)):
            node = lattice.node_at(k, i)
            for child, _prob, _dw, dh in lattice.children(node):
                jump = lattice.h_values(k + 1)[lattice.index(child)] - h_k[i]
                bracket = max(bracket, abs(dh * dh - jump))
    for k in range(lattice.n_steps + 1):
        probs = lattice.node_probabilities(k)
        gap = float(np.dot(probs, lattice.h_values(k) - compensator_values(lattice, k)))
        comp_gap = max(comp_gap, abs(gap))
    return BracketReport(
        dw_mean=dw_mean,
        dm_mean=dm_mean,
        bracket_vs_h=bracket,
        compensator_gap=comp_gap,
    )
