"""Discrete filtered lattice: binomial Brownian grid crossed with a single default jump.

The state at step k is (up_count, default_step).  W moves by +/-sqrt(dt) each
step and keeps moving after default.  Default is absorbing and carries the
step d at which it happened, so terminal payoffs may depend on the default
time.  A pre-default node branches four ways (diffusion x jump) with the jump
probability p_k = lambda_k * dt, which makes the compensated jump process
M = H - sum(lambda_i * dt, i < k ^ d) an exact martingale under the kernel:
E[dW | node] = 0, E[dM | node] = 0, and dW, dM, dW*dM are mutually orthogonal.

Steps with lambda_k = 0 grow no default branch, so a zero-intensity lattice
degenerates to the plain binomial tree.  With all intensities positive the
node count at step k is (k+1)^2: k+1 alive nodes plus k blocks of k+1
defaulted nodes, one block per possible default step.

A quotient lattice stores at most one default block per step, shared by every
reachable default step: 2(k+1) nodes at step k.  It is exact for fields that
do not depend on the default time, which is every field of a scenario whose
terminal does not read ``tau`` (the driver and the obstacle cannot).  Its
nodes keep their labels: a label maps onto the block that stores it, and
``lift`` repeats the shared block once per default step it stands for.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import LatticeError

# Sentinel default_step value of a node that has not defaulted.
ALIVE = None

# Nodes of w a lattice keeps built (0.5 MB); the steps past them build w per call
_W_CACHE_NODES = 1 << 16

# _BINOMIAL[n] holds the n-step walk's weights C(n, i) / 2^n, i = 0..n
_BINOMIAL = [np.ones(1)]


def _halve(w: np.ndarray) -> np.ndarray:
    """The (n+1)-step binomial weights from the n-step ones by one halving (2^n
    overflows a float past n = 1023)."""
    return 0.5 * np.concatenate((w[:1], w[1:] + w[:-1], w[-1:]))


def _binomial(n: int) -> np.ndarray:
    """The n-step binomial weights, kept in _BINOMIAL."""
    while len(_BINOMIAL) <= n:
        _BINOMIAL.append(_halve(_BINOMIAL[-1]))
    return _BINOMIAL[n]


@dataclass(frozen=True)
class IntensitySpec:
    """Piecewise-constant default intensity, one value per time step."""

    values: tuple[float, ...]
    lambda_max: float

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not math.isfinite(self.lambda_max):
            raise LatticeError(f"lambda_max must be finite, got {self.lambda_max}")
        if self.lambda_max < 0:
            raise LatticeError(f"lambda_max must be >= 0, got {self.lambda_max}")
        for i, v in enumerate(self.values):
            if math.isnan(v):  # an inf exceeds the finite lambda_max below
                raise LatticeError(f"intensity value at step {i} is not a number: {v}")
            if v < 0:
                raise LatticeError(f"intensity value at step {i} is negative: {v}")
            if v > self.lambda_max:
                raise LatticeError(
                    f"intensity value at step {i} exceeds lambda_max: {v} > {self.lambda_max}"
                )

    @classmethod
    def constant(cls, lam: float, n_steps: int) -> "IntensitySpec":
        return cls(values=tuple([float(lam)] * n_steps), lambda_max=float(lam))

    def at_time(self, t: float, dt: float) -> float:
        """Intensity in force at calendar time t (right-open step convention)."""
        k = min(int(t / dt), len(self.values) - 1) if self.values else 0
        k = max(k, 0)
        return self.values[k] if self.values else 0.0


class NodeId(NamedTuple):
    """Lattice coordinates: time step, number of up-moves, default step (or ALIVE)."""

    step: int
    up_count: int
    default_step: int | None = ALIVE

    @property
    def is_alive(self) -> bool:
        return self.default_step is ALIVE

    def __str__(self) -> str:
        d = "ALIVE" if self.is_alive else f"d={self.default_step}"
        return f"(k={self.step}, j={self.up_count}, {d})"


class DefaultLattice:
    """Immutable lattice with exact transition kernel and conditional expectations.

    Node arrays at step k are laid out in blocks of width k+1 (indexed by the
    up-count j): block 0 holds alive nodes, block m >= 1 holds the nodes that
    defaulted at step ``default_steps(k)[m-1]``.  Because default steps are
    appended in increasing order, block m at step k feeds block m at step k+1,
    which lets every kernel operation run as array slicing.  With ``quotient``
    the lattice stores one block 1 for all of ``default_steps(k)``; the kernel
    is the same slicing, and the methods that name the node of a stored index
    (``node_at``, ``default_step_codes``, ``tau_values``) raise LatticeError,
    since that node is not unique.
    """

    def __init__(self, horizon: float, n_steps: int, intensity: IntensitySpec,
                 *, quotient: bool = False):
        if not 0 < horizon < math.inf:
            raise LatticeError(f"horizon must be positive and finite, got {horizon}")
        if n_steps <= 0:
            raise LatticeError(f"n_steps must be a positive integer, got {n_steps}")
        if len(intensity.values) != n_steps:
            raise LatticeError(
                f"intensity has {len(intensity.values)} values, lattice has {n_steps} steps"
            )
        self.horizon = float(horizon)
        self.n_steps = int(n_steps)
        self.intensity = intensity
        self.dt = self.horizon / self.n_steps
        self.sqrt_dt = float(np.sqrt(self.dt))
        # one pass over the steps: the labels, the default steps d <= k that are
        # actually reachable (p_{d-1} > 0), are the first _n_labels[k] entries of
        # _defaults
        p, defaults, self._n_labels = [], [], [0]
        for k, lam in enumerate(intensity.values):
            pk = lam * self.dt
            if pk >= 1.0:
                raise LatticeError(
                    f"default probability p_{k} = {pk:.6g} >= 1; "
                    "intensity too large for this step size"
                )
            p.append(pk)
            if pk > 0.0:
                defaults.append(k + 1)
            self._n_labels.append(len(defaults))
        self.p = np.array(p)
        self._defaults = tuple(defaults)
        self._label_pos = {d: m for m, d in enumerate(self._defaults, start=1)}
        # the storage: _def_blocks[k] default blocks follow the alive block at step k
        self.quotient = bool(quotient)
        self._def_blocks = [min(n, 1) if self.quotient else n for n in self._n_labels]
        # per-step constants: node counts, slices of a whole-lattice field, p_k's coefficients
        self._n_nodes = [(k + 1) * (1 + b) for k, b in enumerate(self._def_blocks)]
        ends = np.cumsum(self._n_nodes).tolist()
        self._slices = [slice(end - n, end) for end, n in zip(ends, self._n_nodes)]
        self._coef = [(pk, 0.5 * (1.0 - pk), 0.5 * pk, 1.0 - pk) for pk in p]
        self._full: DefaultLattice | None = None
        self._probs: list[np.ndarray] | None = None
        # W's values on the walk, -N..N steps of sqrt(dt): step k's row is every other one
        self._walk = np.arange(-self.n_steps, self.n_steps + 1) * self.sqrt_dt
        self._w, self._w_room, self._h = [None] * (self.n_steps + 1), _W_CACHE_NODES, None

    # -- structure -----------------------------------------------------------

    def default_steps(self, k: int) -> tuple[int, ...]:
        """The reachable default steps d <= k: the labels of step k's default nodes."""
        self._check_step(k)
        return self._defaults[: self._n_labels[k]]

    def n_nodes(self, k: int) -> int:
        """Stored nodes at step k."""
        self._check_step(k)
        return self._n_nodes[k]

    def labelled(self) -> "DefaultLattice":
        """The lattice with one block per label: this one, or for a quotient the
        full lattice on the same grid (built once)."""
        if not self.quotient:
            return self
        if self._full is None:
            self._full = DefaultLattice(self.horizon, self.n_steps, self.intensity)
        return self._full

    def lift(self, k: int, values: np.ndarray) -> np.ndarray:
        """A step-k field on ``labelled()``: each stored block repeated once per
        default step it stands for (any dtype; a full lattice returns it as is)."""
        values = np.asarray(values)
        if not self.quotient:
            return values
        V = self._blocks(k, values)
        return np.repeat(V, (1,) + (self._n_labels[k],) * self._def_blocks[k], axis=0).reshape(-1)

    def _labels_only(self, what: str) -> None:
        if self.quotient:
            raise LatticeError(
                f"{what} names the node of a stored index; a quotient lattice's shared "
                "default block has no single default step (use labelled())"
            )

    def _check_step(self, k: int) -> None:
        if not 0 <= k <= self.n_steps:
            raise LatticeError(f"step {k} outside [0, {self.n_steps}]")

    def index(self, node: NodeId) -> int:
        k = node.step
        self._check_step(k)
        if not 0 <= node.up_count <= k:
            raise LatticeError(f"node not in lattice: {node}")
        if node.is_alive:
            return node.up_count
        m = self._label_pos.get(node.default_step)
        if m is None or m > self._n_labels[k]:
            raise LatticeError(f"node not in lattice: {node}")
        return min(m, self._def_blocks[k]) * (k + 1) + node.up_count

    def node_at(self, k: int, idx: int) -> NodeId:
        self._labels_only("node_at")
        if not 0 <= idx < self.n_nodes(k):
            raise LatticeError(f"node index {idx} out of range at step {k}")
        m, j = divmod(idx, k + 1)
        d = ALIVE if m == 0 else self._defaults[m - 1]
        return NodeId(step=k, up_count=j, default_step=d)

    def root(self) -> NodeId:
        return NodeId(step=0, up_count=0, default_step=ALIVE)

    def same_grid(self, other: "DefaultLattice") -> bool:
        return (
            self.horizon == other.horizon
            and self.n_steps == other.n_steps
            and self.intensity == other.intensity
            and self.quotient == other.quotient
        )

    # -- per-step node data ----------------------------------------------------

    def w_values(self, k: int) -> np.ndarray:
        """W per stored node at step k, read-only; built on first use and kept
        while the lattice holds at most _W_CACHE_NODES of them."""
        w = self._w[k]
        if w is None:
            N = self.n_steps
            w = np.empty((1 + self._def_blocks[k], k + 1))
            w[...] = self._walk[N - k : N + k + 1 : 2]  # (2j - k) * sqrt(dt), once per block
            w = w.reshape(-1)
            w.flags.writeable = False
            if w.size <= self._w_room:
                self._w_room -= w.size
                self._w[k] = w
        return w

    def h_values(self, k: int) -> np.ndarray:
        """H per stored node at step k (0 alive, 1 defaulted), read-only: a window
        of one buffer, N+1 zeros and then ones, built on first use."""
        N = self.n_steps
        if self._h is None:
            self._h = np.repeat([0.0, 1.0], [N + 1, self._n_nodes[N] - N - 1])
            self._h.flags.writeable = False
        return self._h[N - k : N - k + self.n_nodes(k)]

    def default_step_codes(self, k: int) -> np.ndarray:
        """Default step per node as an integer, 0 for alive nodes."""
        self._labels_only("default_step_codes")
        return np.repeat(np.array((0,) + self.default_steps(k)), k + 1)

    def tau_values(self, k: int) -> np.ndarray:
        """Default time capped at the horizon (tau ^ T), per node."""
        self._labels_only("tau_values")
        codes = self.default_step_codes(k)
        tau = np.where(codes > 0, codes * self.dt, self.horizon)
        return tau.astype(float)

    # -- kernel ----------------------------------------------------------------

    def children(self, node: NodeId) -> list[tuple[NodeId, float, float, float]]:
        """Outgoing edges as (child, probability, dW, dH); zero-probability edges omitted."""
        k = node.step
        if k >= self.n_steps:
            raise LatticeError(f"terminal node has no children: {node}")
        self.index(node)
        s = self.sqrt_dt
        out: list[tuple[NodeId, float, float, float]] = []
        if node.is_alive:
            p = self.p[k]
            for dj, dw in ((1, s), (0, -s)):
                out.append(
                    (NodeId(k + 1, node.up_count + dj, ALIVE), (1.0 - p) / 2.0, dw, 0.0)
                )
            if p > 0.0:
                for dj, dw in ((1, s), (0, -s)):
                    out.append(
                        (NodeId(k + 1, node.up_count + dj, k + 1), p / 2.0, dw, 1.0)
                    )
        else:
            for dj, dw in ((1, s), (0, -s)):
                out.append(
                    (NodeId(k + 1, node.up_count + dj, node.default_step), 0.5, dw, 0.0)
                )
        return out

    def _blocks(self, k: int, values: np.ndarray, stacked: bool = False) -> np.ndarray:
        """A step-k field as (blocks, k+1); ``stacked``, any stack (..., n) as (..., blocks, k+1)."""
        self._check_step(k)
        n = self._n_nodes[k]
        lead = values.shape[:-1] if stacked else ()
        if values.shape != lead + (n,):
            raise LatticeError(
                f"field has {values.shape} values, step {k} has {n} nodes"
            )
        return values.reshape(lead + (1 + self._def_blocks[k], k + 1))

    def step_expectation(self, k: int, values_next: np.ndarray) -> np.ndarray:
        """One-step conditional expectation: E[field at k+1 | node at k]."""
        return self.project_martingale(k, values_next)[0]

    def project_martingale(self, k: int, values_next: np.ndarray, out: tuple | None = None):
        """Exact orthogonal decomposition of a step-(k+1) field seen from step k.

        Returns (mean, z, u, psi), written into the four step-k arrays ``out``
        when given, such that on every reachable child value = mean + z*dW +
        u*dM + psi*dW*dM.  Post-default nodes and zero-intensity steps carry u = psi = 0.
        A stack of fields (..., n) is decomposed field by field, each as its own call would.
        """
        self._check_step(k)
        V = self._blocks(k + 1, np.asarray(values_next, dtype=float), stacked=True)
        p, alive, new, stay = self._coef[k]
        lead, n_def, width = V.shape[:-2], self._def_blocks[k], k + 1
        mean, z, u, psi = out if out is not None else (np.empty(lead + (self._n_nodes[k],)) for _ in range(4))
        # per block: up child + down child, and the slope between them; row 0
        # is the alive block, row -1 the block defaulting at step k+1
        hi, lo = V[..., 1:], V[..., :-1]
        sums, slopes = hi + lo, (hi - lo) / (2.0 * self.sqrt_dt)
        alive_sum, alive_slope = sums[..., 0, :], slopes[..., 0, :]
        u[...] = psi[...] = 0.0
        if p > 0.0:
            new_sum, new_slope = sums[..., -1, :], slopes[..., -1, :]
            mean[..., :width] = alive * alive_sum + new * new_sum
            z[..., :width] = stay * alive_slope + p * new_slope
            u[..., :width] = 0.5 * (new_sum - alive_sum)
            psi[..., :width] = new_slope - alive_slope
        else:
            mean[..., :width] = 0.5 * alive_sum
            z[..., :width] = alive_slope
        if n_def:
            mean[..., width:] = (0.5 * sums[..., 1 : n_def + 1, :]).reshape(lead + (-1,))
            z[..., width:] = slopes[..., 1 : n_def + 1, :].reshape(lead + (-1,))
        return mean, z, u, psi

    def pullback(self, values: np.ndarray, from_step: int, to_step: int) -> np.ndarray:
        """m-step tower expectation: E[field at from_step | node at to_step]."""
        if to_step > from_step:
            raise LatticeError(
                f"cannot condition step-{from_step} data on later step {to_step}"
            )
        out = np.asarray(values, dtype=float)
        for k in range(from_step - 1, to_step - 1, -1):
            out = self.step_expectation(k, out)
        return out

    def expectation(self, values: np.ndarray, from_step: int, to_step: int) -> np.ndarray:
        """E[field at from_step | node at to_step] in closed form (``pullback``
        takes the tower).  The walk moves independently of the default clock, so
        each block gets its own n-step binomial average B (n = from_step -
        to_step), and an alive node S * B(alive) + sum_d q_d * B(block of d): S is
        the survival over steps to_step .. from_step-1, q_d the probability of
        defaulting first at label d in (to_step, from_step].  A stack of fields
        (..., n) is taken field by field, each as its own call would."""
        m, k = from_step, to_step
        if k > m:
            raise LatticeError(f"cannot condition step-{m} data on later step {k}")
        self._check_step(k)
        V = self._blocks(m, np.ascontiguousarray(values, dtype=float), stacked=True)
        # windows[..., b, j, i] = V[..., b, j + i]: the values node j reaches, read in place
        windows = np.ndarray(V.shape[:-1] + (k + 1, m - k + 1), buffer=V,
                             strides=V.strides[:-1] + (V.itemsize, V.itemsize))
        B = np.dot(windows, _binomial(m - k))  # one BLAS dot per node
        S, q = 1.0, []
        for pk in self.p[k:m].tolist():
            if pk > 0.0:  # a reachable label: the first default comes in this step
                q.append(S * pk)
            S *= 1.0 - pk
        # one block per label in (k, m], so that both lattice kinds sum alike: on
        # a quotient every label clips to the shared block, repeated
        labels = np.arange(self._n_labels[k] + 1, self._n_labels[m] + 1)
        # matmul mixes a stack's fields bit for bit as 1-D calls do (np.dot and einsum round differently)
        B[..., 0, :] = S * B[..., 0, :] + np.matmul(q, B.take(labels, axis=-2, mode="clip"))
        return B[..., : 1 + self._def_blocks[k], :].reshape(B.shape[:-2] + (-1,))

    def push(self, k: int, values: np.ndarray) -> np.ndarray:
        """Carry a step-k field onto its children, max-plus: per child, the
        largest parent value, in three slice groups: alive -> alive, alive ->
        new default block (p_k > 0), block m -> block m.  On a quotient the new
        block and block 1 are one shared block."""
        self._check_step(k + 1)
        V = self._blocks(k, np.asarray(values, dtype=float))
        out = np.full((1 + self._def_blocks[k + 1], k + 2), -np.inf)

        def spread(dst: np.ndarray, src: np.ndarray) -> None:
            # up-move lands on j+1, down-move on j
            np.maximum(dst[..., 1:], src, out=dst[..., 1:])
            np.maximum(dst[..., :-1], src, out=dst[..., :-1])

        spread(out[0], V[0])
        spread(out[1 : V.shape[0]], V[1:])
        if self.p[k] > 0.0:
            spread(out[-1], V[0])
        return out.reshape(-1)

    def node_probabilities(self, k: int) -> np.ndarray:
        """Law of the step-k node under the root measure, every step's built on
        first use: as the walk moves independently of the default clock, a block
        is its mass times the k-step binomial row, the survival S_k alive,
        S_{d-1} * p_{d-1} for label d, and their sum for a quotient's shared block."""
        self._check_step(k)
        if self._probs is None:
            self._probs, row, S, first, shared = [np.ones(1)], np.ones(1), 1.0, [], 0.0
            for pk in self.p.tolist():
                if pk > 0.0:  # a reachable label: the mass of its block
                    first.append(S * pk)
                    shared += S * pk
                S, row = S * (1.0 - pk), _halve(row)
                masses = [S, shared] if self.quotient and first else [S, *first]
                self._probs.append(np.multiply.outer(masses, row).reshape(-1))
        return self._probs[k]

    # -- paths -----------------------------------------------------------------

    def n_paths(self) -> int:
        # 2^N diffusion choices per default profile: never-default plus one
        # profile per reachable default step.
        return (1 + len(self._defaults)) * 2**self.n_steps

    def iter_paths(self) -> Iterator["LatticePath"]:
        """Enumerate all positive-probability paths from the root."""
        n = self.n_steps
        for d in (0,) + self._defaults:
            for moves in range(2**n):
                ups = [(moves >> i) & 1 for i in range(n)]
                idx = [0]
                dw = np.empty(n)
                dh = np.zeros(n)
                prob = 1.0
                j = 0
                for k in range(n):
                    j += ups[k]
                    dw[k] = (2 * ups[k] - 1) * self.sqrt_dt
                    p = self.p[k]
                    if d == 0 or k + 1 < d:  # stays alive through k+1
                        prob *= (1.0 - p) / 2.0 if p > 0.0 else 0.5
                        dstep = ALIVE
                    elif k + 1 == d:
                        dh[k] = 1.0
                        prob *= p / 2.0
                        dstep = d
                    else:
                        prob *= 0.5
                        dstep = d
                    idx.append(self.index(NodeId(k + 1, j, dstep)))
                yield LatticePath(indices=tuple(idx), dw=dw, dh=dh, probability=prob)


class LatticePath(NamedTuple):
    """A single root-to-horizon trajectory: node indices per step plus increments."""

    indices: tuple[int, ...]
    dw: np.ndarray
    dh: np.ndarray
    probability: float


@dataclass(frozen=True)
class ProcessField:
    """Node-indexed real process over steps 0..N.  ``nodes`` holds every node's
    value, step after step; ``values`` is the tuple of its per-step views,
    derived from ``nodes`` and never passed in."""

    lattice: DefaultLattice
    nodes: np.ndarray
    values: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slices = self.lattice._slices
        if self.nodes.shape != (slices[-1].stop,):
            raise LatticeError(f"field has shape {self.nodes.shape}, lattice has {slices[-1].stop} nodes")
        object.__setattr__(self, "values", tuple(self.nodes[s] for s in slices))

    @classmethod
    def zeros(cls, lattice: DefaultLattice) -> "ProcessField":
        return cls(lattice, np.zeros(lattice._slices[-1].stop))

    def step(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.lattice.n_steps:
            raise LatticeError(f"field does not cover step {k}")
        return self.values[k]


def oversize_message(
    horizon: float, n_steps: int, intensity: IntensitySpec | None = None, *, quotient: bool = False
) -> str | None:
    """Why the node fields would not fit in physical memory, or None.  Step k
    holds k+1 nodes per block: one alive, one per reachable default step (on a
    quotient, one shared block once a default step is reachable).  Without an
    intensity it counts the alive blocks alone, (N+1)(N+2)/2 nodes in closed
    form: a floor for every lattice on N steps, for a caller to check before it
    builds any per-step list."""
    n = int(n_steps)
    nodes = (n + 1) * (n + 2) // 2
    if intensity is not None:
        dt, defaults = float(horizon) / n, 0
        for k, lam in enumerate(intensity.values, start=1):
            defaults += lam * dt > 0.0
            nodes += (k + 1) * (min(defaults, 1) if quotient else defaults)
    estimate = nodes * 7 * 8  # float64 y, z, u, psi, dk, driver values and obstacle
    if estimate > sys.float_info.max:  # too large for the figures below
        return "N too large, more nodes than a float can count"
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    # a solve and its validation peak at 1.3-1.5x the seven fields (the kernel's
    # temporaries, the binomial weights, the node law): keep them to half
    if 2 * estimate <= physical:
        return None
    return (
        f"N too large, estimated {estimate / 1e9:.3g} GB for {nodes} nodes "
        f"(more than half the physical memory of {physical / 1e9:.3g} GB)"
    )
