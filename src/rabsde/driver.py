"""Driver expression language: parsing, evaluation, and Lipschitz estimation.

Grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | atom ;
    atom    = NUMBER | IDENT | IDENT "(" expr { "," expr } ")" | "(" expr ")" ;
    NUMBER  = decimal literal, optionally with exponent (1, 0.5, .25, 1e-9) ;
    IDENT   = one of the fixed variable names or a function name ;

Variables: t, w, h, y, z, ey, ez, u, tau.  Functions: exp(x), abs(x),
min(a, b), max(a, b).  Unary minus binds tighter than * and /, which bind
tighter than + and -; binary operators associate to the left.  Nesting and
tree depth are capped at MAX_DEPTH.

One engine evaluates: a closure tree, compiled once per node, that takes floats
or NumPy arrays with NumPy's semantics.  min and max propagate NaN, exp overflows
to inf, and division by zero gives IEEE inf or NaN unless both operands are Python
floats, which raises DriverEvalError, as does an unbound variable.  ``compiled()``
runs it without floating-point warnings; the backward sweep runs the bare tree
under its one np.errstate and checks finiteness once per step.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DriverEvalError, DriverParseError

VARIABLES = frozenset({"t", "w", "h", "y", "z", "ey", "ez", "u", "tau"})
FUNCTIONS: dict[str, int] = {"exp": 1, "abs": 1, "min": 2, "max": 2}

# Driver slots that carry Lipschitz constants, in reporting order.
LIPSCHITZ_SLOTS = ("y", "z", "ey", "ez", "u")

# Deepest parenthesis, call or unary-minus nesting, and deepest syntax tree, that
# parse_driver accepts; the parser, the compiler and the compiled closures all
# recurse, so deeper input would exhaust the interpreter's stack.
MAX_DEPTH = 100


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]


_NP_FUNCS: dict[str, Callable[..., Any]] = {
    "exp": np.exp,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}


def _free_vars(node: Expr) -> frozenset[str]:
    if isinstance(node, Var):
        return frozenset({node.name})
    if isinstance(node, Neg):
        return _free_vars(node.operand)
    if isinstance(node, BinOp):
        return _free_vars(node.left) | _free_vars(node.right)
    if isinstance(node, Call):
        out: frozenset[str] = frozenset()
        for a in node.args:
            out |= _free_vars(a)
        return out
    return frozenset()


def _compile(node: Expr) -> Callable[[Mapping[str, Any]], Any]:
    """The closure of ``node``, built once and kept on the node, so that trees
    that share a subtree (a dominating expression built on the dominated one)
    compile it once."""
    if "_fn" not in node.__dict__:
        object.__setattr__(node, "_fn", _closure(node))
    return node.__dict__["_fn"]


def _closure(node: Expr) -> Callable[[Mapping[str, Any]], Any]:
    """Closure-tree compiler; works elementwise on numpy arrays."""
    if isinstance(node, Num):
        v = node.value
        return lambda env: v
    if isinstance(node, Var):
        name = node.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise DriverEvalError(f"unbound variable '{name}'") from None

        return var
    if isinstance(node, Neg):
        inner = _compile(node.operand)
        return lambda env: -inner(env)
    if isinstance(node, BinOp):
        left = _compile(node.left)
        right = _compile(node.right)
        op = node.op
        if op == "+":
            return lambda env: left(env) + right(env)
        if op == "-":
            return lambda env: left(env) - right(env)
        if op == "*":
            return lambda env: left(env) * right(env)

        def div(env):
            try:
                return left(env) / right(env)
            except ZeroDivisionError:  # both sides Python scalars
                raise DriverEvalError("division by zero") from None

        return div
    if isinstance(node, Call):
        fn = _NP_FUNCS[node.func]
        args = [_compile(a) for a in node.args]
        if len(args) == 1:
            a0 = args[0]
            return lambda env: fn(a0(env))
        a0, a1 = args
        return lambda env: fn(a0(env), a1(env))
    raise ValueError(f"cannot compile node {node!r}")


@dataclass(frozen=True)
class DriverExpr:
    """Parsed driver expression with its source text and free variables."""

    root: Expr
    source: str
    free_vars: frozenset[str]
    _fn: Callable | None = field(default=None, init=False, compare=False, repr=False)

    def compiled(self) -> Callable[[Mapping[str, Any]], Any]:
        """The closure tree, compiled on the first call and kept.  Each call runs
        under its own np.errstate, so overflow, invalid operations and division by
        zero give inf or NaN without a warning; the callers' finite checks decide.
        The backward sweep runs the bare tree, ``_compile(root)``, under its own."""
        if self._fn is None:
            tree = _compile(self.root)

            def quiet(env):
                with np.errstate(all="ignore"):
                    return tree(env)

            object.__setattr__(self, "_fn", quiet)
        return self._fn

    def uses(self, name: str) -> bool:
        return name in self.free_vars


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/,])"
)


class _Token(NamedTuple):
    kind: str  # num | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise DriverParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup or "op"
        tokens.append(_Token(kind=kind, text=m.group(), pos=i))
        i = m.end()
    tokens.append(_Token(kind="end", text="", pos=n))
    return tokens


def _within(depth: int, tok: _Token) -> int:
    if depth > MAX_DEPTH:
        raise DriverParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.pos)
    return depth


class _Parser:
    """Recursive descent; each rule returns (node, syntax-tree depth).  A
    parenthesis or call level costs four stack frames, as in the grammar."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0  # parentheses, calls and unary minuses open

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expect_op(self, op: str) -> None:
        if not self.at_op(op):
            raise DriverParseError(f"expected '{op}'", self.peek().pos)
        self.advance()

    def enter(self, tok: _Token) -> None:
        """Open one parenthesis, call or unary-minus level at ``tok``."""
        self.nesting = _within(self.nesting + 1, tok)

    def parse(self) -> Expr:
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise DriverParseError(f"unexpected token {tok.text!r}", tok.pos)
        return node

    def expr(self) -> tuple[Expr, int]:
        node, depth = self.term()
        while self.at_op("+-"):
            tok = self.advance()
            right, right_depth = self.term()
            node = BinOp(op=tok.text, left=node, right=right)
            depth = _within(max(depth, right_depth) + 1, tok)
        return node, depth

    def term(self) -> tuple[Expr, int]:
        node, depth = self.unary()
        while self.at_op("*/"):
            tok = self.advance()
            right, right_depth = self.unary()
            node = BinOp(op=tok.text, left=node, right=right)
            depth = _within(max(depth, right_depth) + 1, tok)
        return node, depth

    def unary(self) -> tuple[Expr, int]:
        if not self.at_op("-"):
            return self.atom()
        tok = self.advance()
        self.enter(tok)
        operand, depth = self.unary()
        self.nesting -= 1
        return Neg(operand=operand), _within(depth + 1, tok)

    def atom(self) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            return Num(value=float(tok.text)), 1
        if tok.kind == "name":
            if self.at_op("("):
                if tok.text not in FUNCTIONS:
                    raise DriverParseError(f"unknown function '{tok.text}'", tok.pos)
                self.advance()
                self.enter(tok)
                args = [self.expr()]
                while self.at_op(","):
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                self.nesting -= 1
                arity = FUNCTIONS[tok.text]
                if len(args) != arity:
                    raise DriverParseError(
                        f"function '{tok.text}' takes {arity} argument(s), got {len(args)}",
                        tok.pos,
                    )
                depth = _within(max(d for _, d in args) + 1, tok)
                return Call(func=tok.text, args=tuple(a for a, _ in args)), depth
            if tok.text not in VARIABLES:
                raise DriverParseError(f"unknown variable '{tok.text}'", tok.pos)
            return Var(name=tok.text), 1
        if tok.kind == "op" and tok.text == "(":
            self.enter(tok)
            out = self.expr()
            self.expect_op(")")
            self.nesting -= 1
            return out
        if tok.kind == "end":
            raise DriverParseError("unexpected end of input", tok.pos)
        raise DriverParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse_driver(text: str) -> DriverExpr:
    """Parse an expression over the fixed variable set; rejects unknown names."""
    root = _Parser(text).parse()
    return DriverExpr(root=root, source=text, free_vars=_free_vars(root))


class DriverForm(str, Enum):
    """Which martingale the scenario's jump integral is written against."""

    H = "H"  # integral against dH; the solver subtracts lambda*(1-h)*u itself
    M = "M"  # integral against dM; the text already is the transformed driver


@dataclass(frozen=True)
class TransformedDriver:
    """A driver expression tagged with the form its jump term is written in."""

    base: DriverExpr
    form: DriverForm = DriverForm.H


def _box(horizon: float) -> tuple[tuple[str, float, float], ...]:
    # t and tau span the horizon, every other swept variable [-2, 2].
    return (
        ("t", 0.0, horizon),
        *((name, -2.0, 2.0) for name in ("w", "y", "z", "ey", "ez", "u")),
        ("tau", 0.0, horizon),
    )


@dataclass(frozen=True)
class GridSpec:
    """Sampling box for finite-difference checks of driver properties.

    Each listed variable is swept over ``points`` equispaced values while the
    remaining variables take ``n_base`` randomly drawn base values (h is drawn
    from {0, 1}).  Deterministic for a fixed seed.
    """

    bounds: tuple[tuple[str, float, float], ...] = _box(1.0)
    points: int = 7
    n_base: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.points < 2 or self.n_base < 1:
            raise ValueError("grid must have at least 2 points and 1 base sample")
        for name, lo, hi in self.bounds:
            if not hi > lo:
                raise ValueError(f"degenerate grid axis for '{name}': [{lo}, {hi}]")

    @classmethod
    def for_horizon(cls, horizon: float, **kwargs) -> "GridSpec":
        """The default sampling box with t and tau over [0, horizon]."""
        return cls(bounds=_box(horizon), **kwargs)

    def bound_for(self, name: str) -> tuple[float, float]:
        for n, lo, hi in self.bounds:
            if n == name:
                return lo, hi
        return -2.0, 2.0

    def base_sample(self, variables: Sequence[str]) -> np.ndarray:
        """The base values as an (n_base, len(variables)) array.

        The stream is the one a per-value loop over rows, then over
        ``variables``, would draw from ``default_rng(seed)``, read as one call
        of its 64-bit words: a uniform value takes a word w, as
        ``lo + (hi - lo) * ((w >> 11) * 2**-53)``; an h, ``integers(0, 2)``,
        takes bit 31 of a fresh word, the next h bit 63 of it (its kept upper half).
        """
        names = list(variables)
        words = np.random.PCG64(self.seed).random_raw(self.n_base * len(names))  # at most one per value
        h_at, bits = [], ()
        if "h" in names:  # value p reads word p less the second h's before it; those share a word
            h_at = [r * len(names) + j for r in range(self.n_base) for j, name in enumerate(names) if name == "h"]
            word = np.arange(words.size) - np.searchsorted(h_at[1::2], np.arange(words.size))
            word[h_at[1::2]] = word[h_at[0:-1:2]]
            words = words[word]
            bits = words[h_at] >> np.uint64([31, 63])[np.arange(len(h_at)) % 2] & 1
        lo, hi = np.array([self.bound_for(name) for name in names]).reshape(-1, 2).T
        flat = lo + (hi - lo) * ((words.reshape(self.n_base, len(names)) >> 11) * 2.0**-53)
        flat.flat[h_at] = bits
        return flat

    def axis(self, name: str) -> np.ndarray:
        lo, hi = self.bound_for(name)
        return np.linspace(lo, hi, self.points)


def _grid_env(names: Sequence[str], base: np.ndarray, sweeps: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every grid variable as a contiguous (len(sweeps), n_base, points) array,
    one layer per swept variable: layer v sweeps the v-th variable of ``sweeps``
    along the columns, and every variable of ``names`` it does not sweep takes
    the base sample's column down the rows.  A swept variable outside ``names``
    takes its sweep in every layer."""
    shape = (len(sweeps), base.shape[0], len(next(iter(sweeps.values()))))
    env = {}
    for j, name in enumerate(names):
        env[name] = np.empty(shape)
        env[name][...] = base[:, j, None]
    for v, (var, sweep) in enumerate(sweeps.items()):
        if var in env:
            env[var][v] = sweep
        else:
            env[var] = np.empty(shape)
            env[var][...] = sweep
    return env


def _grid_values(fn: Callable, env: dict[str, np.ndarray]) -> np.ndarray:
    """One compiled call over a ``_grid_env``, broadcast to its shape so that a
    constant expression works too."""
    vals = np.asarray(fn(env), dtype=float)
    shape = next(iter(env.values())).shape
    return vals if vals.shape == shape else np.broadcast_to(vals, shape)


def _row(names: Sequence[str], base: np.ndarray, r: int) -> dict[str, float]:
    """Row ``r`` of a base sample as the env a witness reports."""
    return dict(zip(names, base[r].tolist()))


def _as_lambda_of_t(lam_profile) -> Callable[[float], float]:
    if callable(lam_profile):
        return lam_profile
    value = float(lam_profile)
    return lambda t: value


@dataclass(frozen=True)
class LipschitzEstimate:
    """Grid-sampled per-slot Lipschitz constants (lower bounds of the truth).

    The u slot is reported in the intensity-weighted form, i.e. the raw
    difference ratio divided by lambda(t).
    """

    c_y: float
    c_z: float
    c_ey: float
    c_ez: float
    c_u: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.c_y, self.c_z, self.c_ey, self.c_ez, self.c_u)

    @property
    def overall(self) -> float:
        return max(self.as_tuple())


def estimate_lipschitz(
    expr: DriverExpr, grid: GridSpec, lam_profile: float | Callable[[float], float] = 0.0
) -> LipschitzEstimate:
    """Max finite-difference ratio per solution slot over the sampling grid."""
    out = dict.fromkeys(LIPSCHITZ_SLOTS, 0.0)
    slots = [slot for slot in LIPSCHITZ_SLOTS if slot in expr.free_vars]
    if not slots:
        return LipschitzEstimate(*out.values())
    names = sorted(VARIABLES)
    base = grid.base_sample(names)
    sweeps = {slot: grid.axis(slot) for slot in slots}
    vals = _grid_values(expr.compiled(), _grid_env(names, base, sweeps))
    for slot, finite in zip(slots, np.isfinite(vals).all(axis=(1, 2))):
        if not finite:
            raise DriverEvalError(f"non-finite driver value while sweeping '{slot}' on the grid")
    ratios = np.max(np.abs(np.diff(vals)) / np.diff(np.array(list(sweeps.values())))[:, None, :], axis=2)
    for slot, r in zip(slots, ratios):
        if slot == "u":
            lam_of_t = _as_lambda_of_t(lam_profile)
            lam = np.array([lam_of_t(t) for t in base[:, names.index("t")].tolist()], dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(r == 0.0, 0.0, np.where(lam == 0.0, math.inf, r / lam))
        out[slot] = float(np.max(r, initial=0.0))
    return LipschitzEstimate(*out.values())


def check_M_form_lipschitz(estimate: LipschitzEstimate, lambda_max: float) -> LipschitzEstimate:
    """Lipschitz bound for the dM-form driver derived from the dH-form one: the
    jump-term rewrite adds at most one unit to the intensity-weighted u slot,
    the other slots carry over unchanged."""
    return replace(estimate, c_u=estimate.c_u + (1.0 if lambda_max > 0.0 else 0.0))
