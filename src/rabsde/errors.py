"""Exception types shared across the package."""

from __future__ import annotations


class RabsdeError(Exception):
    """Base class for all package errors."""


class LatticeError(RabsdeError):
    """Invalid lattice construction or a node/field that does not belong to it."""


class DriverParseError(RabsdeError):
    """Syntax or name error in a driver expression; carries the source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class DriverEvalError(RabsdeError):
    """Evaluation failure: unbound variable or division by zero."""


class ScenarioError(RabsdeError):
    """Scenario file rejected; collects all (json-pointer, message) pairs, "" the whole document's."""

    def __init__(self, issues: list[tuple[str, str]]):
        self.issues = list(issues)
        lines = "; ".join(f"{ptr}: {msg}" if ptr else msg for ptr, msg in self.issues)
        super().__init__(f"invalid scenario: {lines}")


class SolverError(RabsdeError):
    """Backward induction failure (e.g. implicit inner loop not converging);
    ``pointer`` is the JSON pointer of the scenario field at fault, if any."""

    def __init__(self, message: str, pointer: str | None = None):
        super().__init__(message)
        self.pointer = pointer


class PicardConvergenceError(SolverError):
    """Picard iteration exhausted max_iter; carries the distance history."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = list(history)


class EnumerationError(RabsdeError):
    """Brute-force instance too large to enumerate."""


class HypothesisError(RabsdeError):
    """A comparison-theorem hypothesis check failed; carries the report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class MonotonicityError(RabsdeError):
    """Iterate sequence lost monotonicity (would falsify the solver)."""
