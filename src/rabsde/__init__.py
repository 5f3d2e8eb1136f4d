"""Discrete-time laboratory for reflected anticipated BSDEs with a single default jump.

Builds exact filtered lattices (binomial diffusion x default indicator),
solves the reflected system with anticipated driver arguments by backward
induction or Picard iteration, and property-checks the martingale structure,
the optimal-stopping representation, and the comparison results.

The package imports no submodule up front: each public name below, and each
submodule, is imported on first access (PEP 562), so a run loads only the
modules it uses.  Every access reads the defining module's attribute anew.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "comparison": ("ComparisonCase", "ComparisonVerdict", "HypothesisReport", "IterateTrace",
                   "check_monotone_in_anticipation", "check_theta_condition", "iterate_sequence",
                   "random_comparison_case", "run_comparison", "run_random_suite"),
    "crr": ("american_put_scenario", "crr_american_put"),
    "driver": ("DriverExpr", "DriverForm", "GridSpec", "LipschitzEstimate", "TransformedDriver",
               "check_M_form_lipschitz", "estimate_lipschitz", "parse_driver"),
    "errors": ("DriverEvalError", "DriverParseError", "EnumerationError", "HypothesisError",
               "LatticeError", "MonotonicityError", "PicardConvergenceError", "RabsdeError",
               "ScenarioError", "SolverError"),
    "lattice": ("ALIVE", "DefaultLattice", "IntensitySpec", "NodeId", "ProcessField"),
    "solver": ("PicardOptions", "Scenario", "Scheme", "Solution", "ValidationReport", "beta_norm",
               "estimate_c_prime", "obstacle_field", "solve_backward", "solve_picard",
               "terminal_values", "validate_solution"),
    "stopping": ("KRunningMaxReport", "StoppingReport", "StoppingRule", "brute_force_value",
                 "k_running_max_check", "snell_report", "stopping_payoff", "tau_characterizations"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        # not cached here: a patched module attribute is what every caller sees
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
