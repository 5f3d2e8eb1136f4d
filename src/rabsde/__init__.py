"""Discrete-time laboratory for reflected anticipated BSDEs with a single default jump.

Builds exact filtered lattices (binomial diffusion x default indicator),
solves the reflected system with anticipated driver arguments by backward
induction or Picard iteration, and property-checks the martingale structure,
the optimal-stopping representation, and the comparison results.
"""

from .comparison import (
    ComparisonCase,
    ComparisonVerdict,
    HypothesisReport,
    IterateTrace,
    check_monotone_in_anticipation,
    check_theta_condition,
    iterate_sequence,
    random_comparison_case,
    run_comparison,
    run_random_suite,
)
from .crr import american_put_scenario, crr_american_put
from .driver import (
    DriverExpr,
    DriverForm,
    GridSpec,
    LipschitzEstimate,
    TransformedDriver,
    check_M_form_lipschitz,
    estimate_lipschitz,
    parse_driver,
)
from .errors import (
    DriverEvalError,
    DriverParseError,
    EnumerationError,
    HypothesisError,
    LatticeError,
    MonotonicityError,
    PicardConvergenceError,
    RabsdeError,
    ScenarioError,
    SolverError,
)
from .lattice import (
    ALIVE,
    DefaultLattice,
    IntensitySpec,
    NodeId,
    ProcessField,
    build_lattice,
)
from .solver import (
    PicardOptions,
    Scenario,
    Scheme,
    Solution,
    ValidationReport,
    beta_norm,
    estimate_c_prime,
    obstacle_field,
    solve_backward,
    solve_picard,
    terminal_values,
    validate_solution,
)
from .stopping import (
    KRunningMaxReport,
    StoppingReport,
    StoppingRule,
    brute_force_value,
    k_running_max_check,
    snell_report,
    stopping_payoff,
    tau_characterizations,
)

__version__ = "0.1.0"
