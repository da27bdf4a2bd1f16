"""Optimal predictor design under an expected-calibration-error budget.

Subpackages:

- :mod:`caldesign.model` -- instances, predictors, primitive evaluations.
- :mod:`caldesign.lp_core` -- dense LP container and simplex from a feasible start.
- :mod:`caldesign.exact` -- exact optimum for the 1-norm and max-norm budgets.
- :mod:`caldesign.fptas` -- plan-LP approximation scheme for finite norms.
- :mod:`caldesign.structure` -- recalibration, contraction checks, optimality
  certificates by weak duality and structural diagnostics for
  event-independent utilities.
- :mod:`caldesign.cli` -- command-line front end.

The brute-force cross-checks (feasible-rule sampler, tiny-grid enumeration,
the 1-norm plan-LP optimum) live with the tests, in ``tests/oracle.py``.
"""

from .errors import CaldesignError, SolverError, ValidationError
from .exact import solve_exact
from .fptas import build_grid, fptas_solve
from .model import (
    Instance,
    Predictor,
    agent_payoff,
    ece,
    payoff,
    point_mass,
    validate_instance,
)
from .structure import (
    analyze_structure,
    binary_action_optimal,
    check_mpc,
    recalibrate,
    verify_optimality,
)

__all__ = [
    "Instance",
    "Predictor",
    "CaldesignError",
    "SolverError",
    "ValidationError",
    "agent_payoff",
    "analyze_structure",
    "binary_action_optimal",
    "build_grid",
    "check_mpc",
    "ece",
    "fptas_solve",
    "payoff",
    "point_mass",
    "recalibrate",
    "solve_exact",
    "validate_instance",
    "verify_optimality",
]

__version__ = "0.1.0"
