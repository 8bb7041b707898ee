"""Solver and verification suite for stationary nonlinear Helmholtz scattering."""

__version__ = "0.1.0"

from .continuation import Branch, StepConfig, blowup_probe, continue_branch
from .fields import (
    ComplexField,
    Grid,
    IncidentWave,
    NonlinearitySpec,
    apply_nonlinearity,
    load_field,
    make_incident,
    save_field,
    weighted_norm,
)
from .resolvent import ResolventConfig, apply_resolvent, estimate_kappa
from .solver import SolverConfig, SolveReport, linear_bound_check, picard_solve
from .specfun import FundamentalSolutionParams, first_y_zero, fundamental_solution
from .verify import (
    defocusing_inequalities,
    energy_identity,
    fourier_positivity,
    sturm_check,
    truncation_threshold,
)

__all__ = [
    "Branch",
    "ComplexField",
    "FundamentalSolutionParams",
    "Grid",
    "IncidentWave",
    "NonlinearitySpec",
    "ResolventConfig",
    "SolveReport",
    "SolverConfig",
    "StepConfig",
    "apply_nonlinearity",
    "apply_resolvent",
    "blowup_probe",
    "continue_branch",
    "defocusing_inequalities",
    "energy_identity",
    "estimate_kappa",
    "first_y_zero",
    "fourier_positivity",
    "fundamental_solution",
    "linear_bound_check",
    "load_field",
    "make_incident",
    "picard_solve",
    "save_field",
    "sturm_check",
    "truncation_threshold",
    "weighted_norm",
]
