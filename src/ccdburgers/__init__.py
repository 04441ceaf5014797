"""Sixth-order combined compact difference solver for multidimensional
coupled viscous Burgers' equations with third-order TVD Runge-Kutta time
integration."""

__version__ = "0.1.0"

from .ccd import CcdFactorization, get_factorization
from .grid import GridAxis
from .model import (
    FieldSet,
    InstabilityError,
    ProblemSpec,
    RunResult,
    burgers_rhs,
    directional_derivatives,
    linf_errors,
    pde_residual,
    run,
)
from .tvd_rk3 import UnstableStepError, tvd_rk3_step

__all__ = [
    "CcdFactorization",
    "FieldSet",
    "GridAxis",
    "InstabilityError",
    "ProblemSpec",
    "RunResult",
    "UnstableStepError",
    "burgers_rhs",
    "directional_derivatives",
    "get_factorization",
    "linf_errors",
    "pde_residual",
    "run",
    "tvd_rk3_step",
]
