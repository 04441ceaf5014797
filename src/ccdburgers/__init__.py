"""Sixth-order combined compact difference solver for multidimensional
coupled viscous Burgers' equations with third-order TVD Runge-Kutta time
integration."""

__version__ = "0.1.0"

from .ccd import (
    CcdFactorization,
    DerivativePair,
    get_factorization,
)
from .grid import GridAxis
from .model import (
    InstabilityError,
    ProblemSpec,
    RunResult,
    StabilityAdvisory,
    burgers_rhs,
    directional_derivatives,
    linf_errors,
    pde_residual,
    run,
    stability_guard,
)
from .tvd_rk3 import FieldSet, UnstableStepError, tvd_rk3_step

__all__ = [
    "CcdFactorization",
    "DerivativePair",
    "FieldSet",
    "GridAxis",
    "InstabilityError",
    "ProblemSpec",
    "RunResult",
    "StabilityAdvisory",
    "UnstableStepError",
    "burgers_rhs",
    "directional_derivatives",
    "get_factorization",
    "linf_errors",
    "pde_residual",
    "run",
    "stability_guard",
    "tvd_rk3_step",
]
