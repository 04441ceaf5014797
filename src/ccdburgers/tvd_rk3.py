"""Three-stage third-order TVD (SSP) Runge-Kutta time stepping.

Shu-Osher form: every stage is a convex combination of the previous state
and a forward-Euler substep, so the scheme inherits the stability bound of
forward Euler while being third-order accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: Per-stage (previous-state weight, stage weight, forward-Euler weight).
#: The state-combination weights of each row sum to 1.
STAGE_WEIGHTS = (
    (1.0, 0.0, 1.0),
    (3 / 4, 1 / 4, 1 / 4),
    (1 / 3, 2 / 3, 2 / 3),
)


class UnstableStepError(RuntimeError):
    """Raised when a stage produces non-finite values (blow-up)."""


@dataclass(frozen=True)
class FieldSet:
    """Velocity components on the tensor grid at a given time."""

    components: tuple[np.ndarray, ...]
    time: float

    @property
    def dimension(self) -> int:
        return len(self.components)


RhsFn = Callable[[FieldSet], Sequence[np.ndarray]]


def _check_finite(fields: Sequence[np.ndarray], label: str) -> None:
    for comp in fields:
        if not np.all(np.isfinite(comp)):
            finite = comp[np.isfinite(comp)]
            peak = float(np.max(np.abs(finite))) if finite.size else float("inf")
            raise UnstableStepError(
                f"non-finite values in {label}; largest finite magnitude "
                f"{peak:.3e}"
            )


def tvd_rk3_step(state: FieldSet, dt: float, rhs: RhsFn) -> FieldSet:
    """Advance ``state`` by one step of size ``dt``.

    ``rhs`` is evaluated exactly three times.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    t = state.time
    un = state.components

    def combine(base, source, weight):
        # w*prev + (1-w)*base + (1-w)*dt*source, written in incremental form
        # so a vanishing right-hand side reproduces the state bitwise.
        return tuple(
            p + weight * ((s - p) + dt * f)
            for p, s, f in zip(un, base, source)
        )

    # Stage 1: forward Euler.
    l0 = rhs(state)
    u1 = tuple(p + dt * f for p, f in zip(un, l0))
    _check_finite(u1, "stage 1")

    # Stage 2.
    l1 = rhs(FieldSet(u1, t + dt))
    u2 = combine(u1, l1, STAGE_WEIGHTS[1][1])
    _check_finite(u2, "stage 2")

    # Final combination.
    l2 = rhs(FieldSet(u2, t + 0.5 * dt))
    unew = combine(u2, l2, STAGE_WEIGHTS[2][1])
    _check_finite(unew, "updated state")

    return FieldSet(components=unew, time=t + dt)
