"""Three-stage third-order TVD (SSP) Runge-Kutta time stepping.

Shu-Osher form: every stage is a convex combination of the previous state
and a forward-Euler substep, so the scheme inherits the stability bound of
forward Euler while being third-order accurate.
"""

from __future__ import annotations

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


RhsFn = Callable[[tuple[np.ndarray, ...]], Sequence[np.ndarray]]


def _check_finite(fields: Sequence[np.ndarray], label: str) -> None:
    for comp in fields:
        if not np.isfinite(comp).all():
            finite = comp[np.isfinite(comp)]
            detail = (
                f"largest finite magnitude {np.max(np.abs(finite)):.3e}"
                if finite.size else "no finite values left"
            )
            raise UnstableStepError(f"non-finite values in {label}; {detail}")


def tvd_rk3_step(
    un: tuple[np.ndarray, ...],
    dt: float,
    rhs: RhsFn,
    *,
    out: tuple[np.ndarray, ...] | None = None,
    stage: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, ...]:
    """Advance the components ``un`` by one step of size ``dt`` and return
    ``out``, which holds the result.

    ``rhs`` is evaluated exactly three times, on the tuples ``un``, ``out``
    and ``stage`` in that order; it is autonomous, as no stage time is
    passed.  The step writes into two sets of arrays shaped like the
    components and nothing else: ``out``, which holds the first stage and
    then the result, and ``stage``, which holds the second stage.  Either
    is allocated here when not given; they may overlap neither each other
    nor ``un``.  ``rhs`` may return the arrays it is given; any other array
    it returns is only read.

    NumPy's overflow and invalid-value warnings are off inside the step:
    every stage is checked for non-finite values instead.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if out is None:
        out = tuple(np.empty_like(p, dtype=float) for p in un)
    if stage is None:
        stage = tuple(np.empty_like(p, dtype=float) for p in un)

    def combine(base, source, dest, weight):
        # dest = p + w*((s - p) + dt*f), in incremental form so a vanishing
        # right-hand side reproduces the state bitwise.  f is read before s,
        # the spent previous stage, is overwritten: f may be s itself.
        for p, s, f, d in zip(un, base, source, dest):
            np.multiply(f, dt, out=d)
            s -= p
            d += s
            d *= weight
            d += p

    with np.errstate(over="ignore", invalid="ignore"):
        # Stage 1: forward Euler.
        for p, f, d in zip(un, rhs(un), out):
            np.multiply(f, dt, out=d)
            d += p
        _check_finite(out, "stage 1")

        # Stage 2.
        combine(out, rhs(out), stage, STAGE_WEIGHTS[1][1])
        _check_finite(stage, "stage 2")

        # Final combination, into the arrays of the spent first stage.
        combine(stage, rhs(stage), out, STAGE_WEIGHTS[2][1])
        _check_finite(out, "updated state")

    return out
