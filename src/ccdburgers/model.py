"""Semi-discrete multidimensional Burgers' right-hand side and time loop.

The velocity components live on a tensor grid; spatial derivatives come
from the compact-difference operator, a fixed matrix applied to the first
differences along each coordinate direction in the field's own memory
layout, and the nonlinear advection terms are formed pointwise, so the
whole right-hand side is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ccd import CcdFactorization, get_factorization
from .grid import GridAxis
from .tvd_rk3 import UnstableStepError, tvd_rk3_step

InitialFn = Callable[..., Sequence[np.ndarray]]
BoundaryFn = Callable[..., Sequence[np.ndarray]]


@dataclass(frozen=True)
class FieldSet:
    """Velocity components on the tensor grid at a given time."""

    components: tuple[np.ndarray, ...]
    time: float


class InstabilityError(RuntimeError):
    """Blow-up during a run, annotated with the failing step."""

    def __init__(self, step: int, time: float, detail: str):
        super().__init__(
            f"solution became non-finite at step {step} (t={time:.6g}): "
            f"{detail}; rerun with a smaller dt"
        )
        self.step = step
        self.time = time


@dataclass(frozen=True)
class ProblemSpec:
    """An initial-boundary-value problem for the coupled Burgers' system.

    ``initial_fn(*coords)`` and ``boundary_fn(*coords, t)`` return one array
    per velocity component, broadcasting over the coordinate arrays.
    ``exact_fn`` has the boundary signature and is optional; when present it
    is used for error measurement and the PDE-residual oracle gate.  The
    problem's dimension is the number of (left, right) pairs in ``domain``.
    """

    domain: tuple[tuple[float, float], ...]
    inv_re: float
    final_time: float
    initial_fn: InitialFn
    boundary_fn: BoundaryFn
    exact_fn: BoundaryFn | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if not 0 < self.inv_re < np.inf:
            raise ValueError(f"inv_re must be positive and finite, got {self.inv_re}")
        if not 0 <= self.final_time < np.inf:
            raise ValueError(
                f"final_time must be nonnegative and finite, got {self.final_time}")

    @property
    def dimension(self) -> int:
        return len(self.domain)

    def axes(self, resolution: Sequence[int]) -> tuple[GridAxis, ...]:
        if len(resolution) != self.dimension:
            raise ValueError("one cell count per dimension required")
        return tuple(
            GridAxis(n_cells=m, left=l, right=r)
            for m, (l, r) in zip(resolution, self.domain)
        )


def grid_coords(axes: Sequence[GridAxis]) -> tuple[np.ndarray, ...]:
    """Open (broadcastable) coordinate arrays for the tensor grid."""
    return tuple(
        np.meshgrid(*(ax.nodes() for ax in axes), indexing="ij", sparse=True)
    )


def _components(values: Sequence[np.ndarray], d: int, source: str,
                t: float | None = None) -> tuple[np.ndarray, ...]:
    """A callback's values as a tuple, refused with ValueError unless they
    hold one component per axis of a d-dimensional problem: the one count
    rule, which every callback result passes before ``zip`` pairs it with
    a field's components (in the time loop, after a strict ``zip`` fails)."""
    values = tuple(values)
    if len(values) != d:
        at = "" if t is None else f" at t={t:g}"
        raise ValueError(f"{source}{at} has {len(values)} components, not {d}")
    return values


def sample_components(
    fn: Callable[..., Sequence[np.ndarray]],
    axes: Sequence[GridAxis],
    *extra,
) -> tuple[np.ndarray, ...]:
    """Evaluate a component-valued callback on the full tensor grid: the
    initial data ``fn(*coords)``, or data at time t, ``fn(*coords, t)``."""
    shape = tuple(ax.n_nodes for ax in axes)
    t = extra[0] if extra else None
    values = _components(fn(*grid_coords(axes), *extra), len(axes),
                         "initial data" if t is None else "data", t)
    return tuple(np.broadcast_to(np.asarray(v, float), shape).copy() for v in values)


def directional_derivatives(
    f: np.ndarray, axis_index: int, fact: CcdFactorization
) -> tuple[np.ndarray, np.ndarray]:
    """Differentiate every pencil of ``f`` along ``axis_index``.

    ``f`` is handed to the operator as a view with that axis first, which
    the operator reads in ``f``'s own memory layout, so no axis is copied
    into pencil order.  Returns first- and second-derivative fields with the
    shape of ``f``, new arrays that the caller may overwrite; they are
    C-ordered when ``f`` is.
    """
    # indexed: unpacking would iterate over the array, which costs more
    d = fact.apply(f.swapaxes(0, axis_index))
    return d[0].swapaxes(0, axis_index), d[1].swapaxes(0, axis_index)


def burgers_rhs(
    comps: tuple[np.ndarray, ...],
    facts: Sequence[CcdFactorization],
    inv_re: float,
    out: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, ...]:
    """Evaluate -(u.grad)c + inv_re * laplacian(c) for every component c of
    the velocity ``comps``, one array per axis.

    The result is written into ``out``, one array per component, and
    returned; it is allocated here when not given, and may not overlap
    ``comps``.
    """
    if out is None:
        out = tuple(np.empty_like(c, dtype=float) for c in comps)
    for comp, advection in zip(comps, out):
        # the new derivative fields hold the advection terms of axes 1 and
        # up, and the second derivative of axis 0 accumulates the Laplacian
        first, diffusion = directional_derivatives(comp, 0, facts[0])
        np.multiply(comps[0], first, out=advection)
        for axis in range(1, len(comps)):
            first, second = directional_derivatives(comp, axis, facts[axis])
            first *= comps[axis]
            advection += first
            diffusion += second
        diffusion *= inv_re
        np.subtract(diffusion, advection, out=advection)
    return out


@dataclass(frozen=True)
class StabilityAdvisory:
    """Heuristic explicit-diffusion step-size advisory; never blocks a run."""

    dt: float
    limit: float
    warn: bool
    message: str


def stability_guard(
    spec: ProblemSpec, resolution: Sequence[int], dt: float
) -> StabilityAdvisory:
    """Warn when dt exceeds the heuristic diffusive limit h^2/(2*d*inv_re)."""
    axes = spec.axes(resolution)
    h = min(ax.spacing for ax in axes)
    limit = h**2 / (2 * spec.dimension * spec.inv_re)
    warn = dt > limit
    message = (
        f"dt={dt:.4g} exceeds heuristic diffusive limit {limit:.4g}"
        if warn
        else f"dt={dt:.4g} within heuristic diffusive limit {limit:.4g}"
    )
    return StabilityAdvisory(dt=dt, limit=limit, warn=warn, message=message)


def _step_count(final_time: float, dt: float) -> int:
    """Steps of dt to reach final_time, to 1e-12 relative: the one lattice rule."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if final_time == 0:
        return 0
    ratio = final_time / dt
    if not np.isfinite(ratio):
        raise ValueError(
            f"dt={dt!r} is too small for final_time={final_time!r} "
            f"(the step count overflows)"
        )
    n = round(ratio)
    if n < 1 or abs(n * dt - final_time) > 1e-12 * final_time:
        raise ValueError(
            f"dt={dt!r} does not divide final_time={final_time!r} "
            f"(closest step count {n})"
        )
    return n


def _boundary_faces(axes: Sequence[GridAxis]):
    """Every boundary face, two per axis, as (coordinates, index) pairs.

    The index keeps the face's axis with length 1, so it selects the face
    from a field and the face's open coordinate arrays from the grid's.
    """
    coords = grid_coords(axes)
    faces = []
    for a in range(len(axes)):
        for end in (slice(0, 1), slice(-1, None)):
            # a coordinate array of length 1 along axis a gives its one
            # element to either end
            sel = (slice(None),) * a + (end,)
            faces.append((tuple(c[sel] for c in coords), sel))
    return faces


def _boundary_setter(spec: ProblemSpec, faces):
    """Build a closure overwriting every node of ``faces`` from boundary_fn."""

    def set_boundary(components: tuple[np.ndarray, ...], t: float):
        """Write the boundary values at time t into ``components`` in place
        and return the same tuple."""
        for face, sel in faces:
            values = spec.boundary_fn(*face, t)
            try:
                for comp, val in zip(components, values, strict=True):
                    comp[sel] = val
            except ValueError:
                # a wrong count stops zip; the count rule names it
                _components(values, len(components), "boundary data", t)
                raise
        return components

    return set_boundary


def _validate_initial_boundary(initial, spec: ProblemSpec, faces):
    """Refuse non-finite initial data, boundary data at t=0 without one
    component per axis, and initial data that differs from the boundary
    data at t=0 by more than 1e-12 on any of ``faces``.

    Only the faces are compared, as only they are imposed; the finiteness
    pass reads every node without a float copy.
    """
    if not all(np.isfinite(c).all() for c in initial):
        raise ValueError("initial data must be finite")
    # non-finite boundary data makes its deviation NaN or inf, which fails
    # the test below
    deviations = []
    for face, sel in faces:
        values = _components(spec.boundary_fn(*face, 0.0), len(initial),
                             "boundary data", 0.0)
        deviations += [float(np.max(np.abs(comp[sel] - val)))
                       for comp, val in zip(initial, values)]
    if all(dev <= 1e-12 for dev in deviations):
        return
    raise ValueError(
        "initial and boundary data disagree on the domain boundary at "
        f"t=0 (max deviation {np.max(deviations):.3e})"
    )


@dataclass
class RunResult:
    final: FieldSet
    snapshots: dict[float, FieldSet]
    steps: int


def run(
    spec: ProblemSpec,
    resolution: Sequence[int],
    dt: float,
    snapshot_times: Sequence[float] = (),
) -> RunResult:
    """March the problem from t=0 to the final time."""
    axes = spec.axes(resolution)
    facts = tuple(get_factorization(ax) for ax in axes)
    n_steps = _step_count(spec.final_time, dt)

    faces = _boundary_faces(axes)
    set_boundary = _boundary_setter(spec, faces)
    initial = sample_components(spec.initial_fn, axes)
    _validate_initial_boundary(initial, spec, faces)

    snapshot_steps: dict[int, float] = {}
    for t_snap in snapshot_times:
        try:
            k = _step_count(t_snap, dt)
        except ValueError:
            k = -1
        if not 0 <= k <= n_steps:
            raise ValueError(
                f"snapshot time {t_snap!r} is not a step of dt={dt!r} "
                f"in [0, {spec.final_time}]"
            )
        snapshot_steps[k] = t_snap

    # Setup allocates every array the time loop writes, as get_factorization
    # above built each axis's operator.  The right-hand side and the middle
    # stage share one allocation.  As separate arrays on 32^3 cells they
    # made the allocator return and refetch memory every step: 1654 minor
    # page faults per step instead of 72.
    d = spec.dimension
    work = np.empty((2 * d,) + initial[0].shape)
    rhs_out, stage = tuple(work[:d]), tuple(work[d:])
    spare = tuple(np.empty_like(c) for c in initial)
    rhs = lambda comps: burgers_rhs(comps, facts, spec.inv_re, rhs_out)

    state = initial
    snapshots = {}
    if 0 in snapshot_steps:
        snapshots[snapshot_steps[0]] = _copy(state, 0.0)

    for n in range(n_steps):
        t = (n + 1) * dt
        try:
            new = tvd_rk3_step(state, dt, rhs, out=spare, stage=stage)
        except UnstableStepError as exc:
            raise InstabilityError(n + 1, t, str(exc)) from exc
        # The spent state's arrays take the next step's result.
        spare = state
        # Algorithm step 4: physical boundary values are imposed, not evolved.
        state = set_boundary(new, t)
        if n + 1 in snapshot_steps:
            snapshots[snapshot_steps[n + 1]] = _copy(state, t)

    return RunResult(FieldSet(state, n_steps * dt), snapshots, n_steps)


def _copy(comps: tuple[np.ndarray, ...], t: float) -> FieldSet:
    """A snapshot at time t that owns its arrays: the time loop reuses the
    state's."""
    return FieldSet(tuple(c.copy() for c in comps), t)


def linf_errors(
    state: FieldSet, spec: ProblemSpec, resolution: Sequence[int]
) -> tuple[float, ...]:
    """Discrete max-norm error of every component against the exact solution."""
    if spec.exact_fn is None:
        raise ValueError("problem has no exact solution registered")
    exact = spec.exact_fn(*grid_coords(spec.axes(resolution)), state.time)
    exact = _components(exact, spec.dimension, "exact solution", state.time)
    # the exact values are read as broadcast, never copied to the full grid
    return tuple(
        float(np.max(np.abs(c - np.broadcast_to(np.asarray(e, float), c.shape))))
        for c, e in zip(state.components, exact)
    )


def pde_residual(
    spec: ProblemSpec,
    exact_fn: BoundaryFn,
    t: float,
    resolution: Sequence[int],
) -> tuple[float, ...]:
    """Manufactured-solution residual gate.

    Substitutes a candidate exact solution into the PDE: the time derivative
    comes from a five-point fourth-order difference of the candidate, the
    spatial terms from the compact-difference operator.  Returns the max-norm
    residual per component; a genuine solution scores at the level of the
    spatial truncation error.
    """
    axes = spec.axes(resolution)
    facts = tuple(get_factorization(ax) for ax in axes)

    def fields(tau: float) -> tuple[np.ndarray, ...]:
        return sample_components(exact_fn, axes, tau)

    dt_fd = 1e-4
    f_m2, f_m1, f_p1, f_p2 = (
        fields(t - 2 * dt_fd), fields(t - dt_fd),
        fields(t + dt_fd), fields(t + 2 * dt_fd),
    )
    dudt = tuple(
        (a - 8 * b + 8 * c - d) / (12 * dt_fd)
        for a, b, c, d in zip(f_m2, f_m1, f_p1, f_p2)
    )
    space = burgers_rhs(fields(t), facts, spec.inv_re)
    return tuple(
        float(np.max(np.abs(ut - s))) for ut, s in zip(dudt, space)
    )
