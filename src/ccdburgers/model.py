"""Semi-discrete multidimensional Burgers' right-hand side and time loop.

The velocity components live on a tensor grid; spatial derivatives come
from per-pencil compact-difference solves along each coordinate direction
and the nonlinear advection terms are formed pointwise, so the whole
right-hand side is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ccd import CcdFactorization, get_factorization
from .grid import GridAxis
from .tvd_rk3 import FieldSet, UnstableStepError, tvd_rk3_step

InitialFn = Callable[..., Sequence[np.ndarray]]
BoundaryFn = Callable[..., Sequence[np.ndarray]]


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
    is used for error measurement and the PDE-residual oracle gate.
    """

    dimension: int
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
        if len(self.domain) != self.dimension:
            raise ValueError("one (left, right) pair per dimension required")
        if not 0 < self.inv_re < np.inf:
            raise ValueError(f"inv_re must be positive and finite, got {self.inv_re}")
        if not 0 <= self.final_time < np.inf:
            raise ValueError(
                f"final_time must be nonnegative and finite, got {self.final_time}")

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


def sample_components(
    fn: Callable[..., Sequence[np.ndarray]],
    axes: Sequence[GridAxis],
    *extra,
) -> tuple[np.ndarray, ...]:
    """Evaluate a component-valued callback on the full tensor grid."""
    shape = tuple(ax.n_nodes for ax in axes)
    coords = grid_coords(axes)
    values = fn(*coords, *extra)
    return tuple(np.broadcast_to(np.asarray(v, float), shape).copy() for v in values)


def directional_derivatives(
    f: np.ndarray, axis_index: int, fact: CcdFactorization
) -> tuple[np.ndarray, np.ndarray]:
    """Differentiate every pencil of ``f`` along ``axis_index``.

    ``f`` is handed to the operator as a view with that axis first, so no
    axis is copied into pencil order.  Returns first- and second-derivative
    fields with the shape of ``f``, as views of new arrays that the caller
    may overwrite.
    """
    pair = fact.apply(f.swapaxes(0, axis_index))
    return pair.first.swapaxes(0, axis_index), pair.second.swapaxes(0, axis_index)


def burgers_rhs(
    state: FieldSet,
    facts: Sequence[CcdFactorization],
    inv_re: float,
    out: tuple[np.ndarray, ...] | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """Evaluate -(u.grad)c + inv_re * laplacian(c) for every component c.

    The result is written into ``out``, one array per component, and
    returned; ``scratch``, one array of the grid's shape, holds an advection
    term in two and three dimensions.  Either is allocated here when not
    given.  Neither may overlap the state.
    """
    comps = state.components
    if out is None:
        out = tuple(np.empty_like(c, dtype=float) for c in comps)
    if scratch is None:
        scratch = np.empty_like(comps[0], dtype=float)
    for comp, advection in zip(comps, out):
        # the new second-derivative field of axis 0 accumulates the Laplacian
        first, diffusion = directional_derivatives(comp, 0, facts[0])
        np.multiply(comps[0], first, out=advection)
        for axis in range(1, len(comps)):
            first, second = directional_derivatives(comp, axis, facts[axis])
            np.multiply(comps[axis], first, out=scratch)
            advection += scratch
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
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if final_time == 0:
        return 0
    n = round(final_time / dt)
    if n < 1 or abs(n * dt - final_time) > 1e-12 * final_time:
        raise ValueError(
            f"dt={dt!r} does not divide final_time={final_time!r} "
            f"(closest step count {n})"
        )
    return n


def _boundary_setter(spec: ProblemSpec, axes: Sequence[GridAxis]):
    """Build a closure overwriting every boundary node from boundary_fn."""
    coords = grid_coords(axes)
    faces = []
    for a in range(spec.dimension):
        for end in (slice(0, 1), slice(-1, None)):
            # a coordinate array of length 1 along axis a gives its one
            # element to either end
            sel = (slice(None),) * a + (end,)
            faces.append((tuple(c[sel] for c in coords), sel))

    def set_boundary(components: tuple[np.ndarray, ...], t: float):
        """Write the boundary values at time t into ``components`` in place
        and return the same tuple."""
        for face, sel in faces:
            for comp, val in zip(components, spec.boundary_fn(*face, t)):
                comp[sel] = val
        return components

    return set_boundary


def _validate_initial_boundary(initial, set_boundary):
    clamped = set_boundary(tuple(c.copy() for c in initial), 0.0)
    # a non-finite value in the initial data, or in the boundary data at
    # t=0, makes some deviation NaN or inf, which fails the test below
    deviations = [float(np.max(np.abs(a - b))) for a, b in zip(initial, clamped)]
    if all(d <= 1e-12 for d in deviations):
        return
    if not all(np.isfinite(c).all() for c in initial):
        raise ValueError("initial data must be finite")
    raise ValueError(
        "initial and boundary data disagree on the domain boundary at "
        f"t=0 (max deviation {np.max(deviations):.3e})"
    )


@dataclass
class RunResult:
    final: FieldSet
    snapshots: dict[float, FieldSet] = field(default_factory=dict)
    steps: int = 0
    advisory: StabilityAdvisory | None = None


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

    set_boundary = _boundary_setter(spec, axes)
    initial = sample_components(spec.initial_fn, axes)
    _validate_initial_boundary(initial, set_boundary)
    state = FieldSet(components=initial, time=0.0)

    snapshot_steps: dict[int, float] = {}
    for t_snap in snapshot_times:
        k = round(t_snap / dt)
        if abs(k * dt - t_snap) > 1e-9:
            raise ValueError(f"snapshot time {t_snap} is not a step multiple of dt")
        if not 0 <= k <= n_steps:
            raise ValueError(
                f"snapshot time {t_snap} lies outside [0, {spec.final_time}]"
            )
        snapshot_steps[k] = t_snap

    advisory = stability_guard(spec, resolution, dt)
    # Each apply along an axis carries every pencil of the grid; a wide
    # batch's explicit operator is built here, in setup, as is every array
    # the time loop writes.
    nodes = math.prod(ax.n_nodes for ax in axes)
    for fact in facts:
        fact.prepare(nodes // fact.m)
    # The right-hand side, the middle stage and the advection scratch share
    # one allocation.  As separate arrays on 32^3 cells they made the
    # allocator return and refetch memory every step: 1654 minor page
    # faults per step instead of 72.
    d = spec.dimension
    work = np.empty((2 * d + 1,) + initial[0].shape)
    rhs_out, stage, scratch = tuple(work[:d]), tuple(work[d:-1]), work[-1]
    spare = tuple(np.empty_like(c) for c in initial)
    rhs = lambda s: burgers_rhs(s, facts, spec.inv_re, rhs_out, scratch)

    result = RunResult(final=state, advisory=advisory)
    if 0 in snapshot_steps:
        result.snapshots[snapshot_steps[0]] = _copy(state)

    for n in range(n_steps):
        t = (n + 1) * dt
        try:
            new = tvd_rk3_step(state, dt, rhs, out=spare, stage=stage)
        except UnstableStepError as exc:
            raise InstabilityError(n + 1, t, str(exc)) from exc
        # The spent state's arrays take the next step's result.
        spare = state.components
        # Algorithm step 4: physical boundary values are imposed, not evolved.
        state = FieldSet(set_boundary(new.components, t), t)
        if n + 1 in snapshot_steps:
            result.snapshots[snapshot_steps[n + 1]] = _copy(state)

    result.final = state
    result.steps = n_steps
    return result


def _copy(state: FieldSet) -> FieldSet:
    """A snapshot that owns its arrays: the time loop reuses the state's."""
    return FieldSet(tuple(c.copy() for c in state.components), state.time)


def linf_errors(
    state: FieldSet, spec: ProblemSpec, resolution: Sequence[int]
) -> tuple[float, ...]:
    """Discrete max-norm error of every component against the exact solution."""
    if spec.exact_fn is None:
        raise ValueError("problem has no exact solution registered")
    axes = spec.axes(resolution)
    exact = sample_components(spec.exact_fn, axes, state.time)
    return tuple(
        float(np.max(np.abs(c - e))) for c, e in zip(state.components, exact)
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
    state = FieldSet(components=fields(t), time=t)
    space = burgers_rhs(state, facts, spec.inv_re)
    return tuple(
        float(np.max(np.abs(ut - s))) for ut, s in zip(dudt, space)
    )
