"""Semi-discrete multidimensional Burgers' right-hand side and time loop.

The velocity components live on a tensor grid; spatial derivatives come
from the compact-difference operator, a fixed matrix applied to the first
differences along each coordinate direction in the field's own memory
layout, and the nonlinear advection terms are formed pointwise, so the
whole right-hand side is explicit.
"""

from __future__ import annotations

import math
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
    a field's components (for boundary data, after a strict ``zip`` fails)."""
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

    Along axis 0, ``f`` itself goes to the operator; along any other axis,
    a view with that axis first.  The operator reads either in ``f``'s own
    memory layout, so no axis is copied into pencil order.  Returns first-
    and second-derivative fields with the shape of ``f``, new arrays that
    the caller may overwrite; they are C-ordered when ``f`` is.
    """
    # indexed: unpacking would iterate over the array, which costs more
    if axis_index == 0:
        d = fact.apply(f)
        return d[0], d[1]
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


def _boundary_nodes(axes: Sequence[GridAxis]):
    """Every boundary node once, as (flat indices, coordinates): the node's
    index into a C-ordered field, and one array per axis of its coordinates,
    in the same order.

    Gathered per axis, both of its faces at once, less the nodes on the
    faces of the axes before it.  Every array is boundary sized; no
    full-grid index or mask is made.
    """
    shape = tuple(ax.n_nodes for ax in axes)
    d = len(shape)
    x = [ax.nodes() for ax in axes]
    count = math.prod(shape) - math.prod(n - 2 for n in shape)
    index = np.zeros(count, dtype=np.intp)
    coords = np.empty((d, count))
    start = 0
    for a, n in enumerate(shape):
        # the slab's positions along each axis
        spans = ([np.arange(1, k - 1) for k in shape[:a]] + [np.array([0, n - 1])]
                 + [np.arange(k) for k in shape[a + 1:]])
        slab = tuple(map(len, spans))
        stop = start + math.prod(slab)
        flat = index[start:stop].reshape(slab)
        for k, pos in enumerate(spans):
            # open along the axes after k, so it broadcasts over the slab
            pos = pos.reshape((-1,) + (1,) * (d - 1 - k))
            flat *= shape[k]
            flat += pos
            coords[k, start:stop].reshape(slab)[...] = x[k][pos]
        start = stop
    return index, tuple(coords)


def _boundary_setter(spec: ProblemSpec, nodes):
    """Build a closure overwriting the boundary ``nodes`` (see
    ``_boundary_nodes``) from boundary_fn."""
    index, coords = nodes

    def set_boundary(components: tuple[np.ndarray, ...], t: float):
        """Write the boundary values at time t into the C-ordered
        ``components`` in place, from one boundary_fn call on all boundary
        nodes and one scatter per component, and return the same tuple."""
        values = spec.boundary_fn(*coords, t)
        try:
            for comp, val in zip(components, values, strict=True):
                comp.ravel()[index] = val
        except ValueError:
            raise _boundary_refusal(values, len(components), index.size,
                                    t) from None
        return components

    return set_boundary


def _boundary_refusal(values, d: int, size: int, t: float) -> ValueError:
    """Refuse boundary data at time t that a strict ``zip`` with d
    components stopped, by the count rule, or else return the error naming
    its shapes, which do not broadcast to the ``size`` boundary nodes."""
    values = _components(values, d, "boundary data", t)
    shapes = ", ".join(str(np.shape(v)) for v in values)
    return ValueError(
        f"boundary data at t={t:g} has shapes {shapes}, which do not "
        f"broadcast to the {size} boundary nodes")


def _validate_initial_boundary(initial, spec: ProblemSpec, nodes):
    """Refuse non-finite initial data, boundary data at t=0 as at every
    later step (a wrong count or shape, or not finite), and initial data
    that differs from it by more than 1e-12 at any of the boundary ``nodes``.

    Only the boundary nodes are compared, as only they are imposed; the
    finiteness pass reads every node without a float copy.
    """
    if not all(np.isfinite(c).all() for c in initial):
        raise ValueError("initial data must be finite")
    index, coords = nodes
    values = spec.boundary_fn(*coords, 0.0)
    try:
        deviations = [float(np.max(np.abs(comp.ravel()[index] - val)))
                      for comp, val in zip(initial, values, strict=True)]
    except ValueError:
        raise _boundary_refusal(values, len(initial), index.size,
                                0.0) from None
    if all(dev <= 1e-12 for dev in deviations):
        return
    # the initial data is finite, so a deviation that is not comes from
    # the boundary data
    if not all(map(math.isfinite, deviations)):
        raise ValueError("boundary data at t=0 is not finite")
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
    n_steps = _step_count(spec.final_time, dt)

    # The boundary gather allocates every axis's nodes, so an axis too long
    # to hold fails here, before its operator is built.  The arrays that
    # live for the whole run come before the initial data: allocated after
    # the sampling's temporaries are freed, they split that memory, which
    # raised the peak RSS of a run on 1025^2 nodes by a field's 8 MiB.
    nodes = _boundary_nodes(axes)
    set_boundary = _boundary_setter(spec, nodes)
    facts = tuple(get_factorization(ax) for ax in axes)
    initial = sample_components(spec.initial_fn, axes)
    _validate_initial_boundary(initial, spec, nodes)

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
            # a step checks what it writes, so a state that was already
            # non-finite has it from boundary_fn
            _check_boundary(state, nodes[0], n * dt)
            raise InstabilityError(n + 1, t, str(exc)) from exc
        # The spent state's arrays take the next step's result.
        spare = state
        # Algorithm step 4: physical boundary values are imposed, not evolved.
        state = set_boundary(new, t)
        if n + 1 in snapshot_steps:
            snapshots[snapshot_steps[n + 1]] = _copy(state, t)

    # no step reads the boundary data of the last one
    _check_boundary(state, nodes[0], n_steps * dt)
    return RunResult(FieldSet(state, n_steps * dt), snapshots, n_steps)


def _check_boundary(components: tuple[np.ndarray, ...], index: np.ndarray,
                    t: float) -> None:
    """Refuse non-finite values at the boundary nodes ``index`` of the
    C-ordered ``components`` as boundary data imposed at time t."""
    if not all(np.isfinite(c.ravel()[index]).all() for c in components):
        raise ValueError(f"boundary data at t={t:g} is not finite")


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
