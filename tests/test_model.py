"""Semi-discrete Burgers' right-hand side and the time-marching driver."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ccdburgers import ccd, model
from ccdburgers.ccd import get_factorization
from ccdburgers.exact import (
    example2_spec,
    example3_exact,
    example3_spec,
    example4_spec,
)
from ccdburgers.grid import GridAxis
from ccdburgers.model import (
    FieldSet,
    InstabilityError,
    ProblemSpec,
    burgers_rhs,
    directional_derivatives,
    linf_errors,
    pde_residual,
    run,
    sample_components,
    stability_guard,
)


def _const_spec(value=0.75, dimension=2):
    def initial(*coords):
        shape = np.broadcast(*(np.asarray(c) for c in coords)).shape
        return tuple(np.full(shape, value) for _ in range(dimension))

    def boundary(*coords_t):
        return initial(*coords_t[:-1])

    return ProblemSpec(
        domain=((0.0, 1.0),) * dimension,
        inv_re=0.1,
        final_time=0.5,
        initial_fn=initial,
        boundary_fn=boundary,
        exact_fn=boundary,
        name="constant",
    )


# --- directional derivatives ------------------------------------------------

def test_directional_derivative_constant_axis():
    ax = GridAxis(8)
    y = ax.nodes()
    f = np.broadcast_to(y**3, (9, 9)).copy()  # constant along axis 0
    first, _second = directional_derivatives(f, 0, get_factorization(ax))
    assert np.max(np.abs(first)) < 1e-12


def test_directional_derivative_linear_field():
    ax = GridAxis(8)
    x = ax.nodes()[:, None]
    y = ax.nodes()[None, :]
    f = x + y + np.zeros((9, 9))
    first, second = directional_derivatives(f, 0, get_factorization(ax))
    assert np.max(np.abs(first - 1)) < 1e-11
    assert np.max(np.abs(second)) < 1e-11


def test_directional_derivative_separable_polynomial():
    ax = GridAxis(6)
    x = ax.nodes()
    f = np.outer(x**3, x**2 + 1)
    fact = get_factorization(ax)
    first, second = directional_derivatives(f, 0, fact)
    np.testing.assert_allclose(first, np.outer(3 * x**2, x**2 + 1), atol=1e-10)
    np.testing.assert_allclose(second, np.outer(6 * x, x**2 + 1), atol=1e-10)
    # y sweep of the same array via axis index 1
    first_y, _ = directional_derivatives(f, 1, fact)
    np.testing.assert_allclose(first_y, np.outer(x**3, 2 * x), atol=1e-10)


def test_directional_derivatives_match_apply_on_pencil_order_copy(rng):
    # axis 0 is read as given, axis 1 as 9 groups of 5 pencils, and axis 2
    # as 585 rows; with these short axes the products give the same bits as
    # on the copy
    f = rng.standard_normal((9, 65, 5))
    for axis in range(3):
        fact = get_factorization(GridAxis(f.shape[axis] - 1))
        first, second = directional_derivatives(f, axis, fact)
        ref1, ref2 = fact.apply(np.ascontiguousarray(f.swapaxes(0, axis)))
        np.testing.assert_array_equal(first, ref1.swapaxes(0, axis))
        np.testing.assert_array_equal(second, ref2.swapaxes(0, axis))
        assert first.shape == second.shape == f.shape


def test_directional_derivatives_are_c_ordered(rng):
    # every axis of a C-ordered field is differentiated in the field's own
    # layout and comes back C-ordered; 201 nodes along a last axis take
    # several row blocks, each multiplying a batch of rows from the right
    for shape in ((9, 65, 5), (33, 33, 33), (7, 201)):
        f = rng.standard_normal(shape)
        for axis in range(len(shape)):
            fact = get_factorization(GridAxis(shape[axis] - 1))
            got = directional_derivatives(f, axis, fact)
            pair = fact.apply(np.ascontiguousarray(f.swapaxes(0, axis)))
            for field, ref in zip(got, pair):
                assert field.flags.c_contiguous
                # relative to each pencil's largest derivative
                err = np.abs(field.swapaxes(0, axis) - ref).max(axis=0)
                assert np.all(err <= 1e-14 * np.abs(ref).max(axis=0))


def test_directional_derivative_interior_refinement():
    # interior error of an x sweep drops by at least 2^5.5 per refinement;
    # the global maximum is boundary-closure limited and decays slower
    def interior_err(m):
        ax = GridAxis(m)
        x = ax.nodes()[:, None]
        y = ax.nodes()[None, :]
        f = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + np.zeros((m + 1, m + 1))
        first, _ = directional_derivatives(f, 0, get_factorization(ax))
        exact = 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        sl = slice(m // 4, 3 * m // 4 + 1)
        return np.abs(first - exact)[sl, :].max()

    assert interior_err(32) <= interior_err(16) / 2**5.5


def test_directional_derivative_shape_mismatch():
    with pytest.raises(ValueError):
        directional_derivatives(np.zeros((9, 9)), 0, get_factorization(GridAxis(16)))


# --- right-hand side --------------------------------------------------------

def test_rhs_constant_state_is_zero():
    facts = (get_factorization(GridAxis(8)),) * 2
    state = (np.full((9, 9), 2.0), np.full((9, 9), -1.0))
    out = burgers_rhs(state, facts, 0.1)
    for comp in out:
        assert np.max(np.abs(comp)) < 1e-11


def test_rhs_linear_2d_hand_oracle():
    # u = x+y, v = x-y: advection gives rhs_u = -(u+v) = -2x,
    # rhs_v = -(u-v) = -2y; the Laplacian vanishes
    ax = GridAxis(8, 0.0, 0.5)
    x = ax.nodes()[:, None]
    y = ax.nodes()[None, :]
    zeros = np.zeros((9, 9))
    u = x + y + zeros
    v = x - y + zeros
    facts = (get_factorization(ax),) * 2
    out = burgers_rhs((u, v), facts, 0.1)
    assert np.max(np.abs(out[0] + 2 * x)) < 1e-10
    assert np.max(np.abs(out[1] + 2 * y)) < 1e-10


def test_rhs_1d_cubic_oracle():
    # u = x(1-x) is quadratic, so both derivative fields are exact:
    # rhs = -u(1-2x) + inv_re*(-2)
    ax = GridAxis(64)
    x = ax.nodes()
    u = x * (1 - x)
    out = burgers_rhs((u,), (get_factorization(ax),), 1.0)
    expected = -u * (1 - 2 * x) - 2.0
    assert np.max(np.abs(out[0] - expected)) < 1e-10


def test_rhs_3d_z_constant_matches_2d_slices():
    spec = example2_spec()
    ax = GridAxis(8)
    u, v = sample_components(spec.exact_fn, (ax, ax), 0.0)
    facts2 = (get_factorization(ax),) * 2
    out2 = burgers_rhs((u, v), facts2, 0.1)

    u3 = np.repeat(u[:, :, None], 9, axis=2)
    v3 = np.repeat(v[:, :, None], 9, axis=2)
    w3 = np.zeros_like(u3)
    facts3 = (get_factorization(ax),) * 3
    out3 = burgers_rhs((u3, v3, w3), facts3, 0.1)
    # the z terms are analytically zero but leave operator roundoff (~1e-12),
    # so the slices agree to solver roundoff rather than bitwise
    for k in range(9):
        assert np.max(np.abs(out3[0][:, :, k] - out2[0])) < 1e-10
        assert np.max(np.abs(out3[1][:, :, k] - out2[1])) < 1e-10
    assert np.max(np.abs(out3[2])) < 1e-10


@pytest.mark.parametrize("shape", [(17,), (9, 13), (9, 7, 11)])
def test_rhs_leaves_state_alone_and_repeats_into_out(shape, rng):
    # the advection terms are formed in the operator's new derivative
    # arrays, never in the state; a second call into the same out arrays
    # gives the same bits
    facts = tuple(get_factorization(GridAxis(n - 1)) for n in shape)
    comps = tuple(rng.standard_normal(shape) for _ in shape)
    before = tuple(c.copy() for c in comps)
    out = tuple(np.empty(shape) for _ in shape)
    first = tuple(c.copy() for c in burgers_rhs(comps, facts, 0.1, out))
    again = burgers_rhs(comps, facts, 0.1, out)
    assert all(a is b for a, b in zip(again, out))
    for comp, old, a, b in zip(comps, before, first, again):
        assert np.array_equal(comp, old)
        assert np.array_equal(a, b)
    for a, b in zip(again, burgers_rhs(comps, facts, 0.1)):
        assert np.array_equal(a, b)


# --- stability advisory -----------------------------------------------------

def test_stability_guard_2d_no_warning():
    spec = example2_spec()
    h = 1 / 16
    advisory = stability_guard(spec, [16, 16], h**2)
    assert advisory.limit == pytest.approx(h**2 / (2 * 2 * 0.1))
    assert not advisory.warn


def test_stability_guard_1d_fine_step():
    spec = ProblemSpec(
        domain=((0.0, 1.0),), inv_re=1.0, final_time=1.0,
        initial_fn=lambda x: (np.zeros_like(x),),
        boundary_fn=lambda x, t: (np.zeros_like(x),),
    )
    advisory = stability_guard(spec, [80], 1e-5)
    assert advisory.limit == pytest.approx(0.0125**2 / 2)
    assert not advisory.warn


def test_stability_guard_3d_warning():
    spec = ProblemSpec(
        domain=((0.0, 1.0),) * 3, inv_re=1.0, final_time=1.0,
        initial_fn=lambda x, y, z: (np.zeros_like(x + y + z),) * 3,
        boundary_fn=lambda x, y, z, t: (np.zeros_like(x + y + z),) * 3,
    )
    advisory = stability_guard(spec, [10, 10, 10], 0.01)
    assert advisory.limit == pytest.approx(0.01 / 6)
    assert advisory.warn


# --- driver -----------------------------------------------------------------

def test_constant_problem_is_steady():
    spec = _const_spec()
    result = run(spec, [8, 8], 0.05)
    assert result.steps == 10
    errors = linf_errors(result.final, spec, [8, 8])
    assert max(errors) < 1e-12


def test_run_builds_wide_operator_before_first_step(monkeypatch):
    # a factorization builds its operator when it is made, so the one that
    # both axes of 8 x 8 cells share is in the cache before the first step
    spec = example3_spec(final_time=0.01)
    axis = spec.axes([8, 8])[0]
    step = model.tvd_rk3_step
    built = []

    def first_step(*args, **kwargs):
        built.append(tuple(ccd._CACHE.values()))
        return step(*args, **kwargs)

    monkeypatch.setattr(model, "tvd_rk3_step", first_step)
    monkeypatch.setattr(ccd, "_CACHE", {})
    run(spec, [8, 8], 0.005)
    fact = get_factorization(axis)
    assert built == [(fact,), (fact,)]


def test_zero_final_time_returns_initial():
    spec = example3_spec(final_time=0.0)
    result = run(spec, [8, 8], 0.01)
    assert result.steps == 0
    assert max(linf_errors(result.final, spec, [8, 8])) == 0.0


def test_boundary_nodes_are_overwritten_bitwise():
    spec = example2_spec(final_time=0.01)
    resolution = [8, 8]
    result = run(spec, resolution, 0.002)
    axes = spec.axes(resolution)
    exact = sample_components(spec.boundary_fn, axes, result.final.time)
    for comp, ref in zip(result.final.components, exact):
        assert np.array_equal(comp[0, :], ref[0, :])
        assert np.array_equal(comp[-1, :], ref[-1, :])
        assert np.array_equal(comp[:, 0], ref[:, 0])
        assert np.array_equal(comp[:, -1], ref[:, -1])


def _boundary_mask(shape):
    mask = np.ones(shape, dtype=bool)
    mask[tuple(slice(1, -1) for _ in shape)] = False
    return mask


def test_set_boundary_writes_in_place():
    # a 3D grid with a different node count on each axis
    spec = example4_spec()
    axes = spec.axes([4, 5, 6])
    set_boundary = model._boundary_setter(spec, model._boundary_faces(axes))
    rng = np.random.default_rng(0)
    comps = tuple(rng.standard_normal((5, 6, 7)) for _ in range(3))
    before = tuple(c.copy() for c in comps)
    out = set_boundary(comps, 0.3)
    assert out is comps
    ref = sample_components(spec.boundary_fn, axes, 0.3)
    face = _boundary_mask((5, 6, 7))
    for comp, old, exact in zip(comps, before, ref):
        assert np.array_equal(comp[face], exact[face])
        assert np.array_equal(comp[~face], old[~face])


def test_runs_are_deterministic():
    spec = example2_spec(final_time=0.02)
    a = run(spec, [8, 8], 0.002)
    b = run(spec, [8, 8], 0.002)
    for ca, cb in zip(a.final.components, b.final.components):
        assert np.array_equal(ca, cb)


def test_dt_must_divide_final_time():
    with pytest.raises(ValueError):
        run(example3_spec(), [8, 8], 0.03)
    with pytest.raises(ValueError, match="positive and finite"):
        run(example3_spec(), [8, 8], 0.0)


def test_snapshot_times_must_land_on_steps():
    # off the step lattice, past the final time 0.1, before t = 0
    for t_snap in (0.0123, 0.2, -0.05):
        with pytest.raises(ValueError):
            run(example3_spec(), [8, 8], 0.1 / 32, snapshot_times=(0.05, t_snap))
    # 0.4 steps off the lattice, which the final time's rule of 1e-12
    # relative refuses
    with pytest.raises(ValueError):
        run(example3_spec(final_time=1e-6), [8, 8], 1e-9,
            snapshot_times=(5.004e-7,))


def test_snapshots_are_recorded():
    spec = example3_spec()
    result = run(spec, [8, 8], 0.025, snapshot_times=(0.0, 0.05, 0.1))
    assert set(result.snapshots) == {0.0, 0.05, 0.1}
    assert result.snapshots[0.1].time == pytest.approx(0.1)
    final_err = max(linf_errors(result.final, spec, [8, 8]))
    assert final_err < 1e-4  # coarse dt: error ~ dt^3
    # the time loop reuses its arrays, so each snapshot must own a copy that
    # no later step or boundary imposition writes into
    states = [*result.snapshots.values(), result.final]
    arrays = [c for state in states for c in state.components]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    axes = spec.axes([8, 8])
    initial = sample_components(spec.initial_fn, axes)
    for comp, ref in zip(result.snapshots[0.0].components, initial):
        assert np.array_equal(comp, ref)
    face = _boundary_mask((9, 9))
    for snap in result.snapshots.values():
        ref = sample_components(spec.boundary_fn, axes, snap.time)
        for comp, exact in zip(snap.components, ref):
            assert np.array_equal(comp[face], exact[face])


def test_run_makes_a_field_set_per_snapshot_and_for_the_result(monkeypatch):
    # the time loop advances plain tuples of arrays: four steps with one
    # snapshot make two records, each at its step's time
    made = []

    def counted(*args, **kwargs):
        made.append(FieldSet(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(model, "FieldSet", counted)
    result = run(example3_spec(), [8, 8], 0.025, snapshot_times=(0.05,))
    assert result.steps == 4
    assert len(made) == 2
    assert made[0] is result.snapshots[0.05] and made[1] is result.final
    assert made[0].time == 2 * 0.025 and made[1].time == 4 * 0.025


def test_initial_boundary_mismatch_rejected():
    spec = ProblemSpec(
        domain=((0.0, 1.0),), inv_re=0.1, final_time=1.0,
        initial_fn=lambda x: (np.ones_like(x),),
        boundary_fn=lambda x, t: (np.zeros_like(x),),
    )
    with pytest.raises(ValueError, match="boundary"):
        run(spec, [8], 0.125)
    # NaN initial data: at x = 1 in 1D, and in the second of two components
    # in 2D
    nan_at_right = ProblemSpec(
        domain=((0.0, 1.0),), inv_re=0.1, final_time=1.0,
        initial_fn=lambda x: (np.where(x == 1.0, np.nan, 0.0),),
        boundary_fn=lambda x, t: (np.zeros_like(x),),
    )
    nan_in_v = ProblemSpec(
        domain=((0.0, 1.0),) * 2, inv_re=0.1, final_time=1.0,
        initial_fn=lambda x, y: (0 * x + 0 * y, np.nan + 0 * x + 0 * y),
        boundary_fn=lambda x, y, t: (0 * x + 0 * y, 0 * x + 0 * y),
    )
    for bad, resolution in ((nan_at_right, [8]), (nan_in_v, [8, 8])):
        with pytest.raises(ValueError, match="finite"):
            run(bad, resolution, 0.125)
    # finite initial data against NaN boundary data
    nan_boundary = ProblemSpec(
        domain=((0.0, 1.0),), inv_re=0.1, final_time=1.0,
        initial_fn=lambda x: (np.zeros_like(x),),
        boundary_fn=lambda x, t: (np.full_like(x, np.nan),),
    )
    with pytest.raises(ValueError, match="boundary"):
        run(nan_boundary, [8], 0.125)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_interior_initial_data_rejected(bad):
    # one bad node off every face, where the face comparison never looks:
    # x = 0.5 in 1D, (0.5, 0.25) in the second component in 2D
    line = ProblemSpec(
        domain=((0.0, 1.0),), inv_re=0.1, final_time=1.0,
        initial_fn=lambda x: (np.where(x == 0.5, bad, 0.0),),
        boundary_fn=lambda x, t: (np.zeros_like(x),),
    )
    plane = ProblemSpec(
        domain=((0.0, 1.0),) * 2, inv_re=0.1, final_time=1.0,
        initial_fn=lambda x, y: (
            0 * x + 0 * y, np.where((x == 0.5) & (y == 0.25), bad, 0.0)),
        boundary_fn=lambda x, y, t: (0 * x + 0 * y, 0 * x + 0 * y),
    )
    for spec, resolution in ((line, [8]), (plane, [8, 8])):
        with pytest.raises(ValueError, match="finite"):
            run(spec, resolution, 0.125)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("end", [0.0, 1.0])
def test_mismatch_inside_one_face_rejected(axis, end):
    # the boundary data differs from zero initial data only at the centre
    # of one face of the unit cube, a node that no other face holds
    def initial(x, y, z):
        zero = 0 * x + 0 * y + 0 * z
        return zero, zero, zero

    def boundary(x, y, z, t):
        coords = (x, y, z)
        centre = coords[axis] == end
        for other in {0, 1, 2} - {axis}:
            centre = centre & (coords[other] == 0.5)
        zero = 0 * x + 0 * y + 0 * z
        return zero, np.where(centre, 1e-9, 0.0), zero

    spec = ProblemSpec(
        domain=((0.0, 1.0),) * 3, inv_re=0.1, final_time=1.0,
        initial_fn=initial, boundary_fn=boundary,
    )
    with pytest.raises(ValueError, match=r"max deviation 1\.000e-09"):
        run(spec, [4, 4, 4], 0.125)


def test_initial_boundary_check_reads_faces_only():
    # two 513^2 components: one float copy of either is 2.1 MB, while the
    # faces and the finiteness pass's boolean mask stay well below 1 MiB
    spec = example2_spec()
    axes = spec.axes([512, 512])
    faces = model._boundary_faces(axes)
    initial = sample_components(spec.initial_fn, axes)
    tracemalloc.start()
    try:
        model._validate_initial_boundary(initial, spec, faces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_linf_errors_match_the_sampled_exact_solution():
    # the exact values are compared as broadcast; the errors are bitwise
    # those against full copies of them
    for spec, resolution, dt in (
        (example2_spec(final_time=0.01), [8, 16], 0.002),
        (example4_spec(final_time=0.02), [4, 4, 6], 0.01),
    ):
        result = run(spec, resolution, dt)
        exact = sample_components(
            spec.exact_fn, spec.axes(resolution), result.final.time)
        expected = tuple(
            float(np.max(np.abs(c - e)))
            for c, e in zip(result.final.components, exact))
        assert linf_errors(result.final, spec, resolution) == expected
        assert max(expected) > 0


@pytest.mark.parametrize("n_initial, n_boundary", [(1, 1), (3, 3), (2, 1), (2, 3)])
def test_component_count_must_match_dimension(n_initial, n_boundary):
    # one component per dimension, in the initial data and in the boundary
    # data at t = 0; zip would silently drop the missing physics or the
    # extra component
    def initial(x, y):
        return tuple(0 * x + 0 * y for _ in range(n_initial))

    def boundary(x, y, t):
        return tuple(0 * x + 0 * y for _ in range(n_boundary))

    spec = ProblemSpec(
        domain=((0.0, 1.0),) * 2, inv_re=0.1, final_time=0.25,
        initial_fn=initial, boundary_fn=boundary,
    )
    what = "initial" if n_initial != 2 else "boundary"
    with pytest.raises(ValueError, match=f"{what} data.* components, not 2"):
        run(spec, [8, 8], 0.125)


def test_component_count_is_checked_on_every_callback_result():
    # not only at t = 0: an exact solution with one component on a 2D
    # problem, and boundary data that drops a component after t = 0, are
    # refused, where zip would silently drop the missing component
    spec = example3_spec(final_time=0.01)
    final = run(spec, [8, 8], 0.005).final
    one = dataclasses.replace(
        spec, exact_fn=lambda x, y, t: example3_exact(x, y, t)[:1])
    with pytest.raises(ValueError,
                       match=r"exact solution at t=0\.01 has 1 components, not 2"):
        linf_errors(final, one, [8, 8])
    with pytest.raises(ValueError, match="has 1 components, not 2"):
        pde_residual(one, one.exact_fn, 0.05, [8, 8])

    def boundary(x, y, t):
        values = example3_exact(x, y, t)
        return values if t == 0 else values[:1]

    dropping = dataclasses.replace(spec, boundary_fn=boundary)
    with pytest.raises(ValueError,
                       match=r"boundary data at t=0\.005 has 1 components, not 2"):
        run(dropping, [8, 8], 0.005)


def test_the_runtime_loads_no_scipy():
    # the package needs NumPy only: importing it, marching examples 1 and 4
    # and measuring example 1's error load no scipy module
    code = textwrap.dedent("""
        import sys
        from ccdburgers import exact, model
        spec = exact.example1_spec(final_time=0.05)
        result = model.run(spec, [16], 0.0125)
        assert max(model.linf_errors(result.final, spec, [16])) < 1e-4
        model.run(exact.example4_spec(final_time=1 / 64), [8, 8, 8], 1 / 64)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = Path(model.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_dimension_is_the_domain_length():
    for d in (1, 2, 3):
        spec = ProblemSpec(
            domain=((0.0, 1.0),) * d, inv_re=0.1, final_time=1.0,
            initial_fn=lambda *a: (), boundary_fn=lambda *a: (),
        )
        assert spec.dimension == d
    # four axes are refused in test_spec_validation
    with pytest.raises(ValueError, match="dimension must be 1, 2 or 3, got 0"):
        ProblemSpec(
            domain=(), inv_re=0.1, final_time=1.0,
            initial_fn=lambda *a: (), boundary_fn=lambda *a: (),
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_instability_reported_with_step():
    spec = example2_spec()
    with pytest.raises(InstabilityError) as info:
        run(spec, [16, 16], 0.1)
    assert info.value.step >= 1
    assert info.value.time == pytest.approx(info.value.step * 0.1)
    # the heuristic diffusive limit can approve a step that blows up, so the
    # message does not point to it
    assert str(info.value).endswith("; rerun with a smaller dt")
    assert "stability_guard" not in str(info.value)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(
            domain=((0.0, 1.0),) * 4, inv_re=0.1, final_time=1.0,
            initial_fn=lambda *a: (), boundary_fn=lambda *a: (),
        )
    for inv_re, final_time in ((-1.0, 1.0), (np.inf, 1.0), (0.1, np.inf)):
        with pytest.raises(ValueError):
            ProblemSpec(
                domain=((0.0, 1.0),), inv_re=inv_re,
                final_time=final_time,
                initial_fn=lambda x: (x,), boundary_fn=lambda x, t: (x,),
            )


# --- manufactured-solution residual gate ------------------------------------

def test_residual_gate_spatially_linear_oracle():
    spec = example3_spec()
    res = pde_residual(spec, spec.exact_fn, 0.05, [8, 8])
    assert max(res) < 1e-10


def test_residual_gate_flags_wrong_oracle():
    spec = example3_spec()

    def wrong(x, y, t):
        u, v = example3_exact(x, y, t)
        return u + 0.01 * t, v

    res = pde_residual(spec, wrong, 0.05, [8, 8])
    assert max(res) > 1e-3


def test_residual_gate_smooth_oracle_refines():
    # for non-polynomial solutions the gate floor is the boundary-closure
    # truncation of the second derivative, which decays like h^3
    spec = example2_spec()
    coarse = max(pde_residual(spec, spec.exact_fn, 0.5, [16, 16]))
    fine = max(pde_residual(spec, spec.exact_fn, 0.5, [32, 32]))
    assert fine < coarse / 2**2.5
