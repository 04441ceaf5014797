"""Semi-discrete Burgers' right-hand side and the time-marching driver."""

import numpy as np
import pytest

from ccdburgers import ccd, model
from ccdburgers.ccd import get_factorization
from ccdburgers.exact import example2_spec, example3_exact, example3_spec
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
        dimension=dimension,
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
    state = FieldSet(components=(np.full((9, 9), 2.0), np.full((9, 9), -1.0)), time=0.0)
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
    out = burgers_rhs(FieldSet(components=(u, v), time=0.0), facts, 0.1)
    assert np.max(np.abs(out[0] + 2 * x)) < 1e-10
    assert np.max(np.abs(out[1] + 2 * y)) < 1e-10


def test_rhs_1d_cubic_oracle():
    # u = x(1-x) is quadratic, so both derivative fields are exact:
    # rhs = -u(1-2x) + inv_re*(-2)
    ax = GridAxis(64)
    x = ax.nodes()
    u = x * (1 - x)
    out = burgers_rhs(FieldSet(components=(u,), time=0.0), (get_factorization(ax),), 1.0)
    expected = -u * (1 - 2 * x) - 2.0
    assert np.max(np.abs(out[0] - expected)) < 1e-10


def test_rhs_3d_z_constant_matches_2d_slices():
    spec = example2_spec()
    ax = GridAxis(8)
    u, v = sample_components(spec.exact_fn, (ax, ax), 0.0)
    facts2 = (get_factorization(ax),) * 2
    out2 = burgers_rhs(FieldSet(components=(u, v), time=0.0), facts2, 0.1)

    u3 = np.repeat(u[:, :, None], 9, axis=2)
    v3 = np.repeat(v[:, :, None], 9, axis=2)
    w3 = np.zeros_like(u3)
    facts3 = (get_factorization(ax),) * 3
    out3 = burgers_rhs(FieldSet(components=(u3, v3, w3), time=0.0), facts3, 0.1)
    # the z terms are analytically zero but leave operator roundoff (~1e-12),
    # so the slices agree to solver roundoff rather than bitwise
    for k in range(9):
        assert np.max(np.abs(out3[0][:, :, k] - out2[0])) < 1e-10
        assert np.max(np.abs(out3[1][:, :, k] - out2[1])) < 1e-10
    assert np.max(np.abs(out3[2])) < 1e-10


# --- stability advisory -----------------------------------------------------

def test_stability_guard_2d_no_warning():
    spec = example2_spec()
    h = 1 / 16
    advisory = stability_guard(spec, [16, 16], h**2)
    assert advisory.limit == pytest.approx(h**2 / (2 * 2 * 0.1))
    assert not advisory.warn


def test_stability_guard_1d_fine_step():
    spec = ProblemSpec(
        dimension=1, domain=((0.0, 1.0),), inv_re=1.0, final_time=1.0,
        initial_fn=lambda x: (np.zeros_like(x),),
        boundary_fn=lambda x, t: (np.zeros_like(x),),
    )
    advisory = stability_guard(spec, [80], 1e-5)
    assert advisory.limit == pytest.approx(0.0125**2 / 2)
    assert not advisory.warn


def test_stability_guard_3d_warning():
    spec = ProblemSpec(
        dimension=3, domain=((0.0, 1.0),) * 3, inv_re=1.0, final_time=1.0,
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
    # every apply on 8 x 8 cells carries 9 pencils of 9 nodes, a wide batch;
    # its operator belongs to the run's setup, not to its first step
    spec = example3_spec(final_time=0.01)
    axis = spec.axes([8, 8])[0]
    step = model.tvd_rk3_step
    built = []

    def first_step(state, dt, rhs):
        built.append(get_factorization(axis)._blocks is not None)
        return step(state, dt, rhs)

    monkeypatch.setattr(model, "tvd_rk3_step", first_step)
    monkeypatch.setattr(ccd, "_CACHE", {})
    run(spec, [8, 8], 0.005)
    assert built == [True, True]


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


def test_snapshots_are_recorded():
    spec = example3_spec()
    result = run(spec, [8, 8], 0.025, snapshot_times=(0.0, 0.05, 0.1))
    assert set(result.snapshots) == {0.0, 0.05, 0.1}
    assert result.snapshots[0.1].time == pytest.approx(0.1)
    final_err = max(linf_errors(result.final, spec, [8, 8]))
    assert final_err < 1e-4  # coarse dt: error ~ dt^3


def test_initial_boundary_mismatch_rejected():
    spec = ProblemSpec(
        dimension=1, domain=((0.0, 1.0),), inv_re=0.1, final_time=1.0,
        initial_fn=lambda x: (np.ones_like(x),),
        boundary_fn=lambda x, t: (np.zeros_like(x),),
    )
    with pytest.raises(ValueError, match="boundary"):
        run(spec, [8], 0.125)
    # NaN initial data: at x = 1 in 1D, and in the second of two components
    # in 2D
    nan_at_right = ProblemSpec(
        dimension=1, domain=((0.0, 1.0),), inv_re=0.1, final_time=1.0,
        initial_fn=lambda x: (np.where(x == 1.0, np.nan, 0.0),),
        boundary_fn=lambda x, t: (np.zeros_like(x),),
    )
    nan_in_v = ProblemSpec(
        dimension=2, domain=((0.0, 1.0),) * 2, inv_re=0.1, final_time=1.0,
        initial_fn=lambda x, y: (0 * x + 0 * y, np.nan + 0 * x + 0 * y),
        boundary_fn=lambda x, y, t: (0 * x + 0 * y, 0 * x + 0 * y),
    )
    for bad, resolution in ((nan_at_right, [8]), (nan_in_v, [8, 8])):
        with pytest.raises(ValueError, match="finite"):
            run(bad, resolution, 0.125)
    # finite initial data against NaN boundary data
    nan_boundary = ProblemSpec(
        dimension=1, domain=((0.0, 1.0),), inv_re=0.1, final_time=1.0,
        initial_fn=lambda x: (np.zeros_like(x),),
        boundary_fn=lambda x, t: (np.full_like(x, np.nan),),
    )
    with pytest.raises(ValueError, match="boundary"):
        run(nan_boundary, [8], 0.125)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_instability_reported_with_step():
    spec = example2_spec()
    with pytest.raises(InstabilityError) as info:
        run(spec, [16, 16], 0.1)
    assert info.value.step >= 1
    assert info.value.time == pytest.approx(info.value.step * 0.1)
    assert "dt" in str(info.value)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(
            dimension=4, domain=((0.0, 1.0),) * 4, inv_re=0.1, final_time=1.0,
            initial_fn=lambda *a: (), boundary_fn=lambda *a: (),
        )
    for inv_re, final_time in ((-1.0, 1.0), (np.inf, 1.0), (0.1, np.inf)):
        with pytest.raises(ValueError):
            ProblemSpec(
                dimension=1, domain=((0.0, 1.0),), inv_re=inv_re,
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
