"""Three-stage TVD Runge-Kutta stepper."""

import math

import numpy as np
import pytest

from ccdburgers.tvd_rk3 import (
    STAGE_WEIGHTS,
    FieldSet,
    UnstableStepError,
    tvd_rk3_step,
)


def test_stage_weights_are_convex():
    for prev_w, stage_w, _euler_w in STAGE_WEIGHTS:
        assert prev_w + stage_w == 1.0


def test_zero_rhs_is_bitwise_fixed_point(rng):
    u = rng.standard_normal((7, 7))
    v = rng.standard_normal((7, 7))
    state = FieldSet(components=(u, v), time=0.25)

    def rhs(s):
        return tuple(np.zeros_like(c) for c in s.components)

    out = tvd_rk3_step(state, 0.1, rhs)
    assert np.array_equal(out.components[0], u)
    assert np.array_equal(out.components[1], v)
    assert out.time == 0.35


@pytest.mark.parametrize("z", [-2.0, -1.0, -0.25, 0.5, 1.5])
def test_linear_amplification_is_cubic_taylor(z):
    dt = 0.1
    lam = z / dt
    state = FieldSet(components=(np.array([1.0]),), time=0.0)
    out = tvd_rk3_step(state, dt, lambda s: (lam * s.components[0],))
    expected = 1 + z + z**2 / 2 + z**3 / 6
    assert abs(out.components[0][0] - expected) <= 1e-14 * max(1.0, abs(expected))


def test_exponential_growth_order_three():
    # u' = u, u(0) = 1, compare against e at t = 1
    def err(n_steps):
        dt = 1.0 / n_steps
        state = FieldSet(components=(np.array([1.0]),), time=0.0)
        for _ in range(n_steps):
            state = tvd_rk3_step(state, dt, lambda s: (s.components[0],))
        return abs(state.components[0][0] - math.e)

    orders = [math.log2(err(n) / err(2 * n)) for n in (10, 20, 40)]
    assert all(abs(o - 3.0) < 0.1 for o in orders)


def test_nonlinear_decay_order_three():
    # u' = -u^2, u(0) = 1, exact 1/(1+t)
    def err(n_steps):
        dt = 1.0 / n_steps
        state = FieldSet(components=(np.array([1.0]),), time=0.0)
        for _ in range(n_steps):
            state = tvd_rk3_step(state, dt, lambda s: (-s.components[0] ** 2,))
        return abs(state.components[0][0] - 0.5)

    orders = [math.log2(err(n) / err(2 * n)) for n in (10, 20, 40)]
    assert all(abs(o - 3.0) < 0.1 for o in orders)


def test_exactly_three_rhs_evaluations():
    calls = []

    def rhs(s):
        calls.append(s.time)
        return (np.zeros(3),)

    state = FieldSet(components=(np.ones(3),), time=2.0)
    tvd_rk3_step(state, 0.5, rhs)
    assert len(calls) == 3
    # evaluation times: t, then the nominal stage times t+dt and t+dt/2
    assert calls == [2.0, 2.5, 2.25]


def test_rejects_nonpositive_dt():
    state = FieldSet(components=(np.ones(3),), time=0.0)
    with pytest.raises(ValueError):
        tvd_rk3_step(state, 0.0, lambda s: (np.zeros(3),))


def test_nonfinite_stage_raises():
    state = FieldSet(components=(np.array([1.0, 2.0]),), time=0.0)

    def rhs(s):
        return (np.array([np.inf, 0.0]),)

    with pytest.raises(UnstableStepError, match="largest finite magnitude 2.000e"):
        tvd_rk3_step(state, 0.1, rhs)
    with pytest.raises(UnstableStepError, match="no finite values left"):
        tvd_rk3_step(state, 0.1, lambda s: (np.array([np.nan, -np.inf]),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_is_exact_near_overflow(bad):
    # finite values near the largest double never raise, though their sum
    # overflows; a single NaN or infinity among them does
    big = np.array([1.7e308, -1.7e308, 1.7e308, 1.7e308])
    state = FieldSet(components=(big,), time=0.0)
    out = tvd_rk3_step(state, 0.1, lambda s: (np.zeros(4),))
    assert np.array_equal(out.components[0], big)
    with pytest.raises(UnstableStepError, match="largest finite magnitude 1.700e\\+308"):
        tvd_rk3_step(state, 0.1, lambda s: (np.array([0.0, 0.0, bad, 0.0]),))


@pytest.mark.parametrize("fresh", [False, True])
def test_step_writes_only_its_own_buffers(rng, fresh):
    # u' = u; the right-hand side returns either the very arrays of the state
    # it is given or new ones.  The step may write neither into the state it
    # advances nor into a new array the right-hand side returns.
    u = rng.standard_normal((6, 5))
    v = rng.standard_normal((6, 5))
    state = FieldSet(components=(u, v), time=0.0)
    kept = (u.copy(), v.copy())
    returned = []

    def rhs(s):
        f = tuple(c.copy() for c in s.components) if fresh else s.components
        returned.append((f, tuple(c.copy() for c in f)))
        return f

    out = tuple(np.empty_like(c) for c in kept)
    stage = tuple(np.empty_like(c) for c in kept)
    new = tvd_rk3_step(state, 0.1, rhs, out=out, stage=stage)
    assert new.components is out
    for comp, old in zip(state.components, kept):
        assert np.array_equal(comp, old)
        assert not any(np.shares_memory(comp, c) for c in out + stage)
    if fresh:
        for f, copies in returned:
            for comp, old in zip(f, copies):
                assert np.array_equal(comp, old)
    # returning the stage's own arrays gives, bitwise, what copies give
    copied = tvd_rk3_step(FieldSet(components=kept, time=0.0), 0.1,
                          lambda s: tuple(c.copy() for c in s.components))
    for comp, ref in zip(new.components, copied.components):
        assert np.array_equal(comp, ref)
    expected = 1 + 0.1 + 0.1**2 / 2 + 0.1**3 / 6
    np.testing.assert_allclose(new.components[0], expected * u, rtol=1e-15)
