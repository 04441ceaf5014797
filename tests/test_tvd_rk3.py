"""Three-stage TVD Runge-Kutta stepper."""

import math

import numpy as np
import pytest

from ccdburgers.tvd_rk3 import (
    STAGE_WEIGHTS,
    UnstableStepError,
    tvd_rk3_step,
)


def test_stage_weights_are_convex():
    for prev_w, stage_w, _euler_w in STAGE_WEIGHTS:
        assert prev_w + stage_w == 1.0


def test_zero_rhs_is_bitwise_fixed_point(rng):
    u = rng.standard_normal((7, 7))
    v = rng.standard_normal((7, 7))

    def rhs(s):
        return tuple(np.zeros_like(c) for c in s)

    out = tvd_rk3_step((u, v), 0.1, rhs)
    assert np.array_equal(out[0], u)
    assert np.array_equal(out[1], v)


@pytest.mark.parametrize("z", [-2.0, -1.0, -0.25, 0.5, 1.5])
def test_linear_amplification_is_cubic_taylor(z):
    dt = 0.1
    lam = z / dt
    out = tvd_rk3_step((np.array([1.0]),), dt, lambda s: (lam * s[0],))
    expected = 1 + z + z**2 / 2 + z**3 / 6
    assert abs(out[0][0] - expected) <= 1e-14 * max(1.0, abs(expected))


def test_exponential_growth_order_three():
    # u' = u, u(0) = 1, compare against e at t = 1
    def err(n_steps):
        dt = 1.0 / n_steps
        state = (np.array([1.0]),)
        for _ in range(n_steps):
            state = tvd_rk3_step(state, dt, lambda s: (s[0],))
        return abs(state[0][0] - math.e)

    orders = [math.log2(err(n) / err(2 * n)) for n in (10, 20, 40)]
    assert all(abs(o - 3.0) < 0.1 for o in orders)


def test_nonlinear_decay_order_three():
    # u' = -u^2, u(0) = 1, exact 1/(1+t)
    def err(n_steps):
        dt = 1.0 / n_steps
        state = (np.array([1.0]),)
        for _ in range(n_steps):
            state = tvd_rk3_step(state, dt, lambda s: (-s[0] ** 2,))
        return abs(state[0][0] - 0.5)

    orders = [math.log2(err(n) / err(2 * n)) for n in (10, 20, 40)]
    assert all(abs(o - 3.0) < 0.1 for o in orders)


def test_exactly_three_rhs_evaluations():
    calls = []

    def rhs(s):
        calls.append(s)
        return (np.zeros(3),)

    un = (np.ones(3),)
    out, stage = (np.empty(3),), (np.empty(3),)
    new = tvd_rk3_step(un, 0.5, rhs, out=out, stage=stage)
    # the result is ``out`` itself, and the right-hand side is handed the
    # tuples of the state, the first stage and the second stage, in order
    assert new is out
    assert len(calls) == 3
    assert all(got is want for got, want in zip(calls, (un, out, stage)))


def test_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        tvd_rk3_step((np.ones(3),), 0.0, lambda s: (np.zeros(3),))


def test_nonfinite_stage_raises():
    state = (np.array([1.0, 2.0]),)

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
    state = (big,)
    out = tvd_rk3_step(state, 0.1, lambda s: (np.zeros(4),))
    assert np.array_equal(out[0], big)
    with pytest.raises(UnstableStepError, match="largest finite magnitude 1.700e\\+308"):
        tvd_rk3_step(state, 0.1, lambda s: (np.array([0.0, 0.0, bad, 0.0]),))


@pytest.mark.parametrize("fresh", [False, True])
def test_step_writes_only_its_own_buffers(rng, fresh):
    # u' = u; the right-hand side returns either the very arrays of the state
    # it is given or new ones.  The step may write neither into the state it
    # advances nor into a new array the right-hand side returns.
    u = rng.standard_normal((6, 5))
    v = rng.standard_normal((6, 5))
    state = (u, v)
    kept = (u.copy(), v.copy())
    returned = []

    def rhs(s):
        f = tuple(c.copy() for c in s) if fresh else s
        returned.append((f, tuple(c.copy() for c in f)))
        return f

    out = tuple(np.empty_like(c) for c in kept)
    stage = tuple(np.empty_like(c) for c in kept)
    new = tvd_rk3_step(state, 0.1, rhs, out=out, stage=stage)
    assert new is out
    for comp, old in zip(state, kept):
        assert np.array_equal(comp, old)
        assert not any(np.shares_memory(comp, c) for c in out + stage)
    if fresh:
        for f, copies in returned:
            for comp, old in zip(f, copies):
                assert np.array_equal(comp, old)
    # returning the stage's own arrays gives, bitwise, what copies give
    copied = tvd_rk3_step(kept, 0.1, lambda s: tuple(c.copy() for c in s))
    for comp, ref in zip(new, copied):
        assert np.array_equal(comp, ref)
    expected = 1 + 0.1 + 0.1**2 / 2 + 0.1**3 / 6
    np.testing.assert_allclose(new[0], expected * u, rtol=1e-15)
