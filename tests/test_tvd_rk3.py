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

    with pytest.raises(UnstableStepError):
        tvd_rk3_step(state, 0.1, rhs)
