"""Combined compact difference operator: assembly, factorization, accuracy."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccdburgers
from ccdburgers import ccd
from ccdburgers.ccd import CcdFactorization, dense_matrices, get_factorization
from ccdburgers.grid import GridAxis


def test_axis_basics():
    ax = GridAxis(8, 0.0, 2.0)
    assert ax.n_nodes == 9
    assert ax.spacing == 0.25
    np.testing.assert_allclose(ax.nodes(), np.linspace(0, 2, 9))


def test_axis_rejects_too_few_cells():
    # 4 nodes make the coefficient matrix exactly singular.
    with pytest.raises(ValueError):
        GridAxis(3)


def test_axis_rejects_bad_interval():
    with pytest.raises(ValueError):
        GridAxis(8, 1.0, 1.0)


def _blocks(axis):
    """The blocks A1, A2, A3, A4, B1, B2 of [[A1, A2], [A3, A4]] [u'; u'']
    = [B1; B2] u, as slices of the dense views."""
    A, B = dense_matrices(axis)
    m = axis.n_nodes
    return A[:m, :m], A[:m, m:], A[m:, :m], A[m:, m:], B[:m], B[m:]


def test_system_entries_match_definition():
    ax = GridAxis(4, 0.0, 4.0)  # h = 1
    A, B = dense_matrices(ax)
    assert A.shape == (10, 10) and B.shape == (10, 5)
    A1, A2, A3, A4, B1, B2 = _blocks(ax)
    assert A1[0, 0] == 14.0 and A1[0, 1] == 16.0
    assert A2[0, 0] == 2.0 and A2[0, 1] == -4.0
    assert A3[0, 0] == 1.0 and A3[0, 1] == 2.0
    assert A4[0, 0] == 0.0 and A4[0, 1] == -1.0
    i = 2
    assert A1[i, i - 1] == 7 / 16 and A1[i, i] == 1.0
    assert A2[i, i - 1] == 1 / 16 and A2[i, i + 1] == -1 / 16
    assert A4[i, i - 1] == -1 / 8 and A4[i, i] == 1.0
    assert B1[i, i + 1] == 15 / 16
    assert B2[i, i] == -6.0
    # mirrored closures at the right end
    assert A1[-1, -1] == 14.0 and A1[-1, -2] == 16.0
    assert A2[-1, -1] == -2.0 and A2[-1, -2] == 4.0


def test_interior_stencil_scales_with_spacing():
    A3 = _blocks(GridAxis(4, 0.0, 2.0))[2]  # h = 0.5
    i = 2
    assert A3[i, i - 1] == -9 / 4
    assert A3[i, i + 1] == 9 / 4


def test_small_system_well_conditioned():
    # 6 nodes at spacing 0.2
    A, _ = dense_matrices(GridAxis(5, 0.0, 1.0))
    rcond = 1.0 / np.linalg.cond(A)
    assert rcond > 1e-8


def test_factorization_holds_no_dense_matrix():
    # the band of 2050 unknowns is 164 KB; six dense 1025 x 1025 blocks
    # would be 48 MiB, and a dense 2050 x 1025 A^-1 B 16 MiB.  The wide-batch
    # operator is built from a 129-node proxy axis.
    tracemalloc.start()
    try:
        fact = CcdFactorization(GridAxis(1024))
        fact.prepare(fact.m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fact.m == 1025
    assert peak < 2**20


def test_public_names_resolve():
    for name in ccdburgers.__all__:
        assert hasattr(ccdburgers, name), name
    namespace = {}
    exec("from ccdburgers import *", namespace)
    assert set(ccdburgers.__all__) <= set(namespace)


def test_constants_annihilated():
    fact = get_factorization(GridAxis(7))
    pair = fact.apply(np.full(8, 3.7))
    assert np.max(np.abs(pair.first)) < 1e-12
    assert np.max(np.abs(pair.second)) < 1e-11
    # a wide batch takes the operator on differences: exactly zero, on one
    # block (9 nodes) and on blocks cut from the proxy axis (201 nodes)
    for n_cells in (8, 200):
        fact = CcdFactorization(GridAxis(n_cells))
        pair = fact.apply(np.full((fact.m, fact.m), 3.7))
        assert not np.any(pair.first) and not np.any(pair.second)


def test_quadratic_exact():
    ax = GridAxis(8)
    x = ax.nodes()
    pair = get_factorization(ax).apply(x**2)
    np.testing.assert_allclose(pair.first, 2 * x, rtol=0, atol=1e-11)
    np.testing.assert_allclose(pair.second, 2.0, rtol=1e-11)


# exactness tops out at degree 4: the one-sided closures carry a residual
# proportional to h^4 u^(5), which is nonzero for quintics
@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("n_cells,left,right", [(8, 0.0, 1.0), (21, -1.0, 2.0)])
def test_polynomial_exactness(degree, n_cells, left, right, rng):
    ax = GridAxis(n_cells, left, right)
    x = ax.nodes()
    c = rng.standard_normal(degree + 1)
    u = np.polynomial.polynomial.polyval(x, c)
    d1 = np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(c))
    d2 = np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(c, 2))
    pair = get_factorization(ax).apply(u)
    scale1 = np.max(np.abs(d1)) + 1
    scale2 = np.max(np.abs(d2)) + 1
    assert np.max(np.abs(pair.first - d1)) / scale1 < 1e-10
    assert np.max(np.abs(pair.second - d2)) / scale2 < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_linearity(a, b, seed):
    local = np.random.default_rng(seed)
    ax = GridAxis(12)
    fact = get_factorization(ax)
    u = local.standard_normal(13)
    v = local.standard_normal(13)
    lhs = fact.apply(a * u + b * v)
    pu, pv = fact.apply(u), fact.apply(v)
    for got, want in (
        (lhs.first, a * pu.first + b * pv.first),
        (lhs.second, a * pu.second + b * pv.second),
    ):
        scale = np.max(np.abs(want)) + 1
        assert np.max(np.abs(got - want)) / scale < 1e-12


def _assert_small_residual(n_cells, rng):
    # ||A [u'; u''] - B u|| from the dense views
    ax = GridAxis(n_cells)
    A, B = dense_matrices(ax)
    u = rng.standard_normal(ax.n_nodes)
    pair = get_factorization(ax).apply(u)
    rhs = B @ u
    unknowns = np.concatenate([pair.first, pair.second])
    residual = A @ unknowns - rhs
    assert np.max(np.abs(residual)) <= 1e-10 * (1 + np.max(np.abs(rhs)))


def test_solve_residual_random(rng):
    _assert_small_residual(64, rng)


def test_large_axis_residual(rng):
    # 101 nodes at h = 0.01
    _assert_small_residual(100, rng)


# the banded solve against the dense product A^-1 B of the dense views;
# 10 cells on [0, 0.5] gives a spacing that is not 1/n_cells
@pytest.mark.parametrize(
    "n_cells,right",
    [(4, 1.0), (8, 1.0), (31, 1.0), (63, 1.0), (10, 0.5)],
    ids=["4", "8", "31", "63", "10-half"],
)
def test_banded_matches_dense_product(n_cells, right, rng):
    ax = GridAxis(n_cells, 0.0, right)
    dense = np.linalg.solve(*dense_matrices(ax))
    u = rng.standard_normal(ax.n_nodes)
    pair = get_factorization(ax).apply(u)
    m = ax.n_nodes
    np.testing.assert_allclose(pair.first, dense[:m] @ u, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(pair.second, dense[m:] @ u, rtol=1e-12, atol=1e-12)


def _interior_first_derivative_error(n_cells):
    ax = GridAxis(n_cells)
    x = ax.nodes()
    pair = get_factorization(ax).apply(np.sin(2 * np.pi * x))
    err = np.abs(pair.first - 2 * np.pi * np.cos(2 * np.pi * x))
    # measured away from the boundary: the one-sided closures are lower
    # order and their error decays geometrically into the interior
    return err[n_cells // 4 : 3 * n_cells // 4 + 1].max()


def test_interior_order_at_least_5p5():
    errors = [_interior_first_derivative_error(m) for m in (16, 32, 64, 128)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 5.5


def test_boundary_order_at_least_4():
    # the closure rows are formally fourth/fifth order; check the boundary
    # node error does not decay slower than fourth order
    def boundary_err(n_cells):
        ax = GridAxis(n_cells)
        x = ax.nodes()
        pair = get_factorization(ax).apply(np.sin(2 * np.pi * x))
        return abs(pair.first[0] - 2 * np.pi)

    e16, e32, e64 = (boundary_err(m) for m in (16, 32, 64))
    assert math.log2(e16 / e32) >= 3.7
    assert math.log2(e32 / e64) >= 3.7


def test_batched_apply_matches_columnwise(rng):
    # up to one pencil short of min(m, 129), a batch is still the banded
    # solve, bit for bit
    for n_cells, pencils in ((16, 5), (8, 8), (200, 128)):
        fact = get_factorization(GridAxis(n_cells))
        batch = rng.standard_normal((fact.m, pencils))
        pair = fact.apply(batch)
        for k in range(pencils):
            single = fact.apply(batch[:, k])
            np.testing.assert_array_equal(pair.first[:, k], single.first)
            np.testing.assert_array_equal(pair.second[:, k], single.second)


def test_apply_rejects_wrong_length():
    fact = get_factorization(GridAxis(8))
    with pytest.raises(ValueError):
        fact.apply(np.zeros(8))


def test_factorization_cache_shared():
    a = get_factorization(GridAxis(24, 0.0, 1.0))
    b = get_factorization(GridAxis(24, 0.0, 1.0))
    assert a is b
    c = get_factorization(GridAxis(24, 0.0, 2.0))
    assert c is not a


# --- the block-banded operator of wide batches ------------------------------

# 9 and 33 nodes are one block; 129 is the largest one-block axis, 130 the
# smallest cut from the proxy (with a two-node interior block), 201 and
# 1025 end on a short interior block; spacing 0.02 is not 1/n_cells
@pytest.mark.parametrize(
    "n_cells,right",
    [(8, 1.0), (32, 1.0), (128, 1.0), (129, 1.0), (200, 1.0), (1024, 1.0),
     (150, 3.0)],
    ids=["9", "33", "129", "130", "201", "1025", "151-h0.02"],
)
def test_wide_batch_matches_banded(n_cells, right, rng):
    fact = CcdFactorization(GridAxis(n_cells, 0.0, right))
    batch = rng.standard_normal((fact.m, min(fact.m, 129)))
    wide = fact.apply(batch)
    columns = [fact.apply(col) for col in batch.T]
    # each column against its banded solve, relative to the batch's largest
    # derivative
    for got, want in ((wide.first, np.column_stack([c.first for c in columns])),
                      (wide.second, np.column_stack([c.second for c in columns]))):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want), axis=0).max() <= 1e-13 * scale


# the axes of test_polynomial_exactness and ex4's; rounding in the second
# derivative grows like 1/h^2, so on either form 1e-10 holds only on short
# axes (the banded solve leaves 4.5e-9 at 201 nodes)
@pytest.mark.parametrize(
    "n_cells,left,right", [(8, 0.0, 1.0), (21, -1.0, 2.0), (32, 0.0, 1.0)])
def test_wide_batch_polynomial_exactness(n_cells, left, right, rng):
    ax = GridAxis(n_cells, left, right)
    x = ax.nodes()
    fact = CcdFactorization(ax)
    k = min(fact.m, 129)
    # columns of every degree 0..4
    coeffs = [rng.standard_normal(j % 5 + 1) for j in range(k)]
    P = np.polynomial.polynomial
    u = np.column_stack([P.polyval(x, c) for c in coeffs])
    d1 = np.column_stack([P.polyval(x, P.polyder(c)) for c in coeffs])
    d2 = np.column_stack([P.polyval(x, P.polyder(c, 2)) for c in coeffs])
    pair = fact.apply(u)
    scale1 = np.max(np.abs(d1), axis=0) + 1
    scale2 = np.max(np.abs(d2), axis=0) + 1
    assert np.max(np.max(np.abs(pair.first - d1), axis=0) / scale1) < 1e-10
    assert np.max(np.max(np.abs(pair.second - d2), axis=0) / scale2) < 1e-10


def test_interior_decay_rate_matches_recurrence_root():
    # the entries of a middle row of the operator fall by the root that
    # sets the half-width, at any spacing
    z = -ccd._DECAY
    assert abs(1 + 20 * z + 48 * z**2 + 20 * z**3 + z**4) < 1e-14
    assert ccd._HALF_WIDTH == 48
    for right in (1.0, 7.0):
        fact = CcdFactorization(GridAxis(128, 0.0, right))
        e = fact._difference_operator()
        for row in e[:, 64]:
            ratios = np.abs(row[64 + 11:64 + 21] / row[64 + 10:64 + 20])
            np.testing.assert_allclose(ratios, ccd._DECAY, rtol=1e-6)


def test_block_layout_checks_dropped_tail(monkeypatch):
    CcdFactorization(GridAxis(200)).prepare(129)
    monkeypatch.setattr(ccd, "_HALF_WIDTH", 16)
    with pytest.raises(RuntimeError, match="half-width 16"):
        CcdFactorization(GridAxis(200)).prepare(129)
