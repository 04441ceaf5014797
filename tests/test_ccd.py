"""Combined compact difference operator: assembly, factorization, accuracy."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

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
    # six dense 1025 x 1025 blocks would be 48 MiB, and a dense
    # 2 x 1025 x 1024 A^-1 B~ 16 MiB.  The row blocks of a long axis are
    # sliced from pieces built at import.
    tracemalloc.start()
    try:
        fact = CcdFactorization(GridAxis(1024))
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
    # the operator acts on differences: exactly zero, for one pencil and a
    # batch, on both build routes and on one block or several
    for n_cells in (7, 80, 200):
        fact = CcdFactorization(GridAxis(n_cells))
        for u in (np.full(fact.m, 3.7), np.full((fact.m, fact.m), 3.7)):
            assert not np.any(fact.apply(u))


def test_quadratic_exact():
    ax = GridAxis(8)
    x = ax.nodes()
    first, second = get_factorization(ax).apply(x**2)
    np.testing.assert_allclose(first, 2 * x, rtol=0, atol=1e-11)
    np.testing.assert_allclose(second, 2.0, rtol=1e-11)


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
    first, second = get_factorization(ax).apply(u)
    scale1 = np.max(np.abs(d1)) + 1
    scale2 = np.max(np.abs(d2)) + 1
    assert np.max(np.abs(first - d1)) / scale1 < 1e-10
    assert np.max(np.abs(second - d2)) / scale2 < 1e-10


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
    for got, want in zip(lhs, a * pu + b * pv):
        scale = np.max(np.abs(want)) + 1
        assert np.max(np.abs(got - want)) / scale < 1e-12


def _assert_small_residual(n_cells, rng):
    # ||A [u'; u''] - B u|| from the dense views
    ax = GridAxis(n_cells)
    A, B = dense_matrices(ax)
    u = rng.standard_normal(ax.n_nodes)
    rhs = B @ u
    unknowns = np.concatenate(get_factorization(ax).apply(u))
    residual = A @ unknowns - rhs
    assert np.max(np.abs(residual)) <= 1e-10 * (1 + np.max(np.abs(rhs)))


def test_solve_residual_random(rng):
    _assert_small_residual(64, rng)


def test_large_axis_residual(rng):
    # 101 nodes at h = 0.01
    _assert_small_residual(100, rng)


# the operator against the dense product A^-1 B of the dense views;
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
    first, second = get_factorization(ax).apply(u)
    m = ax.n_nodes
    np.testing.assert_allclose(first, dense[:m] @ u, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(second, dense[m:] @ u, rtol=1e-12, atol=1e-12)


def _interior_first_derivative_error(n_cells):
    ax = GridAxis(n_cells)
    x = ax.nodes()
    first, _ = get_factorization(ax).apply(np.sin(2 * np.pi * x))
    err = np.abs(first - 2 * np.pi * np.cos(2 * np.pi * x))
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
        first, _ = get_factorization(ax).apply(np.sin(2 * np.pi * x))
        return abs(first[0] - 2 * np.pi)

    e16, e32, e64 = (boundary_err(m) for m in (16, 32, 64))
    assert math.log2(e16 / e32) >= 3.7
    assert math.log2(e32 / e64) >= 3.7


def test_boundary_node_orders_of_both_derivatives():
    # at the end node, the closures give u' to fourth and u'' to third
    # order; on sin x, u'' falls from 1.6e-5 at m = 32 to 3.1e-8 at m = 256
    first, second = [], []
    for m in (32, 64, 128, 256):
        ax = GridAxis(m)
        d1, d2 = get_factorization(ax).apply(np.sin(ax.nodes()))
        first.append(abs(d1[0] - 1.0))
        second.append(abs(d2[0]))
    for errors, low, high in ((first, 3.9, 4.1), (second, 2.9, 3.1)):
        rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(low <= r <= high for r in rates), rates


def test_banded_accuracy_on_a_long_axis():
    # the operator reads the first differences, not the samples: on 1025
    # nodes, samples weighted by 3/h^2 lost the second derivative to
    # cancellation (2.4e-8 error against 9.2e-10 from differences)
    ax = GridAxis(1024)
    x = ax.nodes()
    first, second = get_factorization(ax).apply(np.sin(x))
    assert np.max(np.abs(first - np.cos(x))) <= 1e-12
    assert np.max(np.abs(second + np.sin(x))) <= 2e-9


# 8 pencils on 201 nodes (several row blocks), 65 pencils on 9 nodes (one)
@pytest.mark.parametrize("n_cells,pencils", [(200, 8), (8, 65)],
                         ids=["narrow", "wide"])
def test_apply_reads_views_as_given(n_cells, pencils, rng):
    fact = CcdFactorization(GridAxis(n_cells))
    base = rng.standard_normal((pencils, 3, fact.m))
    # the pencils run down the last axis of the base, read through a 2-D
    # transpose and through a 3-D transpose that steps by 2
    for view in (base[:, 1].T, np.repeat(base, 2, axis=2)[:, :, ::2].T):
        assert not view.flags.c_contiguous and view.shape[0] == fact.m
        np.testing.assert_array_equal(fact.apply(view), fact.apply(view.copy()))


def test_batched_apply_matches_columnwise(rng):
    # a batch and its pencils one at a time take the same products, summed
    # in whatever order BLAS picks for the width: equal to rounding
    for n_cells, pencils in ((16, 5), (80, 8), (200, 128)):
        fact = get_factorization(GridAxis(n_cells))
        batch = rng.standard_normal((fact.m, pencils))
        pair = fact.apply(batch)
        for k in range(pencils):
            single = fact.apply(batch[:, k])
            for got, want in zip(pair[:, :, k], single):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_apply_rejects_wrong_length():
    fact = get_factorization(GridAxis(8))
    with pytest.raises(ValueError):
        fact.apply(np.zeros(8))


def test_apply_rejects_complex_samples():
    # converting to float would drop the imaginary part
    fact = get_factorization(GridAxis(8))
    with pytest.raises(ValueError, match=r"real samples of shape \(9, \.\.\.\)"):
        fact.apply(np.ones(9, dtype=complex))


def test_apply_rejects_a_scalar():
    fact = get_factorization(GridAxis(8))
    with pytest.raises(ValueError, match=r"real samples of shape \(9, \.\.\.\)"):
        fact.apply(np.float64(1.0))


def test_apply_accepts_integer_and_boolean_samples(rng):
    # differenced in floating point, so unsigned samples do not wrap
    # around and booleans are not refused: a pencil, a batch, and a batch
    # read as 6 rows over several row blocks
    fact = get_factorization(GridAxis(200))
    values = rng.integers(0, 200, (6, fact.m))
    for batch in (values - 100, values.astype(np.uint8), values > 100):
        for samples in (batch[0], batch.T.copy(), batch.T):
            np.testing.assert_array_equal(fact.apply(samples),
                                          fact.apply(samples.astype(float)))


def test_apply_returns_one_array_of_both_derivatives(rng):
    # first derivatives in [0] and second in [1], for a pencil, a batch and
    # a batch read through a transpose
    fact = get_factorization(GridAxis(8))
    batch = rng.standard_normal((5, fact.m))
    for samples in (batch[0], batch.T.copy(), batch.T):
        got = fact.apply(samples)
        assert type(got) is np.ndarray and got.shape == (2,) + samples.shape


def test_apply_on_empty_batches():
    fact = get_factorization(GridAxis(8))
    for samples in (np.empty((9, 0)), np.empty((9, 0, 3)),
                    np.empty((3, 0, 9)).swapaxes(0, 2)):
        got = fact.apply(samples)
        assert type(got) is np.ndarray and got.shape == (2,) + samples.shape


def test_factorization_cache_shared():
    a = get_factorization(GridAxis(24, 0.0, 1.0))
    b = get_factorization(GridAxis(24, 0.0, 1.0))
    assert a is b
    c = get_factorization(GridAxis(24, 0.0, 2.0))
    assert c is not a


# --- the operator against a banded solve -----------------------------------

def _banded_reference(axis, u):
    """u' and u'' of the pencils ``u`` (one per column) from LAPACK's banded
    solver on the interleaved system (u'_0, u''_0, u'_1, ...), whose band
    storage and right-hand side are built here from the dense block-order
    views."""
    A, B = dense_matrices(axis)
    n = len(A)
    interleaved = np.argsort(np.r_[0:n:2, 1:n:2])
    A, B = A[np.ix_(interleaved, interleaved)], B[interleaved]
    # LAPACK band storage with 3 sub- and 3 super-diagonals, and 3 more rows
    # for the fill-in of partial pivoting: ab[6 + i - j, j] = A[i, j]
    kl = ku = 3
    ab = np.zeros((2 * kl + ku + 1, n))
    for d in range(-ku, kl + 1):
        ab[kl + ku + d, max(0, -d):n - max(0, d)] = np.diagonal(A, -d)
    assert np.count_nonzero(ab) == np.count_nonzero(A)
    x, info = lapack.dgbsv(kl, ku, ab, B @ u)[2:]
    assert info == 0
    return x[0::2], x[1::2]


def test_short_axis_operator_matches_banded_reference():
    # E itself on every node count that takes the dense solve (5 .. 47):
    # the samples np.tri(m, m - 1, -1) have the unit vectors as their first
    # differences, so the operator returns E's columns; relative to each
    # row's largest entry
    for n_cells in range(4, ccd._APART - 1):
        ax = GridAxis(n_cells)
        steps = np.tri(ax.n_nodes, ax.n_nodes - 1, -1)
        pair = CcdFactorization(ax).apply(steps)
        for got, ref in zip(pair, _banded_reference(ax, steps)):
            bound = 1e-13 * np.max(np.abs(ref), axis=1)
            assert np.all(np.max(np.abs(got - ref), axis=1) <= bound), n_cells


# 5, 9 and 33 nodes take the banded build, as does _APART - 1, whose two
# ends still interact; from _APART on, the operator is sliced from the
# import-time pieces: as one block up to 129 nodes, and 130 (a two-node
# interior block), 201 and 1025 (a short last interior block) in several;
# spacings 0.0375 and 0.02 are not 1/n_cells
@pytest.mark.parametrize(
    "n_cells,right",
    [(4, 1.0), (8, 1.0), (32, 1.0), (ccd._APART - 2, 1.0),
     (ccd._APART - 1, 1.0), (80, 1.0), (80, 3.0), (128, 1.0), (129, 1.0),
     (200, 1.0), (1024, 1.0), (150, 3.0)],
    ids=["5", "9", "33", str(ccd._APART - 1), str(ccd._APART), "81",
         "81-h0.0375", "129", "130", "201", "1025", "151-h0.02"],
)
def test_wide_batch_matches_banded(n_cells, right, rng):
    ax = GridAxis(n_cells, 0.0, right)
    fact = CcdFactorization(ax)
    batch = rng.standard_normal((fact.m, min(fact.m, 129)))
    pair, single = fact.apply(batch), fact.apply(batch[:, 0])
    # each column, and the first alone, against its banded solve, relative
    # to the column's largest derivative
    for got, one, ref in zip(pair, single, _banded_reference(ax, batch)):
        bound = 1e-13 * np.max(np.abs(ref), axis=0)
        assert np.all(np.max(np.abs(got - ref), axis=0) <= bound)
        assert np.max(np.abs(one - ref[:, 0])) <= bound[0]


# the axes of test_polynomial_exactness and ex4's; rounding in the second
# derivative grows like 1/h^2, so 1e-10 holds only on short axes (the
# banded solve leaves 4.5e-9 at 201 nodes)
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
    first, second = fact.apply(u)
    scale1 = np.max(np.abs(d1), axis=0) + 1
    scale2 = np.max(np.abs(d2), axis=0) + 1
    assert np.max(np.max(np.abs(first - d1), axis=0) / scale1) < 1e-10
    assert np.max(np.max(np.abs(second - d2), axis=0) / scale2) < 1e-10


def test_interior_decay_rate_matches_recurrence_root():
    # the entries of a middle row of the operator fall by the root that
    # sets the half-width, at any spacing
    z = -ccd._DECAY
    assert abs(1 + 20 * z + 48 * z**2 + 20 * z**3 + z**4) < 1e-14
    assert ccd._HALF_WIDTH == 48 and ccd._APART == 48
    for right in (1.0, 7.0):
        e = ccd._difference_operator(GridAxis(128, 0.0, right))
        for row in e[:, 64]:
            ratios = np.abs(row[64 + 11:64 + 21] / row[64 + 10:64 + 20])
            np.testing.assert_allclose(ratios, ccd._DECAY, rtol=1e-6)


def test_block_layout_checks_dropped_tail(monkeypatch):
    # the import-time build of the pieces runs the check
    ccd._unit_pieces()
    monkeypatch.setattr(ccd, "_HALF_WIDTH", 16)
    with pytest.raises(RuntimeError, match="half-width 16"):
        ccd._unit_pieces()
