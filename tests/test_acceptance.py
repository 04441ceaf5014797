"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run with ``-s``
or read captured output).  Three criteria check a claim of the paper against
a reference other than the one first written down, because that reference
was wrong:

* criterion 1 — the m = 80 solve must match the Fourier-series oracle to
  5e-7 (half a unit in the table's last printed digit) at all 12 points of
  the published 1D table.  The table's printed CCD-TVD and Exact columns are
  identical in all 12 rows and differ from the true solution by more than
  5e-7 at 7 of them (up to 3.97e-6, at x = 0.75, t = 0.6).  The oracle and
  the solver, which shares nothing with it, agree to 1.2e-7 everywhere, and
  the table's own TVCF column agrees with the oracle to 4.8e-7.  The table
  is kept as published.
* criterion 5 — the operator is exact for polynomials through degree 4.  For
  a quintic, the residual ``A v - B u`` of the exact derivatives vanishes on
  every row except the two second-closure rows, where it equals the closure's
  truncation error (h^4/60) u^(5); no three-point closure with these A
  entries can remove it.
* criterion 7 — the conditioning sweep covers 5..128 nodes, from the
  smallest axis the solver accepts.  The 4-node system is exactly singular
  (its rational determinant is zero), so the sweep must flag it.
"""

import math

import numpy as np
import pytest

from ccdburgers.ccd import dense_matrices, get_factorization
from ccdburgers.exact import (
    compute_fourier_coefficients,
    example1_exact,
    example1_spec,
    example2_spec,
    example3_exact,
    example3_spec,
    example4_spec,
)
from ccdburgers.grid import GridAxis
from ccdburgers.model import ProblemSpec, linf_errors, pde_residual, run
from ccdburgers.audit import appendix_b_reduction, nonsingularity_sweep
from ccdburgers.reference_data import (
    REDUCED_MATRIX_APPROX,
    TABLE1_ROWS,
    TABLE2_ERRORS,
    TABLE3_ERRORS,
)
from ccdburgers.tvd_rk3 import tvd_rk3_step


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {label}{suffix}")
    return ok


# -- criterion 1: 1D benchmark table, printed digits -------------------------

def test_criterion_1_table1_reproduction():
    m, dt = 80, 1e-5
    spec = example1_spec(final_time=1.0)
    times = sorted({t for _, t, *_ in TABLE1_ROWS})
    result = run(spec, [m], dt, snapshot_times=times)
    axis = GridAxis(m, 0.0, 1.0)
    coeffs = compute_fourier_coefficients(spec.inv_re)

    worst = worst_printed = 0.0
    for x, t, *_, exact_printed in TABLE1_ROWS:
        idx = int(round(x / axis.spacing))
        computed = float(result.snapshots[t].components[0][idx])
        oracle = float(example1_exact(np.array([x]), t, coeffs)[0])
        worst = max(worst, abs(computed - oracle))
        worst_printed = max(worst_printed, abs(oracle - exact_printed))

    # the printed Exact column is off the series by up to 4e-6; it is
    # reported, not asserted (see the module docstring)
    assert _report(
        1, "1D table points match the series oracle (12 points)",
        worst <= 5e-7,
        f"max |num - oracle| = {worst:.2e} (tol 5e-7); "
        f"max |oracle - printed exact| = {worst_printed:.2e}",
    )


# -- criterion 2: 2D convergence table ----------------------------------------

def test_criterion_2_table2_convergence():
    # printed row labels are half the actual node spacing; the mapping below
    # reproduces every printed error to its displayed digits
    labels = [16, 32, 64, 128]
    printed = [TABLE2_ERRORS[l][0] for l in labels]
    printed_rates = [4.96, 5.98, 5.75]

    spec = example2_spec()
    errors = []
    for label in labels:
        m = label // 2
        result = run(spec, [m, m], 1.0 / m**2)
        errors.append(linf_errors(result.final, spec, [m, m])[0])
    rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]

    ok = all(p / 3 <= e <= 3 * p for e, p in zip(errors, printed)) and all(
        abs(r - pr) <= 0.5 for r, pr in zip(rates, printed_rates))
    assert _report(
        2, "2D error table within 3x, rates within 0.5", ok,
        "errors " + ", ".join(f"{e:.2e}" for e in errors)
        + "; rates " + ", ".join(f"{r:.2f}" for r in rates),
    )


# -- criterion 3: linear-profile temporal order --------------------------------

def test_criterion_3_table3_temporal_order():
    labels = [4, 8, 16]
    printed = [TABLE3_ERRORS[l][0] for l in labels]
    spec = example3_spec()
    errors = []
    for m in labels:
        result = run(spec, [m, m], spec.final_time / m**2)
        errors.append(max(linf_errors(result.final, spec, [m, m])))
    rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]

    ok = all(e <= 5 * p for e, p in zip(errors, printed)) and all(
        abs(r - 6.0) <= 0.5 for r in rates)
    assert _report(
        3, "linear-profile errors within 5x, rates 6.0 +/- 0.5", ok,
        "errors " + ", ".join(f"{e:.2e}" for e in errors)
        + "; rates " + ", ".join(f"{r:.2f}" for r in rates),
    )


# -- criterion 4: 3D oracle correction and self-convergence --------------------

def test_criterion_4_example4_correction():
    as_printed = example4_spec(variant="as-printed")
    corrected = example4_spec(variant="corrected")
    # probe away from t = 0.5, where the defective oracle's residual has a root
    res_bad = max(pde_residual(as_printed, as_printed.exact_fn, 0.3, [8, 8, 8]))
    res_good = max(pde_residual(corrected, corrected.exact_fn, 0.3, [8, 8, 8]))

    errors = []
    for m in (4, 8, 16, 32):
        result = run(corrected, [m, m, m], 1.0 / m**2)
        errors.append(max(linf_errors(result.final, corrected, [m, m, m])))
    rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]

    ok = (res_bad > 1e-10 and res_good <= 1e-10
          and all(abs(r - 6.0) <= 0.3 for r in rates))
    assert _report(
        4, "3D oracle gate + self-convergence 6.0 +/- 0.3", ok,
        f"residuals as-printed {res_bad:.2e} / corrected {res_good:.2e}; "
        "rates " + ", ".join(f"{r:.2f}" for r in rates),
    )


# -- criterion 5: derivative-operator property suite ---------------------------

def test_criterion_5_operator_properties():
    failures = []
    rng = np.random.default_rng(20240901)

    # polynomial exactness through degree 4 at 1e-10 relative
    poly = np.polynomial.polynomial
    ax = GridAxis(16)
    x = ax.nodes()
    fact = get_factorization(ax)
    for degree in range(1, 5):
        c = rng.standard_normal(degree + 1)
        d1 = poly.polyval(x, poly.polyder(c))
        d2 = poly.polyval(x, poly.polyder(c, 2))
        first, second = fact.apply(poly.polyval(x, c))
        rel1 = np.max(np.abs(first - d1)) / (np.max(np.abs(d1)) + 1)
        rel2 = np.max(np.abs(second - d2)) / (np.max(np.abs(d2)) + 1)
        if max(rel1, rel2) > 1e-10:
            failures.append(f"degree-{degree} exactness ({max(rel1, rel2):.1e})")

    # degree 5: the exact derivatives of a quintic satisfy every row but the
    # two second-closure rows (block rows m and 2m-1), whose truncation error
    # is (h^4/60) u^(5); both checks at 1e-10 relative
    c = rng.standard_normal(6)
    A, B = dense_matrices(ax)
    rhs = B @ poly.polyval(x, c)
    exact_pair = np.concatenate([poly.polyval(x, poly.polyder(c, k)) for k in (1, 2)])
    residual = A @ exact_pair - rhs
    closure_rows = [ax.n_nodes, 2 * ax.n_nodes - 1]
    d5 = poly.polyval(x[[0, -1]], poly.polyder(c, 5))
    expected = np.zeros_like(residual)
    expected[closure_rows] = ax.spacing**4 / 60 * d5
    gap5 = np.max(np.abs(residual - expected)) / (np.max(np.abs(rhs)) + 1)
    if gap5 > 1e-10:
        failures.append(f"degree-5 closure residual ({gap5:.1e})")

    # interior order >= 5.5 on sin(2 pi x) refinements (middle half)
    def interior_err(m):
        g = GridAxis(m)
        xs = g.nodes()
        first, _ = get_factorization(g).apply(np.sin(2 * np.pi * xs))
        e = np.abs(first - 2 * np.pi * np.cos(2 * np.pi * xs))
        return e[m // 4 : 3 * m // 4 + 1].max()

    errs = [interior_err(m) for m in (16, 32, 64, 128)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    if min(orders) < 5.5:
        failures.append(f"interior order {min(orders):.2f} < 5.5")

    # linearity at 1e-12
    u, v = rng.standard_normal((2, 17))
    combo, _ = fact.apply(2.5 * u - 1.25 * v)
    (pu, _), (pv, _) = fact.apply(u), fact.apply(v)
    lin = np.max(np.abs(combo - (2.5 * pu - 1.25 * pv)))
    if lin / (np.max(np.abs(combo)) + 1) > 1e-12:
        failures.append("linearity")

    # solve residual ||A [u'; u''] - B u|| <= 1e-10 relative on random input
    big = GridAxis(64)
    A, B = dense_matrices(big)
    w = rng.standard_normal(65)
    rhs = B @ w
    res = A @ np.concatenate(get_factorization(big).apply(w)) - rhs
    if np.max(np.abs(res)) > 1e-10 * (1 + np.max(np.abs(rhs))):
        failures.append("solve residual")

    # banded solve vs the dense product A^-1 B u, 1e-12 relative
    for n_cells in (8, 63):
        axis = GridAxis(n_cells)
        m = axis.n_nodes
        s = rng.standard_normal(m)
        banded = get_factorization(axis).apply(s)
        dense = np.linalg.solve(*dense_matrices(axis)) @ s
        gap = max(
            np.max(np.abs(got - want)) / (np.max(np.abs(want)) + 1)
            for got, want in zip(banded, (dense[:m], dense[m:]))
        )
        if gap > 1e-12:
            failures.append(f"banded-vs-dense m={m}")

    assert _report(
        5, "derivative-operator property suite", not failures,
        "; ".join(failures) if failures else "all properties hold",
    )


# -- criterion 6: time-stepper suite -------------------------------------------

def test_criterion_6_time_stepper_properties():
    failures = []
    rng = np.random.default_rng(20240901)

    u = rng.standard_normal(12)
    frozen = tvd_rk3_step((u,), 0.2, lambda s: (np.zeros_like(s[0]),))
    if not np.array_equal(frozen[0], u):
        failures.append("zero-rhs fixed point not bitwise")

    for z in (-1.5, -0.5, 0.75):
        lam = z / 0.1
        out = tvd_rk3_step((np.array([1.0]),), 0.1, lambda s: (lam * s[0],))
        expected = 1 + z + z**2 / 2 + z**3 / 6
        if abs(out[0][0] - expected) > 1e-14 * max(1, abs(expected)):
            failures.append(f"amplification at z={z}")

    def ode_err(n):
        state = (np.array([1.0]),)
        for _ in range(n):
            state = tvd_rk3_step(state, 1.0 / n, lambda s: (-s[0] ** 2,))
        return abs(state[0][0] - 0.5)

    orders = [math.log2(ode_err(n) / ode_err(2 * n)) for n in (20, 40)]
    if any(abs(o - 3.0) > 0.1 for o in orders):
        failures.append(f"nonlinear order {orders}")

    assert _report(
        6, "time-stepper property suite", not failures,
        "; ".join(failures) if failures else "all properties hold",
    )


# -- criterion 7: solvability audit --------------------------------------------

def test_criterion_7_solvability_audit():
    reduction = appendix_b_reduction()
    entry_gap = float(np.max(np.abs(reduction.matrix - np.array(REDUCED_MATRIX_APPROX))))
    margins_ok = reduction.dominance_margins.min() > 0

    h_values = (1.0, 0.1, 0.01)
    rows = nonsingularity_sweep(m_values=range(5, 129), h_values=h_values)
    bad = [r for r in rows if not r.ok]
    # the exactly singular 4-node system, one below the smallest axis
    singular = nonsingularity_sweep(m_values=(4,), h_values=h_values)
    singular_flagged = len(singular) == len(h_values) and not any(r.ok for r in singular)

    ok = entry_gap <= 5e-4 and margins_ok and not bad and singular_flagged
    assert _report(
        7, "reduction match + dominance + sweep m=5..128 + m=4 flagged", ok,
        f"entry gap {entry_gap:.1e}, min margin "
        f"{reduction.dominance_margins.min():.2e}, sweep failures "
        f"{[(r.m, r.h) for r in bad] or 'none'}, m=4 flagged at "
        f"{[r.h for r in singular if not r.ok]}",
    )


# -- criterion 8: dimension degeneracy -----------------------------------------

def test_criterion_8_dimension_degeneracy():
    spec2 = example3_spec()
    dt = spec2.final_time / 512

    def exact3(x, y, z, t):
        u, v = example3_exact(x, y, t)
        zero = 0.0 * (x + y + z)
        return (u + zero, v + zero, zero)

    spec3 = ProblemSpec(
        domain=spec2.domain + (spec2.domain[0],),
        inv_re=spec2.inv_re,
        final_time=spec2.final_time,
        initial_fn=lambda x, y, z: exact3(x, y, z, 0.0),
        boundary_fn=exact3,
        exact_fn=exact3,
        name="example3-z-constant",
    )

    m = 16  # 17^3 nodes
    res2 = run(spec2, [m, m], dt)
    res3 = run(spec3, [m, m, m], dt)
    diff = max(
        np.max(np.abs(res3.final.components[0] - res2.final.components[0][:, :, None])),
        np.max(np.abs(res3.final.components[1] - res2.final.components[1][:, :, None])),
        np.max(np.abs(res3.final.components[2])),
    )
    assert _report(
        8, "3D z-constant run matches 2D run", diff <= 1e-11,
        f"max slice difference {diff:.2e} (tol 1e-11)",
    )
