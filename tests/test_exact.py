"""Exact-solution oracles for the four benchmark problems."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import ive

from ccdburgers import cli
from ccdburgers.exact import (
    EXAMPLES,
    SINGULAR_TIME_3,
    FourierCoefficients,
    compute_fourier_coefficients,
    example1_exact,
    example1_spec,
    example2_exact,
    example2_spec,
    example3_exact,
    example3_spec,
    example4_exact,
    example4_spec,
)
from ccdburgers.model import pde_residual
from ccdburgers.reference_data import TABLE1_ROWS

# Series values frozen from a self-convergent evaluation (quadrature panels
# doubled until 1e-13 agreement, truncation tail below 1e-14); they agree
# with the benchmark table's compact-scheme column at all printed digits.
SERIES_VALUES = {
    (0.25, 0.4): 0.308894227876,
    (0.25, 0.6): 0.240739023291,
    (0.25, 0.8): 0.195675570103,
    (0.25, 1.0): 0.162564857111,
    (0.50, 0.4): 0.569632450880,
    (0.50, 0.6): 0.447205521199,
    (0.50, 0.8): 0.359236058516,
    (0.50, 1.0): 0.291915957126,
    (0.75, 0.4): 0.625437896425,
    (0.75, 0.6): 0.487214974884,
    (0.75, 0.8): 0.373921753209,
    (0.75, 1.0): 0.287474405917,
}


# --- 1D series oracle -------------------------------------------------------

def test_fourier_coefficients_frozen(coeffs01):
    assert coeffs01.a0 == pytest.approx(0.354454591595360, abs=1e-12)
    assert coeffs01.a[0] == pytest.approx(0.438079582907633, abs=1e-12)
    assert coeffs01.a[1] == pytest.approx(0.158402143450600, abs=1e-12)


def test_series_values_frozen(coeffs01):
    for (x, t), want in SERIES_VALUES.items():
        got = example1_exact(np.array([x]), t, coeffs01)[0]
        assert got == pytest.approx(want, abs=1e-9)


def test_series_matches_reference_compact_column(coeffs01):
    # the TVCF column of the benchmark table is the correctly rounded
    # series; all 12 entries agree at the printed precision
    for x, t, _hc, _rhc, _rpa, tvcf, _ccd, _exact in TABLE1_ROWS:
        got = example1_exact(np.array([x]), t, coeffs01)[0]
        assert abs(got - tvcf) <= 5e-7


def test_series_vanishes_at_walls(coeffs01):
    for t in (0.1, 0.4, 1.0):
        vals = example1_exact(np.array([0.0, 1.0]), t, coeffs01)
        assert np.max(np.abs(vals)) < 1e-13


def test_series_requires_positive_time(coeffs01):
    with pytest.raises(ValueError):
        example1_exact(np.array([0.5]), 0.0, coeffs01)


def _kernel_quadrature(inv_re, n):
    """Cosine coefficients 0..n of exp(-s (1 - cos pi x)) on [0, 1],
    s = 1/(2 pi inv_re), by 16-point Gauss-Legendre on 16 equal panels:
    a reference that shares nothing with the closed form."""
    xg, wg = leggauss(16)
    edges = np.linspace(0.0, 1.0, 17)
    half = 0.5 * (edges[1] - edges[0])
    x = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * xg).ravel()
    w = np.tile(half * wg, 16)
    kernel = np.exp(-(1 - np.cos(np.pi * x)) / (2 * np.pi * inv_re))
    k = np.arange(n + 1)
    return np.cos(np.pi * np.multiply.outer(k, x)) @ (w * kernel) * np.where(k, 2, 1)


def test_coefficients_match_kernel_quadrature():
    for inv_re in (0.02765, 0.1, 1.0, 10.0):
        coeffs = compute_fourier_coefficients(inv_re)
        ref = _kernel_quadrature(inv_re, coeffs.n_trunc)
        assert abs(coeffs.a0 - ref[0]) <= 1e-15
        assert np.max(np.abs(coeffs.a - ref[1:])) <= 1e-15


def test_series_truncation_insensitive(coeffs01):
    s = 1 / (2 * np.pi * coeffs01.inv_re)
    longer = FourierCoefficients(
        coeffs01.a0, 2 * ive(np.arange(1, coeffs01.n_trunc + 11), s),
        coeffs01.inv_re)
    for t in (0.05, 0.4):
        a = example1_exact(np.array([0.3, 0.7]), t, coeffs01)
        b = example1_exact(np.array([0.3, 0.7]), t, longer)
        assert np.max(np.abs(a - b)) < 1e-13


def test_leading_coefficient_limit():
    # the kernel flattens to 1 as the diffusivity grows
    weak = compute_fourier_coefficients(1.0)
    strong = compute_fourier_coefficients(10.0)
    assert strong.a0 > weak.a0
    assert abs(strong.a0 - 1.0) < 0.05


def test_coefficients_reject_bad_inv_re(tmp_path, capsys):
    with pytest.raises(ValueError):
        compute_fourier_coefficients(-0.1)
    # too small to resolve: the denominator's minimum exp(-1/(pi inv_re)) is
    # 1.5e-14 at 0.01, below the absolute quadrature tolerance 1e-13
    for inv_re in (0.01, 1e-6):
        with pytest.raises(ValueError, match="inv_re >= 0.02765"):
            compute_fourier_coefficients(inv_re)
        rc = cli.main(["solve", "--example", "1", "--inv-re", str(inv_re),
                       "--m", "16", "--outdir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: the example-1 series oracle")
        assert "Traceback" not in err


def test_example1_spec_consistency(coeffs01):
    spec = example1_spec(coeffs=coeffs01)
    x = np.linspace(0, 1, 11)
    (u0,) = spec.exact_fn(x, 0.0)
    np.testing.assert_allclose(u0, np.sin(np.pi * x))
    (b,) = spec.boundary_fn(np.array([0.0, 1.0]), 0.7)
    assert np.array_equal(b, np.zeros(2))


# --- 2D closed forms --------------------------------------------------------

def test_example2_zero_lines():
    y = np.linspace(0, 1, 5)
    u, _v = example2_exact(0.25, y, 0.3, 0.1)
    assert np.max(np.abs(u)) < 1e-16
    x = np.linspace(0, 1, 5)
    _u, v = example2_exact(x, 0.5, 0.3, 0.1)
    assert np.max(np.abs(v)) < 1e-15


def test_example2_decays_in_time():
    u, v = example2_exact(0.3, 0.7, 50.0, 0.1)
    assert abs(u) < 1e-30 and abs(v) < 1e-30


def test_example2_initial_self_consistency():
    spec = example2_spec()
    x = np.linspace(0, 1, 9)[:, None]
    y = np.linspace(0, 1, 9)[None, :]
    init = spec.initial_fn(x, y)
    exact = spec.exact_fn(x, y, 0.0)
    for a, b in zip(init, exact):
        assert np.array_equal(a, b)


def test_example2_residual_gate_refines():
    spec = example2_spec()
    res16 = max(pde_residual(spec, spec.exact_fn, 0.5, [16, 16]))
    res32 = max(pde_residual(spec, spec.exact_fn, 0.5, [32, 32]))
    assert res32 < res16 / 2**2.5
    assert res32 < 1e-3


def test_example3_initial_condition():
    x = np.linspace(0, 0.5, 6)[:, None]
    y = np.linspace(0, 0.5, 6)[None, :]
    u, v = example3_exact(x, y, 0.0)
    np.testing.assert_allclose(u, x + y + np.zeros_like(u))
    np.testing.assert_allclose(v, x - y + np.zeros_like(v))


def test_example3_origin_zero():
    u, v = example3_exact(0.0, 0.0, 0.3)
    assert u == 0.0 and v == 0.0


def test_example3_singular_time_guard():
    with pytest.raises(ValueError):
        example3_exact(0.2, 0.2, SINGULAR_TIME_3)


def test_example3_residual_gate():
    spec = example3_spec()
    assert max(pde_residual(spec, spec.exact_fn, 0.05, [8, 8])) < 1e-10


# --- 3D variants ------------------------------------------------------------

def test_example4_variants_agree_at_t0():
    x = np.linspace(0, 1, 4)
    printed = example4_exact(x, 0.5, 0.25, 0.0, variant="as-printed")
    corrected = example4_exact(x, 0.5, 0.25, 0.0, variant="corrected")
    for a, b in zip(printed, corrected):
        assert np.array_equal(a, b)


def test_example4_corrected_point_value():
    u, v, w = example4_exact(0.5, 0.5, 0.5, 1.0, variant="corrected")
    assert u == pytest.approx(1.5 / 4)
    assert v == u and w == u


def test_example4_unknown_variant():
    with pytest.raises(ValueError):
        example4_exact(0.5, 0.5, 0.5, 0.0, variant="other")


def test_example4_corrected_passes_gate():
    spec = example4_spec(variant="corrected")
    assert max(pde_residual(spec, spec.exact_fn, 0.3, [8, 8, 8])) < 1e-10


def test_example4_as_printed_fails_gate():
    # the printed 1+3t^2 denominator leaves residual (3-6t)(x+y+z)/(1+3t^2)^2,
    # which vanishes only at t = 0.5
    spec = example4_spec(variant="as-printed")
    assert max(pde_residual(spec, spec.exact_fn, 0.3, [8, 8, 8])) > 1e-2
    assert max(pde_residual(spec, spec.exact_fn, 0.7, [8, 8, 8])) > 1e-2
    assert max(pde_residual(spec, spec.exact_fn, 0.5, [8, 8, 8])) < 1e-8


def test_registry():
    assert set(EXAMPLES) == {1, 2, 3, 4}
    assert EXAMPLES[3]().dimension == 2
    assert EXAMPLES[4]().dimension == 3
