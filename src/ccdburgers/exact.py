"""Closed-form and series solution oracles for the benchmark problems.

Every oracle is residual-validated against the PDE (see
``model.pde_residual``) before it is trusted as an error reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import ProblemSpec

SINGULAR_TIME_3 = 1 / np.sqrt(2.0)

# The example-1 oracle is held to the absolute accuracy SERIES_ATOL, and its
# series stops once a coefficient falls below SERIES_TAIL_TOL.  Both are
# absolute, so they must stay below SERIES_RTOL times the smallest value of
# the heat-kernel denominator.
SERIES_ATOL = 1e-13
SERIES_TAIL_TOL = 1e-14
SERIES_RTOL = 1e-8


@dataclass(frozen=True)
class FourierCoefficients:
    """Truncated cosine-series coefficients of the heat-kernel denominator
    for the 1D benchmark."""

    a0: float
    a: np.ndarray
    inv_re: float

    @property
    def n_trunc(self) -> int:
        return len(self.a)


# The 128-point periodic trapezoid rule folded onto theta_k = k pi / 64,
# k = 0 .. 64: for an even periodic f, _COSINE_RULE @ f(theta) gives its
# cosine coefficients (1/pi) int_0^pi f cos(n theta), n = 0 .. 64, each off
# by the aliased coefficient 128 - n (Trefethen & Weideman 2014, SIAM Rev.
# 56:385).
_COS_THETA = np.cos(np.pi * np.arange(65) / 64)
_COSINE_RULE = np.cos(np.pi * np.outer(np.arange(65), np.arange(65)) / 64) / 64
_COSINE_RULE[:, [0, -1]] /= 2


def compute_fourier_coefficients(inv_re: float) -> FourierCoefficients:
    """Cosine coefficients of the kernel exp(-s (1 - cos pi x)) on [0, 1],
    s = 1/(2 pi inv_re), in closed form.

    By the generating function exp(s cos t) = I0(s) + 2 sum In(s) cos nt
    (Abramowitz & Stegun 9.6.34), a0 = exp(-s) I0(s) and
    an = 2 exp(-s) In(s), the cosine coefficients of exp(s (cos t - 1))
    (A&S 9.6.19), all taken by one application of ``_COSINE_RULE``; with
    s < 5.76 its aliased terms are far below round-off.  Terms are kept up
    to the first n >= 8 whose own size |an| falls below ``SERIES_TAIL_TOL``;
    the time factor exp(-n^2 pi^2 inv_re t) only shrinks a term, so the
    series value is insensitive to further truncation for every t > 0.

    The denominator the coefficients feed is bounded below by the kernel's
    minimum exp(-1/(pi inv_re)).  An ``inv_re`` at which the absolute
    tolerances exceed ``SERIES_RTOL`` times that bound is refused with
    ``ValueError``; that is inv_re below 0.0276481.
    """
    if not inv_re > 0:
        raise ValueError("inv_re must be positive")
    tol = max(SERIES_ATOL, SERIES_TAIL_TOL)
    floor = math.exp(-1 / (math.pi * inv_re))
    if not tol <= SERIES_RTOL * floor:
        raise ValueError(
            f"the example-1 series oracle cannot resolve inv_re={inv_re:g}: "
            f"its absolute tolerance {tol:g} exceeds {SERIES_RTOL:g} times the "
            f"denominator's minimum exp(-1/(pi*inv_re)) = {floor:.3g}; "
            f"it needs inv_re >= {1 / (math.pi * math.log(SERIES_RTOL / tol)):.4g}"
        )
    s = 1.0 / (2 * np.pi * inv_re)
    c = _COSINE_RULE @ np.exp(s * (_COS_THETA - 1))
    n = np.arange(1, len(c))
    a = 2 * c[1:]
    last = np.flatnonzero((a < SERIES_TAIL_TOL) & (n >= 8))[0]
    return FourierCoefficients(a0=float(c[0]), a=a[:last + 1], inv_re=inv_re)


def example1_exact(x, t: float, coeffs: FourierCoefficients):
    """Series solution of the 1D problem with sin(pi x) initial data.

    Accurate for every t > 0, since the truncation of ``coeffs`` does not
    depend on t; at t = 0 the initial condition is used directly.
    """
    if not t > 0:
        raise ValueError("series oracle requires t > 0; use sin(pi x) at t=0")
    x = np.asarray(x, dtype=float)
    nu = coeffs.inv_re
    n = np.arange(1, coeffs.n_trunc + 1)
    # a huge nu t overflows the exponent to -inf, whose exp is the limit 0
    with np.errstate(over="ignore"):
        damp = coeffs.a * np.exp(-(n**2) * np.pi**2 * nu * t)
    xn = np.multiply.outer(x, n) * np.pi
    num = 2 * np.pi * nu * (np.sin(xn) @ (damp * n))
    den = coeffs.a0 + np.cos(xn) @ damp
    if np.any(np.abs(den) < 1e-300):
        raise FloatingPointError("series denominator underflowed")
    return num / den


def example2_exact(x, y, t: float, inv_re: float):
    """Closed-form 2D solution pair (denominator is bounded below by 1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    decay = np.exp(-5 * np.pi**2 * inv_re * t)
    den = 2 + decay * np.sin(2 * np.pi * x) * np.sin(np.pi * y)
    u = -4 * np.pi * inv_re * decay * np.cos(2 * np.pi * x) * np.sin(np.pi * y) / den
    v = -2 * np.pi * inv_re * decay * np.sin(2 * np.pi * x) * np.cos(np.pi * y) / den
    return u, v


def example3_exact(x, y, t: float):
    """Spatially linear rational 2D solution; singular at t = 1/sqrt(2)."""
    if t >= SINGULAR_TIME_3:
        raise ValueError(f"solution is singular at t >= {SINGULAR_TIME_3}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    den = 1 - 2 * t**2
    u = (x + y - 2 * x * t) / den
    v = (x - y - 2 * y * t) / den
    return u, v


def example4_exact(x, y, z, t: float, variant: str = "corrected"):
    """Spatially linear 3D solution candidates.

    ``as-printed`` uses the 1 + 3t^2 denominator, which does not satisfy
    the PDE (the residual gate flags it); ``corrected`` uses 1 + 3t, which
    does.  Both agree at t = 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if variant == "as-printed":
        den = 1 + 3 * t**2
    elif variant == "corrected":
        den = 1 + 3 * t
    else:
        raise ValueError(f"unknown variant {variant!r}")
    u = (x + y + z) / den
    return u, u, u


# --- problem registrations -------------------------------------------------

def example1_spec(
    inv_re: float = 0.1,
    final_time: float = 1.0,
) -> ProblemSpec:
    """1D problem with homogeneous boundaries and sin(pi x) initial data.

    The benchmark tables for this problem were produced with 1/Re = 0.1
    (their caption says 1, but the tabulated values pin it to 0.1).
    """
    coeffs = compute_fourier_coefficients(inv_re)

    def initial(x):
        return (np.sin(np.pi * np.asarray(x, dtype=float)),)

    def boundary(x, t):
        return (np.zeros_like(np.asarray(x, dtype=float)),)

    def exact(x, t):
        if t == 0:
            return initial(x)
        return (example1_exact(x, t, coeffs),)

    return ProblemSpec(
        domain=((0.0, 1.0),),
        inv_re=inv_re,
        final_time=final_time,
        initial_fn=initial,
        boundary_fn=boundary,
        exact_fn=exact,
        name="example1",
    )


def _exact_spec(name, domain, inv_re, final_time, exact) -> ProblemSpec:
    """A problem whose exact solution ``exact(*coords, t)`` gives its
    initial data, its boundary data and its error reference."""
    return ProblemSpec(
        domain=domain,
        inv_re=inv_re,
        final_time=final_time,
        initial_fn=lambda *coords: exact(*coords, 0.0),
        boundary_fn=exact,
        exact_fn=exact,
        name=name,
    )


def example2_spec(inv_re: float = 0.1, final_time: float = 1.0) -> ProblemSpec:
    return _exact_spec("example2", ((0.0, 1.0),) * 2, inv_re, final_time,
                       partial(example2_exact, inv_re=inv_re))


def example3_spec(inv_re: float = 0.1, final_time: float = 0.1) -> ProblemSpec:
    if final_time >= SINGULAR_TIME_3:
        raise ValueError(
            f"example 3 is singular at t = 1/sqrt(2); final_time must be "
            f"below {SINGULAR_TIME_3:.6g}, got {final_time}"
        )
    return _exact_spec("example3", ((0.0, 0.5),) * 2, inv_re, final_time,
                       example3_exact)


def example4_spec(
    inv_re: float = 0.08,
    final_time: float = 1.0,
    variant: str = "corrected",
) -> ProblemSpec:
    return _exact_spec(f"example4[{variant}]", ((0.0, 1.0),) * 3, inv_re,
                       final_time, partial(example4_exact, variant=variant))


EXAMPLES = {
    1: example1_spec,
    2: example2_spec,
    3: example3_spec,
    4: example4_spec,
}
