"""Three-point combined compact difference (CCD) operator on a uniform axis.

The scheme couples the unknown first and second derivatives of the sampled
function at three adjacent nodes.  The residual ``A v - B u`` that each row
leaves on the exact derivatives (its truncation error) is

* interior rows: -(h^6/5040) u^(7) for the first-derivative relation and
  -(h^6/20160) u^(8) for the second-derivative relation;
* first boundary closure ``(A1 A2 | B1)``: (h^5/90) u^(6) at the left
  node and its negative at the right node, exact through degree 5;
* second boundary closure ``(A3 A4 | B2)``: (h^4/60) u^(5) at both end
  nodes, exact only through degree 4.  With its A entries fixed, consistency through degree 2
  determines its three-point B row uniquely, so no three-point closure of
  this form does better.

All 2*(M+1) unknowns are obtained from one banded linear solve whose matrix
depends only on the node count and spacing, so the factorization is built
once per axis and reused for every pencil and time step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .grid import GridAxis

# Half bandwidths of the interleaved (u'_0, u''_0, u'_1, u''_1, ...) matrix.
_KL = 3
_KU = 3


@dataclass(frozen=True)
class DerivativePair:
    """Nodal first and second derivative approximations along one axis."""

    first: np.ndarray
    second: np.ndarray


@dataclass(frozen=True)
class CcdSystem:
    """The 2x2 block form of the CCD equations for one axis.

    ``A1..A4`` multiply the stacked unknowns (u_x, u_xx); ``B1, B2`` multiply
    the known samples.  Kept in block (non-interleaved) ordering for
    inspection and for the solvability audit; the production solver uses the
    interleaved banded form instead.
    """

    axis: GridAxis
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    A4: np.ndarray
    B1: np.ndarray
    B2: np.ndarray

    @property
    def m(self) -> int:
        return self.axis.n_nodes

    def full_matrix(self) -> np.ndarray:
        """The dense 2m x 2m coefficient matrix [[A1, A2], [A3, A4]]."""
        return np.block([[self.A1, self.A2], [self.A3, self.A4]])

    def rhs_matrix(self) -> np.ndarray:
        """The dense 2m x m right-hand-side matrix [B1; B2]."""
        return np.vstack([self.B1, self.B2])


def build_ccd_system(axis: GridAxis) -> CcdSystem:
    """Assemble the CCD blocks for ``axis``.

    Interior rows come from the two implicit three-point relations; the
    first/last rows of (A1 A2 | B1) are one-sided closures with truncation
    error +/-(h^5/90) u^(6), and the first/last rows of (A3 A4 | B2) are the
    extra boundary relations, with truncation error (h^4/60) u^(5), that
    complete the square system.
    """
    m = axis.n_nodes
    h = axis.spacing

    A1 = np.zeros((m, m))
    A2 = np.zeros((m, m))
    A3 = np.zeros((m, m))
    A4 = np.zeros((m, m))
    B1 = np.zeros((m, m))
    B2 = np.zeros((m, m))

    i = np.arange(1, m - 1)
    A1[i, i - 1] = 7 / 16
    A1[i, i] = 1.0
    A1[i, i + 1] = 7 / 16
    A2[i, i - 1] = h / 16
    A2[i, i + 1] = -h / 16
    B1[i, i - 1] = -15 / (16 * h)
    B1[i, i + 1] = 15 / (16 * h)

    A3[i, i - 1] = -9 / (8 * h)
    A3[i, i + 1] = 9 / (8 * h)
    A4[i, i - 1] = -1 / 8
    A4[i, i] = 1.0
    A4[i, i + 1] = -1 / 8
    B2[i, i - 1] = 3 / h**2
    B2[i, i] = -6 / h**2
    B2[i, i + 1] = 3 / h**2

    # One-sided closure at the left node and its mirror image.
    A1[0, 0], A1[0, 1] = 14.0, 16.0
    A2[0, 0], A2[0, 1] = 2 * h, -4 * h
    B1[0, 0], B1[0, 1], B1[0, 2] = -31 / h, 32 / h, -1 / h

    A1[-1, -1], A1[-1, -2] = 14.0, 16.0
    A2[-1, -1], A2[-1, -2] = -2 * h, 4 * h
    B1[-1, -1], B1[-1, -2], B1[-1, -3] = 31 / h, -32 / h, 1 / h

    # Additional boundary relations closing the 2(M+1)-unknown system.
    A3[0, 0], A3[0, 1] = 1.0, 2.0
    A4[0, 1] = -h
    B2[0, 0], B2[0, 1], B2[0, 2] = -7 / (2 * h), 8 / (2 * h), -1 / (2 * h)

    A3[-1, -1], A3[-1, -2] = 1.0, 2.0
    A4[-1, -2] = h
    B2[-1, -1], B2[-1, -2], B2[-1, -3] = 7 / (2 * h), -8 / (2 * h), 1 / (2 * h)

    return CcdSystem(axis=axis, A1=A1, A2=A2, A3=A3, A4=A4, B1=B1, B2=B2)


def _interleaved_banded(system: CcdSystem) -> np.ndarray:
    """LAPACK band storage of the coefficient matrix with unknowns
    interleaved as (u'_0, u''_0, u'_1, u''_1, ...), bandwidth 3."""
    m = system.m
    n = 2 * m
    ab = np.zeros((2 * _KL + _KU + 1, n))

    def put(row, col, val):
        ab[_KL + _KU + row - col, col] = val

    blocks = ((system.A1, 0, 0), (system.A2, 0, 1),
              (system.A3, 1, 0), (system.A4, 1, 1))
    for block, roff, coff in blocks:
        rows, cols = np.nonzero(block)
        for r, c in zip(rows, cols):
            put(2 * r + roff, 2 * c + coff, block[r, c])
    return ab


class CcdFactorization:
    """Immutable banded LU factorization of the CCD system for one axis.

    ``apply`` maps nodal samples (one pencil per column) to nodal first and
    second derivatives.  Construction performs the single LU factorization;
    applications only run banded triangular solves, so a factorization can be
    shared freely across pencils, directions and time steps.
    """

    def __init__(self, system: CcdSystem):
        self.axis = system.axis
        self.m = system.m
        ab = _interleaved_banded(system)
        lu, ipiv, info = lapack.dgbtrf(ab, kl=_KL, ku=_KU)
        if info != 0:
            # Unreachable for valid axes: the CCD matrix is provably
            # nonsingular (see the solvability audit).
            raise np.linalg.LinAlgError(
                f"banded LU of the CCD matrix failed (info={info})"
            )
        self._lu = lu
        self._ipiv = ipiv

    def _build_rhs(self, u: np.ndarray) -> np.ndarray:
        h = self.axis.spacing
        m = self.m
        r = np.zeros((2 * m,) + u.shape[1:])
        r[2:2 * m - 2:2] = (15 / (16 * h)) * (u[2:] - u[:-2])
        r[3:2 * m - 1:2] = (3 / h**2) * (u[2:] - 2 * u[1:-1] + u[:-2])
        r[0] = -(31 * u[0] - 32 * u[1] + u[2]) / h
        r[1] = -(7 * u[0] - 8 * u[1] + u[2]) / (2 * h)
        r[2 * m - 2] = (31 * u[-1] - 32 * u[-2] + u[-3]) / h
        r[2 * m - 1] = (7 * u[-1] - 8 * u[-2] + u[-3]) / (2 * h)
        return r

    def apply(self, samples: np.ndarray) -> DerivativePair:
        """Differentiate one pencil (shape (m,)) or a batch (shape (m, k))."""
        u = np.asarray(samples, dtype=float)
        if u.shape[0] != self.m:
            raise ValueError(
                f"expected {self.m} samples per pencil, got {u.shape[0]}"
            )
        r = self._build_rhs(u)
        flat = r.reshape(2 * self.m, -1)
        x, info = lapack.dgbtrs(self._lu, _KL, _KU, flat, self._ipiv)
        if info != 0:
            raise np.linalg.LinAlgError(f"banded solve failed (info={info})")
        x = x.reshape(r.shape)
        return DerivativePair(first=x[0::2], second=x[1::2])


_CACHE: dict[tuple[int, float], CcdFactorization] = {}


def get_factorization(axis: GridAxis) -> CcdFactorization:
    """Factorization cache keyed by (node count, spacing): all coordinate
    directions of an isotropic grid share a single factorization."""
    key = (axis.n_cells, axis.spacing)
    fact = _CACHE.get(key)
    if fact is None:
        fact = CcdFactorization(build_ccd_system(axis))
        _CACHE[key] = fact
    return fact
