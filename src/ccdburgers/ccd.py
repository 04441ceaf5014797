"""Three-point combined compact difference (CCD) operator on a uniform axis.

The scheme couples the unknown first and second derivatives of the sampled
function at three adjacent nodes.  In block form the equations read
[[A1, A2], [A3, A4]] [u'; u''] = [B1; B2] u (see ``dense_matrices``).  The
residual ``A v - B u`` that each row leaves on the exact derivatives (its
truncation error) is

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


def _band(axis: GridAxis) -> np.ndarray:
    """LAPACK band storage (kl = ku = 3) of the coefficient matrix A, with the
    unknowns interleaved as (u'_0, u''_0, u'_1, u''_1, ...) and equation 2i
    (2i+1) the first- (second-) derivative relation at node i.

    The right-hand sides ``B u`` of the same equations are formed by
    ``_build_rhs``.
    """
    m = axis.n_nodes
    h = axis.spacing
    n = 2 * m
    ab = np.zeros((2 * _KL + _KU + 1, n))

    # (relation, unknown, neighbour offset) -> interior coefficient
    interior = {
        (0, 0, -1): 7 / 16, (0, 0, 0): 1.0, (0, 0, 1): 7 / 16,
        (0, 1, -1): h / 16, (0, 1, 1): -h / 16,
        (1, 0, -1): -9 / (8 * h), (1, 0, 1): 9 / (8 * h),
        (1, 1, -1): -1 / 8, (1, 1, 0): 1.0, (1, 1, 1): -1 / 8,
    }
    for (rel, unk, off), value in interior.items():
        first = 2 * (1 + off) + unk  # column of node 1's neighbour
        ab[_KL + _KU + rel - unk - 2 * off, first:first + 2 * (m - 2):2] = value

    # The one-sided closure at the left node, the extra boundary relation
    # that completes the square system, and their mirror images.
    closures = (
        (0, ((0, 14.0), (2, 16.0), (1, 2 * h), (3, -4 * h))),
        (1, ((0, 1.0), (2, 2.0), (3, -h))),
        (n - 2, ((n - 2, 14.0), (n - 4, 16.0), (n - 1, -2 * h), (n - 3, 4 * h))),
        (n - 1, ((n - 2, 1.0), (n - 4, 2.0), (n - 3, h))),
    )
    for row, entries in closures:
        for col, value in entries:
            ab[_KL + _KU + row - col, col] = value
    return ab


def _build_rhs(u: np.ndarray, h: float) -> np.ndarray:
    """The right-hand side B u of the interleaved system (see ``_band``)."""
    m = u.shape[0]
    r = np.zeros((2 * m,) + u.shape[1:])
    r[2:2 * m - 2:2] = (15 / (16 * h)) * (u[2:] - u[:-2])
    r[3:2 * m - 1:2] = (3 / h**2) * (u[2:] - 2 * u[1:-1] + u[:-2])
    r[0] = -(31 * u[0] - 32 * u[1] + u[2]) / h
    r[1] = -(7 * u[0] - 8 * u[1] + u[2]) / (2 * h)
    r[2 * m - 2] = (31 * u[-1] - 32 * u[-2] + u[-3]) / h
    r[2 * m - 1] = (7 * u[-1] - 8 * u[-2] + u[-3]) / (2 * h)
    return r


def dense_matrices(axis: GridAxis) -> tuple[np.ndarray, np.ndarray]:
    """Dense views ``(A, B)`` of the CCD equations ``A [u'; u''] = B u`` in
    block (non-interleaved) order, A being 2m x 2m and B 2m x m.

    Both are read back from the production forms, A from ``_band`` and B
    from ``_build_rhs`` applied to the identity, so they carry no second copy
    of the coefficients.  For tests and the solvability audit only.
    """
    m = axis.n_nodes
    n = 2 * m
    ab = _band(axis)
    full = np.zeros((n, n))
    cols = np.arange(n)
    for d in range(-_KU, _KL + 1):
        j = cols[max(0, -d):min(n, n - d)]
        full[j + d, j] = ab[_KL + _KU + d, j]
    block = np.r_[0:n:2, 1:n:2]
    rhs = _build_rhs(np.eye(m), axis.spacing)
    # + 0.0 turns the -0.0 left in the closure rows of B into 0.0
    return full[np.ix_(block, block)], rhs[block] + 0.0


class CcdFactorization:
    """Immutable banded LU factorization of the CCD system for one axis.

    ``apply`` maps nodal samples (one pencil per column) to nodal first and
    second derivatives.  Construction performs the single LU factorization;
    applications only run banded triangular solves, so a factorization can be
    shared freely across pencils, directions and time steps.
    """

    def __init__(self, axis: GridAxis):
        self.axis = axis
        self.m = axis.n_nodes
        lu, ipiv, info = lapack.dgbtrf(_band(axis), kl=_KL, ku=_KU)
        if info != 0:
            # Unreachable for valid axes: the CCD matrix is provably
            # nonsingular (see the solvability audit).
            raise np.linalg.LinAlgError(
                f"banded LU of the CCD matrix failed (info={info})"
            )
        self._lu = lu
        self._ipiv = ipiv

    def apply(self, samples: np.ndarray) -> DerivativePair:
        """Differentiate one pencil (shape (m,)) or a batch (shape (m, k))."""
        u = np.asarray(samples, dtype=float)
        if u.shape[0] != self.m:
            raise ValueError(
                f"expected {self.m} samples per pencil, got {u.shape[0]}"
            )
        r = _build_rhs(u, self.axis.spacing)
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
        fact = CcdFactorization(axis)
        _CACHE[key] = fact
    return fact
