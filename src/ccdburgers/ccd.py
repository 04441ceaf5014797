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

Every row of B annihilates constants, so B u is a fixed map of the first
differences ``u[1:] - u[:-1]``: taken from a batch in any memory layout, they
are the one input of both forms of ``CcdFactorization.apply``.  The
derivatives are therefore a fixed linear map of the differences, and a wide
batch of pencils is cheaper to push through that map as a few dense matrix
products than through the banded triangular solves.  Constants give exactly
zero in that form, and its entries decay geometrically away from the
diagonal (Demko, Moss & Smith 1984, Math. Comp. 43:491), so only a band of
half-width ``_HALF_WIDTH`` differences is kept.  ``apply`` chooses between
the two forms by batch width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .grid import GridAxis

# Half bandwidths of the interleaved (u'_0, u''_0, u'_1, u''_1, ...) matrix.
_KL = 3
_KU = 3

# x_i = z^i v solves the homogeneous interior equations exactly when
# 1 + 20z + 48z^2 + 20z^3 + z^4 = 0, the determinant of their 2x2 symbol (the
# same at every spacing).  The quartic is palindromic: with s = z + 1/z it
# reads s^2 + 20s + 46 = 0.  Its root s = -10 + sqrt(54) gives the larger
# root inside the unit circle, z = (s + sqrt(s^2 - 4))/2 = -0.4553, whose
# modulus is the rate at which the entries of A^-1 B fall per node away
# from the diagonal.
_S = -10 + math.sqrt(54)
_DECAY = abs(_S + math.sqrt(_S * _S - 4)) / 2
# Largest entry, relative to its row's maximum, that the block-banded
# operator may drop; checked when the operator is built.
_TAIL = 1e-16
# Differences kept on each side of a node: the smallest width whose
# geometric tail _DECAY^W / (1 - _DECAY) is below _TAIL (48).
_HALF_WIDTH = math.ceil(math.log(_TAIL * (1 - _DECAY)) / math.log(_DECAY))
# Nodes per row block.  An axis of at most _ONE_BLOCK nodes is one dense
# block; a longer one is cut from a proxy axis of _ONE_BLOCK nodes, whose
# first and last _BLOCK rows are the corners and whose middle row is the
# interior stencil.  _ONE_BLOCK is also the batch width from which the
# operator pays for its build within about one apply.
_BLOCK = 64
_ONE_BLOCK = 2 * _BLOCK + 1


@dataclass(frozen=True)
class DerivativePair:
    """Nodal first and second derivative approximations along one axis."""

    first: np.ndarray
    second: np.ndarray


def _band(axis: GridAxis) -> np.ndarray:
    """LAPACK band storage (kl = ku = 3) of the coefficient matrix A, with the
    unknowns interleaved as (u'_0, u''_0, u'_1, u''_1, ...) and equation 2i
    (2i+1) the first- (second-) derivative relation at node i.

    The right-hand sides ``B u`` of the same equations are formed from
    first differences by ``_build_rhs``.
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


def _build_rhs(du: np.ndarray, h: float) -> np.ndarray:
    """The right-hand side B u of the interleaved system (see ``_band``),
    from the first differences ``du = u[1:] - u[:-1]``."""
    m = du.shape[0] + 1
    r = np.empty((2 * m,) + du.shape[1:])
    r[2:2 * m - 2:2] = (15 / (16 * h)) * (du[1:] + du[:-1])
    r[3:2 * m - 1:2] = (3 / h**2) * (du[1:] - du[:-1])
    r[0] = (31 * du[0] - du[1]) / h
    r[1] = (7 * du[0] - du[1]) / (2 * h)
    r[2 * m - 2] = (31 * du[-1] - du[-2]) / h
    r[2 * m - 1] = (7 * du[-1] - du[-2]) / (2 * h)
    return r


def dense_matrices(axis: GridAxis) -> tuple[np.ndarray, np.ndarray]:
    """Dense views ``(A, B)`` of the CCD equations ``A [u'; u''] = B u`` in
    block (non-interleaved) order, A being 2m x 2m and B 2m x m.

    Both are read back from the production forms, A from ``_band`` and B
    from ``_build_rhs`` applied to the differences of the identity, so they
    carry no second copy of the coefficients.  For tests and the solvability
    audit only.
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
    rhs = _build_rhs(np.diff(np.eye(m), axis=0), axis.spacing)
    return full[np.ix_(block, block)], rhs[block]


class CcdFactorization:
    """Banded LU factorization of the CCD system for one axis, and the
    block-banded operator that wide batches are multiplied by.

    ``apply`` maps nodal samples (one pencil per column) to nodal first and
    second derivatives.  Construction performs the single LU factorization.
    A batch of fewer than ``min(m, 129)`` pencils runs the banded triangular
    solves; a wider one is multiplied by the explicit operator, built once
    from the factorization by ``prepare`` or by the first wide apply.  A
    factorization can be shared freely across pencils, directions and time
    steps.
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
        self._wide_from = min(self.m, _ONE_BLOCK)
        # (first node, first difference, (2, rows, columns) block) per row
        # block, first derivatives in [0] and second in [1]
        self._blocks: tuple | None = None

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dgbtrs(self._lu, _KL, _KU, rhs, self._ipiv)
        if info != 0:
            raise np.linalg.LinAlgError(f"banded solve failed (info={info})")
        return x

    def _difference_operator(self) -> np.ndarray:
        """E = A^-1 B~ with shape (2, m, m - 1), where B u = B~ (u[1:] - u[:-1])."""
        x = self._solve(_build_rhs(np.eye(self.m - 1), self.axis.spacing))
        return np.stack((x[0::2], x[1::2]))

    def _build_blocks(self) -> tuple:
        m = self.m
        if m <= _ONE_BLOCK:
            return ((0, 0, self._difference_operator()),)
        b, w = _BLOCK, _HALF_WIDTH
        cells = _ONE_BLOCK - 1
        proxy = CcdFactorization(GridAxis(cells, 0.0, cells * self.axis.spacing))
        e = proxy._difference_operator()
        # Row i keeps differences i - w .. i + w - 1 in the interior and its
        # whole (clipped) block window at the corners; the rest is dropped.
        dropped = np.abs(e)
        peak = dropped.max(axis=2)
        dropped[:, :b, :b + w - 1] = 0.0
        dropped[:, b + 1:, b + 1 - w:] = 0.0
        dropped[:, b, b - w:b + w] = 0.0
        worst = float(np.max(dropped.max(axis=2) / peak))
        del dropped  # before the blocks are copied: 0.9 MiB peak at 1025 nodes
        if worst > _TAIL:
            raise RuntimeError(
                f"the block-banded CCD operator would drop {worst:.2g} of a "
                f"row's maximum (half-width {w}, limit {_TAIL:.0e})"
            )
        # One Toeplitz block serves every interior row block: entry (r, c)
        # couples node row0 + r to difference row0 - w + c.
        interior = np.zeros((2, b, b + 2 * w - 1))
        for r in range(b):
            interior[:, r, r:r + 2 * w] = e[:, b, b - w:b + w]
        blocks = [(0, 0, np.ascontiguousarray(e[:, :b, :b + w - 1]))]
        for row in range(b, m - b, b):
            rows = min(b, m - b - row)
            blocks.append((row, row - w, interior[:, :rows, :rows + 2 * w - 1]))
        blocks.append(
            (m - b, m - b - w, np.ascontiguousarray(e[:, b + 1:, b + 1 - w:])))
        return tuple(blocks)

    def prepare(self, pencils: int) -> None:
        """Build now what an apply of ``pencils`` pencils will use, so that
        a run's setup, not its first step, pays for the explicit operator."""
        if pencils >= self._wide_from and self._blocks is None:
            self._blocks = self._build_blocks()

    def apply(self, samples: np.ndarray) -> DerivativePair:
        """Differentiate one pencil (shape (m,)) or a batch whose pencils run
        down the first index (shape (m, ...)), into new arrays.  The batch
        is read as given, strided views included: both forms take only its
        first differences."""
        u = np.asarray(samples, dtype=float)
        if u.shape[0] != self.m:
            raise ValueError(
                f"expected {self.m} samples per pencil, got {u.shape[0]}"
            )
        # C order, so that the reshapes below never copy
        du = np.subtract(u[1:], u[:-1], order="C")
        pencils = u.size // self.m
        if pencils >= self._wide_from:
            self.prepare(pencils)
            du = du.reshape(self.m - 1, pencils)
            out = np.empty((2, self.m, pencils))
            for row, col, block in self._blocks:
                rows, cols = block.shape[1:]
                np.matmul(block, du[col:col + cols], out=out[:, row:row + rows])
            return DerivativePair(first=out[0].reshape(u.shape),
                                  second=out[1].reshape(u.shape))
        r = _build_rhs(du, self.axis.spacing)
        x = self._solve(r.reshape(2 * self.m, -1)).reshape(r.shape)
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
