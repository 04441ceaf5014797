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

Every row of B annihilates constants, so B u = B~ (u[1:] - u[:-1]): the
derivatives are the fixed linear map E = A^-1 B~ of the first differences.
``CcdFactorization.apply`` multiplies every batch by E, a single pencil
included, so constants give exactly zero.  E's entries decay geometrically
away from the diagonal (Demko, Moss & Smith 1984, Math. Comp. 43:491), so
only a band of half-width ``_HALF_WIDTH`` differences is kept, in row blocks.
E is built once per axis, along one of two routes:

* an axis of fewer than ``_APART`` nodes, whose two ends still interact,
  solves the dense system, in the interleaved order of ``_system``, for
  half of E and reflects that half into the other
  (``_difference_operator``);
* a longer axis is sliced from pieces of one 129-node operator at h = 1,
  built at import: the Toeplitz band of its interior rows, plus the
  correction in the corner at the left end, plus that corner mirrored to
  the right end, with the rows scaled by 1/h and 1/h^2.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridAxis

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
# operator may drop; checked at import, on the pieces every long axis uses.
_TAIL = 1e-16
# Differences kept on each side of a node: the smallest width whose
# geometric tail _DECAY^W / (1 - _DECAY) is below _TAIL (48).
_HALF_WIDTH = math.ceil(math.log(_TAIL * (1 - _DECAY)) / math.log(_DECAY))
# Nodes from which the two ends of an axis no longer interact: the smallest
# m with _DECAY^(m - 1) below _TAIL (48).
_APART = 1 + math.ceil(math.log(_TAIL) / math.log(_DECAY))
# Nodes per row block, and the side of the corner at either end in which E
# departs from its band.  An axis of at most _ONE_BLOCK nodes is one dense
# block; a longer one is a top corner block, Toeplitz interior blocks and a
# bottom corner block.
_BLOCK = 64
_ONE_BLOCK = 2 * _BLOCK + 1
# Reversing an axis maps E_1 to itself and E_2 to -E_2: E_k[i, j] is
# _REFLECTION[k] E_k[m - 1 - i, m - 2 - j].
_REFLECTION = np.array([[[1.0]], [[-1.0]]])


def _system(axis: GridAxis) -> tuple[np.ndarray, np.ndarray]:
    """The CCD equations A x = B~ du, dense, with the unknowns interleaved as
    x = (u'_0, u''_0, u'_1, u''_1, ...), equation 2i (2i+1) the first-
    (second-) derivative relation at node i, and du = u[1:] - u[:-1] the
    first differences: A is 2m x 2m and B~ is 2m x (m - 1).  Each array is
    filled in one pass, all interior nodes by one strided write per relation.
    """
    m = axis.n_nodes
    h = axis.spacing
    n = 2 * m
    a = np.zeros((n, n))
    bt = np.zeros((n, m - 1))
    # Interior node i = 1 .. m - 2: each row of ``rows`` starts at entry
    # (2i, 2i - 2) of A, so its first relation lies on the columns of
    # (u'_{i-1}, u''_{i-1}, u'_i, u''_i, u'_{i+1}, u''_{i+1}), and its second
    # relation n entries on; likewise from entry (2i, i - 1) of B~.
    rows = a.reshape(-1)[2 * n:2 * n + (m - 2) * (2 * n + 2)].reshape(m - 2, -1)
    rows[:, :6] = (7 / 16, h / 16, 1.0, 0.0, 7 / 16, -h / 16)
    rows[:, n:n + 6] = (-9 / (8 * h), -1 / 8, 0.0, 1.0, 9 / (8 * h), -1 / 8)
    rows = bt.reshape(-1)[2 * m - 2:2 * m - 2 + (m - 2) * (2 * m - 1)].reshape(
        m - 2, -1)
    rows[:, :2] = 15 / (16 * h)
    rows[:, m - 1:m + 1] = (-3 / h**2, 3 / h**2)
    # The one-sided closure at the left node, the extra boundary relation
    # that completes the square system, and their mirror images.
    a[:2, :4] = (14.0, 2 * h, 16.0, -4 * h), (1.0, 0.0, 2.0, -h)
    a[-2:, -4:] = (16.0, 4 * h, 14.0, -2 * h), (2.0, h, 1.0, 0.0)
    bt[:2, :2] = (31 / h, -1 / h), (7 / (2 * h), -1 / (2 * h))
    bt[-2:, -2:] = (-1 / h, 31 / h), (-1 / (2 * h), 7 / (2 * h))
    return a, bt


def dense_matrices(axis: GridAxis) -> tuple[np.ndarray, np.ndarray]:
    """Dense views ``(A, B)`` of the CCD equations ``A [u'; u''] = B u`` in
    block (non-interleaved) order, A being 2m x 2m and B 2m x m.

    Both come from ``_system``, A permuted to block order and B as B~ times
    the differencing, so they carry no second copy of the coefficients.
    For tests and the solvability audit only.
    """
    a, bt = _system(axis)
    m = axis.n_nodes
    block = np.r_[0:2 * m:2, 1:2 * m:2]
    return a[np.ix_(block, block)], (bt @ np.diff(np.eye(m), axis=0))[block]


def _difference_operator(axis: GridAxis) -> np.ndarray:
    """E = A^-1 B~ with shape (2, m, m - 1), where B u = B~ (u[1:] - u[:-1]):
    first derivatives in [0], second in [1].

    A dense LU solve of the interleaved system gives the left half of the
    columns, and ``_REFLECTION`` the right half.  In this order the LU
    factors stay banded under partial pivoting, so E's small far entries
    keep their relative accuracy; in block order they carry 1.7e-14 of
    their row's maximum, which the check in ``_unit_pieces`` refuses.
    """
    m = axis.n_nodes
    a, bt = _system(axis)
    half = m // 2
    x = np.linalg.solve(a, bt[:, :half])
    e = np.empty((2, m, m - 1))
    e[:, :, :half] = x.reshape(m, 2, half).swapaxes(0, 1)
    np.multiply(e[:, ::-1, m - 2 - half::-1], _REFLECTION, out=e[:, :, half:])
    return e


def _unit_pieces() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E on _ONE_BLOCK nodes at h = 1, as the pieces that every axis of at
    least _APART nodes is sliced from: the Toeplitz band of its middle row,
    a read-only view wide enough for an interior row block; the correction
    that E adds to the band in its first _BLOCK rows and differences, near
    the left end; and that corner's mirror image, near the right end.

    Refuses a half-width at which the band and corners would drop more than
    _TAIL of a row's maximum.
    """
    cells = _ONE_BLOCK - 1
    e = _difference_operator(GridAxis(cells, 0.0, float(cells)))
    b, w = _BLOCK, _HALF_WIDTH
    offset = np.arange(cells) - np.arange(_ONE_BLOCK)[:, None]
    kept = (-w <= offset) & (offset < w)
    kept[:b, :b] = kept[-b:, -b:] = True
    worst = float(np.max(np.abs(e * ~kept).max(axis=2) / np.abs(e).max(axis=2)))
    if worst > _TAIL:
        raise RuntimeError(
            f"the block-banded CCD operator would drop {worst:.2g} of a "
            f"row's maximum (half-width {w}, limit {_TAIL:.0e})"
        )
    # band[:, i, j] = line[:, cells + j - i], the stencil at offset j - i
    cols = b + 2 * w - 1
    line = np.zeros((2, _ONE_BLOCK + cols - 1))
    line[:, cells - w:cells + w] = e[:, b, b - w:b + w]
    band = np.lib.stride_tricks.sliding_window_view(line, cols, axis=1)[:, ::-1]
    left = e[:, :b, :b] - band[:, :b, :b]
    right = left[:, ::-1, ::-1] * _REFLECTION
    return band, left, right


_BAND, _LEFT, _RIGHT = _unit_pieces()


class CcdFactorization:
    """The CCD operator E of one axis, held in row blocks.

    ``apply`` maps nodal samples (one pencil per column) to nodal first and
    second derivatives.  Construction builds E, so the factorization cache,
    and with it a run's setup, pays for it.  A factorization can be shared
    freely across pencils, directions and time steps.
    """

    def __init__(self, axis: GridAxis):
        self.axis = axis
        self.m = m = axis.n_nodes
        if m < _APART:
            blocks = [(0, 0, _difference_operator(axis))]
        else:
            blocks = self._sliced_blocks()
        # (slice of nodes, slice of differences, (2, 1, rows, columns)
        # block) per row block, first derivatives in [0] and second in [1];
        # the groups of pencils that ``apply`` multiplies broadcast over the
        # unit axis
        self._blocks = tuple(
            (slice(row, row + block.shape[1]), slice(col, col + block.shape[2]),
             block[:, None])
            for row, col, block in blocks)
        # E itself, (2, m, m - 1), when one block holds it: a lone pencil's
        # differences then take a single product
        self._whole = blocks[0][2] if len(blocks) == 1 else None

    def _sliced_blocks(self) -> list[tuple[int, int, np.ndarray]]:
        """(first node, first difference, (2, rows, columns) block) per row
        block of E on an axis of at least _APART nodes, sliced from the
        import-time pieces."""
        m, h = self.m, self.axis.spacing
        b, w = _BLOCK, _HALF_WIDTH
        scale = np.array([[[1 / h]], [[1 / h**2]]])
        # The band, plus each end's correction in its corner block; one
        # array serves as both corner blocks of a one-block axis.
        one = m <= _ONE_BLOCK
        top = np.array(_BAND[:, :m, :m - 1] if one else _BAND[:, :b, :b + w - 1])
        bottom = top if one else np.array(_BAND[:, w:w + b, :b + w - 1])
        top[:, :b, :b] += _LEFT[:, :m, :m - 1]
        bottom[:, -b:, -b:] += _RIGHT[:, -m:, 1 - m:]
        top *= scale
        blocks = [(0, 0, top)]
        if not one:
            bottom *= scale
            # One Toeplitz block serves every interior row block: entry
            # (r, c) couples node row0 + r to difference row0 - w + c.
            interior = _BAND[:, w:w + b] * scale
            for row in range(b, m - b, b):
                rows = min(b, m - b - row)
                blocks.append(
                    (row, row - w, interior[:, :rows, :rows + 2 * w - 1]))
            blocks.append((m - b, m - b - w, bottom))
        return blocks

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Differentiate one pencil (shape (m,)) or a batch whose pencils run
        down the first index (shape (m, ...)), by multiplying the first
        differences by E.

        Returns one new array of shape ``(2,) + samples.shape``, first
        derivatives in [0] and second in [1], so
        ``first, second = fact.apply(u)``.  E is contracted along the
        pencils' axis in the batch's own memory layout: when swapping the
        first index with index k gives a C-contiguous view (k = 0 for a
        C-contiguous batch), the samples are read, and the derivatives
        written, in that order; any other view is copied to C order once.
        So the derivatives of a field handed over as ``f.swapaxes(0, k)``,
        with ``f`` C-ordered, swapped back are C-ordered too.  A single
        pencil on an axis of at most _ONE_BLOCK nodes, whose E is one block,
        takes one product of E and its differences, without the batch
        layout.
        """
        u = np.asarray(samples)
        m = self.m
        if u.dtype.kind not in "biuf" or u.ndim == 0 or u.shape[0] != m:
            raise ValueError(
                f"expected real samples of shape ({m}, ...), got "
                f"{u.dtype} samples of shape {u.shape}"
            )
        if u.ndim == 1 and self._whole is not None:
            # dtype=float: booleans have no subtract, and unsigned integers
            # would wrap around
            return np.matmul(self._whole,
                             np.subtract(u[1:], u[:-1], dtype=float))
        if u.size == 0:
            return np.empty((2,) + u.shape)
        k = 0
        if not u.flags.c_contiguous:
            k = next((k for k in range(1, u.ndim)
                      if u.swapaxes(0, k).flags.c_contiguous), 0)
            u = u.swapaxes(0, k) if k else np.ascontiguousarray(u)
        # u is C-ordered, with the pencils running down index k: viewed as
        # (p, m, q), consecutive nodes of a pencil lie q elements apart.
        q = u.strides[k] // u.itemsize
        flat = u.ravel()
        # One pass of differences at distance q; those that straddle two
        # pencils, and the last q, are never read.
        du = np.empty(flat.size)
        np.subtract(flat[q:], flat[:-q], out=du[:-q], dtype=float)
        du = du.reshape(-1, m, q)
        out = np.empty((2,) + u.shape)
        work = out.reshape(2, -1, m, q)
        # one product per row block: for a batch of rows (q = 1), the
        # pencils are rows of du and the block multiplies from the right
        rowwise = q == 1 and len(du) > 1
        for rows, cols, block in self._blocks:
            if rowwise:
                np.matmul(du[:, cols, 0], block[:, 0].swapaxes(1, 2),
                          out=work[:, :, rows, 0])
            else:
                np.matmul(block, du[:, cols], out=work[:, :, rows])
        return out.swapaxes(1, k + 1) if k else out


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
