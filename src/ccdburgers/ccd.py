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
included, so constants give exactly zero.  E has a closed form at h = 1,
its rows then scaled by 1/h and 1/h^2 (``_operator``): the Toeplitz band
t(j - i) that solves the interior rows on an unbounded axis, plus four
geometric modes, z_r^i from the left end and their mirror images from the
right, weighted by one 4 x 4 solve so that the four closure rows hold.  E's
entries decay geometrically away from the diagonal (Demko, Moss & Smith
1984, Math. Comp. 43:491), below ``_TAIL`` of a row's maximum past
``_HALF_WIDTH`` differences.

An axis of at most ``_ONE_BLOCK`` nodes holds E as one dense block.  On a
longer axis, every row of E is, outside its own block of rows, its band: two
geometric modes on either side of the diagonal, the semiseparable structure
of inverses of banded block matrices (Meurant 1992, SIAM J. Matrix Anal.
Appl. 13:707).  So E is held in row blocks that read only their own
differences plus four carries, weighed by the band's own mode weights (see
``_carry_blocks``), and every interior block is the same array.

How a batch's differences are laid out, and which products run in tiles
of pencils and why, is set out in ``CcdFactorization._operand`` and
``_product``.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridAxis

# x_i = z^i v solves the homogeneous interior equations exactly when
# 1 + 20z + 48z^2 + 20z^3 + z^4 = 0, the determinant of their 2x2 symbol (the
# same at every spacing).  The quartic is palindromic: with s = z + 1/z it
# reads s^2 + 20s + 46 = 0, so s = -10 +- sqrt(54).  Each s gives one root
# inside the unit circle, z = 2 / (s - sqrt(s^2 - 4)) without cancellation:
# z1 = -0.4553 and z2 = -0.0578, the two modes of E away from the diagonal,
# whose entries fall by |z1| per node.
_S = -10 + math.sqrt(54) * np.array([1.0, -1.0])
_ROOTS = 2 / (_S - np.sqrt(_S * _S - 4))
_DECAY = float(abs(_ROOTS[0]))
# Largest entry, relative to its row's maximum, that the row blocks may
# drop; checked at import, on the pieces every long axis uses, with the
# carries held to it plus one unit of round-off.
_TAIL = 1e-16
# Differences from a node past which E's entries are negligible: the least
# width W whose geometric tail _DECAY^W / (1 - _DECAY) is below _TAIL (48).
_HALF_WIDTH = math.ceil(math.log(_TAIL * (1 - _DECAY)) / math.log(_DECAY))
# Nodes per row block, and the side of the corner at either end in which E
# departs from its band.  An axis of at most _ONE_BLOCK nodes is one dense
# block; a longer one is a top block of _BLOCK nodes, interior blocks of
# _BLOCK nodes and a bottom block of the remaining _BLOCK .. 2 _BLOCK - 1, so
# that each corner lies inside one block.  Carries reach only the adjacent
# block, which holds every entry above _TAIL when _BLOCK >= _HALF_WIDTH.
_BLOCK = 64
_ONE_BLOCK = 2 * _BLOCK + 1
# Pencils per tile of the tiled products (see ``_product``).
_TILE = 32
# Reversing an axis maps E_1 to itself and E_2 to -E_2: E_k[i, j] is
# _REFLECTION[k] E_k[m - 1 - i, m - 2 - j].  Applied to a pair (u', u''),
# it maps the interior rows' null vectors at z to those at 1/z.
_REFLECTION = np.array([[[1.0]], [[-1.0]]])
# z_r^n, (root, n) for n < _ONE_BLOCK: powers of a negative base take libm's
# slow pow, so every table of them is cut from this one.
_POWERS = _ROOTS[:, None] ** np.arange(_ONE_BLOCK)


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


def _closed_form() -> tuple[np.ndarray, ...]:
    """E's closed form at h = 1 from ``_system`` on five nodes: its band
    t(j - i) on _ONE_BLOCK nodes, a read-only view; the left end's modes
    z_r^i R v_r there, (component, node, root); the closure rows' residual
    on the band; the inverse of the closure rows on the four modes, for
    each node count from 5 to _ONE_BLOCK; and the band's weights, t(k) =
    sum_r w_r z_r^k for k >= 0, (component, root)."""
    a, bt = _system(GridAxis(4, 0.0, 4.0))
    z = _ROOTS
    # A_-1, A_0, A_1: the middle node's rows; their symbol z A_-1 + A_0 +
    # A_1 / z is singular at z_r, null vector v_r, and at 1/z_r, R v_r
    lower, middle, upper = a[4:6, 2:4], a[4:6, 4:6], a[4:6, 6:8]
    symbol = z[:, None, None] * lower + middle + upper / z[:, None, None]
    v = np.stack((symbol[:, 1, 1], -symbol[:, 1, 0]))
    mirrored = _REFLECTION[:, 0] * v
    # t(k) = sum_r c_r z_r^k v_r, and R t(-1 - k) for k < 0, solves column
    # j's interior rows once c fits node j's, which node j + 1's mirrors
    weights = v * np.linalg.solve(
        lower @ v * z + middle @ v + upper @ mirrored, bt[4:6, 2])
    half = weights @ _POWERS[:, :-1]
    # line[:, 2 _BLOCK + k] = t(k) for -2 _BLOCK <= k < 2 _BLOCK
    line = np.concatenate((_REFLECTION[:, 0] * half[:, ::-1], half), axis=1)
    band = np.lib.stride_tricks.sliding_window_view(
        line, _ONE_BLOCK - 1, axis=1)[:, ::-1]
    modes = mirrored[:, None] * _POWERS.T
    # the closure rows on the end nodes; their residual on m nodes is the
    # first m - 1 columns of the left rows' and the last of the right rows'
    ends, nodes = np.r_[0:2, 8:10], [0, 1, -2, -1]
    closures = a[np.ix_(ends, np.r_[0:4, 6:10])]
    residual = -closures @ band[:, nodes].swapaxes(0, 1).reshape(8, -1)
    residual[:, nodes] += bt[ends]
    # on m nodes, the left end's modes at nodes 0, 1, m - 2 and m - 1; the
    # right end's there are the left's at m - 1, m - 2, 1 and 0, mirrored
    left = modes[:, nodes + np.c_[5:_ONE_BLOCK + 1] * [0, 0, 1, 1]]
    four = np.concatenate((left, _REFLECTION[..., None] * left[:, :, ::-1]), 3)
    matrices = closures @ four.transpose(1, 2, 0, 3).reshape(-1, 8, 4)
    return band, modes, residual, np.linalg.inv(matrices), weights


_BAND, _MODES, _RESIDUAL, _INVERSES, _WEIGHTS = _closed_form()


def _operator(m: int) -> np.ndarray:
    """E at h = 1 on m <= _ONE_BLOCK nodes, (2, m, m - 1): the band plus the
    modes z_r^i R v_r from the left end and z_r^(m-1-i) v_r from the right,
    weighted by the inverse of the closure rows on the modes times the
    rows' residual on the band, so that the closure rows hold."""
    e = np.array(_BAND[:, :m, :m - 1])
    modes = np.concatenate((_MODES[:, :m], _REFLECTION * _MODES[:, m - 1::-1]),
                           axis=2)
    residual = np.concatenate((_RESIDUAL[:2, :m - 1], _RESIDUAL[2:, 1 - m:]))
    e += modes @ (_INVERSES[m - 5] @ residual)
    return e


def _carry_blocks(m: int) -> tuple[np.ndarray, ...]:
    """E at h = 1 on an axis of at least 2 _BLOCK nodes, in carry form: the
    top block, one interior block and the bottom block.

    A block of the nodes s .. e - 1 owns the differences from s to e - 1
    (to m - 2 in the bottom block), and is returned transposed and
    C-contiguous, (2, 4 + owned, rows).  Its columns of E weigh the causal
    carries sum_j z_r^(s-1-j) du_j over the previous block's differences,
    the anticausal carries sum_j z_r^(j-e) du_j over the next block's, and
    its own differences.  Past its block, row s + i of E is the band, so its
    carries' weights are R w_r z_r^i and w_r z_r^(e-s-i) (the top block's
    causal and the bottom's anticausal carries are zero, ``_operand``).  Its
    own columns are the band, or E on _ONE_BLOCK nodes within _BLOCK nodes
    of an end, where E departs from the band.
    """
    b = _BLOCK
    rows = m % b + b
    e = _operator(_ONE_BLOCK)
    bottom = np.array(_BAND[:, :rows, :rows - 1])
    bottom[:, -b:] = e[:, -b:, 1 - rows:]
    carries = _WEIGHTS[..., None] * _POWERS
    return tuple(
        np.concatenate((_REFLECTION * carries[..., :n], carries[..., n:0:-1],
                        own.swapaxes(1, 2)), axis=1)
        for own, n in ((e[:, :b, :b], b), (_BAND[:, :b, :b], b),
                       (bottom, rows)))


# The weights of the carries over a block's _BLOCK differences du_n, one
# column per carry: the causal sums sum_n z_r^(b-1-n) du_n and the anticausal
# sums sum_n z_r^n du_n, (_BLOCK, 4) and C-contiguous (see ``_product``).
_CARRY_SUMS = np.ascontiguousarray(
    np.concatenate((_POWERS[:, _BLOCK - 1::-1], _POWERS[:, :_BLOCK])).T)


def _unit_pieces() -> None:
    """Check, at import, the pieces at h = 1 that longer axes are cut from:
    refuse a block shorter than the half-width; E on _ONE_BLOCK nodes that
    leaves the CCD equations unsolved beyond round-off, as a wrong mode in
    _ROOTS would; a half-width at which the carry form would drop more than
    _TAIL of a row's maximum; and carries that would miss E outside the
    blocks of this axis, cut in two, by more than _TAIL plus one ulp."""
    b, w, m = _BLOCK, _HALF_WIDTH, _ONE_BLOCK
    if b < w:
        raise RuntimeError(
            f"row blocks of {b} nodes are shorter than the half-width {w}: "
            f"carries from the adjacent block would miss entries of E"
        )
    # A E - B~ by the rows of nodes n = 0, 2, 4 of ``_system`` on five nodes,
    # which read three nodes and two differences from n // 2 on: the interior
    # rows on E's every window of three nodes, the closures on its end ones.
    a, bt = _system(GridAxis(4, 0.0, 4.0))
    e = _operator(m)
    windows = np.lib.stride_tricks.sliding_window_view(e, 3, axis=1)
    i, worst = np.arange(m - 2), 0
    for n, at in ((0, 0), (2, ...), (4, -1)):
        r = np.einsum("rkc,cijk->ijr",
                      a[2 * n:2 * n + 2, n:n + 6].reshape(2, 3, 2), windows)
        for k in (0, 1):
            r[i, i + k] -= bt[2 * n:2 * n + 2, n // 2 + k]
        worst = max(worst, np.abs(r, out=r)[at].max())
    del r  # each E-sized array goes before the next is made
    if worst > 1e-13:
        raise RuntimeError(f"E on {m} nodes leaves {worst:.2g} of the CCD "
                           f"equations unsolved (limit 1e-13)")
    scale = np.abs(e).max(axis=2, keepdims=True)
    dropped = e - np.tril(np.triu(_BAND, -w), w - 1)
    dropped[:, :b, :b] = dropped[:, -b:, -b:] = 0
    dropped /= scale
    worst = np.abs(dropped).max()
    if worst > _TAIL:
        raise RuntimeError(
            f"the block-banded CCD operator would drop {worst:.2g} of a "
            f"row's maximum (half-width {w}, limit {_TAIL:.0e})"
        )
    del dropped  # (import memory counts in every run's peak)
    top, bottom = _carry_blocks(m)[::2]
    missed = np.concatenate((
        e[:, :b, b:] - top[:, 2:4].swapaxes(1, 2) @ _CARRY_SUMS[:, 2:].T,
        e[:, b:, :b] - bottom[:, :2].swapaxes(1, 2) @ _CARRY_SUMS[:, :2].T), 1)
    missed /= scale
    worst = np.abs(missed).max()
    limit = _TAIL + np.finfo(float).eps
    if worst > limit:
        raise RuntimeError(
            f"the carries would rebuild E outside its row blocks to "
            f"{worst:.2g} of a row's maximum (limit {limit:.2g})"
        )


_unit_pieces()


def _product(segments: np.ndarray, matrix: np.ndarray,
             out: np.ndarray) -> None:
    """Every segment times ``matrix``, into ``out``: ``segments`` is
    (p, n, c, q), each of p pencils' n segments holding c differences q
    elements apart, ``matrix`` is (..., c, r) and ``out`` (..., p, n, r, q).

    Every block of E that multiplies batches, and the carry weights, is
    stored transposed and C-contiguous, (..., columns, rows), and the
    batch's shape alone picks the product.  A batch of rows (q = 1, p > 1)
    multiplies each segment from the right, in tiles of _TILE pencils: one
    batched product covers the whole tiles and one the remaining p mod
    _TILE.  With OpenBLAS 0.3.31 these tiled products ran 1.7 to 2.8 times
    as fast as one product over all rows, and no faster against transposed
    views of blocks stored the other way.  Every other batch takes one
    product through the matrix's transposed view: tiles of columns measured
    slower on most shapes, on long axes and on one-block axes alike, with
    no pencil count to cut over at.
    """
    p, n, c, q = segments.shape
    if q > 1 or p == 1:
        np.matmul(matrix.swapaxes(-1, -2)[..., None, None, :, :], segments,
                  out=out)
        return
    rows, out = segments[..., 0], out[..., 0]
    split = p - p % _TILE
    for lo, hi in ((0, split), (split, p)):
        if hi > lo:
            # the tile count is explicit: an axis of fewer than 3 _BLOCK
            # nodes has no interior block, n = 0
            size = min(hi - lo, _TILE)
            tiles = rows[lo:hi].reshape((hi - lo) // size, size, n, c)
            dest = out[..., lo:hi, :, :].reshape(
                *out.shape[:-3], (hi - lo) // size, size, *out.shape[-2:])
            np.matmul(tiles.swapaxes(1, 2), matrix[..., None, None, :, :],
                      out=dest.swapaxes(-3, -2))


class CcdFactorization:
    """The CCD operator E of one axis, held in row blocks.

    ``apply`` maps nodal samples (one pencil per column) to nodal first and
    second derivatives.  Construction builds E, so the factorization cache,
    and with it a run's setup, pays for it.  An axis of at most _ONE_BLOCK
    nodes holds E as one dense block.  A longer one holds three blocks in
    carry form (``_carry_blocks``): the top one, one interior block that
    serves every interior row range, and the bottom one, so building it
    takes the same work and memory at any node count.  A factorization can
    be shared freely across pencils, directions and time steps.
    """

    def __init__(self, axis: GridAxis):
        self.m = m = axis.n_nodes
        h = axis.spacing
        scale = np.array([[[1 / h]], [[1 / h**2]]])
        b = _BLOCK
        # (first node, first column of the operand, number of blocks,
        # (2, columns, rows) block) per entry: its blocks read consecutive
        # segments of the operand and write consecutive row ranges, first
        # derivatives in [0] and second in [1].  Each block is E's block
        # transposed (see ``_product``).
        if m > _ONE_BLOCK:
            top, interior, bottom = (x * scale for x in _carry_blocks(m))
            n = m // b - 2
            self._blocks = (
                (0, 0, 1, top), (b, b + 4, n, interior),
                (m - bottom.shape[2], (n + 1) * (b + 4), 1, bottom))
            # the bottom segment spans at least b + 4 columns, so that the
            # carries read b differences from it
            self._width = (n + 1) * (b + 4) + max(bottom.shape[1], b + 4)
            self._whole = None
        else:
            # E itself, (2, m, m - 1): a lone pencil's differences then take
            # a single product.  The first batch makes its transposed block
            # (``_operand``).
            self._whole = _operator(m) * scale
            self._blocks = None

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
        with ``f`` C-ordered, swapped back are C-ordered too.  The
        differences go into one operand (``_operand``), and each row block
        multiplies its segments of it (``_product``), all interior blocks
        in one product.  A single pencil on an axis of at most _ONE_BLOCK
        nodes, whose E is one block, takes one product of E and its
        differences, without the batch layout.
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
        p = flat.size // (m * q)
        out = np.empty((2,) + u.shape)
        operand = self._operand(flat, p, q, out)
        work = out.reshape(2, p, m, q)
        for row, col, n, block in self._blocks:
            c, r = block.shape[1:]
            _product(operand[:, col:col + n * c].reshape(p, n, c, q), block,
                     work[:, :, row:row + n * r].reshape(2, p, n, r, q))
        return out.swapaxes(1, k + 1) if k else out

    def _operand(self, flat: np.ndarray, p: int, q: int,
                 out: np.ndarray) -> np.ndarray:
        """The differences of the pencils ``flat``, viewed as (p, m, q),
        laid out for the row blocks: (p, columns, q), each block's segments
        from its column on.

        On one block, one pass of differences at distance q; those that
        straddle two pencils, and the last q, are never read.  The first
        batch makes the block, a C-contiguous copy of E transposed, which a
        run of lone pencils never reads, and the lone pencil keeps E.  Each
        copy is the faster operand for its products (OpenBLAS 0.3.31, one
        thread, ``timeit``): an 81-node pencil as ``du @ E^T`` against the
        copy took 0.05 to 0.78 us longer than ``E @ du``, at each 16-byte
        offset of the arrays, and rounds differently; the tiles of a 33^3
        field's last axis took 166 us against a transposed view of E and
        108 us against the copy.

        In carry form, each segment holds its four carries and then the
        differences it owns.  One product of the carry weights with the
        first _BLOCK differences of every segment gives the sums; each
        segment then takes the causal ones of the segment above and the
        anticausal ones of the segment below.  The sums go into the start
        of ``out``, which no block has written yet: a product into the
        operand's own carry columns would make numpy copy the whole operand
        first.
        """
        m = self.m
        if self._whole is not None:
            operand = np.empty(flat.size)
            np.subtract(flat[q:], flat[:-q], out=operand[:-q], dtype=float)
            if self._blocks is None:
                self._blocks = ((0, 0, 1, np.ascontiguousarray(
                    self._whole.swapaxes(1, 2))),)
            return operand.reshape(p, m, q)
        b = _BLOCK
        pencils = flat.reshape(p, m, q)
        operand = np.empty((p, self._width, q))
        # the padding of a bottom segment that owns b - 1 differences; a
        # longer one writes its last difference here
        operand[:, -1] = 0
        for row, col, n, block in self._blocks:
            c = block.shape[1]
            d = c - 4
            owned = operand[:, col:col + n * c].reshape(p, n, c, q)[:, :, 4:]
            below = pencils[:, row + 1:row + 1 + n * d].reshape(owned.shape)
            np.subtract(below, pencils[:, row:row + n * d].reshape(owned.shape),
                        out=owned, dtype=float)
        segments = operand[:, :m // b * (b + 4)].reshape(p, -1, b + 4, q)
        carries, owned = segments[:, :, :4], segments[:, :, 4:]
        sums = out.reshape(-1)[:carries.size].reshape(carries.shape)
        _product(owned, _CARRY_SUMS, sums)
        carries[:, 1:, :2] = sums[:, :-1, :2]
        carries[:, :-1, 2:] = sums[:, 1:, 2:]
        carries[:, 0, :2] = carries[:, -1, 2:] = 0
        return operand


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
