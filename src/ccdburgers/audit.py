"""Numerical audit of the unique-solvability argument for the CCD system.

Reproduces, in floating point, the determinant-reduction pipeline that
exhibits a strictly diagonally dominant 10x10 matrix, checking the
block-determinant step it rests on, and sweeps node counts and spacings for
well-conditioning of the assembled system.  The
elementary-transformation multipliers are taken verbatim from the published
radical expressions, so the audit fails if those printed constants were
wrong rather than silently recomputing them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .ccd import dense_matrices
from .grid import MIN_CELLS, GridAxis

SQRT7 = np.sqrt(7.0)

# Node counts swept by default: from the smallest axis the solver accepts
# (MIN_CELLS + 1 = 5 nodes) to 128.  The 4-node system is exactly singular
# and is never built by the solver.
DEFAULT_SWEEP_NODES = range(MIN_CELLS + 1, 129)


@dataclass(frozen=True)
class SemiCirculant3:
    """Tridiagonal matrix with constant interior stencil (a, b, c) and
    modified first row (d, e) / last row (g, f)."""

    m: int
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    g: float

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("semi-circulant matrices need m >= 3")

    def materialize(self) -> np.ndarray:
        out = np.zeros((self.m, self.m))
        i = np.arange(1, self.m - 1)
        out[i, i - 1] = self.a
        out[i, i] = self.b
        out[i, i + 1] = self.c
        out[0, 0], out[0, 1] = self.d, self.e
        out[-1, -1], out[-1, -2] = self.f, self.g
        return out


@dataclass(frozen=True)
class BlockDeterminantReport:
    commutator_norm: float
    commutes: bool
    det_block: float
    det_reduced: float
    relative_gap: float
    ok: bool


def block_determinant_identity_check(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray,
    rtol: float = 1e-8,
) -> BlockDeterminantReport:
    """Check det([[A, B], [C, D]]) == det(A D - C B), which holds when A and
    C commute (Silvester 2000, Math. Gazette 84:460).  Blocks that do not
    commute give a failed report, not an exception."""
    comm = float(np.max(np.abs(A @ C - C @ A)))
    commutes = comm <= 1e-12 * max(
        1.0, float(np.max(np.abs(A))) * float(np.max(np.abs(C))))
    det_block = float(np.linalg.det(np.block([[A, B], [C, D]])))
    det_reduced = float(np.linalg.det(A @ D - C @ B))
    scale = max(abs(det_block), abs(det_reduced), 1e-300)
    gap = abs(det_block - det_reduced) / scale
    return BlockDeterminantReport(
        commutator_norm=comm,
        commutes=commutes,
        det_block=det_block,
        det_reduced=det_reduced,
        relative_gap=gap,
        ok=commutes and gap <= rtol,
    )


def ccd_blocks_semicirculant(m: int, h: float) -> tuple[SemiCirculant3, ...]:
    """The four coefficient blocks in semi-circulant form."""
    return (
        SemiCirculant3(m, 7 / 16, 1.0, 7 / 16, 14.0, 16.0, 14.0, 16.0),
        SemiCirculant3(m, h / 16, 0.0, -h / 16, 2 * h, -4 * h, -2 * h, 4 * h),
        SemiCirculant3(m, -9 / (8 * h), 0.0, 9 / (8 * h), 1.0, 2.0, 1.0, 2.0),
        SemiCirculant3(m, -1 / 8, 1.0, -1 / 8, 0.0, -h, 0.0, h),
    )


def assemble_full_ccd_matrix(m: int, h: float = 1.0) -> np.ndarray:
    """Dense 2m x 2m coefficient matrix built from the semi-circulant
    constructors; must agree bitwise with the operator module's assembly."""
    if m < 4:
        raise ValueError("audit assembly needs m >= 4")
    A1, A2, A3, A4 = (blk.materialize() for blk in ccd_blocks_semicirculant(m, h))
    return np.block([[A1, A2], [A3, A4]])


# Elementary-transformation multipliers, verbatim from the published
# reduction (Steps 1-7).  The Step 1 coefficients apply as
# r1 <- r1 - K2*r2 + K3*r3 - K4*r4.
_STEP1_K2 = (1459440 * SQRT7 + 8541848) / 598633
_STEP1_K3 = (94986 * SQRT7 + 1563660) / 598633
_STEP1_K4 = (55035 * SQRT7 + 2841419) / 3591798
_M31 = (
    161433961059948782743125 * SQRT7 / 638365996543160612814848
    + 386982051292812235294125 / 319182998271580306407424
)
_M51 = (
    128698051973330045562453 * SQRT7 / 638365996543160612814848
    + 320818233644731054212525 / 319182998271580306407424
)
_M23 = (
    455021090726735024960954900487104822899500 * SQRT7
    / 57625186587725827104855703164883727826611651
    + 98624527354971701012117024209404389139084220
    / 172875559763177481314567109494651183479834953
)
_CN2 = (2269 - 570 * SQRT7) / 1490


@dataclass
class ReductionReport:
    matrix: np.ndarray
    dominance_margins: np.ndarray
    determinant: BlockDeterminantReport
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = bool(np.all(self.dominance_margins > 0)) and self.determinant.ok


def appendix_b_reduction() -> ReductionReport:
    """Replay the scripted determinant reduction for the 10-node case.

    Builds the 2n x 2n system (n = 10) at unit spacing, applies the
    published row and column combinations, and checks that the block
    determinant lemma carries the determinant of the result over to the
    n x n product A D - B C.  Then applies the seven elementary steps to that
    product and reports per-row strict diagonal dominance margins
    2|a_ii| - sum_j |a_ij| of the outcome.
    """
    n = 10  # the published elementary steps are written for 10 nodes
    a = 6 * SQRT7 / 7
    b = 3 * SQRT7
    A1, A2, A3, A4 = (blk.materialize() for blk in ccd_blocks_semicirculant(n, 1.0))

    a5 = np.block([
        [A1 + b * A2, A2],
        [A3 + a * A1 + b * (A4 + a * A2), A4 + a * A2],
    ])
    a5[n + 1:2 * n - 1, :] /= a5[n + 1, 1]
    a5[n, :] -= a5[0, :] * a5[n, 1] / a5[0, 1]
    a5[2 * n - 1, :] -= a5[n - 1, :] * a5[2 * n - 1, n - 2] / a5[n - 1, n - 2]
    a5[n, :] /= a5[n, 0]
    a5[2 * n - 1, :] /= a5[2 * n - 1, n - 1]

    # the row operations make the lower-left block C the identity, so A and
    # C commute and A D - C B is the product A D - B C formed below
    determinant = block_determinant_identity_check(
        a5[:n, :n], a5[:n, n:], a5[n:, :n], a5[n:, n:])
    a6 = a5[:n, :n] @ a5[n:, n:] - a5[:n, n:] @ a5[n:, :n]

    a6[0, :] += -_STEP1_K2 * a6[1, :] + _STEP1_K3 * a6[2, :] - _STEP1_K4 * a6[3, :]
    a6[:, 2] += _M31 * a6[:, 0]
    a6[:, 4] += _M51 * a6[:, 0]
    a6[1, :] -= _M23 * a6[2, :]
    a6[:, n - 2] -= 1.5 * a6[:, n - 1]
    a6[:, n - 3] -= _CN2 * a6[:, n - 1]
    a6[n - 2, :] -= 0.1 * (a6[n - 3, :] + a6[n - 1, :])

    margins = 2 * np.abs(np.diag(a6)) - np.abs(a6).sum(axis=1)
    return ReductionReport(matrix=a6, dominance_margins=margins,
                           determinant=determinant)


@dataclass(frozen=True)
class SweepRow:
    m: int
    h: float
    rcond: float
    solve_residual: float
    ok: bool


def nonsingularity_sweep(
    m_values=DEFAULT_SWEEP_NODES, h_values=(1.0, 0.1, 0.01)
) -> list[SweepRow]:
    """Conditioning and solve-residual sweep over (m, h) pairs."""
    rng = np.random.default_rng(20240901)
    rows = []
    for h in h_values:
        for m in m_values:
            A = assemble_full_ccd_matrix(m, h)
            rcond = 1.0 / float(np.linalg.cond(A))
            x = rng.standard_normal(2 * m)
            rhs = A @ x
            sol = np.linalg.solve(A, rhs)
            res = float(
                np.max(np.abs(A @ sol - rhs)) / (1 + np.max(np.abs(rhs)))
            )
            rows.append(SweepRow(
                m=m, h=h, rcond=rcond, solve_residual=res,
                ok=(rcond > 1e-12 and res < 1e-10),
            ))
    return rows


def cross_module_consistency(m: int, h: float) -> bool:
    """The audit's semi-circulant transcription of A and the operator's band
    must agree exactly."""
    axis = GridAxis(n_cells=m - 1, left=0.0, right=(m - 1) * h)
    A, _ = dense_matrices(axis)
    return bool(np.array_equal(A, assemble_full_ccd_matrix(m, h)))


def audit_report() -> dict:
    """Full audit as a JSON-serializable report."""
    reduction = appendix_b_reduction()
    sweep = nonsingularity_sweep()
    consistency = all(cross_module_consistency(m, h) for m in (5, 10, 32) for h in (1.0, 0.25))
    ok = reduction.ok and all(r.ok for r in sweep) and consistency
    return {
        "reduction": {
            "matrix": reduction.matrix.tolist(),
            "dominance_margins": reduction.dominance_margins.tolist(),
            "ok": reduction.ok,
        },
        "determinant": asdict(reduction.determinant),
        "sweep": [
            {"m": r.m, "h": r.h, "rcond": r.rcond,
             "solve_residual": r.solve_residual, "ok": r.ok}
            for r in sweep
        ],
        "assembly_consistent": consistency,
        "ok": ok,
    }
