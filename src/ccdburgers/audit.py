"""Numerical audit of the unique-solvability argument for the CCD system.

Reproduces, in floating point, the determinant-reduction pipeline that
exhibits a strictly diagonally dominant 10x10 matrix, and sweeps node
counts and spacings for well-conditioning of the assembled system.  The
elementary-transformation multipliers are taken verbatim from the published
radical expressions, so the audit fails if those printed constants were
wrong rather than silently recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class FiveDiagonalProduct:
    """Product of two semi-circulant tridiagonals: a five-diagonal matrix
    with two special rows at each end."""

    m: int
    c: tuple[float, ...]  # interior stencil, 5 entries
    d: tuple[float, ...]  # second/penultimate rows, 8 entries
    e: tuple[float, ...]  # first/last rows, 6 entries

    def materialize(self) -> np.ndarray:
        m = self.m
        out = np.zeros((m, m))
        i = np.arange(2, m - 2)
        for k in range(5):
            out[i, i - 2 + k] = self.c[k]
        out[0, 0:3] = self.e[0:3]
        out[1, 0:4] = self.d[0:4]
        out[m - 2, m - 4:m] = self.d[4:8]
        out[m - 1, m - 3:m] = self.e[3:6]
        return out


def semi_circulant_product(A: SemiCirculant3, B: SemiCirculant3) -> FiveDiagonalProduct:
    """Structured product A @ B via the closed-form coefficient identities."""
    if A.m != B.m:
        raise ValueError("size mismatch")
    if A.m < 5:
        raise ValueError("the five-diagonal pattern needs m >= 5")
    a1, a2, a3, a4, a5, a6, a7 = A.a, A.b, A.c, A.d, A.e, A.f, A.g
    b1, b2, b3, b4, b5, b6, b7 = B.a, B.b, B.c, B.d, B.e, B.f, B.g
    e = (
        a4 * b4 + a5 * b1,
        a4 * b5 + a5 * b2,
        a5 * b3,
        a7 * b1,
        a6 * b7 + a7 * b2,
        a7 * b3 + a6 * b6,
    )
    d = (
        a1 * b4 + a2 * b1,
        a1 * b5 + a2 * b2 + a3 * b1,
        a2 * b3 + a3 * b2,
        a3 * b3,
        a1 * b1,
        a1 * b2 + a2 * b1,
        a1 * b3 + a2 * b2 + a3 * b7,
        a2 * b3 + a3 * b6,
    )
    c = (
        a1 * b1,
        a1 * b2 + a2 * b1,
        a1 * b3 + a2 * b2 + a3 * b1,
        a2 * b3 + a3 * b2,
        a3 * b3,
    )
    return FiveDiagonalProduct(m=A.m, c=c, d=d, e=e)


@dataclass(frozen=True)
class BlockDeterminantReport:
    commutator_norm: float
    det_block: float
    det_reduced: float
    relative_gap: float
    ok: bool


def block_determinant_identity_check(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray,
    rtol: float = 1e-8,
) -> BlockDeterminantReport:
    """Check det([[A, B], [C, D]]) == det(A D - C B) for commuting A, C."""
    comm = float(np.max(np.abs(A @ C - C @ A)))
    if comm > 1e-12 * max(1.0, float(np.max(np.abs(A))) * float(np.max(np.abs(C)))):
        raise ValueError(f"A and C do not commute (||AC-CA||_inf = {comm:.3e})")
    det_block = float(np.linalg.det(np.block([[A, B], [C, D]])))
    det_reduced = float(np.linalg.det(A @ D - C @ B))
    scale = max(abs(det_block), abs(det_reduced), 1e-300)
    gap = abs(det_block - det_reduced) / scale
    return BlockDeterminantReport(
        commutator_norm=comm,
        det_block=det_block,
        det_reduced=det_reduced,
        relative_gap=gap,
        ok=gap <= rtol,
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


def appendix_constants() -> dict[str, float]:
    """Floating-point values of the published radical constants T1..T19."""
    s = SQRT7
    return {
        "T1": -136835 / 8209824 + 421733 * s / 36944208,
        "T2": -416144963942525 * s / 864691128455135232,
        "T3": -46840306656146665409 * s / 41595480345574524321792 + 6115 / 2052456,
        "T4": -46840306656146665409 * s / 41595480345574524321792 + 6115 / 2052456,
        "T5": 21881309630676858473952943462656048141172736 * s
        / 4667640113605791995493311956355581953955543731
        - 2893014312251833953326629616913521171234816
        / 518626679289532443943701328483953550439504859,
        "T6": -267591658885243284604171740430098010027602763
        / 33192107474530076412396885022973027228128310976
        + 587650275369111747907115169185577623944244693 * s
        / 37341120908846335963946495650844655631644349848,
        "T7": -1799614987336256538927773374693436599301849447 * s
        / 298728967270770687711571965206757245053154798784
        - 442381615984325718712039486584685244485625
        / 691502239052709925258268437978604733919339812,
        "T8": 60812707732120381749986704242152551792357469 * s
        / 18670560454423167981973247825422327815822174924
        + 900723013413257827633193252372996530470617
        / 922002985403613233677691250638139645225786416,
        "T9": 5235921989442888980950159 * s / 183849407004430256490676224
        + 41853249163690425155625 / 40855423778762279220150272,
        "T10": 640001231916311360619949 * s / 551548221013290769472028672
        + 33366161622715196997673 / 40855423778762279220150272,
        "T11": 69251 * s / 2574720 + 133 / 85824,
        "T12": 37 * s / 3456,
        "T13": -s / 17280,
        "T14": 34711 * s / 8582400 + 7073 / 1430400,
        "T15": -3197 * s / 1029888 + 2315 / 85824,
        "T16": -4733 * s / 2574720 + 479 / 107280,
        "T17": -547 * s / 80460 - 29 / 26820,
        "T18": 2711 * s / 16092 - 1495 / 5364,
        "T19": 547 * s / 80460 + 29 / 26820,
    }


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
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = bool(np.all(self.dominance_margins > 0))


def appendix_b_reduction(n: int = 10) -> ReductionReport:
    """Replay the scripted determinant reduction for the n = 10 case.

    Builds the 2n x 2n system at unit spacing, applies the published row
    and column combinations, collapses to the five-diagonal Schur-style
    product, then the seven elementary steps, and reports per-row strict
    diagonal dominance margins 2|a_ii| - sum_j |a_ij| of the result.
    """
    if n != 10:
        raise ValueError("the published elementary steps are written for n = 10")
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

    a6 = a5[:n, :n] @ a5[n:, n:] - a5[:n, n:] @ a5[n:, :n]

    a6[0, :] += -_STEP1_K2 * a6[1, :] + _STEP1_K3 * a6[2, :] - _STEP1_K4 * a6[3, :]
    a6[:, 2] += _M31 * a6[:, 0]
    a6[:, 4] += _M51 * a6[:, 0]
    a6[1, :] -= _M23 * a6[2, :]
    a6[:, n - 2] -= 1.5 * a6[:, n - 1]
    a6[:, n - 3] -= _CN2 * a6[:, n - 1]
    a6[n - 2, :] -= 0.1 * (a6[n - 3, :] + a6[n - 1, :])

    margins = 2 * np.abs(np.diag(a6)) - np.abs(a6).sum(axis=1)
    return ReductionReport(matrix=a6, dominance_margins=margins)


@dataclass(frozen=True)
class SweepRow:
    m: int
    h: float
    rcond: float
    solve_residual: float
    ok: bool


def nonsingularity_sweep(
    m_values=DEFAULT_SWEEP_NODES,
    h_values=(1.0, 0.1, 0.01),
    rcond_min: float = 1e-12,
    seed: int = 20240901,
) -> list[SweepRow]:
    """Conditioning and solve-residual sweep over (m, h) pairs."""
    rng = np.random.default_rng(seed)
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
                ok=(rcond > rcond_min and res < 1e-10),
            ))
    return rows


def cross_module_consistency(m: int, h: float) -> bool:
    """The audit's semi-circulant transcription of A and the operator's band
    must agree exactly."""
    axis = GridAxis(n_cells=m - 1, left=0.0, right=(m - 1) * h)
    A, _ = dense_matrices(axis)
    return bool(np.array_equal(A, assemble_full_ccd_matrix(m, h)))


def audit_report(
    m_values=DEFAULT_SWEEP_NODES, h_values=(1.0, 0.1, 0.01)
) -> dict:
    """Full audit as a JSON-serializable report."""
    reduction = appendix_b_reduction()
    sweep = nonsingularity_sweep(m_values, h_values)
    consistency = all(cross_module_consistency(m, h) for m in (5, 10, 32) for h in (1.0, 0.25))
    ok = reduction.ok and all(r.ok for r in sweep) and consistency
    return {
        "reduction": {
            "matrix": reduction.matrix.tolist(),
            "dominance_margins": reduction.dominance_margins.tolist(),
            "ok": reduction.ok,
        },
        "sweep": [
            {"m": r.m, "h": r.h, "rcond": r.rcond,
             "solve_residual": r.solve_residual, "ok": r.ok}
            for r in sweep
        ],
        "assembly_consistent": consistency,
        "ok": ok,
    }
