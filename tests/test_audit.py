"""Numerical audit of the unique-solvability argument."""

import numpy as np
import pytest

from ccdburgers.audit import (
    appendix_b_reduction,
    assemble_full_ccd_matrix,
    block_determinant_identity_check,
    ccd_blocks_semicirculant,
    cross_module_consistency,
    nonsingularity_sweep,
    semicirculant,
)
from ccdburgers.reference_data import (
    REDUCED_MATRIX_APPROX,
    REDUCED_MATRIX_RADICALS,
)

SQRT7 = np.sqrt(7.0)


# --- semi-circulant blocks --------------------------------------------------

def test_semicirculant_layout():
    M = semicirculant(5, 1, 2, 3, 4, 5, 6, 7)
    assert M[0, 0] == 4 and M[0, 1] == 5 and M[0, 2] == 0
    assert M[-1, -1] == 6 and M[-1, -2] == 7
    assert (M[2, 1], M[2, 2], M[2, 3]) == (1, 2, 3)


def test_semicirculant_minimum_size():
    with pytest.raises(ValueError):
        semicirculant(2, 1, 1, 1, 1, 1, 1, 1)


# --- block determinant identity ---------------------------------------------

def test_block_determinant_identity_commuting(rng):
    A = rng.standard_normal((4, 4))
    C = 2 * A + 3 * np.eye(4)  # a polynomial in A always commutes with A
    B = rng.standard_normal((4, 4))
    D = rng.standard_normal((4, 4))
    report = block_determinant_identity_check(A, B, C, D, rtol=1e-10)
    assert report["ok"]


def test_block_determinant_identity_with_identities(rng):
    B = rng.standard_normal((3, 3))
    D = rng.standard_normal((3, 3))
    eye = np.eye(3)
    report = block_determinant_identity_check(eye, B, eye, D)
    assert report["ok"]
    assert report["det_reduced"] == pytest.approx(np.linalg.det(D - B), rel=1e-10)


def test_block_determinant_identity_diagonal():
    A = np.diag([1.0, 2.0, 3.0])
    C = np.diag([4.0, 5.0, 6.0])
    B = np.diag([0.5, -1.0, 2.0])
    D = np.diag([2.0, 0.25, -3.0])
    report = block_determinant_identity_check(A, B, C, D)
    assert report["ok"]
    closed_form = np.prod(np.diag(A) * np.diag(D) - np.diag(C) * np.diag(B))
    assert report["det_block"] == pytest.approx(closed_form, rel=1e-10)


def test_block_determinant_requires_commuting(rng):
    # a broken precondition is a failed check, not an exception
    A = rng.standard_normal((4, 4))
    C = rng.standard_normal((4, 4))
    report = block_determinant_identity_check(A, np.eye(4), C, np.eye(4))
    assert not report["commutes"]
    assert not report["ok"]


# --- coefficient-matrix assembly --------------------------------------------

def test_blocks_match_operator_assembly():
    for m, h in ((5, 1.0), (10, 0.25), (33, 0.1)):
        assert cross_module_consistency(m, h)


def test_assembly_minimum_size():
    with pytest.raises(ValueError):
        assemble_full_ccd_matrix(3, 1.0)


def test_block_coefficients():
    A1, A2, A3, A4 = ccd_blocks_semicirculant(6, 0.5)
    assert (A1[1, 0], A1[1, 1], A1[1, 2], A1[0, 0]) == (7 / 16, 1.0, 7 / 16, 14.0)
    assert A2[0, 0] == 1.0 and A2[0, 1] == -2.0  # 2h and -4h at h = 0.5
    assert A3[1, 0] == -9 / 4
    assert A4[0, 1] == -0.5


def test_determinant_h_scaling():
    # the proof extracts one factor h from each boundary-closure pair:
    # det(m, h) = h^2 * det(m, 1)
    base = np.linalg.det(assemble_full_ccd_matrix(5, 1.0))
    for h in (0.5, 0.25, 0.1):
        det_h = np.linalg.det(assemble_full_ccd_matrix(5, h))
        assert det_h == pytest.approx(h**2 * base, rel=1e-9)


def test_four_node_matrix_is_singular():
    # smallest axis: with 4 nodes the closures and interior relations are
    # linearly dependent (exact rational determinant is zero)
    A = assemble_full_ccd_matrix(4, 1.0)
    assert 1.0 / np.linalg.cond(A) < 1e-15


def test_ten_node_matrix_well_conditioned():
    A = assemble_full_ccd_matrix(10, 1.0)
    assert 1.0 / np.linalg.cond(A) > 1e-10


# --- reduction replay -------------------------------------------------------

@pytest.fixture(scope="module")
def reduction():
    return appendix_b_reduction()


def test_reduction_matches_published_display(reduction):
    ref = np.array(REDUCED_MATRIX_APPROX)
    assert np.max(np.abs(reduction["matrix"] - ref)) < 5e-4


def test_reduction_interior_radicals(reduction):
    assert reduction["matrix"][4, 4] == pytest.approx(SQRT7 / 36, abs=1e-12)
    assert reduction["matrix"][4, 3] == pytest.approx(5 * SQRT7 / 432, abs=1e-12)


def test_reduction_strictly_diagonally_dominant(reduction):
    assert reduction["ok"]
    assert reduction["dominance_margins"].min() > 5e-4


def test_reduction_block_determinant(reduction):
    # the reduced matrix carries the determinant of the 2n x 2n system
    det = reduction["determinant"]
    assert det["ok"] and det["commutes"]
    assert det["det_block"] == pytest.approx(4.82066e-14, rel=1e-5)
    assert det["relative_gap"] < 1e-12


def test_reduction_key_entries(reduction):
    assert reduction["matrix"][0, 0] == pytest.approx(0.0135, abs=5e-4)
    assert reduction["matrix"][3, 3] == pytest.approx(0.0735, abs=5e-4)
    assert reduction["matrix"][9, 8] == pytest.approx(0.1670, abs=5e-4)


# --- published radical constants --------------------------------------------

def test_constants_antisymmetry():
    con = REDUCED_MATRIX_RADICALS
    assert con["T19"] == pytest.approx(-con["T17"], abs=1e-15)
    assert con["T3"] == con["T4"]


def test_constants_match_reduction_entries(reduction):
    con = REDUCED_MATRIX_RADICALS
    entry = {
        "T1": (0, 0), "T2": (0, 5),
        "T5": (1, 0), "T6": (1, 1), "T7": (1, 3), "T8": (1, 4),
        "T9": (2, 2), "T10": (2, 4),
        "T11": (7, 7), "T12": (7, 8),
        "T13": (8, 5), "T14": (8, 7), "T15": (8, 8), "T16": (8, 9),
        "T17": (9, 7), "T18": (9, 8),
    }
    for key, (i, j) in entry.items():
        assert con[key] == pytest.approx(reduction["matrix"][i, j], abs=1e-12), key
    # the printed radical expression for the last diagonal entry is a
    # factor of ten short of the matrix it claims to describe
    assert 10 * con["T19"] == pytest.approx(reduction["matrix"][9, 9], abs=1e-12)


# --- conditioning sweep -----------------------------------------------------

def test_sweep_subset_passes():
    rows = nonsingularity_sweep(m_values=range(5, 33), h_values=(1.0, 0.01))
    assert all(r["ok"] for r in rows)


def test_sweep_flags_singular_minimum():
    rows = nonsingularity_sweep(m_values=(4,), h_values=(1.0,))
    assert len(rows) == 1 and not rows[0]["ok"]


def test_sweep_condition_h_scaling():
    rows = {r["h"]: r for r in nonsingularity_sweep(m_values=(64,), h_values=(1.0, 0.1, 0.01))}
    # condition number grows roughly like h^-2 but stays far from singular
    assert rows[0.01]["rcond"] < rows[1.0]["rcond"]
    assert rows[0.01]["rcond"] > 1e-12
    ratio = rows[1.0]["rcond"] / rows[0.01]["rcond"]
    assert 1e2 < ratio < 1e6
