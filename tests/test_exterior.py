import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
import hypothesis.strategies as st

from hingekit import (
    ExteriorVector,
    numeric_rank,
    rank_of_span,
    subset_index,
    subsets,
    top_pairing,
    wedge,
)
from hingekit.errors import DimensionError, GradeError, ToleranceError


def basis_wedge(m, subset):
    eye = np.eye(m)
    return wedge([eye[i] for i in subset])


def test_subset_indexing_roundtrip():
    for m in range(1, 7):
        for k in range(m + 1):
            for flat, s in enumerate(subsets(m, k)):
                assert subset_index(m, s) == flat


def test_wedge_standard_basis():
    v = wedge([(1, 0, 0), (0, 1, 0)])
    assert np.allclose(v.coeffs, [1.0, 0.0, 0.0])


def test_wedge_parallel_vanishes():
    assert wedge([(1, 0, 0), (2, 0, 0)]).is_zero(tol=0.0)


def test_wedge_two_by_two_determinant():
    assert np.allclose(wedge([(1, 2), (3, 4)]).coeffs, [-2.0])


def test_wedge_empty_is_scalar_one():
    v = wedge([], ambient=3)
    assert v.grade == 0 and np.allclose(v.coeffs, [1.0])
    with pytest.raises(DimensionError):
        wedge([])


def test_wedge_shape_errors():
    with pytest.raises(DimensionError):
        wedge([(1, 0), (1, 0, 0)])
    with pytest.raises(GradeError):
        wedge([(1, 0), (0, 1), (1, 1)])


vectors_st = st.integers(min_value=-5, max_value=5)


@st.composite
def wedge_inputs(draw, min_j=2):
    m = draw(st.integers(min_value=min_j, max_value=5))
    j = draw(st.integers(min_value=min_j, max_value=m))
    mat = [
        [draw(vectors_st) for _ in range(m)]
        for _ in range(j)
    ]
    return m, mat


@given(wedge_inputs())
def test_wedge_alternating(inputs):
    m, mat = inputs
    pos = 0  # swap the first adjacent pair
    swapped = list(mat)
    swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
    a = wedge(mat, exact=True)
    b = wedge(swapped, exact=True)
    assert all(x == -y for x, y in zip(a.coeffs, b.coeffs))


@given(wedge_inputs())
def test_wedge_zero_iff_dependent(inputs):
    m, mat = inputs
    grade_one = [ExteriorVector(1, m, np.array(row, dtype=object)) for row in _frac_rows(mat)]
    matrix_rank = rank_of_span(grade_one, expected_rank=len(mat)).rank
    assert wedge(mat, exact=True).is_zero() == (matrix_rank < len(mat))


def _frac_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


@given(wedge_inputs(min_j=1), vectors_st, st.data())
def test_wedge_multilinear_first_slot(inputs, scale, data):
    m, mat = inputs
    other_first = [data.draw(vectors_st) for _ in range(m)]
    combined = [[a + scale * b for a, b in zip(mat[0], other_first)]] + mat[1:]
    lhs = wedge(combined, exact=True)
    rhs = wedge(mat, exact=True) + scale * wedge([other_first] + mat[1:], exact=True)
    assert all(x == y for x, y in zip(lhs.coeffs, rhs.coeffs))


def test_top_pairing_identity_partition():
    a = basis_wedge(4, (0, 1))
    b = basis_wedge(4, (2, 3))
    assert top_pairing(a, b) == pytest.approx(1.0)


def test_top_pairing_repeated_factor():
    a = basis_wedge(4, (0, 1))
    b = basis_wedge(4, (0, 2))
    assert top_pairing(a, b) == pytest.approx(0.0)


def test_top_pairing_bilinear_expansion():
    a = basis_wedge(4, (0, 1)) + basis_wedge(4, (2, 3))
    assert top_pairing(a, a) == pytest.approx(2.0)


def test_top_pairing_grade_error():
    with pytest.raises(GradeError):
        top_pairing(basis_wedge(4, (0, 1)), basis_wedge(4, (0, 1, 2)))


@given(st.integers(0, 4), st.data())
def test_top_pairing_graded_symmetry(k, data):
    m = 4
    a_rows = [[data.draw(vectors_st) for _ in range(m)] for _ in range(k)]
    b_rows = [[data.draw(vectors_st) for _ in range(m)] for _ in range(m - k)]
    a = wedge(a_rows, ambient=m, exact=True)
    b = wedge(b_rows, ambient=m, exact=True)
    assert top_pairing(a, b) == (-1) ** (k * (m - k)) * top_pairing(b, a)


@settings(max_examples=50)
@given(st.data())
def test_top_pairing_against_direct_determinant(data):
    m = data.draw(st.integers(3, 5))
    u = [[data.draw(vectors_st) for _ in range(m)] for _ in range(2)]
    w = [[data.draw(vectors_st) for _ in range(m)] for _ in range(m - 2)]
    pairing = top_pairing(wedge(u, exact=True), wedge(w, exact=True))
    det = wedge(u + w, exact=True)
    assert pairing == det.coeffs[0]


def test_rank_basis_of_lambda2_r3():
    vs = [basis_wedge(3, (0, 1)), basis_wedge(3, (0, 2)), basis_wedge(3, (1, 2))]
    cert = rank_of_span(vs, expected_rank=3)
    assert cert.rank == 3 and not cert.deficient and cert.conull is None


def test_rank_scalar_multiple_deficient():
    v = basis_wedge(3, (0, 1))
    cert = rank_of_span([v, 2 * v], expected_rank=2)
    assert cert.rank == 1 and cert.deficient
    # the conull functional must kill the spanned coefficient direction
    assert abs(cert.conull[0]) < 1e-12
    assert abs(np.linalg.norm(cert.conull) - 1.0) < 1e-12


def test_rank_empty_list():
    cert = rank_of_span([], expected_rank=0)
    assert cert.rank == 0 and not cert.deficient and cert.conull is None
    cert = rank_of_span([], expected_rank=1, ambient=3, grade=1)
    assert cert.deficient and cert.conull is not None


def test_numeric_rank_counts_sigma_above_scaled_cutoff():
    matrix = np.diag([2.0, 1e-9, 1e-11])
    rank, cutoff, u, sig, vh = numeric_rank(matrix, 1e-10)
    assert cutoff == 1e-10 * 2.0 * 3
    assert rank == 2 and np.allclose(sig, [2.0, 1e-9, 1e-11])
    assert u.shape == vh.shape == (3, 3)
    assert np.allclose(np.abs(vh[rank:]), [[0, 0, 1]])


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_numeric_rank_rejects_bad_tolerance(tol):
    with pytest.raises(ToleranceError):
        numeric_rank(np.eye(2), tol)
    # float spans reach the same check; the error is also a ValueError
    with pytest.raises(ValueError):
        rank_of_span([basis_wedge(3, (0, 1))], expected_rank=1, tol=tol)


def test_rank_mixed_grades_rejected():
    with pytest.raises(GradeError):
        rank_of_span([basis_wedge(3, (0, 1)), basis_wedge(3, (0,))], expected_rank=2)


def test_conull_annihilates_inputs_float():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((3, 6))
    rows[2] = rows[0] + rows[1]  # force a dependency
    vs = [ExteriorVector(2, 4, r) for r in rows]
    cert = rank_of_span(vs, expected_rank=3)
    assert cert.deficient
    for v in vs:
        assert abs(cert.conull @ v.coeffs) <= 1e-10 * np.linalg.norm(v.coeffs)


def test_exact_conull_annihilates_inputs():
    vs = [
        wedge([(1, 2, 0, 1), (0, 1, 1, 0)], exact=True),
        wedge([(2, 4, 0, 2), (1, 1, 0, 3)], exact=True),
        wedge([(1, 3, 1, 1), (1, 2, 2, 3)], exact=True),
    ]
    cert = rank_of_span(vs, expected_rank=6)
    assert cert.exact and cert.deficient and cert.singular_values.size == 0
    for v in vs:
        assert sum(c * x for c, x in zip(cert.conull, v.coeffs)) == 0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_float_rank_agrees_with_exact_on_small_rationals(data):
    m = data.draw(st.integers(3, 5))
    grade = data.draw(st.integers(1, m - 1))
    count = data.draw(st.integers(1, 5))
    numer = st.integers(-8, 8)
    denom = st.integers(1, 16)
    vecs = []
    for _ in range(count):
        rows = [
            [Fraction(data.draw(numer), data.draw(denom)) for _ in range(m)]
            for _ in range(grade)
        ]
        vecs.append(wedge(rows, exact=True))
    exact_rank = rank_of_span(vecs, expected_rank=count).rank
    float_rank = rank_of_span([v.as_float() for v in vecs], expected_rank=count).rank
    assert exact_rank == float_rank


def test_exact_wedge_accepts_strings_and_floats():
    v = wedge([("1/2", 1), (1, "3/4")], exact=True)
    assert v.coeffs[0] == Fraction(1, 2) * Fraction(3, 4) - Fraction(1)
    w = wedge([(0.5, 1.0), (1.0, 0.75)], exact=True)
    assert w.coeffs[0] == v.coeffs[0]  # these floats are exactly representable


def test_vector_arithmetic_guards():
    a = basis_wedge(3, (0, 1))
    with pytest.raises(GradeError):
        a + basis_wedge(3, (0,))
    b = wedge([(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(DimensionError):
        a + b
