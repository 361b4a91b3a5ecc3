import math
import re

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
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
from hingekit.errors import DegenerateGeometryError, DimensionError, GradeError, ToleranceError
from hingekit.exterior import _P, _complement_table, _eliminate, positive_lead

P31 = (1 << 31) - 1


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
    assert wedge([(1, 0, 0), (2, 0, 0)]).is_zero()


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


@pytest.mark.parametrize("exact", [False, True])
def test_wedge_shape_messages_keep_their_order(exact):
    """Ragged inputs come before a wrong ambient, which comes before j > m; j > m comes
    before reading the entries. The minor kernels share the check that raises them."""
    with pytest.raises(DimensionError, match="^wedge inputs must all share one length$"):
        wedge([(1, 0), (1, 0, 0)], ambient=3, exact=exact)
    with pytest.raises(DimensionError, match=r"^inputs of length 2 do not live in R\^3$"):
        wedge([(1, 0), (0, 1), (1, 1)], ambient=3, exact=exact)
    for vecs in ([(1, 0), (0, 1), (1, 1)], [("abc", 0), (0, 1), (1, 1)]):
        with pytest.raises(GradeError, match=r"^cannot wedge 3 vectors in R\^2$"):
            wedge(vecs, exact=exact)
    with pytest.raises(ValueError, match="'abc'"):
        wedge([("abc", 0), (0, 1)], exact=exact)


@pytest.mark.parametrize("call, error, message", [
    (lambda: subset_index(4, (2, 1)), GradeError, "(2, 1) is not a sorted subset of range(4)"),
    (lambda: ExteriorVector(5, 4, np.zeros(1)), GradeError, "grade 5 not in [0, 4]"),
    (lambda: ExteriorVector(2, 4, np.zeros(5)), DimensionError, "grade 2 over R^4 needs 6 coefficients, got shape (5,)"),
    (lambda: wedge([(1, 0)]) + 1, TypeError, "expected an ExteriorVector"),
    (lambda: top_pairing(wedge([(1, 0, 0)]), wedge([(1, 0, 0, 0)])), DimensionError,
     "pairing needs a common ambient dimension"),
    (lambda: wedge([(1, 0), (0, 1j)], exact=True), TypeError, "cannot convert complex to an exact rational"),
], ids=["subset-unsorted", "grade-too-high", "coefficient-count", "add-a-number", "pairing-ambients",
        "exact-complex"])
def test_exterior_refuses_malformed_operands(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


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
    cert = rank_of_span([], expected_rank=1)
    assert cert.deficient and cert.conull is None


def test_numeric_rank_counts_sigma_above_scaled_cutoff():
    matrix = np.diag([2.0, 1e-9, 1e-11])
    rank, cutoff, u, sig, vh = numeric_rank(matrix, 1e-10)
    assert cutoff == 1e-10 * 2.0 * 3
    assert rank == 2 and np.allclose(sig, [2.0, 1e-9, 1e-11])
    assert u.shape == vh.shape == (3, 3)
    assert np.allclose(np.abs(vh[rank:]), [[0, 0, 1]])


@pytest.mark.parametrize("tol", [np.finfo(float).eps, 1e-10])
@pytest.mark.parametrize("shape", [(2, 3, 8, 4), (3, 1, 6, 6), (1, 4, 4, 9)])
def test_numeric_rank_ranks_a_4d_stack_as_each_matrix_alone(shape, tol):
    # the (C, n, m, c) windows of linkage._cut, of mixed rank, one of them zero
    rng = np.random.default_rng(len(shape) * sum(shape))
    stack = rng.standard_normal(shape)
    stack[0, 0] = 0.0
    stack[-1, -1] = stack[-1, -1] @ np.diag(np.arange(shape[-1]) % 2 * 1.0)
    stack[0, -1, :, 0] = 1e-13 * stack[0, -1, :, -1]
    rank, cutoff, _, sig, _ = numeric_rank(stack, tol)
    assert rank.shape == cutoff.shape == shape[:2]
    for idx in np.ndindex(*shape[:2]):
        alone = numeric_rank(stack[idx], tol)
        assert rank[idx] == alone[0] and cutoff[idx] == alone[1]
        assert np.array_equal(sig[idx], alone[3])
    assert rank[0, 0] == 0 and rank[-1, -1] == shape[-1] // 2


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_numeric_rank_rejects_bad_tolerance(tol):
    with pytest.raises(ToleranceError):
        numeric_rank(np.eye(2), tol)
    # float spans reach the same check; the error is also a ValueError
    with pytest.raises(ValueError):
        rank_of_span([basis_wedge(3, (0, 1))], expected_rank=1, tol=tol)


@pytest.mark.parametrize("shape", [(3, 3), (2, 5), (7, 6)])
def test_numeric_rank_refuses_a_tolerance_that_cuts_every_singular_value(shape):
    # the cutoff is tol * sigma_max * max(shape), so 1 / max(shape) is the first tolerance that cuts all
    matrix = np.random.default_rng(0).standard_normal(shape)
    edge = 1.0 / max(shape)
    assert numeric_rank(matrix, 0.99 * edge)[0] >= 1
    for tol in (edge, 0.5, 10.0, 1e300):
        message = f"tolerance {tol} cuts every singular value of a {shape[0]} x {shape[1]} matrix"
        with pytest.raises(ToleranceError, match=f"^{re.escape(message)}$"):
            numeric_rank(matrix, tol)
    # a zero matrix keeps no singular value at any tolerance, and that is its rank
    assert numeric_rank(np.zeros(shape), 10.0)[0] == 0


def test_numeric_rank_refuses_singular_values_that_overflow():
    # every entry is finite, but sigma = sqrt(6) * 1e308 is not: its inf cutoff used to cut every value
    with pytest.raises(DegenerateGeometryError, match="overflows float arithmetic"):
        numeric_rank(np.full((2, 3), 1e308), 1e-10)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_numeric_rank_rejects_non_finite_entries(bad):
    matrix = np.eye(3)
    matrix[1, 2] = bad
    with pytest.raises(DegenerateGeometryError, match="overflows float arithmetic"):
        numeric_rank(matrix, 1e-10)


def test_positive_lead_flips_to_a_positive_largest_entry_and_copies():
    v = np.array([1.0, -3.0, 2.0])
    assert positive_lead(v).tolist() == [-1.0, 3.0, -2.0]
    same = positive_lead(-v)
    assert same.tolist() == [-1.0, 3.0, -2.0]
    same[0] = 9.0
    assert v.tolist() == [1.0, -3.0, 2.0]
    # a tie goes to the first largest entry
    assert positive_lead(np.array([-2.0, 2.0])).tolist() == [2.0, -2.0]


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


# --- exact kernels against plain Fraction elimination ----------------------------
# The references are the Fraction-arithmetic versions of the exact kernels: a
# determinant per minor, and Gauss-Jordan elimination to the reduced row echelon form.


def _reference_det(rows):
    a = [row[:] for row in rows]
    size = len(a)
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        pivot = a[col][col]
        det *= pivot
        for r in range(col + 1, size):
            factor = a[r][col] / pivot
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def _reference_wedge(vecs):
    cols = [[Fraction(x) for x in v] for v in vecs]
    return [
        _reference_det([[col[r] for col in cols] for r in rows])
        for rows in subsets(len(vecs[0]), len(vecs))
    ]


def _reference_rank(rows, expected_rank):
    """(rank, deficient, conull) by Fraction Gauss-Jordan; conull coprime with a positive lead."""
    mat = [row[:] for row in rows]
    ncols = len(mat[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    rank = len(pivots)
    if rank >= expected_rank or rank == ncols:
        return rank, rank < expected_rank, None
    free = next(c for c in range(ncols) if c not in pivots)
    sol = [Fraction(0)] * ncols
    sol[free] = Fraction(1)
    for row, pc in enumerate(pivots):
        sol[pc] = -mat[row][free]
    den = math.lcm(*(x.denominator for x in sol))
    ints = [int(x * den) for x in sol]
    g = math.gcd(*ints)
    lead = next(x for x in ints if x != 0)
    return rank, True, [Fraction(x // g if lead > 0 else -x // g) for x in ints]


small_ints = st.integers(-6, 6)
rationals = st.one_of(
    small_ints,
    st.builds(Fraction, small_ints, st.integers(1, 9)),
    st.builds(lambda n, d: f"{n}/{d}", small_ints, st.integers(1, 9)),
    st.integers(-48, 48).map(lambda k: k / 16),  # floats with an exact binary value
)


@st.composite
def exact_wedge_inputs(draw):
    m = draw(st.integers(1, 8))  # up to j=4 of m=8, where a minor leaves a 4x4 block
    j = draw(st.integers(1, m))
    vecs = [[draw(rationals) for _ in range(m)] for _ in range(j)]
    if j >= 2 and draw(st.booleans()):  # the last input depends on the others
        weights = [draw(small_ints) for _ in range(j - 1)]
        vecs[-1] = [sum(w * Fraction(v[r]) for w, v in zip(weights, vecs)) for r in range(m)]
    if draw(st.booleans()):  # a zero in the top-left corner of the leading minors
        vecs[0][0] = 0
    return vecs


@settings(max_examples=200, deadline=None)
@given(exact_wedge_inputs())
@example([[0, 1, 2], [3, 4, 5]])  # zero leading entry: the first minor swaps rows
@example([[0, 0, 1], [0, 0, 2]])  # two leading zeros: no pivot in the column
@example([[1, "1/2", 0.25], ["2", 1, 0.5], [Fraction(3, 7), 0, 1]])  # dependent columns
@example([[0, 0, 1, 2], [0, 0, 3, 4]])  # pivots not in the leading columns
@example([[1, 2, 3], [0, 0, 0]])  # an all-zero input
@example([[0, 1, 2], [3, 4, 5], [6, 7, "1/2"]])  # j = m, with a row swap
@example([["1/3", 0, -2, Fraction(5, 7)]])  # j = 1 with fractions
@example(  # a d=6 axis: j=5 homogeneous vectors in R^7 with a/b entries
    [
        [1, "1/2", 0, 3, -2, "5/3", 1],
        [0, 1, 2, 0, "-1/4", 3, 0],
        [0, 3, 1, -1, 2, 0, "7/2"],
        [0, 0, 1, 4, -3, 2, 1],
        [0, 2, "2/9", 1, 0, -1, 5],
    ]
)
@example(  # j=4 of m=8: a row swap, and the minor on the four free columns is a 4x4
    [  # block that needs one too (column 4 is the sum of columns 1 and 2)
        [0, 1, 0, 3, 1, -2, 5, "1/3"],
        [1, 3, -1, 0, 2, -2, 4, 7],
        [0, 2, 1, 1, 3, -2, 3, 1],
        [3, 0, 2, -1, 2, 5, -1, 2],
    ]
)
# entries near 2^40 put these past the int64 guard, so the minors run on Python ints
@example([[2**40 - 3, 5, -(2**40) + 7, 2, 1], [2**40, -3, 1, 2**39 + 1, 0]])
@example(  # a zero leading entry, so a pivot swap on the object array, and a/b entries
    [[0, 2**40 + 1, "1/3", -(2**41)], [2**40 - 5, 7, 2**39, "5/2"], [3, -(2**40), 1, 2**40 + 3]]
)
@example([[2**40, 2**40 + 1, 3], [2**41, 2**41 + 2, 6]])  # dependent inputs: every minor 0
# an entry in [2^63, 2^64) next to a negative one: numpy would type them float64
@example([[2**63, -1], [1, 1]])
def test_exact_wedge_matches_fraction_minors(vecs):
    v = wedge(vecs, exact=True)
    assert v.exact
    assert all(type(x) is Fraction for x in v.coeffs)
    assert list(v.coeffs) == _reference_wedge(vecs)


@st.composite
def exact_rank_inputs(draw):
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.builds(Fraction, small_ints, st.integers(1, 9)))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(draw(st.integers(1, 7)))]
    if draw(st.booleans()):  # one column is zero in every row
        zero = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[zero] = Fraction(0)
    if len(rows) >= 2 and draw(st.booleans()):  # a row that depends on the first two
        a, b = draw(small_ints), draw(st.builds(Fraction, small_ints, st.integers(1, 9)))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return rows, draw(st.integers(0, ncols))


@settings(max_examples=200, deadline=None)
@given(exact_rank_inputs())
@example(([[1, 2, 3], [2, 4, 7]], 3))  # the first free column is not the last
@example(([["1/2", 0, 0, 0], [0, "3/5", 0, "1/7"]], 4))  # deficient only after r == len(rows)
@example(([[0, "1/3", 2], [0, 3, "5/2"], [0, "2/3", 4]], 3))  # an all-zero column
@example(([[P31, 1], [0, 1]], 2))  # rank 1 mod 2^31 - 1, rank 2 over Q
# seven columns, so the mod-p check runs: it certifies the identity; the second
# matrix has rank 6 mod 2^31 - 1 and rank 7 over Q
@example(([[int(i == j) for j in range(7)] for i in range(7)], 7))
@example(([[P31 if i == j == 6 else int(i == j) for j in range(7)] for i in range(7)], 7))
@example(([[2**64 + 1, 3, 2**70], [5, 2**65 - 7, 1], [2**66, 0, 2**64]], 3))  # full, past 2^64
@example(([[2**64, 2**65 + 2], [2**66, 2**67 + 8]], 2))  # deficient, past 2^64
@example(([[1, 2], [3, 4], [5, 6]], 2))  # more rows than columns, full rank
def test_exact_rank_matches_fraction_gauss_jordan(inputs):
    rows, expected = inputs
    rows = [[Fraction(x) for x in row] for row in rows]
    vs = [ExteriorVector(1, len(row), np.array(row, dtype=object)) for row in rows]
    cert = rank_of_span(vs, expected_rank=expected)
    rank, deficient, conull = _reference_rank(rows, expected)
    assert cert.exact and (cert.rank, cert.deficient) == (rank, deficient)
    assert (None if cert.conull is None else list(cert.conull)) == conull


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(small_ints, st.integers(-(2**70), 2**70))
    nrows = draw(st.integers(max(1, ncols - 1), ncols + 1))  # near the full-rank pre-check
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if len(rows) >= 2 and draw(st.booleans()):  # a combination of the first two rows
        a, b = draw(small_ints), draw(small_ints)
        k = draw(st.sampled_from([0, P31]))  # plus p times a vector: dependent mod p only
        w = [draw(small_ints) for _ in range(ncols)]
        rows.append([a * x + b * y + k * z for x, y, z in zip(rows[0], rows[1], w)])
    return rows


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
@example([[P31, 1], [0, 1]])
def test_rank_mod_p_never_exceeds_the_echelon_rank(rows):
    a = np.array(rows, dtype=object)
    rank = len(_eliminate(a)[1])
    assert len(_eliminate(a, _P)[1]) <= rank
    vs = [ExteriorVector(1, len(row), np.array([Fraction(x) for x in row], dtype=object))
          for row in rows]
    assert rank_of_span(vs, expected_rank=len(rows[0])).rank == rank


# --- exterior arithmetic against the per-mode code it replaced -------------------
# Before, each operation branched on the arithmetic mode; now the mode only picks
# the dtype. These are the old branches, kept as references.


def _old_as_float(v):
    if not v.exact:
        return v
    return ExteriorVector(v.grade, v.ambient, np.array([float(x) for x in v.coeffs]))


def _old_add(u, v):
    if u.exact and v.exact:
        return ExteriorVector(u.grade, u.ambient, u.coeffs + v.coeffs)
    return ExteriorVector(u.grade, u.ambient, _old_as_float(u).coeffs + _old_as_float(v).coeffs)


def _old_mul(v, scalar):
    if v.exact and isinstance(scalar, (int, Fraction)):
        out = np.empty(len(v.coeffs), dtype=object)
        out[:] = [scalar * x for x in v.coeffs]
        return ExteriorVector(v.grade, v.ambient, out)
    return ExteriorVector(v.grade, v.ambient, float(scalar) * _old_as_float(v).coeffs)


def _old_top_pairing(a, b):
    idx, sgn = _complement_table(a.ambient, a.grade)
    if a.exact and b.exact:
        total = Fraction(0)
        for i in range(len(idx)):
            term = a.coeffs[i] * b.coeffs[idx[i]]
            total += -term if sgn[i] < 0 else term
        return total
    # the signs were stored as floats
    return float((_old_as_float(a).coeffs * sgn.astype(float)) @ _old_as_float(b).coeffs[idx])


def _old_empty_wedge(ambient, exact):
    if exact:
        data = np.empty(1, dtype=object)
        data[0] = Fraction(1)
        return ExteriorVector(0, ambient, data)
    return ExteriorVector(0, ambient, np.ones(1))


def _assert_same(new, old):
    """Equal values: Fractions when exact, the same float bits otherwise."""
    if isinstance(old, ExteriorVector):
        assert new.exact == old.exact and new.coeffs.dtype == old.coeffs.dtype
        if old.exact:
            assert all(type(x) is Fraction for x in new.coeffs)
            assert list(new.coeffs) == list(old.coeffs)
        else:
            assert new.coeffs.tobytes() == old.coeffs.tobytes()
    elif type(old) is Fraction:
        assert type(new) is Fraction and new == old
    else:
        assert type(new) is float and np.float64(new).tobytes() == np.float64(old).tobytes()


fractions = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99))
bounded_floats = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def exterior_vectors(draw, m, k):
    size = math.comb(m, k)
    if draw(st.booleans()):
        coeffs = np.empty(size, dtype=object)
        coeffs[:] = draw(st.lists(fractions, min_size=size, max_size=size))
    else:
        coeffs = np.array(draw(st.lists(bounded_floats, min_size=size, max_size=size)))
    return ExteriorVector(k, m, coeffs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exterior_arithmetic_matches_the_per_mode_code_it_replaced(data):
    m = data.draw(st.integers(1, 6), label="m")
    k = data.draw(st.integers(0, m), label="grade")
    a, b = data.draw(exterior_vectors(m, k)), data.draw(exterior_vectors(m, k))
    c = data.draw(exterior_vectors(m, m - k))
    scalar = data.draw(st.one_of(st.integers(-9, 9), fractions, st.floats(-1e3, 1e3)))
    _assert_same(a + b, _old_add(a, b))
    _assert_same(a * scalar, _old_mul(a, scalar))
    _assert_same(scalar * a, _old_mul(a, scalar))
    _assert_same(a.as_float(), _old_as_float(a))
    _assert_same(top_pairing(a, c), _old_top_pairing(a, c))


@pytest.mark.parametrize("exact", [False, True])
def test_empty_wedge_matches_the_object_filled_one(exact):
    for m in range(1, 7):
        _assert_same(wedge([], ambient=m, exact=exact), _old_empty_wedge(m, exact))
