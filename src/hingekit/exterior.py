"""Exterior algebra over R^m with float and exact-rational coefficient modes.

A grade-k vector is stored densely: one coefficient per k-subset of
{0..m-1}, in lexicographic order (the order produced by
``itertools.combinations``). ``subsets(m, k)`` enumerates that order and
``subset_index(m, subset)`` inverts it, so the coefficient of
``e_a ^ e_b`` sits at ``coeffs[subset_index(m, (a, b))]``.

Float coefficients live in a float64 array; exact ones are
``fractions.Fraction`` entries in an object array that never round. The
mode picks the dtype, not the code path: sums, scalar multiples and
``top_pairing`` (one signed dot product) are the same array expressions in
both.

Every minor comes from one kernel per arithmetic, over all the j x j minors
of a batch of matrices in ``wedge``'s orientation: ``_minor_rows``, one
stacked float ``np.linalg.det``, and ``_exact_minor_rows``, one fraction-free
(Bareiss) elimination of the rows scaled to integers, in int64 while
Hadamard's bound keeps its products below 2^62, else on Python ints. A wedge
is row 0 of its kernel; a verdict passes all its rows to ``_rank_rows``: floats
to the SVD cutoff of ``numeric_rank``, integers to the one elimination ``_eliminate``,
mod 2^31 - 1 for a full rank past six columns, else on Python ints with the conull.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DefinitionError, DegenerateGeometryError, DimensionError, GradeError, ToleranceError

__all__ = [
    "ExteriorVector",
    "RankCertificate",
    "wedge",
    "top_pairing",
    "rank_of_span",
    "numeric_rank",
    "subsets",
    "subset_index",
]


@lru_cache(maxsize=None)
def subsets(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of range(m), lexicographically ordered."""
    return tuple(itertools.combinations(range(m), k))


@lru_cache(maxsize=None)
def _positions(m: int, k: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(subsets(m, k))}


def subset_index(m: int, subset) -> int:
    """Flat coefficient index of a sorted subset of range(m)."""
    key = tuple(subset)
    try:
        return _positions(m, len(key))[key]
    except KeyError:
        raise GradeError(f"{key!r} is not a sorted subset of range({m})") from None


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            if x.strip().lstrip("+-").lower() in ("nan", "inf", "infinity"):  # refused as the float is
                raise DegenerateGeometryError(NON_FINITE) from None
            raise DefinitionError(f"{x!r} is not a finite rational") from None
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):  # NaN and inf have no binary ratio: refused as the float rank refuses them
            raise DegenerateGeometryError(NON_FINITE)
        # exact binary value of the float, so no information is invented
        return Fraction(*float(x).as_integer_ratio())
    raise TypeError(f"cannot convert {type(x).__name__} to an exact rational")


@dataclass(frozen=True, eq=False)
class ExteriorVector:
    """Element of the grade-`grade` exterior power of R^`ambient`."""

    grade: int
    ambient: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.grade < 0 or self.grade > self.ambient:
            raise GradeError(f"grade {self.grade} not in [0, {self.ambient}]")
        c = np.asarray(self.coeffs)
        if c.dtype != object:
            c = c.astype(float)
        want = comb(self.ambient, self.grade)
        if c.shape != (want,):
            raise DimensionError(
                f"grade {self.grade} over R^{self.ambient} needs {want} coefficients, "
                f"got shape {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def exact(self) -> bool:
        return self.coeffs.dtype == object

    def as_float(self) -> "ExteriorVector":
        if not self.exact:
            return self
        return ExteriorVector(self.grade, self.ambient, self.coeffs.astype(float))

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_float().coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _require_like(self, other: "ExteriorVector") -> None:
        if not isinstance(other, ExteriorVector):
            raise TypeError("expected an ExteriorVector")
        if other.ambient != self.ambient:
            raise DimensionError("ambient dimensions differ")
        if other.grade != self.grade:
            raise GradeError("grades differ")

    def __add__(self, other: "ExteriorVector") -> "ExteriorVector":
        self._require_like(other)
        a, b = (self, other) if self.exact == other.exact else (self.as_float(), other.as_float())
        return ExteriorVector(self.grade, self.ambient, a.coeffs + b.coeffs)

    def __mul__(self, scalar) -> "ExteriorVector":
        if self.exact and isinstance(scalar, (int, Fraction)):
            return ExteriorVector(self.grade, self.ambient, self.coeffs * scalar)
        return ExteriorVector(
            self.grade, self.ambient, float(scalar) * self.as_float().coeffs
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "exact" if self.exact else "float"
        return f"ExteriorVector(grade={self.grade}, ambient={self.ambient}, {mode})"


def _integer_scaled(values) -> tuple[list[int], int]:
    """Rationals times the lcm of their denominators, as ints, and that lcm."""
    pairs = [(x, 1) if type(x) is int else _to_fraction(x).as_integer_ratio() for x in values]
    scale = math.lcm(*(d for _, d in pairs))
    return [n * (scale // d) for n, d in pairs], scale


def _eliminate(a: np.ndarray, p: int | None = None) -> tuple[np.ndarray, list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of an integer matrix.

    Returns ``(rows, pivots, prev)``: row i has its pivot in column ``pivots[i]``. Without ``p``
    each update is divided exactly by the previous pivot, on Python ints, and the pivot rows
    hold ``prev`` (the last pivot) times the reduced row echelon form. With ``p`` (``_P``) each
    is reduced mod p in int64 instead, and ``len(pivots)`` is the rank mod p. ``a`` is kept.
    """
    a = a.astype(object) if p is None else (a % p).astype(np.int64)
    pivots, prev = [], 1
    for c in range(a.shape[1]):
        r = len(pivots)
        if not a[r, c]:  # swap in the first nonzero row below, if there is one
            nz = np.flatnonzero(a[r:, c])
            if nz.size == 0:
                continue
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        top, sub = a[r].copy(), a[:, c, None] * a[r]
        a *= top[c]
        a -= sub  # row * pivot - row[c] * top, for every row
        if p is None:
            a //= prev
        else:
            a %= p
        a[r], prev = top, top[c]  # the update zeroed the pivot row
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a, pivots, prev


def wedge(vectors, ambient: int | None = None, exact: bool = False) -> ExteriorVector:
    """Wedge an ordered list of m-vectors into a grade-j vector over R^m.

    The coefficient on a subset S is the j x j minor taken from rows S of
    the matrix whose columns are the inputs, which makes the result
    multilinear and alternating: row 0 of ``_minor_rows``. With
    ``exact=True`` the inputs are read as rationals (int, Fraction, 'a/b'
    strings, or floats through their exact binary value) and the
    coefficients come out as Fractions: the integer minors of
    ``_exact_minor_rows`` over the product of the inputs' scales.

    An empty input list is the scalar 1 of grade 0; it then needs an
    explicit ``ambient``.
    """
    vecs = [tuple(v) for v in vectors]
    j = len(vecs)
    if j == 0:
        if ambient is None:
            raise DimensionError("an empty wedge needs an explicit ambient dimension")
        return ExteriorVector(0, ambient, np.array([Fraction(1) if exact else 1.0]))
    m = len(vecs[0])
    if any(len(v) != m for v in vecs):
        raise DimensionError("wedge inputs must all share one length")
    if ambient is not None and ambient != m:
        raise DimensionError(f"inputs of length {m} do not live in R^{ambient}")
    if not exact:
        return ExteriorVector(j, m, _minor_rows([vecs])[0])
    row = _exact_minor_rows([vecs])[0].astype(object)
    return ExteriorVector(j, m, row * Fraction(1, math.prod(_integer_scaled(v)[1] for v in vecs)))


def _check_shapes(mats) -> None:
    """Raise the shape error, if any, of a batch of j x m matrices: ragged, j > m, two shapes."""
    for mat in mats:
        if any(len(row) != len(mat[0]) for row in mat):
            raise DimensionError("wedge inputs must all share one length")
        if len(mat) > len(mat[0]):
            raise GradeError(f"cannot wedge {len(mat)} vectors in R^{len(mat[0])}")
    if len({(len(mat), len(mat[0])) for mat in mats}) > 1:
        raise GradeError(MIXED_SPAN)


def _minor_rows(mats) -> np.ndarray:
    """Every j x j minor of each j x m matrix in ``mats`` (a list or an (n, j, m) stack), as float rows.

    Row i, in ``subsets(m, j)`` order, is ``wedge(mats[i]).coeffs``: one
    stacked ``np.linalg.det`` over rows S of each transposed matrix. Shape
    errors come from ``_check_shapes``; no matrices give no rows.
    """
    try:
        a = np.asarray(mats if len(mats) else np.zeros((0, 1, 1)), dtype=float)
    except ValueError:  # a shape error, else the entry float() refused
        _check_shapes(mats)
        raise
    if a.ndim != 3 or a.shape[1] > a.shape[2]:
        _check_shapes(mats)
    j, m = a.shape[1:]
    # C order: a stacked det hands back F-ordered rows, and a product over them would round by S
    return np.ascontiguousarray(np.linalg.det(a.transpose(0, 2, 1)[:, np.array(subsets(m, j))]))


# Each entry the batched Bareiss elimination forms is a minor of one input matrix, so
# by Hadamard at most H, the product of that matrix's nonzero (integer, so >= 1) row
# norms. While H < 2^31 an update's two products stay below 2^62 and their difference
# fits int64. H^2 is checked in float64, below a margin far wider than its rounding.
_INT64_HADAMARD_SQUARED = 2.0**62 * (1 - 2.0**-40)


def _exact_minor_rows(mats) -> np.ndarray:
    """Every j x j minor of each j x m rational matrix in ``mats``, as integer rows.

    Row i is ``wedge(mats[i], exact=True)`` times the product of its rows'
    integer scales (a row of ints is taken as it is: an int64 cast would
    truncate a Fraction), from one Bareiss elimination vectorized over all
    the minors with a pivot swap per minor: in int64 when every matrix passes
    the Hadamard guard, else on Python ints. Shapes as in ``_minor_rows``.
    """
    try:
        a = np.array(mats)
    except ValueError:  # ragged
        a = None
    if a is None or a.dtype != np.int64 or a.ndim != 3 or a.shape[1] > a.shape[2]:
        _check_shapes(mats)
        rows = [[row if all(type(x) is int for x in row) else _integer_scaled(row)[0] for row in mat]
                for mat in mats]
        # built as objects: numpy would type ints past 2^63 next to negative ones float64
        a = np.array(rows or np.zeros((0, 1, 1), dtype=np.int64), dtype=object)  # no matrices: no rows
        try:
            a = a.astype(np.int64)
        except OverflowError:  # an entry past int64 keeps the object array
            pass
    if a.dtype == np.int64:
        sq = np.square(a, dtype=float).sum(axis=2)
        fits = (np.prod(np.maximum(sq, 1.0), axis=1) < _INT64_HADAMARD_SQUARED).all()
    if a.dtype != np.int64 or not fits:  # an entry past int64, or a matrix past the guard
        a = a.astype(object)
    n, j, m = a.shape
    # a[r, c, k]: row r, column c of minor k (k runs over subsets within each matrix)
    a = a[:, :, np.array(subsets(m, j))].transpose(1, 3, 0, 2).reshape(j, j, -1)
    sign = np.ones(a.shape[2], dtype=np.int64)
    prev = 1
    for c in range(j - 1):
        s = np.flatnonzero(a[c, c] == 0)
        if s.size:  # swap in the first nonzero row below; a zero column makes det 0 anyway
            piv = c + np.argmax(a[c:, c, s] != 0, axis=0)
            a[c, :, s], a[piv, :, s] = a[piv, :, s], a[c, :, s]
            sign[s] = -sign[s]
        top = a[c, c]
        a[c + 1:, c + 1:] = (a[c + 1:, c + 1:] * top - a[c + 1:, c, None] * a[c, None, c + 1:]) // prev
        prev = np.where(top != 0, top, 1)  # after a zero column every later entry is 0
    return (sign * a[-1, -1]).reshape(n, comb(m, j))


@lru_cache(maxsize=None)
def _complement_table(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per k-subset: index of its complement and the shuffle sign into (0..m-1)."""
    pos = _positions(m, m - k)
    count = comb(m, k)
    idx = np.empty(count, dtype=int)
    sgn = np.empty(count, dtype=int)
    for i, S in enumerate(subsets(m, k)):
        comp = tuple(x for x in range(m) if x not in S)
        inversions = sum(1 for a in S for b in comp if a > b)
        idx[i] = pos[comp]
        sgn[i] = -1 if inversions % 2 else 1
    idx.setflags(write=False)
    sgn.setflags(write=False)
    return idx, sgn


def top_pairing(a: ExteriorVector, b: ExteriorVector):
    """Coefficient of a ^ b on the top form e_0 ^ ... ^ e_{m-1}.

    Bilinear, and graded-symmetric:
    ``top_pairing(a, b) == (-1)**(k*(m-k)) * top_pairing(b, a)``.
    Returns a Fraction when both arguments are exact, a float otherwise.
    """
    if a.ambient != b.ambient:
        raise DimensionError("pairing needs a common ambient dimension")
    if a.grade + b.grade != a.ambient:
        raise GradeError(
            f"grades {a.grade} + {b.grade} must sum to the ambient {a.ambient}"
        )
    idx, sgn = _complement_table(a.ambient, a.grade)
    if a.exact and b.exact:
        return Fraction((a.coeffs * sgn) @ b.coeffs[idx])
    return float((a.as_float().coeffs * sgn) @ b.as_float().coeffs[idx])


@dataclass(frozen=True, eq=False)
class RankCertificate:
    """Outcome of a rank test on a span of exterior vectors.

    ``deficient`` means the computed rank fell short of the caller's
    expectation. ``conull``, present exactly when deficient (and a
    nonzero functional exists), annihilates every input vector: it is a
    unit vector in float mode and a coprime integer vector in exact mode.
    """

    rank: int
    singular_values: np.ndarray
    deficient: bool
    conull: np.ndarray | None
    exact: bool = False


# A rank modulo a prime never exceeds the rank over Q: an r x r minor that is
# nonzero mod p is a nonzero integer. So a full column rank mod p proves a full
# column rank over Q. Below 2^31 a product of two residues stays below 2^62, so
# int64 elimination cannot overflow.
_P = (1 << 31) - 1

# Exact vs mod-p _eliminate, timeit on square matrices of integers in [-40, 40) (one Xeon core):
# 15 vs 13 us at 3 columns, 40 vs 24 at 6, 55 vs 29 at 7, 125 vs 44 at 10, 440 vs 75 at 15, 1250 vs
# 130 at 21. A deficient span pays for both, so the pre-check pays once 60% of spans have full rank
# at 6 columns, 35% at 10; the 6-column spans worth an exact verdict (twisted cubic, Bricard) do not.
_MOD_P_ABOVE_COLUMNS = 6


def check_tolerance(tol: float) -> float:
    """Return ``tol`` if it is a finite number > 0, else raise ToleranceError."""
    if not (math.isfinite(tol) and tol > 0):
        raise ToleranceError(f"tolerance must be a finite number > 0, got {tol!r}")
    return tol


# the error of a rank test handed an inf or NaN entry
NON_FINITE = "a rank test met a non-finite number: the input overflows float arithmetic"
# the error of a span whose vectors differ in grade or ambient
MIXED_SPAN = "rank_of_span needs vectors of one common grade and ambient"


def numeric_rank(matrix: np.ndarray, tol: float):
    """Numerical rank of a matrix: the one rank rule of the package.

    Counts the singular values above ``cutoff = tol * sigma_max * max(matrix.shape)``. Returns
    ``(rank, cutoff, u, sigma, vh)`` from one full SVD, so callers read null bases off
    ``u[:, rank:]`` and ``vh[rank:]``. ``tol`` must pass ``check_tolerance``; a matrix with an
    inf or NaN entry raises DegenerateGeometryError before the SVD, one whose singular values
    overflow after it. A tolerance that cuts every singular value of a nonzero matrix, as any
    ``tol >= 1 / max(matrix.shape)`` does, raises ToleranceError. A stack of any leading shape
    is ranked by one SVD, each matrix bit for bit as alone; ``rank`` and ``cutoff`` take the
    leading shape, and one failing matrix fails the stack.
    """
    check_tolerance(tol)
    if not np.isfinite(matrix).all():
        raise DegenerateGeometryError(NON_FINITE)
    u, sig, vh = np.linalg.svd(matrix, full_matrices=True)
    if not np.isfinite(sig).all():  # finite entries whose singular values overflow
        raise DegenerateGeometryError(NON_FINITE)
    sigma_max = sig[..., 0] if sig.shape[-1] else np.zeros(sig.shape[:-1])
    cutoff = tol * sigma_max * max(matrix.shape[-2:])
    rank = (sig > cutoff[..., None]).sum(-1)
    if not rank.all() and (sigma_max > 0)[rank == 0].any():  # the mask and index only when a rank is 0
        rows, cols = matrix.shape[-2:]
        raise ToleranceError(f"tolerance {tol} cuts every singular value of a {rows} x {cols} matrix")
    return rank if rank.ndim else int(rank), cutoff, u, sig, vh


def positive_lead(v: np.ndarray) -> np.ndarray:
    """Copy of ``v`` or ``-v``, whichever has its largest-magnitude entry positive.

    The one sign rule for the float conull of a span, the end-point
    witness direction and the first flex direction.
    """
    return -v if v[np.argmax(np.abs(v))] < 0 else v.copy()


def _rank_rows(rows: np.ndarray, expected_rank: int, tol: float) -> RankCertificate:
    """Rank and conull of stacked coefficient rows; the dtype picks the rank rule.

    Float rows take ``numeric_rank`` and a read-only unit conull from
    ``positive_lead``. Integer rows (int64 or object) are exact, by ``_eliminate``:
    a full rank past ``_MOD_P_ABOVE_COLUMNS`` columns is certified modulo ``_P``,
    any other outcome is read on Python ints, with the coprime conull.
    """
    ncols, conull = rows.shape[1], None
    if rows.dtype == float:
        rank, _, _, sig, vh = numeric_rank(rows, tol)
        if rank < min(expected_rank, ncols):
            conull = positive_lead(vh[rank])
    elif len(rows) >= ncols > _MOD_P_ABOVE_COLUMNS and len(_eliminate(rows, _P)[1]) == ncols:
        rank, sig = ncols, np.array([])
    else:
        a, pivots, prev = _eliminate(rows)
        rank, sig = len(pivots), np.array([])
        if rank < min(expected_rank, ncols):
            free = next(c for c in range(ncols) if c not in pivots)
            ints = [0] * ncols
            ints[free] = prev
            for row, pc in enumerate(pivots):
                ints[pc] = -a[row, free]
            g = math.gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
            conull = np.array([Fraction(x // g) for x in ints])
    if conull is not None:
        conull.setflags(write=False)
    return RankCertificate(rank, sig, rank < expected_rank, conull, rows.dtype != float)


def rank_of_span(vectors, expected_rank: int, tol: float = 1e-10) -> RankCertificate:
    """Rank of the linear span of same-shape exterior vectors, by ``_rank_rows``.

    When every input is exact its rows are scaled to integers and the rank
    is exact, with ``singular_values`` empty; else the rows are floats. An
    empty input list has rank 0 and no conull.
    """
    vectors, tol = list(vectors), check_tolerance(tol)
    if not vectors:
        return RankCertificate(0, np.array([]), expected_rank > 0, None)
    if len({(v.grade, v.ambient) for v in vectors}) > 1:
        raise GradeError(MIXED_SPAN)
    if all(v.exact for v in vectors):
        rows = np.array([_integer_scaled(v.coeffs)[0] for v in vectors], dtype=object)
    else:
        rows = np.array([v.as_float().coeffs for v in vectors])
    return _rank_rows(rows, expected_rank, tol)
