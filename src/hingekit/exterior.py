"""Exterior algebra over R^m with float and exact-rational coefficient modes.

A grade-k vector is stored densely: one coefficient per k-subset of
{0..m-1}, in lexicographic order (the order produced by
``itertools.combinations``). ``subsets(m, k)`` enumerates that order and
``subset_index(m, subset)`` inverts it, so the coefficient of
``e_a ^ e_b`` sits at ``coeffs[subset_index(m, (a, b))]``.

Float coefficients live in a float64 array. Exact coefficients are
``fractions.Fraction`` entries in an object array; they are produced by
``wedge(..., exact=True)`` and flow through ``top_pairing`` and
``rank_of_span`` without ever rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DimensionError, GradeError, ToleranceError

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
        return Fraction(x)
    if isinstance(x, (float, np.floating)):
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
        return ExteriorVector(
            self.grade, self.ambient, np.array([float(x) for x in self.coeffs])
        )

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_float().coeffs))

    def coeff(self, subset):
        """Coefficient on one basis form, addressed by its sorted subset."""
        return self.coeffs[subset_index(self.ambient, subset)]

    def is_zero(self, tol: float = 0.0) -> bool:
        if self.exact:
            return all(x == 0 for x in self.coeffs)
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def _require_like(self, other: "ExteriorVector") -> None:
        if not isinstance(other, ExteriorVector):
            raise TypeError("expected an ExteriorVector")
        if other.ambient != self.ambient:
            raise DimensionError("ambient dimensions differ")
        if other.grade != self.grade:
            raise GradeError("grades differ")

    def __add__(self, other: "ExteriorVector") -> "ExteriorVector":
        self._require_like(other)
        if self.exact and other.exact:
            return ExteriorVector(self.grade, self.ambient, self.coeffs + other.coeffs)
        return ExteriorVector(
            self.grade, self.ambient, self.as_float().coeffs + other.as_float().coeffs
        )

    def __sub__(self, other: "ExteriorVector") -> "ExteriorVector":
        return self + (-1) * other

    def __neg__(self) -> "ExteriorVector":
        return (-1) * self

    def __mul__(self, scalar) -> "ExteriorVector":
        if self.exact and isinstance(scalar, (int, Fraction)):
            out = np.empty(len(self.coeffs), dtype=object)
            out[:] = [scalar * x for x in self.coeffs]
            return ExteriorVector(self.grade, self.ambient, out)
        return ExteriorVector(
            self.grade, self.ambient, float(scalar) * self.as_float().coeffs
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "exact" if self.exact else "float"
        return f"ExteriorVector(grade={self.grade}, ambient={self.ambient}, {mode})"


def _fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
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
            if a[r][col] == 0:
                continue
            factor = a[r][col] / pivot
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def wedge(vectors, ambient: int | None = None, exact: bool = False) -> ExteriorVector:
    """Wedge an ordered list of m-vectors into a grade-j vector over R^m.

    The coefficient on a subset S is the j x j minor taken from rows S of
    the matrix whose columns are the inputs, which makes the result
    multilinear and alternating. With ``exact=True`` the inputs are read
    as rationals (int, Fraction, 'a/b' strings, or floats through their
    exact binary value) and the coefficients come out as Fractions.

    An empty input list is the scalar 1 of grade 0; it then needs an
    explicit ``ambient``.
    """
    vecs = [tuple(v) for v in vectors]
    j = len(vecs)
    if j == 0:
        if ambient is None:
            raise DimensionError("an empty wedge needs an explicit ambient dimension")
        if exact:
            data = np.empty(1, dtype=object)
            data[0] = Fraction(1)
            return ExteriorVector(0, ambient, data)
        return ExteriorVector(0, ambient, np.ones(1))
    m = len(vecs[0])
    if any(len(v) != m for v in vecs):
        raise DimensionError("wedge inputs must all share one length")
    if ambient is not None and ambient != m:
        raise DimensionError(f"inputs of length {m} do not live in R^{ambient}")
    if j > m:
        raise GradeError(f"cannot wedge {j} vectors in R^{m}")
    index = subsets(m, j)
    if exact:
        cols = [[_to_fraction(x) for x in v] for v in vecs]
        out = np.empty(len(index), dtype=object)
        for pos, S in enumerate(index):
            out[pos] = _fraction_det([[cols[c][r] for c in range(j)] for r in S])
        return ExteriorVector(j, m, out)
    mat = np.array(vecs, dtype=float).T  # columns are the inputs
    minors = mat[np.array(index), :]  # (C(m,j), j, j) row selections
    return ExteriorVector(j, m, np.linalg.det(minors))


@lru_cache(maxsize=None)
def _complement_table(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per k-subset: index of its complement and the shuffle sign into (0..m-1)."""
    pos = _positions(m, m - k)
    count = comb(m, k)
    idx = np.empty(count, dtype=int)
    sgn = np.empty(count, dtype=float)
    for i, S in enumerate(subsets(m, k)):
        comp = tuple(x for x in range(m) if x not in S)
        inversions = sum(1 for a in S for b in comp if a > b)
        idx[i] = pos[comp]
        sgn[i] = -1.0 if inversions % 2 else 1.0
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
        total = Fraction(0)
        for i in range(len(idx)):
            term = a.coeffs[i] * b.coeffs[idx[i]]
            total += -term if sgn[i] < 0 else term
        return total
    av = a.as_float().coeffs
    bv = b.as_float().coeffs
    return float((av * sgn) @ bv[idx])


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


def _exact_rank(vectors: list[ExteriorVector], expected_rank: int) -> RankCertificate:
    rows = [[x for x in v.coeffs] for v in vectors]
    ncols = len(rows[0])
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pivot = mat[r][c]
        mat[r] = [x / pivot for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    rank = len(pivots)
    deficient = rank < expected_rank
    conull = None
    if deficient and rank < ncols:
        free = next(c for c in range(ncols) if c not in pivots)
        sol = [Fraction(0)] * ncols
        sol[free] = Fraction(1)
        for row, pc in enumerate(pivots):
            sol[pc] = -mat[row][free]
        den = 1
        for x in sol:
            den = den * x.denominator // math.gcd(den, x.denominator)
        ints = [int(x * den) for x in sol]
        g = 0
        for x in ints:
            g = math.gcd(g, x)
        if g:
            ints = [x // g for x in ints]
        lead = next((x for x in ints if x != 0), 1)
        if lead < 0:
            ints = [-x for x in ints]
        conull = np.empty(ncols, dtype=object)
        conull[:] = [Fraction(x) for x in ints]
        conull.setflags(write=False)
    return RankCertificate(rank, np.array([]), deficient, conull, exact=True)


def numeric_rank(matrix: np.ndarray, tol: float):
    """Numerical rank of a matrix: the one rank rule of the package.

    Counts the singular values above ``cutoff = tol * sigma_max *
    max(matrix.shape)``. Returns ``(rank, cutoff, u, sigma, vh)`` from one
    full SVD, so callers read null bases off ``u[:, rank:]`` and
    ``vh[rank:]``. ``tol`` must be a finite number > 0; anything else
    raises ToleranceError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ToleranceError(f"tolerance must be a finite number > 0, got {tol!r}")
    u, sig, vh = np.linalg.svd(matrix, full_matrices=True)
    sigma_max = sig[0] if sig.size else 0.0
    cutoff = tol * sigma_max * max(matrix.shape)
    return int(np.sum(sig > cutoff)), cutoff, u, sig, vh


def rank_of_span(
    vectors,
    expected_rank: int,
    tol: float = 1e-10,
    ambient: int | None = None,
    grade: int | None = None,
) -> RankCertificate:
    """Rank of the linear span of same-shape exterior vectors.

    Float mode applies ``numeric_rank`` to the stacked coefficient rows.
    When every input is exact the rank is computed by exact Gaussian
    elimination instead and ``singular_values`` stays empty. ``ambient``
    and ``grade`` are only consulted for an empty input list, where they
    let a deficient certificate still carry a (trivial) conull.
    """
    vectors = list(vectors)
    if not vectors:
        conull = None
        if ambient is not None and grade is not None and expected_rank > 0:
            conull = np.zeros(comb(ambient, grade))
            conull[0] = 1.0
        return RankCertificate(0, np.array([]), expected_rank > 0, conull)
    g, m = vectors[0].grade, vectors[0].ambient
    if any(v.grade != g or v.ambient != m for v in vectors):
        raise GradeError("rank_of_span needs vectors of one common grade and ambient")
    if all(v.exact for v in vectors):
        return _exact_rank(vectors, expected_rank)
    rows = np.array([v.as_float().coeffs for v in vectors])
    rank, _, _, sig, vh = numeric_rank(rows, tol)
    deficient = rank < expected_rank
    conull = None
    if deficient and rank < rows.shape[1]:
        conull = vh[rank].copy()
        lead = int(np.argmax(np.abs(conull)))
        if conull[lead] < 0:
            conull = -conull
        conull.setflags(write=False)
    return RankCertificate(rank, sig, deficient, conull)
