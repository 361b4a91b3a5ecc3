"""Reference arithmetic the benchmark checks exact answers with.

Nothing here imports hingekit: the known ranks and the annihilation
checks must not lean on the code they judge. Coefficients of a wedge
follow the order hingekit documents for ``ExteriorVector``: one minor per
row subset, in ``itertools.combinations`` order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# A Mersenne prime: a rank computed modulo it never exceeds the rank over Q,
# so a full rank mod P proves a full rank over Q.
P = (1 << 61) - 1


def det_fraction(rows: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    size = len(a)
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, size):
            if a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def wedge_fraction(vectors: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients of v_1 ^ ... ^ v_j over Q^m, one j x j minor per row subset."""
    j, m = len(vectors), len(vectors[0])
    return [
        det_fraction([[vectors[c][r] for c in range(j)] for r in subset])
        for subset in itertools.combinations(range(m), j)
    ]


def rank_mod_p(rows: list[list[int]]) -> int:
    a = [[x % P for x in r] for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], P - 2, P)
        a[rank] = [x * inv % P for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % P for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def integer_axis_plucker(origin: list[int], dirs: list[list[int]]) -> list[int]:
    """Plucker point of an integer axis: lift(origin) ^ lift0(dir_1) ^ ..."""
    rows = [[Fraction(x) for x in origin] + [Fraction(1)]]
    rows += [[Fraction(x) for x in v] + [Fraction(0)] for v in dirs]
    return [int(c) for c in wedge_fraction(rows)]


def annihilates(functional: list[Fraction], point: list[Fraction]) -> bool:
    return sum(f * c for f, c in zip(functional, point)) == 0
