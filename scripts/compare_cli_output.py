#!/usr/bin/env python3
"""Compare hingekit CLI output byte for byte between this checkout and a git revision.

Runs a fixed list of invocations - every ``example`` with and without its
flags, ``analyze-*`` in text, ``--json`` and ``--exact`` form,
``convert-linkage``, ``flex`` in text, ``--json`` and ``--csv`` form, and
with ``--json`` and ``--csv`` together (one
of them ten steps along a Bricard fiber whose closure Jacobian has a
singular value near 1e-11, two on generic d=5 and d=6 cycles whose
linkage drift cuts line and plane windows, and one on a cycle of two
coincident axes, which flexes but reports on stderr that its linkage
drift is unavailable), ``sweep`` CSV on end-point, cycle and k=1
frame chains (one of them singular at theta = 0, one with ``--json`` and
``--csv`` together), ``analyze-chain --json`` and ``sweep`` CSV on a d=5
frame chain with k=2 (three stabilizer points, complement from the SVD)
and a d=4 frame chain with k=3 (no stabilizer rows), ``analyze-chain`` in
text and ``--json`` form and ``sweep`` CSV on a d=4 chain of seven axes
that share one direction (every sample singular, so every row runs the
witness check). Three sweeps cross the 64-sample blocks of the stacked
rank test: 150 samples of that chain, 130 of the k=1 frame chain
(CSV), 200 of the planar arm (``--json``), and 70 of the one-joint planar
arm (``--json``), whose every sample is singular, so the witness check
runs on d=2 axes, which have no direction rows. Two more, of 65 samples
on the k=1 frame chain and on the parallel-axes chain (CSV), end in a
block of one sample, which is placed by ``forward_kinematics`` after a
block placed by the stacked kernel. Three sweeps draw from seeds past one
32-bit word: 70 samples at 2^62 (CSV), and 12 on the k=1 frame chain and
70 on the parallel-axes chain (``--json``) at 2^128 + 1, whose entropy
words with the sample index outrun the four-word pool of numpy's seed
hash. ``analyze-cycle
--exact`` on an integer cycle in R^4 whose conull has entries past 2^53,
on a d=6 cycle with two ``a/b`` coordinates, on the same cycle with a
21st axis (full rank), and on six axes in R^3 whose Plucker determinant
is a nonzero multiple of 2^31 - 1. ``analyze-* --exact`` in text and
``--json`` form also runs on a d=5 cycle of 15 axes with two ``a/b``
coordinates, on four collinear points in R^2 (one with an ``a/b``
coordinate), on a d=3 platform with one ``a/b`` coordinate, and on a d=4
cycle with one coordinate of 2^20 + 1 that sends the call past the int64
guard of the exact minor kernel, onto Python ints. ``analyze-cycle
--exact --json`` also runs on a d=6 cycle of 20 axes with one coordinate
of 2^31 + 11, past the guard, and ``analyze-platform --exact`` on a d=2
platform whose first leg has rational endpoints 10^-20 apart, which a
float comparison would call coincident. ``analyze-cycle --exact`` in text
and ``--json`` form runs on the d=4 integer cycle with axis i's origin
scaled by 10^(20 i), whose exact functional has entries past the float
range and prints them exactly. Float ``analyze-cycle`` in text
and ``--json`` form runs on a generic d=7 cycle of 28 axes, the largest
stacked determinant of the float minor kernel (28 minors of 6 x 6 per
axis). A five-axis cycle in R^3 (mobility 0, though its Plucker span
misses a hyperplane) runs through
``analyze-cycle`` in text and ``--json`` form and through ``flex``, which
finds no kernel and exits 3. ``convert-linkage`` runs on two generic
d=6 cycles of 12 axes, and in text and ``--json`` form on a planar
polygon, on a two-point polygon (two p1-p2 edges), on a d=5 cycle of 10
axes (support lines cut by k = 2 axes) and on a four-axis cycle in R^5,
too short for the canonical edges. The error paths are run too: the
hidden ``analyze-chain --exact``, which exits 2, each
file command on a scenario kind it refuses, ``flex`` with a
``--step-size`` of ``nan`` and of ``inf``, which exit 2, ``convert-linkage`` in text
and ``--json`` form on a three-axis cycle in R^4, also too short, one
malformed scenario file per schema message of the parser, files
carrying top-level keys their kind does not read, a d=4 cycle whose
second axis has dependent directions, and two d=4 cycles that pair such
an axis with one whose 1e308-scale directions are not orthonormal after
the QR, in both orders (the first bad axis in input order is reported).
Three inputs that used to pass, or to be refused under another fault's
name, run as well: ``analyze-chain --tol 0.5`` and ``sweep --samples 2
--tol 0.5`` on the generic cycle, whose tolerance cuts the end frame's
stabilizer (exit 2, not a rank of -1); ``flex --json --steps 0`` with a
``--step-size`` of ``nan`` and of ``inf`` (exit 2, not a ``NaN`` in the
JSON); and ``example planar-arm --lengths 1e308,1e308``, whose joints
overflow (exit 2 naming the finite sum, not an end-point on the last
axis). Four more ran with exit 0 and a rank of 0, at a tolerance that
cuts every singular value, and now exit 2: ``analyze-cycle --tol 0.5`` on
the generic cycle, ``analyze-platform --tol 10`` on Desargues, and
``analyze-chain --tol 0.5`` and ``sweep --samples 2 --tol 0.5`` on the
planar arm. The boundary cases of the stacked read of a scenario's axes
run in text and ``--exact --json`` form: a NaN literal, a boolean inside
``dirs`` and 10^400 as coordinates (malformed, exit 2), a d=4 integer
cycle with one coordinate of 2^63, past int64, whose exact verdict stays
on Python ints, and the same cycle with one float coordinate, which
``--exact`` refuses by its JSON path. ``sweep --samples 5`` runs at seeds 2
and 3 on a chain of finite axes near 1e308, where a sample's frame rows
are finite but their singular values overflow (exit 3), and
``convert-linkage`` in text and ``--json`` form on a d=5 cycle whose
second axis is the first with 1e-9 noise on its directions, so their
window cuts a near-degenerate line (exit 3).
A flag of ``example`` is read only by the fixture it belongs to. Five runs
give a fixture flags that only another fixture reads, some malformed, and
exit 0: ``desargues --lengths x``, ``twisted-cubic-tangents --seed 7 --d 5
--perturb x``, ``generic-cycle --t ''``, ``bricard-symmetric-six --height
nan`` and ``planar-arm --t 1,1 --seed -1``. ``cyclohexane-panels --height
1e308`` has directions that overflow; it builds no axis and is refused when
printed (exit 2). So is ``twisted-cubic-tangents --t 0,1,2,3,4,1e110``,
whose exact coordinate t^3 = 10^330 the parser would refuse.
Every invocation runs once against ``src/`` of this checkout and once
against ``src/`` of REV (extracted with ``git archive``). Each side
feeds the analyses with its own ``example`` output. Exit code, stdout,
stderr and every written CSV file must agree;
differences are listed and the script exits 1, whatever their size. For
each difference it says whether only numeric tokens differ, and if so how
many numbers differ, how many of those are below MAGNITUDE_FLOOR on both
sides (rounding-level values), how many of the others differ by more than
REL_BOUND relative, and the largest relative gap among the others, so a
last-place change reads as a gap near 1e-16, not as 0. A last line gives
the line count of ``src/hingekit/*.py`` on both sides, as ``wc -l`` counts it.

    python scripts/compare_cli_output.py HEAD~1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = {
    "cubic": ["twisted-cubic-tangents"],
    "cubic-t": ["twisted-cubic-tangents", "--t", "0,1,2,-1,1/2,3,5/3"],
    "bricard": ["bricard-symmetric-six"],
    "bricard-4": ["bricard-symmetric-six", "--seed", "4"],
    "bricard-11": ["bricard-symmetric-six", "--seed", "11"],
    "chair": ["cyclohexane-panels"],
    "chair-h": ["cyclohexane-panels", "--height", "0.3"],
    "desargues": ["desargues"],
    "desargues-p": ["desargues", "--perturb", "1/100"],
    "arm": ["planar-arm"],
    "arm-l": ["planar-arm", "--lengths", "1,2,1/2"],
    "arm-1": ["planar-arm", "--lengths", "1"],
    "arm-overflow": ["planar-arm", "--lengths", "1e308,1e308"],
    "cycle": ["generic-cycle"],
    "cycle-5": ["generic-cycle", "--seed", "5"],
    "cycle-n5": ["generic-cycle", "--n", "5"],
    "cycle-d4": ["generic-cycle", "--d", "4", "--n", "11"],
    "cycle-d2": ["generic-cycle", "--d", "2", "--n", "5", "--seed", "1"],
    "cycle-d4n3": ["generic-cycle", "--d", "4", "--n", "3"],
    "cycle-d6n12": ["generic-cycle", "--d", "6", "--n", "12"],
    "cycle-d6n12-1": ["generic-cycle", "--d", "6", "--n", "12", "--seed", "1"],
    "cycle-d2n2": ["generic-cycle", "--d", "2", "--n", "2"],
    "cycle-d5n10": ["generic-cycle", "--d", "5", "--n", "10"],
    "cycle-d5n4": ["generic-cycle", "--d", "5", "--n", "4"],
    "cycle-d7n28": ["generic-cycle", "--d", "7", "--n", "28", "--seed", "3"],
    # a flag is read only by its own fixture: the others ignore it, even malformed
    "desargues-lengths-x": ["desargues", "--lengths", "x"],
    "cubic-seed-d-perturb-x": ["twisted-cubic-tangents", "--seed", "7", "--d", "5", "--perturb", "x"],
    "cycle-t-empty": ["generic-cycle", "--t", ""],
    "bricard-height-nan": ["bricard-symmetric-six", "--height", "nan"],
    "arm-t-seed-negative": ["planar-arm", "--t", "1,1", "--seed", "-1"],
    # a chair whose directions overflow is refused when printed (exit 2), no axis built
    "chair-h-1e308": ["cyclohexane-panels", "--height", "1e308"],
    # t = 10^110 is finite, but its exact t^3 = 10^330 is past the float range the parser reads (exit 2)
    "cubic-t-1e110": ["twisted-cubic-tangents", "--t", "0,1,2,3,4,1e110"],
}

# hand-written scenarios: a generic end-point chain and a k=1 frame chain in R^3,
# a k=1 frame chain on five parallel axes whose end-frame map is singular (rank 3 of 5),
# and nine integer axes in R^4 with Plucker rank 9 of 10 and a big-integer conull
AXES = [
    {"origin": [0.1, -0.4, 0.7], "dirs": [[0.3, 0.9, -0.2]]},
    {"origin": [1.2, 0.5, -0.3], "dirs": [[-0.8, 0.1, 0.6]]},
    {"origin": [-0.6, 1.1, 0.2], "dirs": [[0.2, -0.5, 0.9]]},
    {"origin": [0.4, 0.3, 1.4], "dirs": [[0.7, 0.7, 0.1]]},
    {"origin": [-1.0, -0.2, 0.5], "dirs": [[0.1, 0.4, -0.9]]},
]
D4N9 = [
    ([7, 3, 0, -4], [[-4, -9, -8, -9], [-6, 6, 3, 8]]),
    ([0, 2, 9, 4], [[3, 1, 1, 8], [-4, 6, 3, -9]]),
    ([-2, 7, 1, -9], [[5, 4, 7, -6], [-8, 7, -9, 1]]),
    ([-8, -4, 0, -1], [[-2, -9, -9, -7], [-9, 3, 0, 3]]),
    ([-5, 2, 5, -2], [[-1, 9, 6, 9], [-2, 4, 9, 3]]),
    ([6, 4, 4, -2], [[7, -7, 1, 4], [7, 0, -2, -4]]),
    ([-1, 0, 4, 7], [[-8, 8, 1, -3], [3, 1, -5, -3]]),
    ([4, 2, 0, -3], [[5, -2, -3, 7], [-4, -5, 4, 2]]),
    ([-9, -8, -2, 6], [[-2, 5, -3, -5], [6, 7, -8, -8]]),
]
# twenty axes in R^6 with small integer coordinates and two a/b ones: Plucker rank 20 of
# 21, so every exact wedge has j=5 inputs in R^7, one with a denominator, and the exact
# functional has entries of 54 to 58 digits
_rng = random.Random(621)
D6N20 = [
    {"origin": [_rng.randint(-4, 4) for _ in range(6)],
     "dirs": [[_rng.randint(-4, 4) for _ in range(6)] for _ in range(4)]}
    for _ in range(20)
]
D6N20[0]["origin"][1] = "1/2"
D6N20[7]["dirs"][2][4] = "-3/7"
_rng = random.Random(622)
D6N21 = D6N20 + [{"origin": [_rng.randint(-4, 4) for _ in range(6)],
                  "dirs": [[_rng.randint(-4, 4) for _ in range(6)] for _ in range(4)]}]


def _plucker3(origin, u):
    a, b = [*origin, 1], [*u, 0]
    return [a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(4), 2)]


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


# six axes in R^3: five seeded integer ones and a sixth whose origin x-coordinate solves
# det = 0 mod 2^31 - 1 (the Plucker determinant is affine in it), so the determinant is a
# nonzero multiple of that prime: rank 5 modulo it, rank 6 over Q
_rng = random.Random(5)
MODP = [([_rng.randint(-9, 9) for _ in range(3)], [_rng.randint(-9, 9) for _ in range(3)])
        for _ in range(6)]
_P = (1 << 31) - 1
_rows = [_plucker3(o, u) for o, u in MODP[:5]]
_d0, _d1 = (int(_det(_rows + [_plucker3([x, *MODP[5][0][1:]], MODP[5][1])])) for x in (0, 1))
MODP[5][0][0] = -_d0 * pow(_d1 - _d0, -1, _P) % _P
# fixtures for branches of the batched exact wedge: j = 4 with a/b entries (d=5, 15 axes),
# j = 1 (d=2, four collinear points, one of them rational), a d=3 platform with one a/b
# coordinate, and a d=4 cycle with one coordinate of 2^20 + 1 whose axis has its other
# coordinates between 30 and 50 in size, so the product of that axis's row norms passes
# 2^31 and the minors are eliminated in Python ints
_rng = random.Random(623)
D5N15 = [{"origin": [_rng.randint(-9, 9) for _ in range(5)],
          "dirs": [[_rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]} for _ in range(15)]
D5N15[3]["dirs"][1][2] = "5/4"
D5N15[11]["origin"][0] = "-7/3"
_rng = random.Random(624)
D3_LEGS = [{"p": [_rng.randint(-9, 9) for _ in range(3)], "q": [_rng.randint(-9, 9) for _ in range(3)]}
           for _ in range(6)]
D3_LEGS[2]["q"][1] = "2/3"
_rng = random.Random(625)
D4_BIG = [{"origin": [_rng.randint(-9, 9) for _ in range(4)],
           "dirs": [[_rng.randint(-9, 9) for _ in range(4)] for _ in range(2)]} for _ in range(10)]
D4_BIG[4] = {"origin": [_rng.choice((-1, 1)) * _rng.randint(30, 50) for _ in range(4)],
             "dirs": [[2**20 + 1, *(_rng.choice((-1, 1)) * _rng.randint(30, 50) for _ in range(3))],
                      [_rng.choice((-1, 1)) * _rng.randint(30, 50) for _ in range(4)]]}
# twenty axes in R^6 with one coordinate of 2^31 + 11, past the int64 guard: Plucker
# rank 20 of 21 with a big-integer functional; and a d=2 platform whose first leg runs
# from 1/3 to 1/3 + 10^-20, distinct only as rationals
_rng = random.Random(626)
D6_BIG = [{"origin": [_rng.randint(-4, 4) for _ in range(6)],
           "dirs": [[_rng.randint(-4, 4) for _ in range(6)] for _ in range(4)]} for _ in range(20)]
D6_BIG[5]["dirs"][1][3] = 2**31 + 11
CLOSE_LEGS = [{"p": ["1/3", 0], "q": [f"{10**20 + 3}/{3 * 10**20}", 0]},
              {"p": [0, 1], "q": [0, 2]}, {"p": [1, 1], "q": [2, 3]}]
# seven axes in R^4 that all contain the direction (1, 2, 2, 0): every configuration of the
# chain is singular, so each verdict checks its witness line against every placed axis
_rng = random.Random(627)
PARALLEL4 = [{"origin": [round(_rng.uniform(-1, 1), 3) for _ in range(4)],
              "dirs": [[1, 2, 2, 0], [round(_rng.uniform(-1, 1), 3) for _ in range(4)]]} for _ in range(7)]
# frame chains off the k=1 path: d=5 with k=2 (three stabilizer points, their complement
# from the SVD of the frame) on thirteen axes, and d=4 with k=3 (no stabilizer rows) on ten
_rng = random.Random(628)
FRAME_CHAINS = {
    f"frame-d{d}k{k}": {
        "kind": "chain", "d": d,
        "axes": [{"origin": [round(_rng.uniform(-1, 1), 3) for _ in range(d)],
                  "dirs": [[round(_rng.uniform(-1, 1), 3) for _ in range(d)] for _ in range(d - 2)]}
                 for _ in range(n)],
        "end_frame": {"origin": [round(_rng.uniform(-1, 1), 3) for _ in range(d)],
                      "vecs": [[round(_rng.uniform(-1, 1), 3) for _ in range(d)] for _ in range(k)]},
    }
    for d, k, n in ((5, 2, 13), (4, 3, 10))
}
# a d=5 cycle of seven axes whose axis 2 is axis 1 with 1e-9 noise on its directions, through
# a point of axis 1: their window cuts a line, but one below the near-degenerate ratio
_rng = random.Random(632)
_AXES5 = [{"origin": [round(_rng.uniform(-1, 1), 3) for _ in range(5)],
           "dirs": [[round(_rng.uniform(-1, 1), 3) for _ in range(5)] for _ in range(3)]} for _ in range(6)]
_AXES5.insert(1, {"origin": [o + 0.7 * a - 0.3 * c for o, a, c in zip(_AXES5[0]["origin"], *_AXES5[0]["dirs"][::2])],
                  "dirs": [[x + 1e-9 * _rng.gauss(0, 1) for x in row] for row in _AXES5[0]["dirs"]]})
SCENARIOS = {
    **FRAME_CHAINS,
    "cycle-d5-near-degenerate": {"kind": "cycle", "d": 5, "axes": _AXES5},
    # finite axes near 1e308: at sweep seeds 2 and 3 a sample's frame rows are finite but
    # their singular values overflow
    "chain-overflow": {"kind": "chain", "d": 3,
                       "axes": [{"origin": [1e308, 0, 0], "dirs": [[0, 0, 1]]},
                                {"origin": [0, 1e308, 0], "dirs": [[1, 0, 0]]},
                                {"origin": [1, 2, 3], "dirs": [[1, 1, 0]]}],
                       "end_frame": {"origin": [1e308, -1e308, 5], "vecs": [[1, 0, 0]]}},
    "chain-parallel-d4": {"kind": "chain", "d": 4, "axes": PARALLEL4,
                          "end_frame": {"origin": [0.3, -0.7, 0.5, 0.2], "vecs": []}},
    "cycle-d6-big": {"kind": "cycle", "d": 6, "axes": D6_BIG},
    "platform-close": {"kind": "platform", "d": 2, "legs": CLOSE_LEGS},
    "cycle-d5-ab": {"kind": "cycle", "d": 5, "axes": D5N15},
    "cycle-d2-ab": {"kind": "cycle", "d": 2, "axes": [{"origin": o, "dirs": []}
                                                      for o in ([0, 0], ["1/2", 1], [1, 2], [-2, -4])]},
    "platform-d3": {"kind": "platform", "d": 3, "legs": D3_LEGS},
    "cycle-d4-big": {"kind": "cycle", "d": 4, "axes": D4_BIG},
    "chain-d3": {"kind": "chain", "d": 3, "axes": AXES[:4],
                 "end_frame": {"origin": [1.5, -0.2, 0.9], "vecs": []}},
    "frame-k1": {"kind": "chain", "d": 3, "axes": AXES,
                 "end_frame": {"origin": [1.5, -0.2, 0.9], "vecs": [["3/5", "4/5", 0]]}},
    "frame-singular": {"kind": "chain", "d": 3,
                       "axes": [{"origin": [x, y, 0], "dirs": [[0, 0, 1]]}
                                for x, y in ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2))],
                       "end_frame": {"origin": [3, 3, 1], "vecs": [[1, 0, 0]]}},
    "cycle-d4n9": {"kind": "cycle", "d": 4,
                   "axes": [{"origin": origin, "dirs": dirs} for origin, dirs in D4N9]},
    # axis i's origin scaled by 10^(20 i): finite coordinates, an exact functional past 2^1024
    "cycle-d4n9-wide": {"kind": "cycle", "d": 4, "axes": [
        {"origin": [x * 10 ** (20 * i) for x in origin], "dirs": dirs} for i, (origin, dirs) in enumerate(D4N9)]},
    "cycle-d6n20": {"kind": "cycle", "d": 6, "axes": D6N20},
    "cycle-d6n21": {"kind": "cycle", "d": 6, "axes": D6N21},
    "cycle-modp": {"kind": "cycle", "d": 3,
                   "axes": [{"origin": origin, "dirs": [u]} for origin, u in MODP]},
    # two coincident axes: a flex about their common line, but too short for a linkage
    "cycle-coincident": {"kind": "cycle", "d": 3, "axes": [{"origin": [0, 0, 0], "dirs": [[0, 0, 1]]}] * 2},
}

# malformed scenario files, each run through the analyze command of its kind: one per
# schema message, top-level keys that the kind does not read, then degenerate directions
_AXIS = {"origin": [0, 0, 0], "dirs": [[0, 0, 1]]}
_TWO = [_AXIS, {"origin": [1, 0, 0], "dirs": [[0, 1, 0]]}]
_CYCLE = {"kind": "cycle", "d": 3, "axes": _TWO}
_CHAIN = {"kind": "chain", "d": 3, "axes": _TWO[:1], "end_frame": {"origin": [1, 1, 1], "vecs": []}}
_PLATFORM = {"kind": "platform", "d": 2,
             "legs": [{"p": [1, 0], "q": [2, 0]}, {"p": [0, 1], "q": [0, 3]}, {"p": [1, 1], "q": [2, 2]}]}
_PLANE4, _DEPENDENT4 = [[0, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 0], [2, 0, 0, 0]]
_HUGE4 = [[1e308] * 4, [1e308, -1e308, 1e308, -1e308]]


def _cycle4(*dirs):
    return {"kind": "cycle", "d": 4, "axes": [{"origin": [i, 0, 0, 0], "dirs": rows} for i, rows in enumerate(dirs)]}


MALFORMED = {
    "bad-boolean": dict(_CYCLE, axes=[dict(_AXIS, origin=[0, True, 0]), _TWO[1]]),
    "bad-null": dict(_CYCLE, axes=[dict(_AXIS, origin=[0, None, 0]), _TWO[1]]),
    "bad-vector": dict(_CYCLE, axes=[dict(_AXIS, origin="0,0,0"), _TWO[1]]),
    "bad-rows": dict(_CYCLE, axes=[dict(_AXIS, dirs="z"), _TWO[1]]),
    "bad-entry": dict(_CYCLE, axes=[[0, 0, 0], _TWO[1]]),
    "bad-entry-key": dict(_CYCLE, axes=[dict(_AXIS, normal=[0, 0, 1]), _TWO[1]]),
    "bad-origin": dict(_CYCLE, axes=[{"dirs": [[0, 0, 1]]}, _TWO[1]]),
    "bad-top": [],
    "bad-kind": dict(_CYCLE, kind="loop"),
    "bad-d": dict(_CYCLE, d=1),
    "bad-panel": dict(_CYCLE, panel=1),
    "bad-dirs": dict(_CYCLE, axes=[dict(_AXIS, dirs=[]), _TWO[1]]),
    "bad-one-axis": dict(_CYCLE, axes=_TWO[:1]),
    "bad-vecs": dict(_CHAIN, end_frame={"origin": [1, 1, 1], "vecs": [[1, 0, 0]] * 4}),
    "bad-legs": dict(_PLATFORM, legs={}),
    "bad-leg": dict(_PLATFORM, legs=[[[0, 0], [1, 0]]]),
    "unknown-cycle": dict(_CYCLE, tolerance=1e-3, pannel=True, end_frame=_CHAIN["end_frame"]),
    "unknown-chain": dict(_CHAIN, legs=[]),
    "unknown-platform-panel": dict(_PLATFORM, panel=False),
    "unknown-platform-axes": dict(_PLATFORM, axes=_TWO),
    "dependent-axis": _cycle4(_PLANE4, _DEPENDENT4, _PLANE4),
    "huge-then-dependent": _cycle4(_HUGE4, _DEPENDENT4, _PLANE4),
    "dependent-then-huge": _cycle4(_DEPENDENT4, _HUGE4, _PLANE4),
    # values the stacked read of the axes hands to the per-number parser
    "bad-nan": dict(_CYCLE, axes=[dict(_AXIS, origin=[0, float("nan"), 0]), _TWO[1]]),
    "bad-boolean-dirs": dict(_CYCLE, axes=[dict(_AXIS, dirs=[[0, False, 1]]), _TWO[1]]),
    "bad-huge-int": dict(_CYCLE, axes=[dict(_AXIS, origin=[0, 10**400, 0]), _TWO[1]]),
}
SCENARIOS.update(MALFORMED)
# the integer cycle in R^4 with one origin coordinate set to 2^63, past int64, or to the float 0.5
for tag, at, value in (("cycle-d4n9-2e63", 4, 2**63), ("cycle-d4n9-float", 6, 0.5)):
    SCENARIOS[tag] = {"kind": "cycle", "d": 4, "axes": [
        {"origin": [value, *origin[1:]] if i == at else origin, "dirs": dirs} for i, (origin, dirs) in enumerate(D4N9)]}
_ANALYZE = {"chain": "analyze-chain", "cycle": "analyze-cycle", "platform": "analyze-platform"}

RUNS = [
    ["analyze-chain", "{arm}"], ["analyze-chain", "{arm}", "--json"],
    ["analyze-chain", "{arm-l}", "--json"], ["analyze-chain", "{chain-d3}"],
    ["analyze-chain", "{chain-d3}", "--json", "--tol", "1e-6"],
    ["analyze-chain", "{frame-k1}"], ["analyze-chain", "{frame-k1}", "--json"],
    ["analyze-chain", "{frame-singular}"], ["analyze-chain", "{frame-singular}", "--json"],
    ["analyze-chain", "{chair}"], ["analyze-chain", "{cycle}", "--json"],
    ["analyze-cycle", "{cubic}"], ["analyze-cycle", "{cubic}", "--exact"],
    ["analyze-cycle", "{cubic}", "--json", "--exact"],
    ["analyze-cycle", "{cubic-t}", "--json", "--exact"],
    ["analyze-cycle", "{bricard}", "--exact"], ["analyze-cycle", "{bricard-4}", "--json", "--exact"],
    ["analyze-cycle", "{chair}", "--json"], ["analyze-cycle", "{chair-h}"],
    ["analyze-cycle", "{cycle}"], ["analyze-cycle", "{cycle-d4}", "--json"],
    ["analyze-cycle", "{cycle-d4n9}", "--exact"], ["analyze-cycle", "{cycle-d4n9}", "--exact", "--json"],
    ["analyze-cycle", "{cycle-d6n20}", "--exact"], ["analyze-cycle", "{cycle-d6n20}", "--exact", "--json"],
    ["analyze-cycle", "{cycle-d6n21}", "--exact"], ["analyze-cycle", "{cycle-d6n21}", "--exact", "--json"],
    ["analyze-cycle", "{cycle-modp}", "--exact"], ["analyze-cycle", "{cycle-modp}", "--exact", "--json"],
    ["analyze-cycle", "{cycle-d2}", "--json"], ["analyze-cycle", "{cycle}", "--exact"],
    # the largest stacked float determinant: 28 axes of R^7, each a batch of 28 minors of 6 x 6
    ["analyze-cycle", "{cycle-d7n28}"], ["analyze-cycle", "{cycle-d7n28}", "--json"],
    *([_ANALYZE[SCENARIOS[tag]["kind"]], f"{{{tag}}}", "--exact", *flag]
      for tag in ("cycle-d5-ab", "cycle-d2-ab", "platform-d3", "cycle-d4-big") for flag in ([], ["--json"])),
    ["analyze-cycle", "{cycle-d6-big}", "--exact", "--json"], ["analyze-platform", "{platform-close}", "--exact"],
    ["analyze-cycle", "{cycle-d4n9-wide}", "--exact"], ["analyze-cycle", "{cycle-d4n9-wide}", "--exact", "--json"],
    ["analyze-cycle", "{cycle-n5}"], ["analyze-cycle", "{cycle-n5}", "--json"], ["flex", "{cycle-n5}"],
    ["analyze-platform", "{desargues}"], ["analyze-platform", "{desargues}", "--exact"],
    ["analyze-platform", "{desargues}", "--json", "--exact"],
    ["analyze-platform", "{desargues-p}", "--json", "--exact"],
    ["convert-linkage", "{cycle}"], ["convert-linkage", "{cycle-d4}", "--json"],
    ["convert-linkage", "{bricard}", "--json"],
    # generic d=6 cycles of 12 axes, seeds 0 and 1; the product-of-edge-lengths
    # collapse rule refused seed 1, the singular value rule builds it
    ["convert-linkage", "{cycle-d6n12}"], ["convert-linkage", "{cycle-d6n12}", "--json"],
    ["convert-linkage", "{cycle-d6n12-1}"], ["convert-linkage", "{cycle-d6n12-1}", "--json"],
    *(["convert-linkage", f"{{{tag}}}", *flag]
      for tag in ("cycle-d2", "cycle-d2n2", "cycle-d5n10", "cycle-d5n4") for flag in ([], ["--json"])),
    ["flex", "{cycle}", "--json"], ["flex", "{cycle}", "--csv", "{out}/flex-cycle.csv"],
    ["flex", "{cycle-5}", "--steps", "4", "--step-size", "0.05"],
    ["flex", "{cycle-d4}", "--json", "--steps", "3"], ["flex", "{bricard}", "--json", "--steps", "3"],
    # line windows (d=5) and plane windows (d=6) stacked over several configurations
    ["flex", "{cycle-d5n10}", "--json", "--steps", "4"], ["flex", "{cycle-d6n12}", "--json", "--steps", "3"],
    ["flex", "{chair}", "--json", "--steps", "3"], ["flex", "{cycle}", "--json", "--steps", "0"],
    ["flex", "{bricard-11}", "--steps", "10"], ["flex", "{bricard-11}", "--json", "--steps", "10"],
    # --json next to --csv: the CSV file is written first, then the JSON document printed
    ["flex", "{cycle}", "--json", "--csv", "{out}/flex-cycle-json.csv"],
    # the linkage drift is unavailable: one stderr line, exit 0
    ["flex", "{cycle-coincident}", "--steps", "2"], ["flex", "{cycle-coincident}", "--json", "--steps", "2"],
    ["sweep", "{arm}", "--samples", "20", "--seed", "3", "--csv", "{out}/sweep-arm.csv"],
    ["sweep", "{arm-l}", "--samples", "10", "--json"],
    ["sweep", "{chain-d3}", "--samples", "15", "--seed", "2"],
    ["sweep", "{chain-d3}", "--samples", "15", "--seed", "2", "--json", "--csv", "{out}/sweep-chain-d3-json.csv"],
    ["sweep", "{cycle}", "--samples", "10", "--csv", "{out}/sweep-cycle.csv"],
    ["sweep", "{frame-k1}", "--samples", "10", "--seed", "9", "--csv", "{out}/sweep-frame.csv"],
    ["sweep", "{frame-k1}", "--samples", "6", "--workers", "2"],
    ["sweep", "{frame-singular}", "--samples", "3"],
    *(run for tag in FRAME_CHAINS for run in (
        ["analyze-chain", f"{{{tag}}}", "--json"],
        ["sweep", f"{{{tag}}}", "--samples", "12", "--seed", "5", "--csv", f"{{out}}/sweep-{tag}.csv"])),
    ["analyze-chain", "{chain-parallel-d4}"], ["analyze-chain", "{chain-parallel-d4}", "--json"],
    ["sweep", "{chain-parallel-d4}", "--samples", "25", "--seed", "4", "--csv", "{out}/sweep-parallel.csv"],
    # sample counts that cross the 64-sample blocks of the stacked sweep
    ["sweep", "{chain-parallel-d4}", "--samples", "150", "--csv", "{out}/sweep-parallel-150.csv"],
    ["sweep", "{frame-k1}", "--samples", "130", "--seed", "9", "--csv", "{out}/sweep-frame-130.csv"],
    ["sweep", "{arm}", "--samples", "200", "--json"],
    # d = 2 axes have no direction rows; every sample of the one-joint arm runs the witness check
    ["sweep", "{arm-1}", "--samples", "70", "--json"],
    # 65 samples: one 64-sample block placed by the stacked kernel, then one sample placed alone
    ["sweep", "{frame-k1}", "--samples", "65", "--seed", "9", "--csv", "{out}/sweep-frame-65.csv"],
    ["sweep", "{chain-parallel-d4}", "--samples", "65", "--seed", "6", "--csv", "{out}/sweep-parallel-65.csv"],
    # seeds of two 32-bit words (2^62) and of five (2^128 + 1), whose entropy with i outruns the
    # four-word pool of the streams' seed hash
    ["sweep", "{chain-d3}", "--samples", "70", "--seed", "4611686018427387904", "--csv", "{out}/sweep-chain-d3-2e62.csv"],
    ["sweep", "{frame-k1}", "--samples", "12", "--seed", "340282366920938463463374607431768211457"],
    ["sweep", "{chain-parallel-d4}", "--samples", "70", "--seed", "340282366920938463463374607431768211457", "--json"],
    # singular values that overflow from finite rows, and a near-degenerate line window
    *(["sweep", "{chain-overflow}", "--samples", "5", "--seed", seed] for seed in ("2", "3")),
    ["convert-linkage", "{cycle-d5-near-degenerate}"], ["convert-linkage", "{cycle-d5-near-degenerate}", "--json"],
    # error paths: the hidden --exact of analyze-chain, a scenario kind the command refuses,
    # and a cycle too short to partition
    ["analyze-chain", "{arm}", "--exact"], ["analyze-chain", "{desargues}"], ["analyze-cycle", "{arm}"], ["analyze-platform", "{cycle}"],
    ["convert-linkage", "{desargues}"], ["flex", "{chain-d3}"], ["sweep", "{desargues}"],
    # a flex step that is not a finite number, refused before anything is placed
    ["flex", "{cycle}", "--step-size", "nan"], ["flex", "{cycle}", "--step-size", "inf"],
    # the same with 0 steps, which never reach flex_cycle; and a tolerance that cuts the stabilizer
    ["flex", "{cycle}", "--json", "--steps", "0", "--step-size", "nan"],
    ["flex", "{cycle}", "--json", "--steps", "0", "--step-size", "inf"],
    ["analyze-chain", "{cycle}", "--tol", "0.5"], ["sweep", "{cycle}", "--samples", "2", "--tol", "0.5"],
    ["convert-linkage", "{cycle-d4n3}"], ["convert-linkage", "{cycle-d4n3}", "--json"],
    *([_ANALYZE.get(doc["kind"] if isinstance(doc, dict) else "", "analyze-cycle"), f"{{{tag}}}"]
      for tag, doc in MALFORMED.items()),
    # a tolerance that cuts every singular value
    ["analyze-cycle", "{cycle}", "--tol", "0.5"], ["analyze-platform", "{desargues}", "--tol", "10"],
    ["analyze-chain", "{arm}", "--tol", "0.5"], ["sweep", "{arm}", "--samples", "2", "--tol", "0.5"],
    # the boundary of the stacked read: malformed values, an int past int64, a float under --exact
    *(["analyze-cycle", "{bad-nan}", "--exact", "--json"], ["analyze-cycle", "{bad-boolean-dirs}", "--exact", "--json"],
      ["analyze-cycle", "{bad-huge-int}", "--exact", "--json"]),
    *(["analyze-cycle", f"{{{tag}}}", *flags]
      for tag in ("cycle-d4n9-2e63", "cycle-d4n9-float") for flags in ([], ["--exact", "--json"])),
]


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
# A differing number below this magnitude on both sides is rounding-level noise
# (closure residuals, near-zero singular values); elsewhere a relative gap above
# REL_BOUND is a real numeric change.
MAGNITUDE_FLOOR = Fraction(1, 10**12)
REL_BOUND = Fraction(1, 10**9)


def numeric_gap(a: str, b: str) -> tuple[int, int, int, float] | None:
    """How a and b differ if only their numbers do, else None.

    Returns (differing numbers, those below MAGNITUDE_FLOOR on both sides,
    those above it whose relative gap exceeds REL_BOUND, the largest
    relative gap of any differing number above it).
    """
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return None
    differ = tiny = beyond = 0
    worst = Fraction(0)
    # exact decimal values, so a big integer printed as a rounded float shows its gap
    for x, y in zip(map(Fraction, pa[1::2]), map(Fraction, pb[1::2])):
        if x == y:
            continue
        differ += 1
        size = max(abs(x), abs(y))
        rel = abs(x - y) / size
        if size < MAGNITUDE_FLOOR:
            tiny += 1
            continue
        beyond += rel > REL_BOUND
        worst = max(worst, rel)
    return differ, tiny, beyond, float(worst)


def _describe(theirs, ours) -> str:
    gap = numeric_gap(*(json.dumps(res, sort_keys=True, ensure_ascii=False) for res in (theirs, ours)))
    if gap is None:
        return "text differs, not only numbers"
    differ, tiny, beyond, worst = gap
    return (
        f"only numbers differ: {differ} of them, {tiny} below magnitude {float(MAGNITUDE_FLOOR):g}, "
        f"{beyond} beyond relative {float(REL_BOUND):g}, largest relative gap above the floor {worst:.3g}"
    )


def _run_one(run, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:  # a traceback is an outcome worth comparing too
            code = f"raised {type(exc).__name__}: {exc}"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def worker(work: Path) -> None:
    """Run every invocation with the hingekit found first on sys.path."""
    from hingekit.cli import run

    files = {"out": str(work)}
    results = {}
    for tag, argv in EXAMPLES.items():
        res = results[f"example {' '.join(argv)}"] = _run_one(run, ["example", *argv])
        path = work / f"{tag}.json"
        path.write_text(res["stdout"])
        files[tag] = str(path)
    for tag, doc in SCENARIOS.items():
        path = work / f"{tag}.json"
        path.write_text(json.dumps(doc))
        files[tag] = str(path)
    for argv in RUNS:
        key = " ".join(argv)
        results[key] = _run_one(run, [a.format(**files) if "{" in a else a for a in argv])
    for csv in sorted(work.glob("*.csv")):
        results[f"file {csv.name}"] = {"bytes": csv.read_text()}
    json.dump(results, sys.stdout)


def _side(src: Path, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    work.mkdir()
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(work)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        worker(args.worker)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.rev, "src"],
            capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        ours = _side(ROOT / "src", tmp / "ours")
        theirs = _side(tmp / "ref" / "src", tmp / "theirs")
        lines = {side: sum(len(f.read_text().splitlines()) for f in (src / "hingekit").glob("*.py"))
                 for side, src in ((args.rev, tmp / "ref" / "src"), ("here", ROOT / "src"))}
    differ = [key for key in sorted(set(ours) | set(theirs)) if ours.get(key) != theirs.get(key)]
    for key in differ:
        print(
            f"DIFFERS: {key} ({_describe(theirs.get(key), ours.get(key))})\n"
            f"  {args.rev}: {theirs.get(key)!r:.300}\n  here: {ours.get(key)!r:.300}"
        )
    print(f"{len(ours) - len(differ)} of {len(ours)} outputs identical to {args.rev}")
    print("lines of src/hingekit/*.py: " + ", ".join(f"{side} {n}" for side, n in lines.items()))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
