"""Seeded random fixtures: axes, frames, chains, cycles and singular poses.

Everything takes a numpy Generator so callers control determinism; the
one-stop ``rng_from(seed, *key)`` builds a stream from a seed plus an
optional splitting key. Sweep sample i reads only the stream (seed, i),
which ``_uniform_block`` draws a block at a time, bit for bit.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .chain import Chain, cycle_chain
from .errors import DefinitionError, DimensionError
from .geometry import Axis, Frame, make_axis, make_frame

__all__ = [
    "rng_from",
    "random_axis",
    "random_frame",
    "random_chain",
    "random_cycle",
    "singular_endpoint_chain",
    "parallel_axes_chain",
    "random_platform_legs",
    "common_line_platform_legs",
]


def _seed(seed: int) -> int:
    if int(seed) < 0:
        raise DefinitionError(f"a seed must be an integer >= 0, got {seed}")
    return int(seed)


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """PCG64 stream for (seed, key...): per-index streams never overlap; seed must be >= 0."""
    return np.random.default_rng([_seed(seed), *map(int, key)] if key else _seed(seed))


_MASK, _PCG_MULT = 0xFFFFFFFF, 0x2360ED051FC65DA44385DF649FCCF645


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """c_0..c_count, c_0 = init and c_t+1 = c_t mult mod 2^32: hash call t xors c_t, then multiplies by c_t+1."""
    return np.array(list(accumulate(range(count), lambda c, _: c * mult & _MASK, initial=init)), np.uint32)


_STATE = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
# cross-mix stage s hashes pool word s into the other three: (xor, multiply) constants per word, 0 at s
_CROSS = [[np.insert(_hash_consts(0x43B0D7E5, 0x931E8875, 16)[4 + 3 * s + j:7 + 3 * s + j], s, 0) for j in (0, 1)]
          for s in range(4)]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    x = 0xCA01F9DD * x - 0x4973F715 * y
    return x ^ x >> 16


@lru_cache(maxsize=None)
def _jump(m: int) -> np.ndarray:
    """The (17, 4m) limb matrix of PCG64's first m draws. Seeded with (s, seq), draw k reads the state X_k = A_k s +
    B_k (2 seq + 1) mod 2^128, A_k = M^(k+1) and B_k = 1 + M + ... + M^(k+1). Row r < 16 takes 16-bit limb r of the 8
    generated uint32 words (s's are 2, 3, 0, 1 and seq's 6, 7, 4, 5, least significant first), row 16 a constant 1.
    Column (j, k) is 32-bit word j of X_k, so every entry of the product is an integer below 2^53."""
    ab = [(pow(_PCG_MULT, k + 1, 2**128), sum(pow(_PCG_MULT, j, 2**128) for j in range(k + 2))) for k in range(1, m + 1)]
    rows = [[(a if c < 4 else 2 * b) << [64, 96, 0, 32][c % 4] + 16 * h for a, b in ab] for c in range(8) for h in (0, 1)]
    rows.append([b for _, b in ab])
    return np.array([[x % 2**128 >> 32 * j & _MASK for j in range(4) for x in row] for row in rows], float)


def _uniform_block(seed: int, start: int, stop: int, m: int) -> np.ndarray:
    """The (stop - start, m) angles ``rng_from(seed, i).uniform(0.0, 2 pi, m)`` for i in range(start, stop), byte for
    byte, in one vectorized pass: numpy's SeedSequence hash on the block's (S, 4) pools, then PCG64 (O'Neill, 2014)
    states by jump-ahead and its XSL-RR output, from their published descriptions."""
    cut = (start >> 32) + 1 << 32  # i's upper words change here, so each side has one entropy length
    if cut < stop:
        return np.concatenate([_uniform_block(seed, start, cut, m), _uniform_block(seed, cut, stop, m)])
    q, r = divmod(start, 1 << 32)
    # the entropy words of [seed, i]: each int's 32-bit words, least significant first ([0] for 0); i's lowest varies
    head, high = ([x >> s & _MASK for s in range(0, max(x.bit_length(), 1), 32)] for x in (_seed(seed), q))
    words = head + [0] + (high if q else [])
    entropy = np.tile(np.array(words + [0] * (4 - len(words)), np.uint32), (stop - start, 1))
    entropy[:, len(head)] = np.arange(r, r + stop - start, dtype=np.uint32)
    c = _hash_consts(0x43B0D7E5, 0x931E8875, 4 * entropy.shape[1])
    pool = _hashmix(entropy[:, :4], c[:4], c[1:5])
    for s in range(4):
        mixed = _mix(pool, _hashmix(pool[:, s, None], *_CROSS[s]))
        mixed[:, s] = pool[:, s]
        pool = mixed
    for p in range(4, entropy.shape[1]):  # entropy past the pool mixes into every pool word
        pool = _mix(pool, _hashmix(entropy[:, p, None], c[4 * p:4 * p + 4], c[4 * p + 1:4 * p + 5]))
    state, jump = _hashmix(np.tile(pool, 2), _STATE[:8], _STATE[1:]), _jump(m)  # generate_state(4, uint64)
    w = (np.asarray(state, "<u4").view("<u2") @ jump[:16] + jump[16]).astype(np.uint64).reshape(-1, 4, m)
    lo = w[:, 0] + (w[:, 1] << 32)
    hi = w[:, 2] + (w[:, 3] << 32) + (w[:, 1] + (w[:, 0] >> 32) >> 32)  # the carry out of the low 64 bits
    x, rot = hi ^ lo, hi >> 58
    return ((x >> rot | x << (64 - rot & 63)) >> 11) * (2.0 * np.pi * 2.0**-53)


def random_axis(rng: np.random.Generator, d: int) -> Axis:
    if d < 2:
        raise DimensionError("axes need ambient dimension >= 2")
    return make_axis(d, rng.uniform(-1.5, 1.5, d), rng.standard_normal((d - 2, d)))


def random_frame(rng: np.random.Generator, d: int, k: int) -> Frame:
    return make_frame(d, rng.uniform(-1.5, 1.5, d), rng.standard_normal((k, d)))


def random_chain(rng: np.random.Generator, d: int, n: int, k: int = 0) -> Chain:
    """Generic chain of n bodies with a k-frame marker on the last one."""
    if n < 2:
        raise DefinitionError("a chain needs at least one hinge (n >= 2 bodies)")
    axes = tuple(random_axis(rng, d) for _ in range(n - 1))
    while True:
        frame = random_frame(rng, d, k)
        try:
            return Chain(d, axes, frame)
        except DefinitionError:
            continue  # frame landed on the last axis; resample


def random_cycle(rng: np.random.Generator, d: int, n: int) -> Chain:
    """Generic closed cycle of n axes, cut at the last one."""
    if n < 2:
        raise DefinitionError("a cycle needs at least two axes")
    while True:
        axes = [random_axis(rng, d) for _ in range(n)]
        try:
            return cycle_chain(axes)
        except DefinitionError:
            continue


def singular_endpoint_chain(
    rng: np.random.Generator, d: int, n: int, parallel_fraction: float = 0.3
) -> Chain:
    """Chain whose reference pose threads one line through the end-point
    and across every axis (meeting it, or running parallel to it)."""
    anchor = rng.uniform(-1.0, 1.0, d)
    w = _unit(rng, d)
    endpoint = anchor + rng.uniform(0.5, 1.5) * w
    axes = []
    for _ in range(n - 1):
        if d >= 3 and rng.uniform() < parallel_fraction:
            # keep w inside the direction span: incidence at infinity
            extra = rng.standard_normal((d - 3, d))
            axes.append(make_axis(d, rng.uniform(-1.0, 1.0, d), np.vstack([w[None, :], extra])))
        else:
            through = anchor + rng.uniform(-1.5, 1.5) * w
            axes.append(make_axis(d, through, rng.standard_normal((d - 2, d))))
    return Chain(d, tuple(axes), Frame(d, endpoint, np.zeros((0, d))))


def parallel_axes_chain(rng: np.random.Generator, d: int, n: int) -> Chain:
    """All axes share one direction, so every configuration is singular."""
    if d < 3:
        raise DimensionError("parallel axes need ambient dimension >= 3: an axis of R^2 is a point")
    w = _unit(rng, d)
    axes = []
    for _ in range(n - 1):
        extra = rng.standard_normal((d - 3, d))
        axes.append(make_axis(d, rng.uniform(-1.0, 1.0, d), np.vstack([w[None, :], extra])))
    endpoint = rng.uniform(-1.0, 1.0, d)
    return Chain(d, tuple(axes), Frame(d, endpoint, np.zeros((0, d))))


def random_platform_legs(rng: np.random.Generator, d: int, count: int) -> list[tuple[tuple, tuple]]:
    legs = []
    for _ in range(count):
        p = rng.uniform(-1.0, 1.0, d)
        q = p + rng.uniform(0.5, 1.5) * _unit(rng, d)
        legs.append((tuple(p), tuple(q)))
    return legs


def common_line_platform_legs(
    rng: np.random.Generator, d: int, count: int
) -> list[tuple[tuple, tuple]]:
    """Leg lines all crossing one fixed line, hence a dependent line system."""
    anchor = rng.uniform(-1.0, 1.0, d)
    w = _unit(rng, d)
    legs = []
    for _ in range(count):
        crossing = anchor + rng.uniform(-1.5, 1.5) * w
        v = _unit(rng, d)
        a = rng.uniform(0.3, 1.2)
        b = -rng.uniform(0.3, 1.2)
        legs.append((tuple(crossing + a * v), tuple(crossing + b * v)))
    return legs


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)
