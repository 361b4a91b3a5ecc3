"""Seeded random fixtures: axes, frames, chains, cycles and singular poses.

Everything takes a numpy Generator so callers control determinism; the
one-stop ``rng_from(seed, *key)`` builds a stream from a seed plus an
optional splitting key, which keeps parallel sweeps reproducible.
"""

from __future__ import annotations

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


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """PCG64 stream for (seed, key...): per-index streams never overlap; seed must be >= 0."""
    if int(seed) < 0:
        raise DefinitionError(f"a seed must be an integer >= 0, got {seed}")
    return np.random.default_rng([int(seed), *map(int, key)] if key else int(seed))


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
