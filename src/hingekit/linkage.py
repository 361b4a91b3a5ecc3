"""Canonical conversion of generic hinged cycles into bar-joint linkages.

For a generic n-cycle in R^d (d >= 3, n > 2 floor(d/2)) the construction
yields 2n vertices and (2d - 1) n edges, the 1-skeleton of n d-simplices
glued in a ring, consecutive ones sharing a (d-2)-face. Odd d places two
perpendicular feet on each line cut out by k = (d-1)/2 consecutive axes;
even d pairs each point cut out by k = d/2 consecutive axes with the
orthogonal projection of its successor onto the previous (k-1)-fold
intersection plane. d = 2 gives the polygon: n vertices, n edges.

Vertex 2i + r is role r (0: foot- or p, 1: foot+ or q) on support i + 1;
for d = 2 vertex i is p(i+1). Vertex and edge orders are numeric, and
``_table`` alone writes the labels, whose provenance (support index plus
role) makes linkages of one cycle comparable edge by edge.
All indices are cyclic mod n; labels are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import NamedTuple

import numpy as np

from .chain import Chain, _cycle_stacks, cycle_axes_at
from .errors import (
    DegenerateGeometryError,
    DegenerateSimplexError,
    DimensionError,
    GenericityError,
    HingekitError,
    ProvenanceError,
)
from .exterior import NON_FINITE, numeric_rank
from .geometry import AffineSubspace, _eye, affine_intersection

__all__ = [
    "Linkage",
    "ModuliPartition",
    "cycle_to_linkage",
    "moduli_invariants",
    "check_linkage_invariance",
    "simplex_orientations",
    "linkage_at",
]


@dataclass(frozen=True)
class Linkage:
    """Weighted graph with a canonical realization attached.

    ``vertices`` maps labels to realized coordinates; ``edges`` are
    (label_a, label_b, length) with deterministic endpoint and list
    ordering. The simplicial structure is recoverable from (d, n) alone,
    see :meth:`simplices`.
    """

    d: int
    n: int
    vertices: tuple[tuple[str, tuple[float, ...]], ...]
    edges: tuple[tuple[str, str, float], ...]

    def vertex_map(self) -> dict[str, np.ndarray]:
        return {label: np.array(coords) for label, coords in self.vertices}

    def simplices(self) -> tuple[tuple[str, ...], ...]:
        """Vertex labels of each body simplex, in a fixed window order."""
        return _table(self.d, self.n).labelled_simplices


class _Table(NamedTuple):
    """The bookkeeping of the canonical linkage that depends only on (d, n)."""

    labels: tuple[str, ...]  # the label of each vertex number
    simplices: tuple[tuple[int, ...], ...]  # vertex numbers of each body simplex
    labelled_simplices: tuple[tuple[str, ...], ...]
    edge_order: tuple[tuple[int, int], ...]  # sorted pairs (a < b) of the simplex edges or polygon sides
    dependent: tuple[tuple[int, int], ...]  # sorted pairs of the right-angle edges, see moduli_invariants
    edge_index: np.ndarray  # edge_order as a read-only (E, 2) array
    simplex_index: np.ndarray  # simplices as a read-only (n, d + 1) array


@lru_cache(maxsize=64)  # one entry per (d, n) in use
def _table(d: int, n: int) -> _Table:
    """The labels, body simplices, edges and right-angle edges of an n-cycle's linkage in R^d."""
    roles = ("p",) if d == 2 else ("foot-", "foot+") if d % 2 else ("p", "q")
    labels = tuple(f"{role}{i + 1}" for i in range(n) for role in roles)
    simplices, dependent = [], []
    if d == 2:
        edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    else:
        k = d // 2
        for body in range(n):
            window = [(body - k + 1 + t) % n for t in range(k + 1)]
            if d % 2:
                simplices.append(tuple(2 * i + r for i in window for r in (0, 1)))
            else:
                simplices.append(tuple([2 * i for i in window] + [2 * i + 1 for i in window[1:]]))
        edges = sorted({pair for simplex in simplices for pair in combinations(sorted(simplex), 2)})
        if d % 2:
            pairs = [(2 * i + r, 2 * ((i + 1) % n) + r) for i in range(n) for r in (0, 1)]
        else:
            pairs = [(2 * h, 2 * ((i + 1) % n)) for i in range(n) for h in (i, (i - 1) % n)]
        dependent = sorted({tuple(sorted(pair)) for pair in pairs})
    arrays = np.array(edges, dtype=np.intp), np.array(simplices, dtype=np.intp)
    for a in arrays:
        a.setflags(write=False)
    labelled = tuple(tuple(labels[v] for v in simplex) for simplex in simplices)
    return _Table(labels, tuple(simplices), labelled, tuple(edges), tuple(dependent), *arrays)


@dataclass(frozen=True)
class ModuliPartition:
    """Edge lengths split into free invariants and right-angle-determined ones."""

    independent: tuple[tuple[str, str, float], ...]
    dependent: tuple[tuple[str, str, float], ...]
    note: str


# Configurations per kernel call. A full SVD keeps (k·d)² floats of ``u``
# per window, so peak memory is bounded by this, not by the path length.
_BLOCK = 64


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, by the arithmetic of ``np.linalg.norm`` on one vector."""
    return np.sqrt(np.vecdot(v, v))


def _project(points, origins, dirs):
    """Orthogonal projections of points onto flats, by the arithmetic of ``project_affine``."""
    return origins + (dirs.swapaxes(-1, -2) @ (dirs @ (points - origins)[..., None]))[..., 0]


def _window_error(origins, dirs, start: int, count: int, what: str) -> HingekitError:
    """The error of the window of ``count`` axes from ``start`` of one configuration.

    The window is cut again by ``affine_intersection``, the per-window rule the stacked
    cut repeats, to tell an empty cut, one of the wrong dimension and a near-degenerate
    one apart; a non-finite window gives its DegenerateGeometryError.
    """
    n, d = origins.shape
    window = [AffineSubspace(d, origins[(start + t) % n], dirs[(start + t) % n]) for t in range(count)]
    try:
        flat = affine_intersection(window)
    except DegenerateGeometryError as exc:
        return exc
    got = "empty" if flat is None else f"dimension {flat.flat_dim}"
    if flat is not None and flat.flat_dim == ("point", "line", "plane").index(what):
        got = f"a near-degenerate {what} (singular value ratio below 1e-10)"
    return GenericityError(
        f"axes {start + 1}..{(start + count - 1) % n + 1} (cyclic) should cut a {what}, got {got}"
    )


def _cut(normals, rhs, count: int, want_dim: int):
    """The flats cut by every window of ``count`` consecutive axes of C configurations.

    ``normals`` (C, n, d, d) holds each axis's normal projector I - DᵀD and
    ``rhs`` (C, n, d) the projected origins. Every window goes into one
    stacked ``numeric_rank`` and gets the rule of ``affine_intersection``: the
    rank at machine epsilon, the near-degenerate test and the residual test.
    Returns the flat origins (C, n, d), directions (C, n, want_dim, d) and the
    windows that are not a clean flat of ``want_dim`` (C, n).
    """
    size, n, d, _ = normals.shape
    idx = (np.arange(n)[:, None] + np.arange(count)) % n  # the axes of each window, by start
    A = normals[:, idx].reshape(size, n, count * d, d)
    b = rhs[:, idx].reshape(size, n, count * d)
    finite = np.isfinite(A).all(axis=(2, 3))
    rank, _, u, sig, vh = numeric_rank(np.where(finite[..., None, None], A, 0.0), np.finfo(float).eps)
    r = d - want_dim
    with np.errstate(divide="ignore", invalid="ignore"):  # only windows of another rank divide by 0
        y = (u[..., :r].swapaxes(-1, -2) @ b[..., None])[..., 0] / sig[..., :r]
    x0 = (vh[..., :r, :].swapaxes(-1, -2) @ y[..., None])[..., 0]
    res = (A @ x0[..., None])[..., 0] - b
    empty = _norms(res) > 1e-8 * np.fmax(1.0, _norms(b))
    bad = ~finite | (rank != r) | (sig[..., r - 1] < 1e-10 * sig[..., 0]) | empty
    return x0, vh[..., r:, :], bad


def _orientations(mats):
    """Signs of a stack of simplex edge matrices (..., d, d), 0 for a collapse.

    A simplex counts as collapsed when sigma_min <= 1e-10 sigma_max of its
    edge matrix; the sign is that of its determinant. Items with a
    non-finite entry are read as the identity and reported in ``finite``.
    """
    finite = np.isfinite(mats).all(axis=(-2, -1))
    mats = np.where(finite[..., None, None], mats, _eye(mats.shape[-1]))
    # a scale-free conditioning test on square matrices, not a rank, so not numeric_rank's cutoff
    sig = np.linalg.svd(mats, compute_uv=False)
    signs = np.where(np.linalg.det(mats) > 0, 1, -1)
    return np.where(sig[..., -1] <= 1e-10 * sig[..., 0], 0, signs), finite


def _canonical(origins, dirs):
    """Vertex positions and edge lengths of C configurations of one cycle.

    ``origins`` is (C, n, d) and ``dirs`` (C, n, d - 2, d), axis i of
    configuration c at [c, i]. Returns positions (C, V, d),
    lengths (C, E) in ``_table(d, n).edge_order`` and the failure of the lowest failing
    configuration as (c, exception), or None. A configuration's checks run
    in the order of the one-window-at-a-time construction, so its error
    names the same window: the cut windows (point then plane, or line, by
    start), parallel support lines, coincident feet or a degenerate
    projection, then a non-finite simplex and a collapsed one.
    """
    size, n, d = origins.shape
    if d > 2 and n <= 2 * (d // 2):
        return None, None, (0, GenericityError(
            f"a cycle in R^{d} needs at least {2 * (d // 2) + 1} axes for the "
            f"canonical linkage, got {n}"
        ))
    checks = []  # (flags (C, m), error(c, i)) in the order a configuration is checked
    scale = np.maximum(1.0, np.abs(origins).max(axis=(1, 2)))[:, None]
    k = d // 2
    if d > 3:
        normals = _eye(d) - dirs.swapaxes(-1, -2) @ dirs
        rhs = (normals @ origins[..., None])[..., 0]
    if d == 2:
        positions = origins.copy()
        side = _norms(np.roll(positions, -1, axis=1) - positions)
        checks.append((side <= 1e-12, lambda c, i: DegenerateSimplexError(
            f"polygon vertices {i + 1} and {(i + 1) % n + 1} coincide")))
    elif d % 2:
        if k == 1:
            p, u = origins, dirs[:, :, 0]
        else:
            p, u, bad = _cut(normals, rhs, k, 1)
            u = u[:, :, 0]
            checks.append((bad, lambda c, i: _window_error(origins[c], dirs[c], i, k, "line")))
        p2, u2 = np.roll(p, -1, axis=1), np.roll(u, -1, axis=1)
        a, b, cc = np.vecdot(u, u), np.vecdot(u, u2), np.vecdot(u2, u2)
        parallel = a * cc - b * b <= 1e-12 * a * cc
        checks.append((parallel, lambda c, i: GenericityError(
            f"support lines {i + 1} and {(i + 1) % n + 1} are parallel; no canonical feet")))
        w = p2 - p
        mats = np.stack([np.stack([a, -b], -1), np.stack([b, -cc], -1)], -2)
        skip = parallel | ~np.isfinite(mats).all(axis=(-2, -1))
        # one singular item would fail the whole stacked solve
        mats[skip] = _eye(2)
        dots = np.stack([np.vecdot(u, w), np.vecdot(u2, w)], -1)
        t = np.linalg.solve(mats, dots[..., None])[..., 0]
        t[skip] = np.nan
        positions = np.empty((size, 2 * n, d))
        positions[:, 1::2] = p + t[..., :1] * u
        positions[:, 0::2] = np.roll(p2 + t[..., 1:] * u2, 1, axis=1)
        gap = _norms(positions[:, 1::2] - positions[:, 0::2])
        checks.append((gap <= 1e-10 * scale, lambda c, i: DegenerateSimplexError(
            f"the two canonical feet on support line {i + 1} coincide")))
    else:
        points, _, bad = _cut(normals, rhs, k, 0)
        if k == 2:
            plane_o, plane_d, bad = origins, dirs, bad[..., None]
        else:
            plane_o, plane_d, bad_plane = _cut(normals, rhs, k - 1, 2)
            bad = np.stack([bad, bad_plane], -1)
        per = bad.shape[-1]
        checks.append((bad.reshape(size, -1), lambda c, m: _window_error(
            origins[c], dirs[c], m // per, k - m % per, ("point", "plane")[m % per])))
        nxt = np.roll(points, -1, axis=1)
        q = _project(nxt, plane_o, plane_d)
        checks.append((_norms(q - nxt) <= 1e-10 * scale, lambda c, i: DegenerateSimplexError(
            f"point {(i + 1) % n + 1} already lies on plane {i + 1}; projection degenerates")))
        positions = np.empty((size, 2 * n, d))
        positions[:, 0::2] = points
        positions[:, 1::2] = q
    table = _table(d, n)
    if d > 2:
        simplices = positions[:, table.simplex_index]
        signs, finite = _orientations(simplices[:, :, 1:] - simplices[:, :, :1])
        checks.append((~finite.all(axis=1, keepdims=True), lambda c, i: DegenerateGeometryError(NON_FINITE)))
        checks.append((signs == 0, lambda c, i: DegenerateSimplexError(
            "a body simplex has collapsed (zero volume)")))
    lengths = _norms(positions[:, table.edge_index[:, 0]] - positions[:, table.edge_index[:, 1]])
    failed = np.logical_or.reduce([flags.any(axis=1) for flags, _ in checks])
    if not failed.any():
        return positions, lengths, None
    first = int(failed.argmax())
    flags, error = next(check for check in checks if check[0][first].any())
    return positions, lengths, (first, error(first, int(flags[first].argmax())))


def cycle_to_linkage(axes) -> Linkage:
    """Canonical bar-joint linkage of a generic cycle of axes.

    Raises DimensionError naming the first axis not in the R^d of axis 1,
    GenericityError when the cycle has too few axes for the canonical edges
    (n <= 2 floor(d/2), d >= 3) or an intersection window has the wrong
    dimension (naming the offending axes), and DegenerateSimplexError when
    canonical points collapse; d = 2 gives the plain polygon on the axis
    points. This is the stacked kernel of ``check_linkage_invariance`` on one configuration.
    """
    axes = list(axes)
    n, d = len(axes), axes[0].dim
    for i, axis in enumerate(axes):
        if axis.dim != d:
            raise DimensionError(f"axis {i + 1} lives in R^{axis.dim}, not in the R^{d} of axis 1")
    positions, lengths, failure = _canonical(np.array([[a.origin for a in axes]]), np.array([[a.dirs for a in axes]]))
    if failure is not None:
        raise failure[1]
    table = _table(d, n)
    edges = zip(table.edge_order, lengths[0].tolist())
    return Linkage(
        d,
        n,
        tuple(zip(table.labels, map(tuple, positions[0].tolist()))),
        tuple((table.labels[a], table.labels[b], length) for (a, b), length in edges),
    )


def simplex_orientations(linkage: Linkage) -> tuple[int, ...]:
    """Sign of the volume form of each body simplex (0 flags a collapse).

    A simplex counts as collapsed when the smallest singular value of its
    edge vectors is at most 1e-10 times the largest, a rule unchanged by
    scaling or rotating the linkage; otherwise the sign is that of their
    determinant. A non-finite vertex raises DegenerateGeometryError.
    """
    table = _table(linkage.d, linkage.n)
    if not table.simplices:
        return ()
    coords = dict(linkage.vertices)
    positions = np.array([coords[label] for label in table.labels])
    points = positions[table.simplex_index]
    signs, finite = _orientations(points[:, 1:] - points[:, :1])
    if not finite.all():
        raise DegenerateGeometryError(NON_FINITE)
    return tuple(signs.tolist())


def moduli_invariants(linkage: Linkage) -> ModuliPartition:
    """Split the edge lengths into (2d-3)n free invariants and 2n dependent ones.

    The dependent edges are the ones closing a right triangle of the
    canonical construction: for odd d the like-signed foot pairs across
    consecutive support lines, for even d the two point-to-point edges
    subtending the right angle at each projection vertex. For d = 2 the
    polygon's own n edge lengths are the invariants and nothing is
    dependent.
    """
    d, n = linkage.d, linkage.n
    if d == 2:
        return ModuliPartition(
            linkage.edges, (), "planar polygon: the edge lengths themselves"
        )
    if d % 2:
        note = (
            "dependent: like-signed feet across consecutive support lines "
            "(right angles at the perpendicular feet fix them)"
        )
    else:
        note = (
            "dependent: point pairs subtending the right angle at each "
            "projection vertex"
        )
    table = _table(d, n)
    if len(table.dependent) != 2 * n:
        raise ProvenanceError(
            "dependent edges collide; the canonical partition needs a larger cycle"
        )
    wanted = dict.fromkeys((table.labels[a], table.labels[b]) for a, b in table.dependent)
    by_key = {(a, b): (a, b, length) for a, b, length in linkage.edges}
    missing = [key for key in wanted if key not in by_key]
    if missing:
        raise ProvenanceError(f"canonical dependent edges missing from linkage: {missing}")
    dependent = tuple(by_key[key] for key in wanted)
    independent = tuple(e for e in linkage.edges if (e[0], e[1]) not in wanted)
    if len(independent) != (2 * d - 3) * n:
        raise ProvenanceError(
            f"expected {(2 * d - 3) * n} independent edges, found {len(independent)}"
        )
    return ModuliPartition(independent, dependent, note)


def linkage_at(chain: Chain, theta) -> Linkage:
    """Canonical linkage of a cycle chain at one configuration."""
    return cycle_to_linkage(cycle_axes_at(chain, theta))


def check_linkage_invariance(chain: Chain, theta_path) -> float:
    """Largest edge-length drift of the canonical linkage along a fiber path.

    The edge order of a linkage is fixed by (d, n), so the length arrays of
    all configurations line up edge by edge. Each configuration is placed
    and read as the origin and direction stacks of ``cycle_axes_at``, no
    ``Axis`` built, and each block of ``_BLOCK`` configurations is
    converted by one stacked kernel, so memory does not grow with the path.
    A genericity failure is re-raised naming the lowest offending path index.
    """
    configs = enumerate(theta_path)
    base, worst = None, 0.0
    while block := list(islice(configs, _BLOCK)):
        lengths = _block_lengths(chain, block)
        if base is None:
            base = lengths[0].copy()
        worst = max(worst, *np.abs(lengths - base).max(axis=1).tolist())
    return worst


def _block_lengths(chain: Chain, block) -> np.ndarray:
    """Edge lengths (C, E) of the configurations ``(path index, theta)`` of one block.

    The first failure in path order is raised: a configuration that does not
    convert, or one that cannot be placed once all before it converted.
    """
    placed, failure = [], None
    for idx, theta in block:
        try:
            placed.append(_cycle_stacks(chain, theta))
        except HingekitError as exc:
            failure = idx, exc
            break
    if placed:
        _, lengths, first = _canonical(*map(np.array, zip(*placed)))
        if first is not None:
            failure = block[first[0]][0], first[1]
    if failure is None:
        return lengths
    idx, exc = failure
    if isinstance(exc, (GenericityError, DegenerateGeometryError)):
        raise GenericityError(f"configuration {idx} of the path: {exc}") from exc
    raise exc
