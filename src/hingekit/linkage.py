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
``_labels`` alone writes the labels, whose provenance (support index plus
role) makes linkages of one cycle comparable edge by edge.
All indices are cyclic mod n; labels are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import sqrt

import numpy as np

from .chain import Chain, cycle_axes_at
from .errors import (
    DegenerateGeometryError,
    DegenerateSimplexError,
    GenericityError,
    ParallelLinesError,
    ProvenanceError,
)
from .geometry import affine_intersection, common_perpendicular, project_affine

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
        return _labelled_simplices(self.d, self.n)


@lru_cache(maxsize=64)  # one entry per (d, n) in use
def _labels(d: int, n: int) -> tuple[str, ...]:
    """The label of each vertex number."""
    roles = ("p",) if d == 2 else ("foot-", "foot+") if d % 2 else ("p", "q")
    return tuple(f"{role}{i + 1}" for i in range(n) for role in roles)


@lru_cache(maxsize=64)  # one entry per (d, n) in use
def _simplices(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Vertex numbers of each body simplex; they depend only on (d, n)."""
    if d == 2:
        return ()
    k = d // 2
    out = []
    for body in range(n):
        window = [(body - k + 1 + t) % n for t in range(k + 1)]
        if d % 2:
            out.append(tuple(2 * i + r for i in window for r in (0, 1)))
        else:
            out.append(tuple([2 * i for i in window] + [2 * i + 1 for i in window[1:]]))
    return tuple(out)


@lru_cache(maxsize=64)  # one entry per (d, n) in use
def _labelled_simplices(d: int, n: int) -> tuple[tuple[str, ...], ...]:
    labels = _labels(d, n)
    return tuple(tuple(labels[v] for v in simplex) for simplex in _simplices(d, n))


@dataclass(frozen=True)
class ModuliPartition:
    """Edge lengths split into free invariants and right-angle-determined ones."""

    independent: tuple[tuple[str, str, float], ...]
    dependent: tuple[tuple[str, str, float], ...]
    note: str


@lru_cache(maxsize=64)  # one entry per (d, n) in use
def _edge_order(d: int, n: int) -> tuple[tuple[int, int], ...]:
    """Sorted vertex pairs (a < b) of the body-simplex edges or polygon sides."""
    if d == 2:
        return tuple(sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n)))
    pairs = {pair for simplex in _simplices(d, n) for pair in combinations(sorted(simplex), 2)}
    return tuple(sorted(pairs))


def _intersection_flat(axes, start: int, count: int, want_dim: int, what: str):
    n = len(axes)
    window = [axes[(start + t) % n] for t in range(count)]
    flat = affine_intersection(window)
    if flat is None or flat.flat_dim != want_dim or flat.near_degenerate:
        got = "empty" if flat is None else f"dimension {flat.flat_dim}"
        raise GenericityError(
            f"axes {start + 1}..{(start + count - 1) % n + 1} (cyclic) should cut a "
            f"{what}, got {got}"
        )
    return flat


def _scale(axes) -> float:
    return max(1.0, max(float(np.max(np.abs(a.origin))) for a in axes))


def cycle_to_linkage(axes) -> Linkage:
    """Canonical bar-joint linkage of a generic cycle of axes.

    Raises GenericityError when the cycle has too few axes for the
    canonical edges (n <= 2 floor(d/2), d >= 3) or an intersection window
    has the wrong dimension (naming the offending axes), and
    DegenerateSimplexError when canonical points collapse. d = 2 falls
    through to the plain polygon on the axis points.
    """
    axes = list(axes)
    n = len(axes)
    d = axes[0].dim
    if d > 2 and n <= 2 * (d // 2):
        raise GenericityError(
            f"a cycle in R^{d} needs at least {2 * (d // 2) + 1} axes for the "
            f"canonical linkage, got {n}"
        )
    if d == 2:
        positions = np.array([a.origin for a in axes])
        for i in range(n):
            if np.linalg.norm(positions[(i + 1) % n] - positions[i]) <= 1e-12:
                raise DegenerateSimplexError(
                    f"polygon vertices {i + 1} and {(i + 1) % n + 1} coincide"
                )
    elif d % 2:
        positions = _odd_vertex_positions(axes, d)
    else:
        positions = _even_vertex_positions(axes, d)
    labels = _labels(d, n)
    edges = []
    for a, b in _edge_order(d, n):
        # the arithmetic of np.linalg.norm on a vector, without its overhead
        v = positions[a] - positions[b]
        edges.append((labels[a], labels[b], sqrt(v.dot(v))))
    vertices = tuple(zip(labels, map(tuple, positions.tolist())))
    linkage = Linkage(d, n, vertices, tuple(edges))
    for sign in simplex_orientations(linkage):
        if sign == 0:
            raise DegenerateSimplexError("a body simplex has collapsed (zero volume)")
    return linkage


def _odd_vertex_positions(axes, d: int) -> np.ndarray:
    n = len(axes)
    k = (d - 1) // 2
    lines = []
    for i in range(n):
        if k == 1:
            lines.append((axes[i].origin, axes[i].dirs[0]))
        else:
            flat = _intersection_flat(axes, i, k, 1, "line")
            lines.append((flat.origin, flat.dirs[0]))
    positions = np.empty((2 * n, d))
    for i in range(n):
        j = (i + 1) % n
        try:
            positions[2 * i + 1], positions[2 * j] = common_perpendicular(lines[i], lines[j])
        except ParallelLinesError as exc:
            raise GenericityError(
                f"support lines {i + 1} and {j + 1} are parallel; no canonical feet"
            ) from exc
    scale = _scale(axes)
    for i in range(n):
        gap = np.linalg.norm(positions[2 * i + 1] - positions[2 * i])
        if gap <= 1e-10 * scale:
            raise DegenerateSimplexError(
                f"the two canonical feet on support line {i + 1} coincide"
            )
    return positions


def _even_vertex_positions(axes, d: int) -> np.ndarray:
    n = len(axes)
    k = d // 2
    points = []
    planes = []
    for i in range(n):
        points.append(_intersection_flat(axes, i, k, 0, "point").origin)
        if k == 2:
            planes.append(axes[i])
        else:
            planes.append(_intersection_flat(axes, i, k - 1, 2, "plane"))
    positions = np.empty((2 * n, d))
    scale = _scale(axes)
    for i in range(n):
        j = (i + 1) % n
        q = project_affine(points[j], planes[i])
        if np.linalg.norm(q - points[j]) <= 1e-10 * scale:
            raise DegenerateSimplexError(
                f"point {j + 1} already lies on plane {i + 1}; projection degenerates"
            )
        positions[2 * i] = points[i]
        positions[2 * i + 1] = q
    return positions


def simplex_orientations(linkage: Linkage) -> tuple[int, ...]:
    """Sign of the volume form of each body simplex (0 flags a collapse).

    A simplex counts as collapsed when |det| of its edge vectors is at most
    1e-10 times their Hadamard bound, the product of the edge lengths.
    """
    simplices = _simplices(linkage.d, linkage.n)
    if not simplices:
        return ()
    coords = dict(linkage.vertices)
    positions = np.array([coords[label] for label in _labels(linkage.d, linkage.n)])
    points = positions[np.array(simplices)]
    mats = points[:, 1:] - points[:, :1]
    dets = np.linalg.det(mats)
    hadamard = np.prod(np.linalg.norm(mats, axis=2), axis=1)
    return tuple(
        0 if abs(det) <= 1e-10 * bound else (1 if det > 0 else -1)
        for det, bound in zip(dets, hadamard)
    )


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
        pairs = [(2 * i + r, 2 * ((i + 1) % n) + r) for i in range(n) for r in (0, 1)]
        note = (
            "dependent: like-signed feet across consecutive support lines "
            "(right angles at the perpendicular feet fix them)"
        )
    else:
        pairs = [(2 * h, 2 * ((i + 1) % n)) for i in range(n) for h in (i, (i - 1) % n)]
        note = (
            "dependent: point pairs subtending the right angle at each "
            "projection vertex"
        )
    keys = sorted({tuple(sorted(pair)) for pair in pairs})
    if len(keys) != 2 * n:
        raise ProvenanceError(
            "dependent edges collide; the canonical partition needs a larger cycle"
        )
    labels = _labels(d, n)
    wanted = dict.fromkeys((labels[a], labels[b]) for a, b in keys)
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
    all configurations line up edge by edge. A genericity failure is
    re-raised naming the offending path index.
    """
    base = None
    worst = 0.0
    for idx, theta in enumerate(theta_path):
        try:
            linkage = linkage_at(chain, theta)
        except (GenericityError, DegenerateGeometryError) as exc:
            raise GenericityError(f"configuration {idx} of the path: {exc}") from exc
        lengths = np.array([length for _, _, length in linkage.edges])
        if base is None:
            base = lengths
        worst = max(worst, float(np.max(np.abs(lengths - base))))
    return worst
