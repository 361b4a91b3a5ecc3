"""Canonical conversion of generic hinged cycles into bar-joint linkages.

For a generic n-cycle in R^d (d >= 3) the construction yields 2n
vertices and (2d - 1) n edges, the 1-skeleton of n d-simplices glued in
a ring, consecutive ones sharing a (d-2)-face. Odd d places two
perpendicular feet on each line cut out by k = (d-1)/2 consecutive axes;
even d pairs each point cut out by k = d/2 consecutive axes with the
orthogonal projection of its successor onto the previous (k-1)-fold
intersection plane. Vertex labels encode provenance (support index plus
role), so linkages built at different configurations of one cycle are
comparable edge by edge.

All indices are cyclic mod n; labels are 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .chain import Chain, cycle_axes_at, forward_kinematics
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

_LABEL = re.compile(r"^(foot[-+]|[pq])(\d+)$")


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
        if self.d == 2:
            return ()
        out = []
        if self.d % 2:
            k = (self.d - 1) // 2
            for body in range(self.n):
                window = [(body - k + 1 + t) % self.n for t in range(k + 1)]
                out.append(
                    tuple(f"foot{sign}{i + 1}" for i in window for sign in ("-", "+"))
                )
        else:
            k = self.d // 2
            for body in range(self.n):
                ps = [(body - k + 1 + t) % self.n for t in range(k + 1)]
                qs = [(body - k + 2 + t) % self.n for t in range(k)]
                out.append(
                    tuple([f"p{i + 1}" for i in ps] + [f"q{i + 1}" for i in qs])
                )
        return tuple(out)


@dataclass(frozen=True)
class ModuliPartition:
    """Edge lengths split into free invariants and right-angle-determined ones."""

    independent: tuple[tuple[str, str, float], ...]
    dependent: tuple[tuple[str, str, float], ...]
    note: str


def _label_key(label: str) -> tuple[int, int]:
    match = _LABEL.match(label)
    if match is None:
        raise ProvenanceError(f"vertex label {label!r} is not canonical")
    role, idx = match.groups()
    return int(idx), {"foot-": 0, "foot+": 1, "p": 0, "q": 1}[role]


def _edges_from_simplices(labels_by_simplex, positions) -> tuple[tuple[str, str, float], ...]:
    seen = {}
    for simplex in labels_by_simplex:
        for i in range(len(simplex)):
            for j in range(i + 1, len(simplex)):
                a, b = simplex[i], simplex[j]
                if _label_key(a) > _label_key(b):
                    a, b = b, a
                seen[(a, b)] = float(np.linalg.norm(positions[a] - positions[b]))
    ordered = sorted(seen, key=lambda ab: (_label_key(ab[0]), _label_key(ab[1])))
    return tuple((a, b, seen[(a, b)]) for a, b in ordered)


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


def cycle_to_linkage(axes, d: int | None = None) -> Linkage:
    """Canonical bar-joint linkage of a generic cycle of axes.

    Raises GenericityError when an intersection window has the wrong
    dimension (naming the offending axes) and DegenerateSimplexError when
    canonical points collapse. d = 2 falls through to the plain polygon
    on the axis points.
    """
    axes = list(axes)
    n = len(axes)
    d = axes[0].dim if d is None else d
    if d == 2:
        return _polygon_linkage(axes)
    if d % 2:
        positions = _odd_vertex_positions(axes, d)
    else:
        positions = _even_vertex_positions(axes, d)
    vertices = tuple(
        (label, tuple(float(x) for x in positions[label]))
        for label in sorted(positions, key=_label_key)
    )
    linkage = Linkage(d, n, vertices, ())
    simplices = linkage.simplices()
    edges = _edges_from_simplices(simplices, positions)
    linkage = Linkage(d, n, vertices, edges)
    for sign in simplex_orientations(linkage):
        if sign == 0:
            raise DegenerateSimplexError("a body simplex has collapsed (zero volume)")
    return linkage


def _polygon_linkage(axes) -> Linkage:
    n = len(axes)
    positions = {f"p{i + 1}": axes[i].origin for i in range(n)}
    vertices = tuple(
        (f"p{i + 1}", tuple(float(x) for x in axes[i].origin)) for i in range(n)
    )
    edges = []
    for i in range(n):
        j = (i + 1) % n
        length = float(np.linalg.norm(axes[j].origin - axes[i].origin))
        if length <= 1e-12:
            raise DegenerateSimplexError(f"polygon vertices {i + 1} and {j + 1} coincide")
        a, b = f"p{i + 1}", f"p{j + 1}"
        if _label_key(a) > _label_key(b):
            a, b = b, a
        edges.append((a, b, length))
    edges.sort(key=lambda e: (_label_key(e[0]), _label_key(e[1])))
    return Linkage(2, n, vertices, tuple(edges))


def _odd_vertex_positions(axes, d: int) -> dict[str, np.ndarray]:
    n = len(axes)
    k = (d - 1) // 2
    lines = []
    for i in range(n):
        if k == 1:
            lines.append((axes[i].origin, axes[i].dirs[0]))
        else:
            flat = _intersection_flat(axes, i, k, 1, "line")
            lines.append((flat.origin, flat.dirs[0]))
    positions: dict[str, np.ndarray] = {}
    for i in range(n):
        j = (i + 1) % n
        try:
            foot_here, foot_next = common_perpendicular(lines[i], lines[j])
        except ParallelLinesError as exc:
            raise GenericityError(
                f"support lines {i + 1} and {j + 1} are parallel; no canonical feet"
            ) from exc
        positions[f"foot+{i + 1}"] = foot_here
        positions[f"foot-{j + 1}"] = foot_next
    scale = _scale(axes)
    for i in range(n):
        gap = np.linalg.norm(positions[f"foot+{i + 1}"] - positions[f"foot-{i + 1}"])
        if gap <= 1e-10 * scale:
            raise DegenerateSimplexError(
                f"the two canonical feet on support line {i + 1} coincide"
            )
    return positions


def _even_vertex_positions(axes, d: int) -> dict[str, np.ndarray]:
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
    positions: dict[str, np.ndarray] = {}
    scale = _scale(axes)
    for i in range(n):
        j = (i + 1) % n
        q = project_affine(points[j], planes[i])
        if np.linalg.norm(q - points[j]) <= 1e-10 * scale:
            raise DegenerateSimplexError(
                f"point {j + 1} already lies on plane {i + 1}; projection degenerates"
            )
        positions[f"p{i + 1}"] = points[i]
        positions[f"q{i + 1}"] = q
    return positions


def simplex_orientations(linkage: Linkage) -> tuple[int, ...]:
    """Sign of the volume form of each body simplex (0 flags a collapse).

    A simplex counts as collapsed when |det| of its edge vectors is at most
    1e-10 times their Hadamard bound, the product of the edge lengths.
    """
    vm = linkage.vertex_map()
    signs = []
    for simplex in linkage.simplices():
        base = vm[simplex[0]]
        mat = np.array([vm[label] - base for label in simplex[1:]])
        det = np.linalg.det(mat)
        if abs(det) <= 1e-10 * np.prod(np.linalg.norm(mat, axis=1)):
            signs.append(0)
        else:
            signs.append(1 if det > 0 else -1)
    return tuple(signs)


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
    dependent_keys: list[tuple[str, str]] = []
    if d % 2:
        for i in range(n):
            j = (i + 1) % n
            dependent_keys.append(_norm_pair(f"foot-{i + 1}", f"foot-{j + 1}"))
            dependent_keys.append(_norm_pair(f"foot+{i + 1}", f"foot+{j + 1}"))
        note = (
            "dependent: like-signed feet across consecutive support lines "
            "(right angles at the perpendicular feet fix them)"
        )
    else:
        for i in range(n):
            j = (i + 1) % n
            h = (i - 1) % n
            dependent_keys.append(_norm_pair(f"p{i + 1}", f"p{j + 1}"))
            dependent_keys.append(_norm_pair(f"p{h + 1}", f"p{j + 1}"))
        note = (
            "dependent: point pairs subtending the right angle at each "
            "projection vertex"
        )
    wanted = set(dependent_keys)
    if len(wanted) != 2 * n:
        raise ProvenanceError(
            "dependent edges collide; the canonical partition needs a larger cycle"
        )
    by_key = {(a, b): (a, b, length) for a, b, length in linkage.edges}
    missing = [key for key in wanted if key not in by_key]
    if missing:
        raise ProvenanceError(f"canonical dependent edges missing from linkage: {missing}")
    dependent = tuple(by_key[key] for key in sorted(wanted, key=lambda ab: (_label_key(ab[0]), _label_key(ab[1]))))
    independent = tuple(e for e in linkage.edges if (e[0], e[1]) not in wanted)
    if len(independent) != (2 * d - 3) * n:
        raise ProvenanceError(
            f"expected {(2 * d - 3) * n} independent edges, found {len(independent)}"
        )
    return ModuliPartition(independent, dependent, note)


def _norm_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if _label_key(a) <= _label_key(b) else (b, a)


def linkage_at(chain: Chain, theta) -> Linkage:
    """Canonical linkage of a cycle chain at one configuration."""
    placement = forward_kinematics(chain, theta)
    return cycle_to_linkage(cycle_axes_at(chain, theta, placement=placement))


def check_linkage_invariance(chain: Chain, theta_path) -> float:
    """Largest edge-length drift of the canonical linkage along a fiber path.

    All configurations must build with the same labels; a genericity
    failure is re-raised naming the offending path index.
    """
    base: dict[tuple[str, str], float] | None = None
    worst = 0.0
    for idx, theta in enumerate(theta_path):
        try:
            linkage = linkage_at(chain, theta)
        except (GenericityError, DegenerateGeometryError) as exc:
            raise GenericityError(f"configuration {idx} of the path: {exc}") from exc
        lengths = {(a, b): length for a, b, length in linkage.edges}
        if base is None:
            base = lengths
            continue
        if set(lengths) != set(base):
            raise ProvenanceError(f"configuration {idx} produced a different edge set")
        worst = max(worst, max(abs(lengths[key] - base[key]) for key in base))
    return worst
