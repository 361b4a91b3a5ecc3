"""Singularity verdicts for hinged chains, cycles and platforms.

Every verdict is a rank statement about a span of Plucker points inside
the grade-(d-1) exterior power of R^{d+1} (equivalently, inside the Lie
algebra of rigid motions): an end map drops rank exactly when the placed
axes, together with the stabilizer of the end marker, fit in a
hyperplane section of the Grassmannian. For end-points the dual picture
is more vivid: a deficiency direction is a line through the end-point
projectively incident with every axis, and it is returned as a witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf
from numbers import Number

import numpy as np

from .chain import Chain, _frame_rows, _jacobian, _stacked, cycle_chain, forward_kinematics
from .errors import (
    ConsistencyError,
    DefinitionError,
    DegenerateAxisError,
    DegenerateGeometryError,
    DegenerateLegError,
    DimensionError,
    GradeError,
    ScenarioError,
    ToleranceError,
    WrongMapError,
)
from .exterior import MIXED_SPAN, ExteriorVector, RankCertificate, numeric_rank, positive_lead, top_pairing
from .exterior import _complement_table, _exact_minor_rows, _minor_rows, _rank_rows, _to_fraction, check_tolerance, subsets
from .geometry import Axis, Frame, _lift, _lift_stack, axis_plucker, flat_plucker, line_plucker, make_axis
from .sampling import random_cycle, rng_from

__all__ = [
    "Verdict",
    "WitnessLine",
    "Platform",
    "endpoint_singularity",
    "stabilizer_pluckers",
    "frame_singularity",
    "cycle_mobility",
    "cycle_mobility_exact",
    "platform_flexibility",
    "classical_scenario",
    "pairing_rows",
    "grid_incident_line",
    "twisted_cubic_data",
    "twisted_cubic_tangent_vectors",
    "bricard_symmetric_lines",
    "mirror_through_z_axis",
    "chair_hexagon_points",
    "desargues_legs",
    "planar_arm_chain",
]

SCENARIO_NAMES = (
    "twisted-cubic-tangents",
    "bricard-symmetric-six",
    "cyclohexane-panels",
    "desargues",
    "planar-arm",
    "generic-cycle",
)


@dataclass(frozen=True, eq=False)
class WitnessLine:
    """Line through the end-point certifying an end-point singularity."""

    point: np.ndarray
    direction: np.ndarray


@dataclass(frozen=True, eq=False)
class Verdict:
    """Rank verdict with its certificate.

    ``rank`` is the differential's rank (or the Plucker span rank for
    cycles and platforms), ``full_rank`` the generic value. The witness is
    a WitnessLine for end-point verdicts and the hyperplane functional
    (the certificate's conull vector) for cycle and platform verdicts.
    """

    rank: int
    full_rank: int
    certificate: RankCertificate
    witness: WitnessLine | np.ndarray | None = None
    mobility: int | None = None
    null_directions: np.ndarray | None = None

    @property
    def singular(self) -> bool:
        """rank < full_rank: for a span, it misses a hyperplane."""
        return self.rank < self.full_rank


@dataclass(frozen=True, eq=False)
class Platform:
    """Two rigid bodies joined by C(d+1, 2) bars.

    Leg endpoints may be floats or rationals (int, Fraction, or an 'a/b'
    string, read as a Fraction); rational legs allow the exact verdict path.
    A leg's endpoints are compared as rationals when all its coordinates are, else as floats.
    """

    d: int
    legs: tuple[tuple[tuple, tuple], ...]

    def __post_init__(self):
        want = comb(self.d + 1, 2)
        legs = [(tuple(p), tuple(q)) for p, q in self.legs]
        if len(legs) != want:
            raise DefinitionError(f"a platform in R^{self.d} needs exactly {want} legs")
        for i, (p, q) in enumerate(legs):
            if len(p) != self.d or len(q) != self.d:
                raise DefinitionError(f"leg {i + 1}: endpoints must be points of R^{self.d}")
            try:
                legs[i] = p, q = tuple(tuple(_to_fraction(x) if isinstance(x, str) else x for x in pt)
                                       for pt in (p, q))
            except (DefinitionError, DegenerateGeometryError):
                raise DefinitionError(f"leg {i + 1}: a string coordinate is not a finite rational") from None
            conv = float if any(isinstance(x, (float, np.floating)) for x in p + q) else _to_fraction
            if [*map(conv, p)] == [*map(conv, q)]:
                raise DegenerateLegError(f"leg {i + 1} has coincident endpoints")
        object.__setattr__(self, "legs", tuple(legs))


def pairing_rows(endpoint, axes) -> np.ndarray:
    """Incidence pairings of lines through the end-point against each axis.

    Row i evaluated at a direction v gives the top pairing of the line
    (endpoint, v) with axis i, so a direction in the kernel of this
    matrix is a line through the end-point incident with every axis.
    """
    endpoint = np.asarray(endpoint, dtype=float)
    d = endpoint.shape[0]
    pluckers = [axis_plucker(a) for a in axes]
    rows = np.empty((len(pluckers), d))
    basis = np.eye(d)
    for j in range(d):
        line = line_plucker(endpoint, basis[j])
        for i, alpha in enumerate(pluckers):
            rows[i, j] = top_pairing(line, alpha)
    return rows


def _direction_grid(d: int) -> np.ndarray:
    if d == 2:
        ang = np.deg2rad(np.arange(0.0, 180.0))
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if d == 3:
        polar = np.deg2rad(np.arange(0.0, 91.0))
        azimuth = np.deg2rad(np.arange(0.0, 360.0))
        pol, az = np.meshgrid(polar, azimuth, indexing="ij")
        s = np.sin(pol)
        return np.column_stack(
            [(s * np.cos(az)).ravel(), (s * np.sin(az)).ravel(), np.cos(pol).ravel()]
        )
    raise DimensionError("the direction grid oracle only covers d = 2 and d = 3")


def _tangent_refinement(base: np.ndarray, span: float, step: float) -> np.ndarray:
    """Unit directions sampled on a tangent-plane grid around ``base``."""
    _, _, vh = np.linalg.svd(base[None, :], full_matrices=True)
    tangent = vh[1:]
    offsets = np.arange(-span, span + 0.5 * step, step)
    if tangent.shape[0] == 1:
        pts = base[None, :] + offsets[:, None] * tangent[0]
    else:
        a, b = np.meshgrid(offsets, offsets, indexing="ij")
        pts = (
            base[None, :]
            + a.ravel()[:, None] * tangent[0]
            + b.ravel()[:, None] * tangent[1]
        )
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def grid_incident_line(endpoint, axes) -> tuple[bool, np.ndarray, float]:
    """Brute-force oracle: scan unit directions for an all-axes incident line.

    Covers d = 2, 3. A global grid at 1 degree resolution picks candidate
    directions; the best candidates are polished on two levels of finer
    tangent-plane grids, which sharpens the decision boundary to ~2e-4 so
    that exactly singular poses separate cleanly from nearby regular ones.
    Returns (found, best_direction, worst_relative_residual) where the
    residual of a direction is its largest incidence pairing against any
    axis, relative to that axis row's norm, and found means a residual of
    at most 5e-4. Not a production path: pure sampling, independent of
    the Jacobian/SVD machinery it cross-checks.
    """
    rows = pairing_rows(endpoint, axes)
    norms = np.linalg.norm(rows, axis=1)
    live = norms > 0.0  # a zero row means the end-point sits on that axis
    if not np.any(live):
        fallback = np.zeros(len(np.asarray(endpoint)))
        fallback[0] = 1.0
        return True, fallback, 0.0
    rows_n = rows[live] / norms[live, None]

    def residuals(dirs: np.ndarray) -> np.ndarray:
        return np.abs(rows_n @ dirs.T).max(axis=0)

    grid = _direction_grid(len(np.asarray(endpoint)))
    worst = residuals(grid)
    order = np.argsort(worst)
    best_dir = grid[order[0]]
    best_val = float(worst[order[0]])
    coarse = np.deg2rad(1.0)
    for idx in order[:8]:
        center = grid[idx]
        for span, step in ((2.0 * coarse, coarse / 10.0), (0.15 * coarse, coarse / 100.0)):
            local = _tangent_refinement(center, span, step)
            vals = residuals(local)
            at = int(np.argmin(vals))
            if vals[at] < best_val:
                best_val = float(vals[at])
                best_dir = local[at]
            center = local[at]
    return best_val <= 5e-4, best_dir, best_val


def endpoint_singularity(chain: Chain, theta, tol: float = 1e-10) -> Verdict:
    """Rank verdict of the end-point map, with an incident-line witness.

    Singular means rank < d. The witness direction is a unit left-null vector of the analytic
    Jacobian; it is cross-checked geometrically (the witness line must pair to zero with every
    placed axis) and any disagreement raises ConsistencyError rather than being swallowed.
    The one-placement case of ``_end_map_ranks``.
    """
    if chain.end_frame.k != 0:
        raise WrongMapError("endpoint_singularity needs a chain with a bare end-point")
    pl = forward_kinematics(chain, theta)
    (rank,), d, (sig,), (u,) = _end_map_ranks(chain, _stacked(pl), tol)
    rank = int(rank)
    null_basis = u[:, rank:].T.copy() if rank < d else None  # every deficiency direction is a witness
    conull = None if null_basis is None else positive_lead(null_basis[0])
    witness = None if conull is None else WitnessLine(pl.frame_at.origin, conull)
    return Verdict(rank, d, RankCertificate(rank, sig, rank < d, conull), witness, null_directions=null_basis)


def _end_map_ranks(chain: Chain, stacks, tol: float, frame: bool = False):
    """The end map's ranks (S,) at S placements, as ``chain._place_many``'s arrays, its full rank, and the
    singular values and vectors, from one ``numeric_rank`` of their stack. The end-point map stacks the
    Jacobians (full rank d; left vectors) and witness-checks the singular ones, one pass per rank. The
    ``frame`` map stacks ``_frame_rows`` over ``_stabilizer_stack`` (right vectors); both ranks drop
    by the stabilizer dimension, and a tolerance that cuts those independent rows is refused."""
    origins, generators, dirs, ends, vecs = stacks
    if not frame:
        rank, cutoff, u, sig, _ = numeric_rank(_jacobian(origins, generators, ends, vecs), tol)
        for r in np.unique(rank[rank < chain.d]):
            at = rank == r
            _check_witness(ends[at], origins[at], dirs[at], u[at, :, r:].swapaxes(1, 2), cutoff[at])
        return rank, chain.d, sig, u
    stab_dim = comb(chain.d - chain.end_frame.k, 2)
    rows = np.concatenate([_frame_rows(origins, generators), _stabilizer_stack(ends, vecs)], axis=1)
    try:
        rank, _, _, sig, vh = numeric_rank(rows, tol)
    except ToleranceError:
        if not stab_dim:
            raise
        check_tolerance(tol)  # a bad tolerance is refused as such; a good one cut every singular value
        rank = np.zeros(1, dtype=int)
    if rank.min() < stab_dim:
        raise ToleranceError(f"tolerance {tol} cuts the end frame's stabilizer: span rank {rank.min()} < {stab_dim}")
    return rank - stab_dim, rows.shape[2] - stab_dim, sig, vh


def _check_witness(ends, origins, dirs, null: np.ndarray, cutoff: np.ndarray) -> None:
    """Raise unless, at each of S placements (end-points (S, d), axis origins (S, n-1, d) and directions
    (S, n-1, d-2, d)), the line through the end-point along each of its r null directions (S, r, d) meets each
    placed axis: their top pairing, a signed product of two ``_minor_rows`` stacks summed over a C-ordered last
    axis (so its bits do not depend on S), is within 8 cutoff + 1e-12 |line| |axis|. The first miss in
    (placement, direction, axis) order is named."""
    S, r, d = null.shape
    lines = _minor_rows(_lift_stack(np.repeat(ends, r, axis=0)[:, None], null.reshape(S * r, 1, d))).reshape(S, r, -1)
    points = origins.reshape(-1, 1, d)  # a d = 2 axis has no direction rows, so its count comes from here
    axes = _minor_rows(_lift_stack(points, dirs.reshape(len(points), d - 2, d))).reshape(S, -1, lines.shape[2])
    idx, sgn = _complement_table(d + 1, 2)
    pairing = np.abs(np.multiply((lines * sgn)[:, :, None], axes[:, None, :, idx], order="C").sum(axis=3))
    norms = np.linalg.norm(lines, axis=2)[:, :, None] * np.linalg.norm(axes, axis=2)[:, None]
    bound = 8.0 * cutoff[:, None, None] + 1e-12 * norms
    missed = pairing > bound
    if missed.any():
        s, r, i = np.unravel_index(missed.argmax(), missed.shape)
        raise ConsistencyError(
            f"rank verdict says singular but the witness misses axis {i + 1} "
            f"(pairing {pairing[s, r, i]:.3e} > bound {bound[s, r, i]:.3e})"
        )


def stabilizer_pluckers(frame: Frame) -> list[ExteriorVector]:
    """Plucker points spanning the stabilizer of a k-frame.

    Rotations fixing the frame are rotations of the orthogonal complement
    of its span, about its origin; each complement coordinate pair {a, b}
    contributes the axis through the origin whose directions are the
    frame vectors plus the remaining complement vectors. C(d-k, 2) points
    in all; empty once d - k <= 1. They are views of ``_stabilizer_stack``'s rows, which
    come from the SVD of the validated frame and are not validated again as an ``Axis``.
    """
    rows = _stabilizer_stack(frame.origin[None], frame.vecs[None])[0]
    return [ExteriorVector(frame.dim - 1, frame.dim + 1, row) for row in rows]


def _stabilizer_stack(origins: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The (S, C(d-k, 2), C(d+1, 2)) rows of ``stabilizer_pluckers`` at S k-frames (origins (S, d), vectors
    (S, k, d)), each with its own bits: one stacked SVD, one ``_lift_stack`` and one ``_minor_rows`` call."""
    S, k, d = vecs.shape
    if d - k <= 1:
        return np.zeros((S, 0, comb(d + 1, 2)))
    complement = np.eye(d)[None] if k == 0 else np.linalg.svd(vecs, full_matrices=True)[2][:, k:]
    keep = np.array(subsets(d - k, d - k - 2)[::-1], dtype=int)  # the rest of each pair {a, b}, in pair order
    dirs = np.concatenate([np.broadcast_to(vecs[:, None], (S, len(keep), k, d)),
                           np.broadcast_to(complement[:, keep], (S, len(keep), d - k - 2, d))], axis=2)
    points = np.repeat(origins, len(keep), axis=0)[:, None]
    return _minor_rows(_lift_stack(points, dirs.reshape(len(points), d - 2, d))).reshape(S, len(keep), -1)


def _span_verdict(rows: np.ndarray, tol: float = 1e-10, cycle: bool = False) -> Verdict:
    """Rank verdict on stacked Plucker rows over R^{d+1}, of generic dimension C(d+1, 2).

    One row per axis or leg; the dtype picks the rank rule of ``_rank_rows``.
    The witness is the certificate's conull functional; a cycle also reports
    its mobility n - rank.
    """
    if cycle and len(rows) < 2:
        raise DefinitionError("a cycle needs at least two axes")
    cert = _rank_rows(rows, rows.shape[1], tol)
    mobility = len(rows) - cert.rank if cycle else None
    return Verdict(cert.rank, rows.shape[1], cert, cert.conull, mobility)


def frame_singularity(chain: Chain, theta, tol: float = 1e-10) -> Verdict:
    """Rank verdict of the end-frame map for any k.

    Assembles the placed axis Plucker points together with the stabilizer points of the placed
    frame; the map is singular exactly when this span misses a hyperplane's worth of the ambient
    C(d+1, 2) dimensions. The reported rank subtracts the stabilizer dimension so it equals the
    differential's rank; the certificate's conull vector is the hyperplane functional. The
    one-placement case of ``_end_map_ranks``.
    """
    (rank,), full, (sig,), (vh,) = _end_map_ranks(chain, _stacked(forward_kinematics(chain, theta)), tol, frame=True)
    rank, span_rank, conull = int(rank), int(rank) + len(vh) - full, None
    if rank < full:
        conull = positive_lead(vh[span_rank])
        conull.setflags(write=False)
    return Verdict(rank, full, RankCertificate(span_rank, sig, rank < full, conull), conull)


def cycle_mobility(axes, tol: float = 1e-10) -> Verdict:
    """Infinitesimal mobility of a hinged cycle from its axis Plucker span.

    The space of closure-compatible rotation speeds has dimension
    n - rank(span); for n = C(d+1, 2) a deficient span means an
    infinitesimally flexible cycle. The conull functional is the
    hyperplane section containing all axis points. All the axes lift in
    one ``_lift_stack`` and are wedged in one ``_minor_rows`` call.
    """
    axes = list(axes)
    if len({a.dim for a in axes}) > 1:
        raise GradeError(MIXED_SPAN)
    mats = _lift_stack([[a.origin] for a in axes], [a.dirs for a in axes]) if axes else []
    return _span_verdict(_minor_rows(mats), tol, cycle=True)


def cycle_mobility_exact(raw_axes) -> Verdict:
    """Exact-rational cycle mobility from raw (origin, direction rows) data, or from its
    (n, d-1, d) int64 or object stack, each origin then its directions.

    Plucker points only depend projectively on a spanning set, so the
    directions are wedged as given, without orthonormalization; this
    keeps every coefficient rational and the rank exact. All the axes are
    wedged in one batch of ``_exact_minor_rows``.
    """
    rows = _exact_minor_rows(_lift_stack(raw_axes[:, :1], raw_axes[:, 1:]) if isinstance(raw_axes, np.ndarray)
                             else [_lift([origin], dirs) for origin, dirs in raw_axes])
    if not rows.any(axis=1).all():
        raise DegenerateAxisError("axis directions are linearly dependent")
    return _span_verdict(rows, cycle=True)


def platform_flexibility(platform: Platform, tol: float = 1e-10, exact: bool = False) -> Verdict:
    """Infinitesimal flexibility of a two-body bar platform.

    Each bar contributes the line through its endpoints as a grade-2
    vector over R^{d+1}; the platform admits a nontrivial infinitesimal
    motion exactly when these C(d+1, 2) lines are linearly dependent.
    The conull functional is the skew form annihilating every bar line.
    Either mode wedges all the legs in one kernel call, as the cycle verdicts do.
    """
    rows = (_exact_minor_rows([_lift([p, q]) for p, q in platform.legs]) if exact
            else _minor_rows(_lift_stack(platform.legs, np.zeros((1, 0, platform.d)))))
    return _span_verdict(rows, tol)


# ---------------------------------------------------------------------------
# classical fixtures


def twisted_cubic_data(ts=(0, 1, -1, 2, -2, 3)) -> list[tuple[list, list]]:
    """Raw tangent-line data of the cubic t -> (t, t^2, t^3).

    Each entry is (point, direction) with exact arithmetic whenever the
    parameters are rational; the tangent at t passes through
    (t, t^2, t^3) with direction (1, 2t, 3t^2).
    """
    ts = list(ts)
    if len(set(ts)) != len(ts):
        raise ScenarioError("tangent parameters must be pairwise distinct")
    data = []
    for t in ts:
        t = Fraction(t) if isinstance(t, (int, Fraction)) else float(t)
        data.append(([t, t * t, t * t * t], [1 + 0 * t, 2 * t, 3 * t * t]))
    return data


def twisted_cubic_tangent_vectors(ts=(0, 1, -1, 2, -2, 3)) -> list[ExteriorVector]:
    """Tangent lines of the twisted cubic as exact grade-2 vectors over R^4."""
    return [flat_plucker([p], [u], exact=True) for p, u in twisted_cubic_data(ts)]


def mirror_through_z_axis(p) -> list:
    """Half-turn about the z axis: (x, y, z) -> (-x, -y, z)."""
    x, y, z = p
    return [-x, -y, z]


def bricard_symmetric_lines(seed: int = 0) -> list[tuple[list, list]]:
    """Six integer lines in R^3, symmetric in pairs about the z axis.

    Lines 4..6 are the half-turn images of lines 1..3, arranged so that
    opposite hinges of the six-cycle are the symmetric pairs. Integer
    data keeps the induced-involution dependence argument exact.
    """
    rng = rng_from(seed, 104729)
    while True:
        base = []
        for _ in range(3):
            p = [int(x) for x in rng.integers(-5, 6, 3)]
            u = [int(x) for x in rng.integers(-5, 6, 3)]
            if any(u):
                base.append((p, u))
        if len(base) != 3:
            continue
        lines = base + [
            (mirror_through_z_axis(p), mirror_through_z_axis(u)) for p, u in base
        ]
        # reject coincident line pairs; mobility fixtures want six distinct hinges
        if not any(_coincident(a, b) for a, b in itertools.combinations(lines, 2)):
            return [([int(x) for x in p], [int(x) for x in u]) for p, u in lines]


def _coincident(a, b) -> bool:
    """Whether integer lines (p, u) and (q, v) are one line: u x v = 0 and (q - p) x u = 0."""
    (p, u), (q, v) = a, b
    return not np.cross(u, v).any() and not np.cross(np.subtract(q, p), u).any()


def chair_hexagon_points(height: float = 0.5) -> np.ndarray:
    """Vertices of a chair-shaped hexagon: unit ring with alternating lift."""
    pts = []
    for i in range(6):
        a = i * np.pi / 3.0
        pts.append([np.cos(a), np.sin(a), height * (-1.0) ** i])
    return np.array(pts)


def desargues_legs(perturb=0) -> list[tuple[tuple, tuple]]:
    """Two triangles in perspective from the origin, joined vertex to vertex.

    The three legs are concurrent, hence dependent as lines. A nonzero
    ``perturb`` pushes one outer vertex off its ray, destroying the
    perspective and restoring full rank; rational values keep the
    instance exact.
    """
    rays = [(1, 0), (0, 1), (1, 1)]
    inner = [Fraction(1), Fraction(1), Fraction(1)]
    outer = [Fraction(2), Fraction(3), Fraction(5, 2)]
    perturb = Fraction(perturb)
    legs = []
    for idx, (vx, vy) in enumerate(rays):
        p = (inner[idx] * vx, inner[idx] * vy)
        q = (outer[idx] * vx, outer[idx] * vy)
        if idx == 0 and perturb:
            q = (q[0], q[1] + perturb)
        legs.append((p, q))
    return legs


def planar_arm_chain(lengths=(1, 1, 1)) -> Chain:
    """Planar serial arm with the given bar lengths, laid out along the x axis."""
    lengths = [float(x) for x in lengths]
    if not lengths or any(x <= 0 for x in lengths):
        raise ScenarioError("planar arm lengths must be positive")
    total = sum(lengths)  # the last joint sits at the sum, so an overflow would put it at inf
    if not np.isfinite(total):
        raise ScenarioError(f"planar arm lengths must have a finite sum, got {total}")
    joints = np.concatenate([[0.0], np.cumsum(lengths)])
    axes = tuple(Axis(2, np.array([x, 0.0]), np.zeros((0, 2))) for x in joints[:-1])
    end = Frame(2, np.array([joints[-1], 0.0]), np.zeros((0, 2)))
    return Chain(2, axes, end)


def _finite(params: dict, key: str, default):
    """``params[key]``, else ``default``: a number, or any other iterable as a tuple; a NaN or an infinity in it
    raises DefinitionError naming ``key``. The CLI's flag readers refuse these first."""
    value = params.get(key, default)
    value = value if isinstance(value, Number) else tuple(value)
    for x in value if isinstance(value, tuple) else (value,):
        if x != x or abs(x) == inf:
            raise DefinitionError(f"fixture parameter {key!r} must be finite, got {float(x)!r}")
    return value


def _fixture_fields(name: str, **params):
    """The fixture ``name`` as (kind, d, fields, chain): ``cli.Scenario``'s kind, d and fields, numbers as the fixture
    makes them, and the chain planar-arm and generic-cycle read Python floats off, else None. The one dispatch on
    fixture names and home of their defaults; it checks the numbers it reads with ``_finite`` (the planar arm's
    lengths are checked by ``planar_arm_chain``), ignores any other parameter and builds no line axis."""
    seed, fields, chain = params.get("seed", 0), {}, None
    if name == "twisted-cubic-tangents":
        lines = twisted_cubic_data(_finite(params, "ts", (0, 1, -1, 2, -2, 3)))
    elif name == "bricard-symmetric-six":
        lines, fields = bricard_symmetric_lines(seed), {"seed": seed}
    elif name == "cyclohexane-panels":
        pts = chair_hexagon_points(_finite(params, "height", 0.5))
        lines, fields = [(pts[i].tolist(), (pts[(i + 1) % 6] - pts[i]).tolist()) for i in range(6)], {"panel": True}
    elif name == "desargues":
        return "platform", 2, {"legs": tuple(desargues_legs(_finite(params, "perturb", 0)))}, None
    elif name == "planar-arm":
        chain = planar_arm_chain(params.get("lengths", (1, 1, 1)))
        axes, fields = chain.ref_axes, {"end_frame": (tuple(chain.end_frame.origin.tolist()), ())}
    elif name == "generic-cycle":
        chain = random_cycle(rng_from(seed, 7919), params.get("d", 3), params.get("n", 7))
        axes, fields = [*chain.ref_axes, chain.closing_axis], {"seed": seed}
    else:
        raise ScenarioError(f"unknown scenario {name!r}; choose one of {', '.join(SCENARIO_NAMES)}")
    if chain is None:
        return "cycle", 3, {"axes": tuple((tuple(p), (tuple(u),)) for p, u in lines), **fields}, None
    axes = tuple((tuple(a.origin.tolist()), tuple(map(tuple, a.dirs.tolist()))) for a in axes)
    return "chain" if "end_frame" in fields else "cycle", chain.d, {"axes": axes, **fields}, chain


def classical_scenario(name: str, **params):
    """Deterministic classical fixtures by name.

    twisted-cubic-tangents(ts): six (or more) tangent-line axes of the
    twisted cubic; bricard-symmetric-six(seed): six axes symmetric in
    pairs about the z axis; cyclohexane-panels(height): chair hexagon as
    a panel 6-cycle; desargues(perturb): perspective-triangle platform;
    planar-arm(lengths): flat serial arm; generic-cycle(d, n, seed):
    seeded random closed cycle. A line fixture whose coordinates leave
    the float range raises DefinitionError naming the fixture.
    """
    with np.errstate(over="ignore"):  # an overflowing chair is refused by name below, not warned about
        kind, d, fields, chain = _fixture_fields(name, **params)
    if chain is not None:
        return chain
    if kind == "platform":
        return Platform(d, fields["legs"])
    try:  # an exact coordinate past the float range overflows here
        lines = np.array([(*p, *u) for p, (u,) in fields["axes"]], dtype=float)
    except OverflowError:
        lines = None
    if lines is None or not np.isfinite(lines).all():
        raise DefinitionError(f"fixture {name!r} has a coordinate that is not a finite float")
    axes = [make_axis(d, row[:d], [row[d:]]) for row in lines]
    return cycle_chain(axes, panel=True) if fields.get("panel") else axes
