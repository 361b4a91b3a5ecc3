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
from math import comb

import numpy as np

from .chain import Chain, cycle_chain, forward_kinematics, frame_columns, frame_map_jacobian
from .errors import (
    ConsistencyError,
    DefinitionError,
    DegenerateAxisError,
    DegenerateLegError,
    DimensionError,
    ScenarioError,
    WrongMapError,
)
from .exterior import ExteriorVector, RankCertificate, numeric_rank, rank_of_span, top_pairing, wedge
from .geometry import Axis, Frame, axis_plucker, line_plucker, make_axis
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
    "axis_plucker_exact",
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
    cycles and platforms), ``full_rank`` the generic value; ``singular``
    holds exactly when rank < full_rank. The witness is a WitnessLine for
    end-point verdicts and the hyperplane functional (the certificate's
    conull vector) for cycle and platform verdicts.
    """

    rank: int
    full_rank: int
    singular: bool
    certificate: RankCertificate
    witness: WitnessLine | np.ndarray | None = None
    mobility: int | None = None
    null_directions: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Platform:
    """Two rigid bodies joined by C(d+1, 2) bars.

    Leg endpoints may be floats or rationals (int / Fraction); rational
    legs allow the exact verdict path.
    """

    d: int
    legs: tuple[tuple[tuple, tuple], ...]

    def __post_init__(self):
        want = comb(self.d + 1, 2)
        legs = tuple((tuple(p), tuple(q)) for p, q in self.legs)
        if len(legs) != want:
            raise DefinitionError(f"a platform in R^{self.d} needs exactly {want} legs")
        for i, (p, q) in enumerate(legs):
            if len(p) != self.d or len(q) != self.d:
                raise DefinitionError(f"leg {i + 1}: endpoints must be points of R^{self.d}")
            if all(float(a) == float(b) for a, b in zip(p, q)):
                raise DegenerateLegError(f"leg {i + 1} has coincident endpoints")
        object.__setattr__(self, "legs", legs)


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


def _direction_grid(d: int, step_deg: float) -> np.ndarray:
    if d == 2:
        ang = np.deg2rad(np.arange(0.0, 180.0, step_deg))
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if d == 3:
        polar = np.deg2rad(np.arange(0.0, 90.0 + step_deg, step_deg))
        azimuth = np.deg2rad(np.arange(0.0, 360.0, step_deg))
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


def grid_incident_line(
    endpoint,
    axes,
    step_deg: float = 1.0,
    rel_tol: float = 5e-4,
    refine: bool = True,
) -> tuple[bool, np.ndarray, float]:
    """Brute-force oracle: scan unit directions for an all-axes incident line.

    Covers d = 2, 3. A global grid at ``step_deg`` resolution picks
    candidate directions; with ``refine`` (the default) the best
    candidates are polished on two levels of finer tangent-plane grids,
    which sharpens the decision boundary to ~2e-4 so that exactly
    singular poses separate cleanly from nearby regular ones. Returns
    (found, best_direction, worst_relative_residual) where the residual
    of a direction is its largest incidence pairing against any axis,
    relative to that axis row's norm. Not a production path: pure
    sampling, independent of the Jacobian/SVD machinery it cross-checks.
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

    grid = _direction_grid(len(np.asarray(endpoint)), step_deg)
    worst = residuals(grid)
    order = np.argsort(worst)
    best_dir = grid[order[0]]
    best_val = float(worst[order[0]])
    if refine:
        coarse = np.deg2rad(step_deg)
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
    return best_val <= rel_tol, best_dir, best_val


def endpoint_singularity(chain: Chain, theta, tol: float = 1e-10) -> Verdict:
    """Rank verdict of the end-point map, with an incident-line witness.

    Singular means rank < d. The witness direction is a unit left-null
    vector of the analytic Jacobian; it is cross-checked geometrically
    (the witness line must pair to zero with every placed axis) and any
    disagreement raises ConsistencyError rather than being swallowed.
    """
    if chain.end_frame.k != 0:
        raise WrongMapError("endpoint_singularity needs a chain with a bare end-point")
    pl = forward_kinematics(chain, theta)
    jac = frame_map_jacobian(chain, theta, placement=pl)
    rank, cutoff, u, sig, _ = numeric_rank(jac, tol)
    singular = rank < chain.d
    witness = None
    conull = None
    null_basis = None
    if singular:
        nu = u[:, rank].copy()
        lead = int(np.argmax(np.abs(nu)))
        if nu[lead] < 0:
            nu = -nu
        witness = WitnessLine(pl.frame_at.origin, nu)
        conull = nu
        # every deficiency direction is a witness, so hand back all of them
        null_basis = u[:, rank:].T.copy()
        _check_witness(pl, witness, cutoff)
        for extra in null_basis[1:]:
            _check_witness(pl, WitnessLine(pl.frame_at.origin, extra), cutoff)
    certificate = RankCertificate(rank, sig, singular, conull)
    return Verdict(rank, chain.d, singular, certificate, witness, null_directions=null_basis)


def _check_witness(placement, witness: WitnessLine, cutoff: float) -> None:
    line = line_plucker(witness.point, witness.direction)
    for i, axis in enumerate(placement.axes_at):
        alpha = axis_plucker(axis)
        bound = 8.0 * cutoff + 1e-12 * line.norm() * alpha.norm()
        pairing = abs(top_pairing(line, alpha))
        if pairing > bound:
            raise ConsistencyError(
                f"rank verdict says singular but the witness misses axis {i + 1} "
                f"(pairing {pairing:.3e} > bound {bound:.3e})"
            )


def stabilizer_pluckers(frame: Frame) -> list[ExteriorVector]:
    """Plucker points spanning the stabilizer of a k-frame.

    Rotations fixing the frame are rotations of the orthogonal complement
    of its span, about its origin; each complement coordinate pair {a, b}
    contributes the axis through the origin whose directions are the
    frame vectors plus the remaining complement vectors. C(d-k, 2) points
    in all; empty once d - k <= 1.
    """
    d, k = frame.dim, frame.k
    if d - k <= 1:
        return []
    if k == 0:
        complement = np.eye(d)
    else:
        _, _, vh = np.linalg.svd(frame.vecs, full_matrices=True)
        complement = vh[k:]
    points = []
    for a, b in itertools.combinations(range(d - k), 2):
        keep = [complement[c] for c in range(d - k) if c not in (a, b)]
        dirs = np.vstack([frame.vecs] + [np.array(keep).reshape(-1, d)])
        points.append(axis_plucker(Axis(d, frame.origin, dirs)))
    return points


def frame_singularity(chain: Chain, theta, tol: float = 1e-10) -> Verdict:
    """Rank verdict of the end-frame map for any k.

    Assembles the placed axis Plucker points together with the stabilizer
    points of the placed frame; the map is singular exactly when this
    span misses a hyperplane's worth of the ambient C(d+1, 2) dimensions.
    The reported rank subtracts the stabilizer dimension so it equals the
    differential's rank; the certificate's conull vector is the
    hyperplane functional.
    """
    d = chain.d
    k = chain.end_frame.k
    pl = forward_kinematics(chain, theta)
    columns = frame_columns(chain, theta, placement=pl) + stabilizer_pluckers(pl.frame_at)
    full_dim = comb(d + 1, 2)
    stab_dim = comb(d - k, 2)
    certificate = rank_of_span(columns, expected_rank=full_dim, tol=tol)
    rank = certificate.rank - stab_dim
    full_rank = full_dim - stab_dim
    singular = certificate.rank < full_dim
    return Verdict(rank, full_rank, singular, certificate, witness=certificate.conull)


def cycle_mobility(axes, tol: float = 1e-10) -> Verdict:
    """Infinitesimal mobility of a hinged cycle from its axis Plucker span.

    The space of closure-compatible rotation speeds has dimension
    n - rank(span); for n = C(d+1, 2) a deficient span means an
    infinitesimally flexible cycle. The conull functional is the
    hyperplane section containing all axis points.
    """
    axes = list(axes)
    if len(axes) < 2:
        raise DefinitionError("a cycle needs at least two axes")
    d = axes[0].dim
    full_dim = comb(d + 1, 2)
    certificate = rank_of_span([axis_plucker(a) for a in axes], expected_rank=full_dim, tol=tol)
    return Verdict(
        certificate.rank,
        full_dim,
        certificate.rank < full_dim,
        certificate,
        witness=certificate.conull,
        mobility=len(axes) - certificate.rank,
    )


def axis_plucker_exact(origin, dirs) -> ExteriorVector:
    """Exact Plucker point from rational axis data (directions need not be unit)."""
    origin = list(origin)
    d = len(origin)
    rows = [origin + [1]] + [list(v) + [0] for v in dirs]
    vec = wedge(rows, exact=True)
    if vec.is_zero():
        raise DegenerateAxisError("axis directions are linearly dependent")
    return vec


def cycle_mobility_exact(raw_axes) -> Verdict:
    """Exact-rational cycle mobility from raw (origin, direction rows) data.

    Plucker points only depend projectively on a spanning set, so the
    directions are wedged as given, without orthonormalization; this
    keeps every coefficient rational and the rank exact.
    """
    vectors = [axis_plucker_exact(origin, dirs) for origin, dirs in raw_axes]
    d = vectors[0].ambient - 1
    full_dim = comb(d + 1, 2)
    certificate = rank_of_span(vectors, expected_rank=full_dim)
    return Verdict(
        certificate.rank,
        full_dim,
        certificate.rank < full_dim,
        certificate,
        witness=certificate.conull,
        mobility=len(vectors) - certificate.rank,
    )


def platform_flexibility(platform: Platform, tol: float = 1e-10, exact: bool = False) -> Verdict:
    """Infinitesimal flexibility of a two-body bar platform.

    Each bar contributes the line through its endpoints as a grade-2
    vector over R^{d+1}; the platform admits a nontrivial infinitesimal
    motion exactly when these C(d+1, 2) lines are linearly dependent.
    The conull functional is the skew form annihilating every bar line.
    """
    full_dim = comb(platform.d + 1, 2)
    vectors = [
        wedge([list(p) + [1], list(q) + [1]], exact=exact) for p, q in platform.legs
    ]
    certificate = rank_of_span(vectors, expected_rank=full_dim, tol=tol)
    return Verdict(
        certificate.rank,
        full_dim,
        certificate.rank < full_dim,
        certificate,
        witness=certificate.conull,
    )


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


def twisted_cubic_tangent_vectors(ts=(0, 1, -1, 2, -2, 3), exact: bool = True) -> list[ExteriorVector]:
    """Tangent lines of the twisted cubic as grade-2 vectors over R^4."""
    return [
        wedge([list(p) + [1], list(u) + [0]], exact=exact)
        for p, u in twisted_cubic_data(ts)
    ]


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
        units = []
        for p, u in lines:
            vec = wedge([list(p) + [1], list(u) + [0]])
            units.append(vec.coeffs / vec.norm())
        distinct = all(
            min(
                np.linalg.norm(units[i] - units[j]),
                np.linalg.norm(units[i] + units[j]),
            )
            > 1e-9
            for i in range(len(units))
            for j in range(i + 1, len(units))
        )
        if distinct:
            return [([int(x) for x in p], [int(x) for x in u]) for p, u in lines]


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
    if not isinstance(perturb, (int, Fraction)):
        perturb = Fraction(*float(perturb).as_integer_ratio())
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
    joints = np.concatenate([[0.0], np.cumsum(lengths)])
    axes = tuple(Axis(2, np.array([x, 0.0]), np.zeros((0, 2))) for x in joints[:-1])
    end = Frame(2, np.array([joints[-1], 0.0]), np.zeros((0, 2)))
    return Chain(2, axes, end)


def classical_scenario(name: str, **params):
    """Deterministic classical fixtures by name.

    twisted-cubic-tangents(ts): six (or more) tangent-line axes of the
    twisted cubic; bricard-symmetric-six(seed): six axes symmetric in
    pairs about the z axis; cyclohexane-panels(height): chair hexagon as
    a panel 6-cycle; desargues(perturb): perspective-triangle platform;
    planar-arm(lengths): flat serial arm; generic-cycle(d, n, seed):
    seeded random closed cycle.
    """
    if name == "twisted-cubic-tangents":
        data = twisted_cubic_data(params.get("ts", (0, 1, -1, 2, -2, 3)))
        return [make_axis(3, [float(x) for x in p], [[float(x) for x in u]]) for p, u in data]
    if name == "bricard-symmetric-six":
        lines = bricard_symmetric_lines(params.get("seed", 0))
        return [make_axis(3, p, [u]) for p, u in lines]
    if name == "cyclohexane-panels":
        pts = chair_hexagon_points(params.get("height", 0.5))
        axes = [
            make_axis(3, pts[i], [pts[(i + 1) % 6] - pts[i]]) for i in range(6)
        ]
        return cycle_chain(axes, panel=True)
    if name == "desargues":
        return Platform(2, tuple(desargues_legs(params.get("perturb", 0))))
    if name == "planar-arm":
        return planar_arm_chain(params.get("lengths", (1, 1, 1)))
    if name == "generic-cycle":
        rng = rng_from(params.get("seed", 0), 7919)
        return random_cycle(rng, params.get("d", 3), params.get("n", 7))
    raise ScenarioError(f"unknown scenario {name!r}; choose one of {', '.join(SCENARIO_NAMES)}")
