"""Points, axes, frames and isometries of R^d, with coordinates in the
projective completion P_d.

Conventions used throughout the package:

* the homogeneous slot comes last: a point p lifts to (p, 1), a
  direction v lifts to (v, 0);
* a hinge axis is a codimension-two affine subspace, stored as an origin
  plus d-2 orthonormal directions; its Plucker point is the decomposable
  grade-(d-1) vector lift(origin) ^ lift0(v_1) ^ ... ^ lift0(v_{d-2})
  over R^{d+1} (for d = 2 an axis is a point and the wedge degenerates
  to the homogeneous point itself);
* the rotation generator of an axis is the skew matrix
  J[a, b] = -det[dirs; e_a; e_b] / |v_1 ^ ... ^ v_{d-2}|, which pins
  down all rotation signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DefinitionError,
    DegenerateAxisError,
    DegenerateLineError,
    DimensionError,
    ParallelLinesError,
)
from .exterior import ExteriorVector, _complement_table, numeric_rank, subsets, top_pairing, wedge

__all__ = [
    "ORTHONORMAL_TOL",
    "Axis",
    "Frame",
    "Isometry",
    "AffineSubspace",
    "make_axis",
    "make_frame",
    "identity_isometry",
    "compose",
    "invert",
    "apply",
    "lift_point",
    "lift_dir",
    "axis_plucker",
    "line_plucker",
    "incident",
    "rotation_generator",
    "rotate_about",
    "common_perpendicular",
    "affine_intersection",
    "project_affine",
]

ORTHONORMAL_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _check_orthonormal_rows(rows: np.ndarray, what: str) -> None:
    if rows.shape[0] == 0:
        return
    gram = rows @ rows.T
    # written as not (... <= ...) so that NaN and inf entries are rejected too
    if not np.abs(gram - np.eye(rows.shape[0])).max() <= ORTHONORMAL_TOL:
        raise DegenerateAxisError(f"{what} must be orthonormal within 1e-12")


@dataclass(frozen=True, eq=False)
class Axis:
    """Codimension-two affine subspace of R^dim: a hinge.

    ``dirs`` holds dim-2 orthonormal rows spanning the direction space;
    for dim = 2 it is empty and the axis is a point.
    """

    dim: int
    origin: np.ndarray
    dirs: np.ndarray

    def __post_init__(self):
        if self.dim < 2:
            raise DimensionError("axes need ambient dimension >= 2")
        origin = _frozen(self.origin)
        dirs = np.array(self.dirs, dtype=float).reshape(-1, self.dim)
        if origin.shape != (self.dim,):
            raise DimensionError(f"axis origin must be a point of R^{self.dim}")
        if dirs.shape[0] != self.dim - 2:
            raise DimensionError(
                f"an axis of R^{self.dim} needs {self.dim - 2} directions"
            )
        _check_orthonormal_rows(dirs, "axis directions")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "dirs", _frozen(dirs))


@dataclass(frozen=True, eq=False)
class Frame:
    """Point of R^dim with k ordered orthonormal vectors attached (k may be 0)."""

    dim: int
    origin: np.ndarray
    vecs: np.ndarray

    def __post_init__(self):
        origin = _frozen(self.origin)
        vecs = np.array(self.vecs, dtype=float).reshape(-1, self.dim)
        if origin.shape != (self.dim,):
            raise DimensionError(f"frame origin must be a point of R^{self.dim}")
        if vecs.shape[0] > self.dim:
            raise DimensionError("a frame cannot carry more vectors than dimensions")
        _check_orthonormal_rows(vecs, "frame vectors")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "vecs", _frozen(vecs))

    @property
    def k(self) -> int:
        return self.vecs.shape[0]


@dataclass(frozen=True, eq=False)
class Isometry:
    """Orientation-preserving rigid motion x -> rot @ x + trans.

    ``rot`` is a rotation by construction (identity, products, inverses,
    and ``rotate_about`` of a validated Axis by a finite angle), so only
    shapes are checked here.
    """

    rot: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        rot = _frozen(self.rot)
        trans = _frozen(self.trans)
        d = trans.shape[0]
        if rot.shape != (d, d):
            raise DimensionError("rotation and translation dimensions disagree")
        object.__setattr__(self, "rot", rot)
        object.__setattr__(self, "trans", trans)

    @property
    def dim(self) -> int:
        return self.trans.shape[0]


def _gram_schmidt(raw: np.ndarray, what: str) -> np.ndarray:
    """Orthonormalize rows in order; rejects dependent inputs."""
    if raw.shape[0] == 0:
        return raw
    q, r = np.linalg.qr(raw.T)
    diag = np.diag(r)
    scale = np.max(np.abs(raw)) or 1.0
    if np.any(np.abs(diag) <= 1e-10 * scale):
        raise DegenerateAxisError(f"{what} are linearly dependent")
    return (q * np.sign(diag)).T


def make_axis(dim: int, origin, raw_dirs) -> Axis:
    """Axis through ``origin`` spanned by ``raw_dirs``, orthonormalized in order."""
    raw = np.array(list(raw_dirs), dtype=float).reshape(-1, dim)
    return Axis(dim, np.asarray(origin, dtype=float), _gram_schmidt(raw, "axis directions"))


def make_frame(dim: int, origin, raw_vecs) -> Frame:
    """Frame at ``origin`` with vectors orthonormalized in order (may be empty)."""
    raw = np.array(list(raw_vecs), dtype=float).reshape(-1, dim)
    return Frame(dim, np.asarray(origin, dtype=float), _gram_schmidt(raw, "frame vectors"))


def identity_isometry(dim: int) -> Isometry:
    return Isometry(np.eye(dim), np.zeros(dim))


def compose(g: Isometry, f: Isometry) -> Isometry:
    """The motion applying f first, then g."""
    return Isometry(g.rot @ f.rot, g.rot @ f.trans + g.trans)


def invert(iso: Isometry) -> Isometry:
    return Isometry(iso.rot.T, -(iso.rot.T @ iso.trans))


def apply(iso: Isometry, obj):
    """Move a point, Axis or Frame by an isometry."""
    if isinstance(obj, Axis):
        return Axis(obj.dim, iso.rot @ obj.origin + iso.trans, obj.dirs @ iso.rot.T)
    if isinstance(obj, Frame):
        return Frame(obj.dim, iso.rot @ obj.origin + iso.trans, obj.vecs @ iso.rot.T)
    p = np.asarray(obj, dtype=float)
    if p.shape != (iso.dim,):
        raise DimensionError(f"cannot move a shape-{p.shape} object in R^{iso.dim}")
    return iso.rot @ p + iso.trans


def lift_point(p) -> np.ndarray:
    """Homogeneous lift (p, 1)."""
    p = np.asarray(p, dtype=float)
    return np.append(p, 1.0)


def lift_dir(v) -> np.ndarray:
    """Direction lift (v, 0), a point at infinity."""
    v = np.asarray(v, dtype=float)
    return np.append(v, 0.0)


def axis_plucker(axis: Axis) -> ExteriorVector:
    """Plucker point of an axis: grade d-1 over R^{d+1}.

    Projectively invariant under sliding the origin along the axis and
    under re-basing the directions with the same orientation; an
    orientation flip negates it.
    """
    rows = [lift_point(axis.origin)] + [lift_dir(v) for v in axis.dirs]
    return wedge(rows)


def line_plucker(p, u) -> ExteriorVector:
    """Plucker coordinates of the affine line through p with direction u."""
    u = np.asarray(u, dtype=float)
    if not np.any(u):
        raise DegenerateLineError("a line needs a nonzero direction")
    return wedge([lift_point(p), lift_dir(u)])


def incident(line: ExteriorVector, axis_point: ExteriorVector, tol: float = 1e-10) -> bool:
    """Projective incidence of a line with an axis.

    True when the top pairing vanishes relative to both norms, which
    covers an affine meeting point as well as parallelism (a common
    point at infinity).
    """
    pairing = top_pairing(line, axis_point)
    return abs(float(pairing)) <= tol * line.norm() * axis_point.norm()


def rotation_generator(axis: Axis) -> np.ndarray:
    """Skew matrix J of the unit-speed rotation fixing the axis.

    J[a, b] = -det[dirs; e_a; e_b] / |v_1 ^ ... ^ v_{d-2}|, read off the
    wedge of the directions with the shuffle signs of ``top_pairing``.
    A point p moves with velocity J @ (p - origin); J annihilates the
    axis directions and J^3 = -J.
    """
    d = axis.dim
    w = wedge(list(axis.dirs), ambient=d).coeffs
    idx, sgn = _complement_table(d, 2)
    a, b = np.array(subsets(d, 2)).T
    J = np.zeros((d, d))
    # dividing by |w| keeps J unit-speed for placed axes, whose directions drift by rounding
    J[a, b] = -(sgn * w[idx]) / np.linalg.norm(w)
    return J - J.T


def rotate_about(axis: Axis, angle: float) -> Isometry:
    """The isometry fixing the axis pointwise and turning its complement plane.

    The sign convention is the one of ``rotation_generator``;
    ``rotate_about(a, 0)`` is exactly the identity. A non-finite angle
    raises DefinitionError.
    """
    if not math.isfinite(angle):
        raise DefinitionError(f"rotation angle must be finite, got {float(angle)!r}")
    J = rotation_generator(axis)
    rot = np.eye(axis.dim) + np.sin(angle) * J + (1.0 - np.cos(angle)) * (J @ J)
    return Isometry(rot, axis.origin - rot @ axis.origin)


def common_perpendicular(line1, line2) -> tuple[np.ndarray, np.ndarray]:
    """Feet of the shortest segment between two non-parallel lines.

    Lines are (point, direction) pairs. The returned feet lie on their
    lines and their difference is orthogonal to both directions.
    """
    p1, u1 = (np.asarray(x, dtype=float) for x in line1)
    p2, u2 = (np.asarray(x, dtype=float) for x in line2)
    a, b, c = u1 @ u1, u1 @ u2, u2 @ u2
    denom = a * c - b * b
    if denom <= 1e-12 * a * c:
        raise ParallelLinesError("parallel lines have no unique common perpendicular")
    w = p2 - p1
    t1, t2 = np.linalg.solve(np.array([[a, -b], [b, -c]]), np.array([u1 @ w, u2 @ w]))
    return p1 + t1 * u1, p2 + t2 * u2


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """Affine flat of R^dim: origin plus orthonormal direction rows.

    ``near_degenerate`` marks flats whose defining system was almost rank
    deficient, so the reported dimension should not be trusted blindly.
    """

    dim: int
    origin: np.ndarray
    dirs: np.ndarray
    near_degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "origin", _frozen(self.origin))
        object.__setattr__(self, "dirs", _frozen(np.array(self.dirs, dtype=float).reshape(-1, self.dim)))

    @property
    def flat_dim(self) -> int:
        return self.dirs.shape[0]

    def contains(self, p, tol: float = 1e-9) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.linalg.norm(p - project_affine(p, self)) <= tol * (1.0 + np.linalg.norm(p)))


def affine_intersection(subspaces) -> AffineSubspace | None:
    """Intersection of affine flats (anything exposing origin/dirs rows).

    Returns None for an empty intersection. A point comes back as a flat
    of dimension 0. The stacked constraint system is ranked by
    ``numeric_rank`` at machine epsilon; the near_degenerate flag is
    raised when an informative singular value sits within 1e-10 (relative
    to the largest) of dropping out.
    """
    flats = list(subspaces)
    if not flats:
        raise DimensionError("affine_intersection needs at least one subspace")
    d = flats[0].origin.shape[0]
    blocks = []
    rhs = []
    for s in flats:
        D = np.asarray(s.dirs, dtype=float).reshape(-1, d)
        normal = np.eye(d) - D.T @ D
        blocks.append(normal)
        rhs.append(normal @ np.asarray(s.origin, dtype=float))
    A = np.vstack(blocks)
    b = np.concatenate(rhs)
    rank, _, u, sig, vh = numeric_rank(A, np.finfo(float).eps)
    near_degenerate = bool(rank > 0 and sig[rank - 1] < 1e-10 * sig[0])
    if rank == 0:
        x0 = np.zeros(d)
    else:
        x0 = vh[:rank].T @ ((u[:, :rank].T @ b) / sig[:rank])
    residual = np.linalg.norm(A @ x0 - b)
    if residual > 1e-8 * max(1.0, np.linalg.norm(b)):
        return None
    return AffineSubspace(d, x0, vh[rank:], near_degenerate)


def project_affine(p, flat) -> np.ndarray:
    """Orthogonal projection of a point onto an affine flat."""
    p = np.asarray(p, dtype=float)
    origin = np.asarray(flat.origin, dtype=float)
    D = np.asarray(flat.dirs, dtype=float).reshape(-1, p.shape[0])
    return origin + D.T @ (D @ (p - origin))
