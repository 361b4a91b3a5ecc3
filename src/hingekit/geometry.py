"""Points, axes, frames and isometries of R^d, with coordinates in the
projective completion P_d.

Conventions used throughout the package:

* the homogeneous slot comes last: a point p lifts to (p, 1), a
  direction v lifts to (v, 0): ``_lift_stack`` for stacks of flats,
  ``_lift`` for ``flat_plucker`` and the exact list routes; every Plucker point
  of the package is a wedge of it;
* a hinge axis is a codimension-two affine subspace, stored as an origin
  plus d-2 orthonormal directions; its Plucker point is the decomposable
  grade-(d-1) vector (origin, 1) ^ (v_1, 0) ^ ... ^ (v_{d-2}, 0) over
  R^{d+1} (for d = 2 an axis is a point and the wedge degenerates to the
  homogeneous point itself);
* the rotation generator of an axis is the skew matrix
  J[a, b] = -det[dirs; e_a; e_b] / |v_1 ^ ... ^ v_{d-2}|, which pins
  down all rotation signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DefinitionError,
    DegenerateAxisError,
    DegenerateLineError,
    DimensionError,
    ParallelLinesError,
)
from .exterior import ExteriorVector, _complement_table, check_tolerance, numeric_rank, subset_index, subsets, top_pairing
from .exterior import wedge

__all__ = [
    "ORTHONORMAL_TOL",
    "Axis",
    "Frame",
    "Isometry",
    "AffineSubspace",
    "make_axis",
    "make_axes",
    "make_frame",
    "identity_isometry",
    "compose",
    "invert",
    "apply",
    "flat_plucker",
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
    a = np.array(a, dtype=float, order="C")  # one layout, whatever the input's: a product may round by it
    a.setflags(write=False)
    return a


def _rows(rows, dim: int, what: str) -> np.ndarray:
    """``rows`` as a (k, dim) float array; rows of another or of unequal widths raise DimensionError."""
    try:
        a = np.array(rows, dtype=float)
    except ValueError:  # rows of unequal widths, or an entry that is not a number
        a = None
    if a is None or a.size and a.shape[-1:] != (dim,):
        raise DimensionError(f"{what} must be rows of {dim} numbers")
    return a.reshape(-1, dim)


def _check_orthonormal(rows: np.ndarray, what: str, dependent=False) -> None:
    """The one orthonormality rule: raise DegenerateAxisError with the ``index`` of the first
    (k, d) item of an (n, k, d) stack that is ``dependent`` or not orthonormal within the tolerance."""
    if not rows.size:  # an empty stack, or items of no rows: an end-point frame or an axis of R^2
        return
    gram = rows @ rows.swapaxes(1, 2)
    # written as not (... <= ...) so that NaN and inf entries are rejected too
    bad = dependent | ~(np.abs(gram - _eye(gram.shape[1])).max(axis=(1, 2), initial=0.0) <= ORTHONORMAL_TOL)
    if bad.any():
        i = int(bad.argmax())
        problem = "are linearly dependent" if (dependent & bad)[i] else "must be orthonormal within 1e-12"
        raise DegenerateAxisError(f"{what} {problem}", index=i)


@dataclass(frozen=True, eq=False)
class Axis:
    """Codimension-two affine subspace of R^dim: a hinge.

    ``dirs`` holds dim-2 orthonormal rows spanning the direction space;
    for dim = 2 it is empty and the axis is a point.
    """

    dim: int
    origin: np.ndarray
    dirs: np.ndarray

    def __post_init__(self, rows_checked=False):
        if self.dim < 2:
            raise DimensionError("axes need ambient dimension >= 2")
        origin = _frozen(self.origin)
        dirs = _rows(self.dirs, self.dim, "axis directions")
        if origin.shape != (self.dim,):
            raise DimensionError(f"axis origin must be a point of R^{self.dim}")
        if dirs.shape[0] != self.dim - 2:
            raise DimensionError(f"an axis of R^{self.dim} needs {self.dim - 2} directions")
        if not rows_checked:
            _check_orthonormal(dirs[None], "axis directions")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "dirs", _frozen(dirs))


@dataclass(frozen=True, eq=False)
class Frame:
    """Point of R^dim with k ordered orthonormal vectors attached (k may be 0)."""

    dim: int
    origin: np.ndarray
    vecs: np.ndarray

    def __post_init__(self, rows_checked=False):
        origin = _frozen(self.origin)
        vecs = _rows(self.vecs, self.dim, "frame vectors")
        if origin.shape != (self.dim,):
            raise DimensionError(f"frame origin must be a point of R^{self.dim}")
        if vecs.shape[0] > self.dim:
            raise DimensionError("a frame cannot carry more vectors than dimensions")
        if not rows_checked:
            _check_orthonormal(vecs[None], "frame vectors")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "vecs", _frozen(vecs))

    @property
    def k(self) -> int:
        return self.vecs.shape[0]


@dataclass(frozen=True, eq=False, init=False)
class Isometry:
    """Orientation-preserving rigid motion x -> rot @ x + trans.

    ``rot`` is a rotation by construction (identity, products, inverses,
    and ``rotate_about`` of a validated Axis by a finite angle), so only
    shapes are checked here. Each field is a read-only C-ordered copy of
    the argument, so changing the caller's arrays later does not move it.
    """

    rot: np.ndarray
    trans: np.ndarray

    def __init__(self, rot, trans):
        rot, trans = _frozen(rot), _frozen(trans)
        if rot.shape != (trans.shape[0],) * 2:
            raise DimensionError("rotation and translation dimensions disagree")
        self.__dict__.update(rot=rot, trans=trans)

    @property
    def dim(self) -> int:
        return self.trans.shape[0]


def _orthonormalize(raw: np.ndarray, what: str) -> np.ndarray:
    """Orthonormalize the rows of each (k, d) item of an (n, k, d) stack, in order.

    One QR over the stack, with R's diagonal made positive. The first bad
    item in input order raises DegenerateAxisError with its ``index``: its
    rows are dependent (some |R_jj| <= 1e-10 max |item|), or else its result
    is not orthonormal within ORTHONORMAL_TOL.
    """
    if raw.shape[1] == 0:
        return raw
    q, r = np.linalg.qr(raw.swapaxes(1, 2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    # an all-zero item has a zero diagonal, so it is dependent at any scale
    dependent = (np.abs(diag) <= 1e-10 * np.abs(raw).max(axis=(1, 2))[:, None]).any(axis=1)
    rows = (q * np.sign(diag)[:, None, :]).swapaxes(1, 2)
    _check_orthonormal(rows, what, dependent)
    return rows


def _unchecked(cls, dim: int, origin, rows):
    """An Axis or Frame (``cls``) of rows computed from checked ones, not checked again."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, (dim, _frozen(origin), _frozen(rows))))
    return obj


def make_axes(dim: int, origins, raw_dirs) -> list[Axis]:
    """Axes through origins[i] spanned by raw_dirs[i], each orthonormalized in order.

    ``origins`` is (n, dim) and ``raw_dirs`` (n, dim - 2, dim). The directions
    are orthonormalized and checked as one stack, by the rules of
    ``make_axis``; the first bad axis raises DegenerateAxisError with its
    position as ``index``. The Axis objects are not checked again.
    """
    origins = np.asarray(origins, dtype=float)
    raw = np.asarray(raw_dirs, dtype=float)
    if dim < 2 or origins.shape != raw.shape[:1] + (dim,) or raw.shape[1:] != (dim - 2, dim):
        raise DimensionError(f"axes of R^{dim} need (n, {dim}) origins and (n, {dim - 2}, {dim}) directions")
    return [_unchecked(Axis, dim, o, dirs) for o, dirs in zip(origins, _orthonormalize(raw, "axis directions"))]


def make_axis(dim: int, origin, raw_dirs) -> Axis:
    """Axis through ``origin`` spanned by ``raw_dirs``, orthonormalized in order."""
    raw = _rows(list(raw_dirs), dim, "axis directions")[None]
    axis = _unchecked(Axis, dim, np.asarray(origin, dtype=float), _orthonormalize(raw, "axis directions")[0])
    axis.__post_init__(rows_checked=True)  # shape checks only: _orthonormalize checked the rows
    return axis


def make_frame(dim: int, origin, raw_vecs) -> Frame:
    """Frame at ``origin`` with vectors orthonormalized in order (may be empty)."""
    raw = _rows(list(raw_vecs), dim, "frame vectors")[None]
    if raw.shape[1] > dim:  # the reduced QR would keep only the first dim rows
        raise DimensionError("a frame cannot carry more vectors than dimensions")
    frame = _unchecked(Frame, dim, np.asarray(origin, dtype=float), _orthonormalize(raw, "frame vectors")[0])
    frame.__post_init__(rows_checked=True)
    return frame


def identity_isometry(dim: int) -> Isometry:
    return Isometry(np.eye(dim), np.zeros(dim))


def compose(g: Isometry, f: Isometry) -> Isometry:
    """The motion applying f first, then g."""
    return Isometry(g.rot.dot(f.rot), g.rot.dot(f.trans) + g.trans)


def invert(iso: Isometry) -> Isometry:
    return Isometry(iso.rot.T, -(iso.rot.T @ iso.trans))


def apply(iso: Isometry, obj):
    """Move a point, Axis or Frame by an isometry."""
    if isinstance(obj, (Axis, Frame)):
        moved = _moved(iso, obj)
        moved.__post_init__()  # the isometry may be the caller's own, so check what it moved
        return moved
    p = np.asarray(obj, dtype=float)
    if p.shape != (iso.dim,):
        raise DimensionError(f"cannot move a shape-{p.shape} object in R^{iso.dim}")
    return iso.rot @ p + iso.trans


def _moved(iso: Isometry, obj):
    """An Axis or Frame moved by a rotation the package computed: ``apply`` without its check."""
    rows = obj.dirs if isinstance(obj, Axis) else obj.vecs
    return _unchecked(type(obj), obj.dim, iso.rot.dot(obj.origin) + iso.trans, rows.dot(iso.rot.T))


def _lift(points, dirs=()) -> list[list]:
    """Homogeneous rows of a flat: (p, 1) for each point, (v, 0) for each direction."""
    return [[*p, 1] for p in points] + [[*v, 0] for v in dirs]


def _lift_stack(points, dirs) -> np.ndarray:
    """``_lift`` of n flats at once: points (n, a, d) and directions (n, b, d) in, either shared
    by all flats when its n is 1; the C-ordered (n, a + b, d + 1) rows out. An int64 or object
    array of points (ints and Fractions) lifts in its own dtype; anything else lifts to floats."""
    dtype = points.dtype if isinstance(points, np.ndarray) and points.dtype in (np.int64, object) else float
    points, dirs = np.asarray(points, dtype=dtype), np.asarray(dirs, dtype=dtype)
    a, d = points.shape[1:]
    out = np.zeros((max(len(points), len(dirs)), a + dirs.shape[1], d + 1), dtype=dtype)
    out[:, :a, :d], out[:, :a, d], out[:, a:, :d] = points, 1, dirs
    return out


def flat_plucker(points, dirs=(), exact: bool = False) -> ExteriorVector:
    """Plucker point of the flat through ``points`` along ``dirs``.

    The wedge, exact or float as ``wedge`` computes it, of the homogeneous
    points (p, 1) and directions (v, 0). Nothing is validated: dependent
    inputs give the zero vector.
    """
    return wedge(_lift(points, dirs), exact=exact)


def axis_plucker(axis: Axis) -> ExteriorVector:
    """Plucker point of an axis: grade d-1 over R^{d+1}.

    Projectively invariant under sliding the origin along the axis and
    under re-basing the directions with the same orientation; an
    orientation flip negates it.
    """
    return flat_plucker([axis.origin], axis.dirs)


def line_plucker(p, u) -> ExteriorVector:
    """Plucker coordinates of the affine line through p with direction u."""
    if not np.any(u):
        raise DegenerateLineError("a line needs a nonzero direction")
    return flat_plucker([p], [u])


def incident(line: ExteriorVector, axis_point: ExteriorVector, tol: float = 1e-10) -> bool:
    """Projective incidence of a line with an axis.

    True when the top pairing vanishes relative to both norms, which
    covers an affine meeting point as well as parallelism (a common
    point at infinity).
    """
    pairing = top_pairing(line, axis_point)
    return abs(float(pairing)) <= check_tolerance(tol) * line.norm() * axis_point.norm()


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
    return _turn(rotation_generator(axis), axis.origin, np.sin(angle), 1.0 - np.cos(angle))


def _turn(J: np.ndarray, origin: np.ndarray, sin, vers) -> Isometry:
    """Rodrigues' turn I + sin J + vers J^2 (valid since J^3 = -J) about the axis through ``origin`` with unit-speed
    generator J, given the sine and versine of an angle its caller checked; a zero angle gives exactly the identity.
    Its products, like ``compose``'s and ``_moved``'s, are ``ndarray.dot``: on contiguous operands the same BLAS call
    as ``@``, without the ufunc dispatch."""
    rot = _eye(J.shape[0]) + sin * J + vers * J.dot(J)
    return Isometry(rot, origin - rot.dot(origin))


@lru_cache(maxsize=None)  # one entry per dimension in use
def _eye(d: int) -> np.ndarray:
    """The read-only d x d identity, shared by every Rodrigues step."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


@lru_cache(maxsize=None)
def _plucker_to_twist(d: int) -> np.ndarray:
    """Signed permutation M_d taking an axis's Plucker point to its twist.

    The twist of an axis with generator J and origin o lists J[a, b] for
    a < b < d in ``subsets(d, 2)`` order, then -J @ o. It is (-1)^(d+1)
    times the Hodge star of the Plucker point: the coefficient of the pair
    {a, b} of range(d+1), with slot d standing for the moment -J @ o.
    """
    idx, sgn = _complement_table(d + 1, 2)
    pairs = list(subsets(d, 2)) + [(a, d) for a in range(d)]
    rows = [subset_index(d + 1, p) for p in pairs]
    M = np.zeros((len(rows), len(rows)))
    M[np.arange(len(rows)), idx[rows]] = (-1.0) ** (d + 1) * sgn[rows]
    M.setflags(write=False)
    return M


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
        object.__setattr__(self, "dirs", _frozen(_rows(self.dirs, self.dim, "flat directions")))

    @property
    def flat_dim(self) -> int:
        return self.dirs.shape[0]

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.linalg.norm(p - project_affine(p, self)) <= 1e-9 * (1.0 + np.linalg.norm(p)))


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
