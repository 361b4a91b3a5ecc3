"""Hinged chains and cycles: forward kinematics on the angle torus, the
end-point / end-frame maps, their differentials, and fiber tracking.

A configuration is a plain length-(n-1) float array of angles; theta = 0
is the reference placement. Joint i turns everything from body i+1 on
about the currently placed axis A_i(theta) = g_i(A_i), so body placements
compose as g_{i+1} = (rotation by theta_i about A_i(theta)) after g_i,
with g_1 the identity on the first body. The placed axis turns with the
generator R_i J_i R_i^T: the reference generator J_i conjugated by the
rotation part R_i of g_i, rescaled to the Frobenius norm sqrt(2) of a
unit-speed generator so rounding drift does not compound along the
chain. Jacobian columns and Plucker points of the placed axes are read
off these generators and the placed axis origins. Placed axes and frames
are moved from checked ones by these rotations and not checked again.

``_place`` builds one ``Placement`` an ``Isometry`` at a time; ``_place_many``
builds a stack of them, bit for bit the same, from stacked products.
A ``Placement`` is immutable, and placing the same chain object at the
same configuration as the call before returns the same ``Placement``: one
``lru_cache`` entry keyed by the chain's identity and the angle bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, isfinite, sqrt

import numpy as np

from .errors import DefinitionError, ProjectionError, RigidCycleError, WrongMapError
from .exterior import ExteriorVector, check_tolerance, numeric_rank, positive_lead, subsets
from .geometry import (
    Axis,
    Frame,
    Isometry,
    _eye,
    _frozen,
    _moved,
    _plucker_to_twist,
    _rodrigues,
    _unchecked,
    compose,
    identity_isometry,
    rotation_generator,
)

__all__ = [
    "Chain",
    "Placement",
    "cycle_chain",
    "forward_kinematics",
    "endpoint_jacobian",
    "frame_map_jacobian",
    "frame_columns",
    "numerical_jacobian",
    "frame_residual",
    "fiber_tangent_basis",
    "flex_cycle",
    "flex_path",
    "cycle_axes_at",
    "panel_spans_ok",
    "generic_fiber_dimension",
]


# Rank tolerance of the panel check; it screens input axes, so it is looser
# than the 1e-10 default of the verdicts.
PANEL_RANK_TOL = 1e-8


def panel_spans_ok(a: Axis, b: Axis) -> bool:
    """Do two axes span at most a hyperplane (the defining panel property)?"""
    rows = np.vstack([a.dirs, b.dirs, (b.origin - a.origin)[None, :]])
    return numeric_rank(rows, PANEL_RANK_TOL)[0] <= a.dim - 1


def _on_axis(axis: Axis, rows: np.ndarray) -> np.ndarray:
    """Which rows (offsets from the axis origin, or vectors) lie in the axis's direction space."""
    off = rows - (rows @ axis.dirs.T) @ axis.dirs
    return np.linalg.norm(off, axis=-1) <= 1e-9 * (1.0 + np.linalg.norm(rows, axis=-1))


@dataclass(frozen=True, eq=False)
class Chain:
    """Serial chain of n hinged bodies, the first one fixed to the ambient space.

    ``ref_axes`` holds the n-1 hinge axes in the reference placement
    (theta = 0); ``end_frame`` is the marked k-frame on the last body
    (k = 0 marks a bare end-point). A chain is a cycle exactly when it
    stores a closing axis; a cycle carries a (d-2)-frame inside it, so
    the closure condition is an end-frame equation.
    """

    d: int
    ref_axes: tuple[Axis, ...]
    end_frame: Frame
    closing_axis: Axis | None = None
    panel: bool = False

    def __post_init__(self):
        axes = tuple(self.ref_axes)
        object.__setattr__(self, "ref_axes", axes)
        if not axes:
            raise DefinitionError("a chain needs at least one hinge (n >= 2 bodies)")
        if any(a.dim != self.d for a in axes):
            raise DefinitionError("every axis must live in the chain's dimension")
        if self.end_frame.dim != self.d:
            raise DefinitionError("end frame dimension mismatch")
        end, closing = self.end_frame, self.closing_axis
        if end.k == 0 and _on_axis(axes[-1], end.origin - axes[-1].origin):
            raise DefinitionError("the end-point must stay off the last axis")
        if self.is_cycle:
            if closing.dim != self.d:
                raise DefinitionError("closing axis dimension mismatch")
            if end.k != self.d - 2:
                raise DefinitionError("a cycle carries a (d-2)-frame on the last body")
            if not _on_axis(closing, np.vstack([end.origin - closing.origin, end.vecs])).all():
                raise DefinitionError("a cycle's end frame must lie in its closing axis")
        if self.panel:
            ring = list(axes) + ([closing] if self.is_cycle else [])
            pairs = list(zip(ring, ring[1:]))
            if self.is_cycle:
                pairs.append((ring[-1], ring[0]))
            for i, (a, b) in enumerate(pairs):
                if not panel_spans_ok(a, b):
                    raise DefinitionError(
                        f"panel chain: axes {i + 1} and {i + 2} span more than a hyperplane"
                    )

    @property
    def n(self) -> int:
        return len(self.ref_axes) + 1

    @property
    def is_cycle(self) -> bool:
        return self.closing_axis is not None

    @cached_property
    def ref_generators(self) -> np.ndarray:
        """Rotation generators of the reference axes, stacked; computed on first use.

        Lazy, so commands that never place the chain (``analyze-cycle``
        reads only its axes) do not pay for them.
        """
        generators = np.array([rotation_generator(a) for a in self.ref_axes])
        generators.setflags(write=False)
        return generators


def cycle_chain(axes, panel: bool = False) -> Chain:
    """Cut a closed ring of n axes at the last one.

    The result is a chain of n bodies whose end marker is the (d-2)-frame
    sitting inside the closing axis; configurations with that frame back
    in its reference position are exactly the closed ones.
    """
    axes = list(axes)
    if len(axes) < 2:
        raise DefinitionError("a cycle needs at least two axes")
    d = axes[0].dim
    closing = axes[-1]
    frame = _unchecked(Frame, d, closing.origin, closing.dirs)
    return Chain(d, tuple(axes[:-1]), frame, closing_axis=closing, panel=panel)


@dataclass(frozen=True, eq=False)
class Placement:
    """One configuration realized in the ambient space.

    ``rots`` and ``trans`` hold the rotations and translations of the body
    motions g_1..g_n (g_1 is the identity), as ``_place``'s tuples or
    ``_place_many``'s read-only stacks, and ``ref_axes`` the chain's
    reference axes; axis i as placed is apply(g_i, ref_axes[i]).
    ``origins`` is the read-only (n-1) x d array of the placed axis
    origins, row i equal bit for bit to that axis's origin.
    ``generators`` stacks the rotation generators of the placed axes, an
    (n-1) x d x d array: entry i is R_i J_i R_i^T rescaled to Frobenius
    norm sqrt(2), where R_i = rots[i] and J_i = rotation_generator(ref_axes[i]).
    """

    origins: np.ndarray
    frame_at: Frame
    rots: tuple[np.ndarray, ...] | np.ndarray
    trans: tuple[np.ndarray, ...] | np.ndarray
    generators: np.ndarray
    ref_axes: tuple[Axis, ...]

    @cached_property
    def body_isometries(self) -> tuple[Isometry, ...]:
        """g_1..g_n as ``Isometry`` objects, built on first read from ``rots`` and ``trans``."""
        return tuple(map(Isometry, self.rots, self.trans))

    @cached_property
    def dirs(self) -> np.ndarray:
        """The read-only (n-1) x (d-2) x d directions of the placed axes, stacked on first
        read: item i is ref_axes[i].dirs @ R_i^T, the arithmetic of apply(g_i, ref_axes[i])."""
        return _frozen(np.array([axis.dirs for axis in self.ref_axes]) @ np.array(self.rots[:-1]).swapaxes(1, 2))

    @cached_property
    def axes_at(self) -> tuple[Axis, ...]:
        """The placed axes, built on first read from ``origins`` and ``dirs``."""
        return tuple(_unchecked(Axis, len(o), o, rows) for o, rows in zip(self.origins, self.dirs))


def _as_config(chain: Chain, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (chain.n - 1,):
        raise DefinitionError(
            f"configuration needs {chain.n - 1} angles, got shape {theta.shape}"
        )
    return theta


def forward_kinematics(chain: Chain, theta) -> Placement:
    """Place every body; theta = 0 reproduces the reference exactly.

    Placing the same chain object at the same configuration (equal bytes)
    as the call before returns that call's ``Placement``, which is
    immutable, so sharing it is safe.
    """
    return _placed(chain, _as_config(chain, theta).tobytes())


# One entry: a fiber step places again the configuration it just placed (residual
# then Jacobian), and only one chain is kept alive. A Chain hashes by identity.
@lru_cache(maxsize=1)
def _placed(chain: Chain, key: bytes) -> Placement:
    return _place(chain, np.frombuffer(key))


def _place(chain: Chain, theta: np.ndarray) -> Placement:
    """The placement of a validated configuration, computed afresh, one ``Isometry`` per step."""
    g = identity_isometry(chain.d)
    rots, trans, origins, generators = [g.rot], [g.trans], [], []
    for axis, J_ref, angle in zip(chain.ref_axes, chain.ref_generators, theta):
        # the arithmetic of apply(g, axis).origin, without building the Axis
        origin = g.rot @ axis.origin + g.trans
        J = g.rot @ J_ref @ g.rot.T
        # the Frobenius norm as np.linalg.norm computes it, without its overhead
        flat = J.ravel()
        J *= sqrt(2.0) / sqrt(flat.dot(flat))
        origins.append(origin)
        generators.append(J)
        g = compose(_rodrigues(J, origin, angle), g)
        rots.append(g.rot)
        trans.append(g.trans)
    return Placement(_frozen(origins), _moved(g, chain.end_frame), tuple(rots), tuple(trans), _frozen(generators),
                     chain.ref_axes)


# ``_place`` stays the one-configuration route, not the S = 1 case of ``_place_many``, while
# the benchmark's tracer self-test pins its ``Isometry`` objects and ``forward_kinematics`` calls.
def _place_many(chain: Chain, thetas: np.ndarray) -> tuple[Placement, ...]:
    """The placements of an (S, n-1) stack of configurations, bit for bit ``_place``'s: one loop over the
    joints, each step ``_place``'s arithmetic stacked over S (A @ x as ``(A @ x[..., None])[..., 0]``, the
    Frobenius norm as a (1, d*d) by (d*d, 1) product). A non-finite angle raises as placing one at a time would."""
    if not np.isfinite(thetas).all():  # the first bad angle in sample, then joint order
        _place(chain, thetas[np.isfinite(thetas).all(axis=1).argmin()])
    S, d = thetas.shape[0], chain.d
    rot, trans = np.broadcast_to(_eye(d), (S, d, d)), np.zeros((S, d))
    sin, cos = np.sin(thetas)[..., None, None], np.cos(thetas)[..., None, None]
    joints, bodies = [], [(rot, trans)]
    for i, (axis, J_ref) in enumerate(zip(chain.ref_axes, chain.ref_generators)):
        origin = (rot @ axis.origin[:, None])[..., 0] + trans
        J = rot @ J_ref @ rot.swapaxes(1, 2)
        J *= (sqrt(2.0) / np.sqrt((J.reshape(S, 1, -1) @ J.reshape(S, -1, 1))[:, 0, 0]))[:, None, None]
        step = _eye(d) + sin[:, i] * J + (1.0 - cos[:, i]) * (J @ J)  # _rodrigues, then compose
        step_trans = origin - (step @ origin[..., None])[..., 0]
        rot, trans = step @ rot, (step @ trans[..., None])[..., 0] + step_trans
        joints.append((origin, J))
        bodies.append((rot, trans))
    end = chain.end_frame  # _moved
    end_origins, end_vecs = (rot @ end.origin[:, None])[..., 0] + trans, end.vecs @ rot.swapaxes(1, 2)
    stacks = [_frozen(np.stack(a, axis=1)) for a in (*zip(*joints), *zip(*bodies))]
    return tuple(Placement(o, _unchecked(Frame, d, eo, ev), r, t, g, chain.ref_axes)
                 for o, g, r, t, eo, ev in zip(*stacks, end_origins, end_vecs))


def frame_map_jacobian(chain: Chain, theta, placement: Placement | None = None) -> np.ndarray:
    """Differential of theta -> (origin, vecs) of the placed end frame.

    Column i is the velocity of the frame coordinates under a unit-speed
    rotation about the placed axis A_i(theta): the origin moves with
    J_i (origin - M_i) and each frame vector with J_i v.
    """
    pl = placement if placement is not None else forward_kinematics(chain, theta)
    f = pl.frame_at
    blocks = [np.einsum("iab,ib->ai", pl.generators, f.origin - pl.origins)]
    blocks.extend((pl.generators @ v).T for v in f.vecs)
    return np.vstack(blocks)


def endpoint_jacobian(chain: Chain, theta) -> np.ndarray:
    """Analytic d x (n-1) differential of the end-point map (k = 0 chains)."""
    if chain.end_frame.k != 0:
        raise WrongMapError("endpoint_jacobian needs a chain with a bare end-point")
    return frame_map_jacobian(chain, theta)


def frame_columns(chain: Chain, theta, placement: Placement | None = None) -> list[ExteriorVector]:
    """Plucker points of the placed axes.

    These represent the images of the torus tangent basis inside the
    Lie algebra of rigid motions, identified with grade-(d-1) vectors
    over R^{d+1}; ranks of their spans read off differential ranks. Each
    one is a row of ``_frame_rows``, read off the twist (J[a < b], -J @ o) of the
    placed generator J and origin o through the signed permutation ``_plucker_to_twist(d)``.
    """
    pl = placement if placement is not None else forward_kinematics(chain, theta)
    return [ExteriorVector(chain.d - 1, chain.d + 1, p) for p in _frame_rows(pl)]


def _frame_rows(pl: Placement) -> np.ndarray:
    """The (n-1, C(d+1, 2)) Plucker rows of ``frame_columns``, from one product of the stacked twists."""
    a, b = np.array(subsets(pl.origins.shape[1], 2)).T
    moments = -np.einsum("iab,ib->ia", pl.generators, pl.origins)
    return np.hstack([pl.generators[:, a, b], moments]) @ _plucker_to_twist(pl.origins.shape[1])


def numerical_jacobian(fn, theta, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a map from angle vectors to vectors."""
    if h <= 0:
        raise ValueError("step h must be positive")
    theta = np.asarray(theta, dtype=float)
    cols = []
    for i in range(theta.shape[0]):
        bump = np.zeros_like(theta)
        bump[i] = h
        cols.append((np.asarray(fn(theta + bump)) - np.asarray(fn(theta - bump))) / (2.0 * h))
    return np.column_stack(cols)


def frame_residual(chain: Chain, theta) -> np.ndarray:
    """Coordinates of the placed end frame minus its reference position."""
    frame = forward_kinematics(chain, theta).frame_at
    ref = chain.end_frame
    return np.concatenate([frame.origin - ref.origin, (frame.vecs - ref.vecs).ravel()])


def fiber_tangent_basis(chain: Chain, theta, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (rows) of the kernel of the closure differential."""
    J = frame_map_jacobian(chain, theta)
    rank, _, _, _, vh = numeric_rank(J, tol)
    if rank >= J.shape[1]:
        raise RigidCycleError("the closure differential has no kernel")
    return vh[rank:]


def flex_cycle(chain: Chain, theta, direction, step: float, tol: float = 1e-10) -> np.ndarray:
    """One predictor-corrector move along the closure fiber.

    Steps theta by step * direction and projects back onto the fiber
    {end frame = reference} with Gauss-Newton plus step halving; each
    Gauss-Newton step applies the pseudo-inverse of the closure Jacobian
    truncated at the ``numeric_rank(J, tol)`` cutoff. The
    returned configuration satisfies the closure residual within tol and
    sits within O(step^2) of the predictor for small steps. A step that is
    not a finite number raises DefinitionError before anything is placed.
    """
    if not isfinite(step):
        raise DefinitionError(f"a flex step must be a finite number, got {float(step)!r}")
    theta = _as_config(chain, theta)
    if np.linalg.norm(frame_residual(chain, theta)) > tol:
        raise DefinitionError("theta does not satisfy the closure condition")
    direction = np.asarray(direction, dtype=float)
    current = theta + step * direction
    residual = frame_residual(chain, current)
    for _ in range(50):
        if np.linalg.norm(residual) <= tol:
            return current
        # pseudo-inverse step truncated at the rank cutoff, so a near-kernel
        # direction of J (sigma ~ 1e-11 near a Bricard fiber) cannot blow it up
        rank, _, u, sig, vh = numeric_rank(frame_map_jacobian(chain, current), tol)
        delta = vh[:rank].T @ ((u[:, :rank].T @ residual) / sig[:rank])
        scale = 1.0
        for _ in range(30):
            trial = current - scale * delta
            trial_residual = frame_residual(chain, trial)
            if np.linalg.norm(trial_residual) < np.linalg.norm(residual):
                current, residual = trial, trial_residual
                break
            scale *= 0.5
        else:
            raise ProjectionError("step halving stalled while projecting onto the fiber")
    if np.linalg.norm(residual) <= tol:
        return current
    raise ProjectionError("Gauss-Newton did not reach the fiber within 50 iterations")


def flex_path(chain: Chain, steps: int, step_size: float, tol: float = 1e-10) -> np.ndarray:
    """Track the closure fiber from the reference configuration.

    At each step the flex direction is the first kernel vector of the
    closure differential, sign-aligned with the previous one; the first
    direction has its largest-magnitude component positive. Returns the
    (steps+1) x (n-1) array of visited configurations. Also for 0 steps, a step
    size that is not finite raises DefinitionError and a bad ``tol`` ToleranceError.
    """
    if steps < 0:
        raise DefinitionError(f"a flex needs a step count >= 0, got {steps}")
    if not isfinite(step_size):
        raise DefinitionError(f"a flex step must be a finite number, got {float(step_size)!r}")
    check_tolerance(tol)
    theta = np.zeros(chain.n - 1)
    path = [theta]
    previous = None
    for _ in range(steps):
        direction = fiber_tangent_basis(chain, theta, tol=tol)[0]
        if previous is None:
            direction = positive_lead(direction)
        elif direction @ previous < 0:
            direction = -direction
        theta = flex_cycle(chain, theta, direction, step_size, tol=tol)
        previous = direction
        path.append(theta)
    return np.array(path)


def cycle_axes_at(chain: Chain, theta) -> list[Axis]:
    """All n axes of a cycle as placed at theta; the closing axis is the placed end frame."""
    return [_unchecked(Axis, chain.d, o, rows) for o, rows in zip(*_cycle_stacks(chain, theta))]


def _cycle_stacks(chain: Chain, theta) -> tuple[np.ndarray, np.ndarray]:
    """Origins (n, d) and directions (n, d-2, d) of ``cycle_axes_at``, read off the placement."""
    if not chain.is_cycle:
        raise WrongMapError("cycle_axes_at needs a cycle")
    pl = forward_kinematics(chain, theta)
    return np.vstack([pl.origins, pl.frame_at.origin]), np.concatenate([pl.dirs, pl.frame_at.vecs[None]])


def generic_fiber_dimension(d: int, k: int, n: int) -> int:
    """Expected fiber dimension of the end-frame map at a generic point."""
    return n - comb(d + 1, 2) + comb(d - k, 2) - 1
