"""Hinged chains and cycles: forward kinematics on the angle torus, the
end-point / end-frame maps, their differentials, and fiber tracking.

A configuration is a plain length-(n-1) float array of angles; theta = 0
is the reference placement. Joint i turns everything from body i+1 on
about the currently placed axis A_i(theta), so body placements compose
as g_{i+1} = rotate_about(A_i(theta), theta_i) after g_i, with g_1 the
identity on the first body.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DefinitionError, ProjectionError, RigidCycleError, WrongMapError
from .exterior import ExteriorVector, numeric_rank
from .geometry import (
    Axis,
    Frame,
    Isometry,
    apply,
    axis_plucker,
    compose,
    identity_isometry,
    rotate_about,
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


@dataclass(frozen=True, eq=False)
class Chain:
    """Serial chain of n hinged bodies, the first one fixed to the ambient space.

    ``ref_axes`` holds the n-1 hinge axes in the reference placement
    (theta = 0); ``end_frame`` is the marked k-frame on the last body
    (k = 0 marks a bare end-point). A cycle stores its closing axis too
    and carries a (d-2)-frame inside it, so the closure condition is an
    end-frame equation.
    """

    d: int
    ref_axes: tuple[Axis, ...]
    end_frame: Frame
    is_cycle: bool = False
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
        if self.end_frame.k == 0:
            last = axes[-1]
            rel = self.end_frame.origin - last.origin
            off = rel - last.dirs.T @ (last.dirs @ rel)
            if np.linalg.norm(off) <= 1e-9 * (1.0 + np.linalg.norm(rel)):
                raise DefinitionError("the end-point must stay off the last axis")
        if self.is_cycle:
            if self.closing_axis is None:
                raise DefinitionError("a cycle must store its closing axis")
            if self.closing_axis.dim != self.d:
                raise DefinitionError("closing axis dimension mismatch")
            if self.end_frame.k != self.d - 2:
                raise DefinitionError("a cycle carries a (d-2)-frame on the last body")
        elif self.closing_axis is not None:
            raise DefinitionError("only cycles store a closing axis")
        if self.panel:
            ring = list(axes) + ([self.closing_axis] if self.is_cycle else [])
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
    frame = Frame(d, closing.origin, closing.dirs)
    return Chain(d, tuple(axes[:-1]), frame, is_cycle=True, closing_axis=closing, panel=panel)


@dataclass(frozen=True, eq=False)
class Placement:
    """One configuration realized in the ambient space.

    ``body_isometries`` holds g_1..g_n (g_1 is the identity); axis i as
    placed is apply(g_i, ref_axes[i]).
    """

    axes_at: tuple[Axis, ...]
    frame_at: Frame
    body_isometries: tuple[Isometry, ...]


def _as_config(chain: Chain, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (chain.n - 1,):
        raise DefinitionError(
            f"configuration needs {chain.n - 1} angles, got shape {theta.shape}"
        )
    return theta


def forward_kinematics(chain: Chain, theta) -> Placement:
    """Place every body; theta = 0 reproduces the reference exactly."""
    theta = _as_config(chain, theta)
    g = identity_isometry(chain.d)
    isometries = [g]
    axes_at = []
    for axis, angle in zip(chain.ref_axes, theta):
        moved = apply(g, axis)
        axes_at.append(moved)
        g = compose(rotate_about(moved, angle), g)
        isometries.append(g)
    return Placement(tuple(axes_at), apply(g, chain.end_frame), tuple(isometries))


def frame_map_jacobian(chain: Chain, theta, placement: Placement | None = None) -> np.ndarray:
    """Differential of theta -> (origin, vecs) of the placed end frame.

    Column i is the velocity of the frame coordinates under a unit-speed
    rotation about the placed axis A_i(theta): the origin moves with
    J_i (origin - M_i) and each frame vector with J_i v.
    """
    pl = placement if placement is not None else forward_kinematics(chain, theta)
    f = pl.frame_at
    cols = []
    for axis in pl.axes_at:
        J = rotation_generator(axis)
        parts = [J @ (f.origin - axis.origin)]
        parts.extend(J @ v for v in f.vecs)
        cols.append(np.concatenate(parts) if len(parts) > 1 else parts[0])
    return np.column_stack(cols)


def endpoint_jacobian(chain: Chain, theta) -> np.ndarray:
    """Analytic d x (n-1) differential of the end-point map (k = 0 chains)."""
    if chain.end_frame.k != 0:
        raise WrongMapError("endpoint_jacobian needs a chain with a bare end-point")
    return frame_map_jacobian(chain, theta)


def frame_columns(chain: Chain, theta, placement: Placement | None = None) -> list[ExteriorVector]:
    """Plucker points of the placed axes.

    These represent the images of the torus tangent basis inside the
    Lie algebra of rigid motions, identified with grade-(d-1) vectors
    over R^{d+1}; ranks of their spans read off differential ranks.
    """
    pl = placement if placement is not None else forward_kinematics(chain, theta)
    return [axis_plucker(a) for a in pl.axes_at]


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


def frame_residual(chain: Chain, theta, placement: Placement | None = None) -> np.ndarray:
    """Coordinates of the placed end frame minus its reference position."""
    pl = placement if placement is not None else forward_kinematics(chain, theta)
    ref = chain.end_frame
    return np.concatenate(
        [pl.frame_at.origin - ref.origin, (pl.frame_at.vecs - ref.vecs).ravel()]
    )


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
    {end frame = reference} with Gauss-Newton plus step halving. The
    returned configuration satisfies the closure residual within tol and
    sits within O(step^2) of the predictor for small steps.
    """
    theta = _as_config(chain, theta)
    if np.linalg.norm(frame_residual(chain, theta)) > tol:
        raise DefinitionError("theta does not satisfy the closure condition")
    direction = np.asarray(direction, dtype=float)
    current = theta + step * direction
    residual = frame_residual(chain, current)
    for _ in range(50):
        if np.linalg.norm(residual) <= tol:
            return current
        J = frame_map_jacobian(chain, current)
        delta = np.linalg.lstsq(J, residual, rcond=None)[0]
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


def flex_path(
    chain: Chain,
    steps: int,
    step_size: float,
    theta0=None,
    tol: float = 1e-10,
) -> np.ndarray:
    """Track the closure fiber from theta0 (default: the reference).

    At each step the flex direction is the first kernel vector of the
    closure differential, sign-aligned with the previous one; the first
    direction has its largest-magnitude component positive. Returns the
    (steps+1) x (n-1) array of visited configurations.
    """
    if steps < 0:
        raise DefinitionError(f"a flex needs a step count >= 0, got {steps}")
    theta = np.zeros(chain.n - 1) if theta0 is None else _as_config(chain, theta0)
    path = [theta]
    previous = None
    for _ in range(steps):
        basis = fiber_tangent_basis(chain, theta, tol=tol)
        direction = basis[0]
        if previous is None:
            flip = direction[np.argmax(np.abs(direction))] < 0
        else:
            flip = direction @ previous < 0
        if flip:
            direction = -direction
        theta = flex_cycle(chain, theta, direction, step_size, tol=tol)
        previous = direction
        path.append(theta)
    return np.array(path)


def cycle_axes_at(chain: Chain, theta, placement: Placement | None = None) -> list[Axis]:
    """All n axes of a cycle as placed at theta (closing axis carried by body n)."""
    if not chain.is_cycle:
        raise WrongMapError("cycle_axes_at needs a cycle")
    pl = placement if placement is not None else forward_kinematics(chain, theta)
    return list(pl.axes_at) + [apply(pl.body_isometries[-1], chain.closing_axis)]


def generic_fiber_dimension(d: int, k: int, n: int) -> int:
    """Expected fiber dimension of the end-frame map at a generic point."""
    return n - comb(d + 1, 2) + comb(d - k, 2) - 1
