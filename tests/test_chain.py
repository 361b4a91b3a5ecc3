import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from hingekit import (
    Axis,
    Chain,
    Frame,
    apply,
    axis_plucker,
    cycle_chain,
    endpoint_jacobian,
    fiber_tangent_basis,
    flex_cycle,
    flex_path,
    forward_kinematics,
    frame_columns,
    frame_map_jacobian,
    frame_residual,
    generic_fiber_dimension,
    make_axes,
    make_axis,
    make_frame,
    numerical_jacobian,
    rotate_about,
    rotation_generator,
)
import hingekit.chain as chain_module
from hingekit.analysis import classical_scenario, cycle_mobility, endpoint_singularity
from hingekit.chain import cycle_axes_at, panel_spans_ok
from hingekit.exterior import numeric_rank, positive_lead
from hingekit.errors import (
    DefinitionError,
    DimensionError,
    HingekitError,
    ProjectionError,
    RigidCycleError,
    WrongMapError,
)
from hingekit.geometry import _plucker_to_twist
from hingekit.sampling import (
    parallel_axes_chain,
    random_axis,
    random_chain,
    random_cycle,
    random_frame,
    rng_from,
    singular_endpoint_chain,
)


def planar_arm(*lengths):
    return classical_scenario("planar-arm", lengths=lengths or (1, 1, 1))


def test_reference_configuration_is_exact():
    rng = rng_from(100)
    c = random_chain(rng, 3, 5, k=1)
    pl = forward_kinematics(c, np.zeros(4))
    for placed, ref in zip(pl.axes_at, c.ref_axes):
        assert np.array_equal(placed.origin, ref.origin)
        assert np.array_equal(placed.dirs, ref.dirs)
    assert np.array_equal(pl.frame_at.origin, c.end_frame.origin)
    assert np.array_equal(pl.frame_at.vecs, c.end_frame.vecs)


def test_planar_arm_quarter_turn_at_base():
    pl = forward_kinematics(planar_arm(), [np.pi / 2, 0, 0])
    assert np.allclose(pl.frame_at.origin, [0, 3], atol=1e-12)


def test_planar_two_joint_composition():
    # joints at (0,0) and (1,0), end at (2,0); both angles a quarter turn
    arm = planar_arm(1, 1)
    pl = forward_kinematics(arm, [np.pi / 2, np.pi / 2])
    assert np.allclose(pl.frame_at.origin, [-1, 1], atol=1e-12)
    assert np.allclose(pl.axes_at[1].origin, [0, 1], atol=1e-12)


def test_full_turn_periodicity():
    rng = rng_from(101)
    c = random_chain(rng, 3, 5, k=0)
    theta = rng.uniform(0, 2 * np.pi, 4)
    bumped = theta.copy()
    bumped[2] += 2 * np.pi
    a = forward_kinematics(c, theta).frame_at
    b = forward_kinematics(c, bumped).frame_at
    assert np.allclose(a.origin, b.origin, atol=1e-10)


def test_first_axis_never_moves():
    rng = rng_from(102)
    c = random_chain(rng, 4, 6, k=0)
    pl = forward_kinematics(c, rng.uniform(0, 2 * np.pi, 5))
    assert np.array_equal(pl.axes_at[0].origin, c.ref_axes[0].origin)


def test_collinear_arm_jacobian_columns():
    jac = endpoint_jacobian(planar_arm(), [0, 0, 0])
    assert np.allclose(jac, [[0, 0, 0], [3, 2, 1]])
    assert np.linalg.matrix_rank(jac) == 1


def test_single_axis_rank_at_most_one():
    rng = rng_from(103)
    c = random_chain(rng, 3, 2, k=0)
    jac = endpoint_jacobian(c, rng.uniform(0, 2 * np.pi, 1))
    assert jac.shape == (3, 1)


def test_endpoint_jacobian_needs_point_marker():
    rng = rng_from(104)
    c = random_chain(rng, 3, 4, k=1)
    with pytest.raises(WrongMapError):
        endpoint_jacobian(c, np.zeros(3))


def test_numerical_jacobian_basics():
    lin = np.array([[1.0, 2.0], [3.0, 4.0]])
    fd = numerical_jacobian(lambda t: lin @ t, np.array([0.3, -0.7]), 1e-5)
    assert np.allclose(fd, lin, atol=1e-10)
    fd = numerical_jacobian(lambda t: np.array([np.sin(t[0])]), np.array([0.0]), 1e-4)
    assert abs(fd[0, 0] - 1.0) < 1e-8


def test_analytic_matches_central_differences():
    rng = rng_from(105)
    worst = 0.0
    for _ in range(25):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        c = random_chain(rng, d, n, k=0)
        theta = rng.uniform(0, 2 * np.pi, n - 1)
        fd = numerical_jacobian(
            lambda t: forward_kinematics(c, t).frame_at.origin, theta, 1e-5
        )
        worst = max(worst, float(np.max(np.abs(fd - endpoint_jacobian(c, theta)))))
    assert worst < 1e-6


def test_frame_columns_reference_and_d2_chart():
    rng = rng_from(106)
    c = random_chain(rng, 3, 5, k=0)
    cols = frame_columns(c, np.zeros(4))
    for col, ref in zip(cols, c.ref_axes):
        assert np.allclose(col.coeffs, axis_plucker(ref).coeffs)
    arm = planar_arm()
    cols = frame_columns(arm, np.zeros(3))
    for col, ref in zip(cols, arm.ref_axes):
        assert np.allclose(col.coeffs, np.append(ref.origin, 1.0))


def test_frame_column_rank_invariant_under_rescaling():
    rng = rng_from(118)
    axes = [random_axis(rng, 3) for _ in range(6)]
    from hingekit import cycle_mobility

    base = cycle_mobility(axes).rank
    scaled = [Axis(3, 2.0 * a.origin, a.dirs) for a in axes]
    assert cycle_mobility(scaled).rank == base


def test_equivariance_under_global_isometry():
    rng = rng_from(107)
    c = random_chain(rng, 3, 5, k=0)
    theta = rng.uniform(0, 2 * np.pi, 4)
    g = rotate_about(make_axis(3, (0.2, -0.1, 0.4), [(1, 1, 0)]), 0.8)
    moved = Chain(
        3,
        tuple(apply(g, a) for a in c.ref_axes),
        apply(g, c.end_frame),
    )
    e1 = forward_kinematics(c, theta).frame_at.origin
    e2 = forward_kinematics(moved, theta).frame_at.origin
    assert np.allclose(apply(g, e1), e2, atol=1e-10)
    s1 = np.linalg.svd(endpoint_jacobian(c, theta), compute_uv=False)
    s2 = np.linalg.svd(endpoint_jacobian(moved, theta), compute_uv=False)
    assert np.allclose(s1, s2, atol=1e-10)


def test_column_rank_invariant_under_axis_reordering():
    rng = rng_from(108)
    axes = [random_axis(rng, 3) for _ in range(5)]
    end = Frame(3, rng.uniform(-1, 1, 3), np.zeros((0, 3)))
    ranks = set()
    for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
        c = Chain(3, tuple(axes[i] for i in order), end)
        jac = endpoint_jacobian(c, np.zeros(5))
        ranks.add(np.linalg.matrix_rank(jac, tol=1e-9))
    assert len(ranks) == 1


def test_panels_stay_panels_under_motion():
    chair = classical_scenario("cyclohexane-panels")
    assert chair.panel
    rng = rng_from(109)
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi, chair.n - 1)
        pl = forward_kinematics(chair, theta)
        for a, b in zip(pl.axes_at, pl.axes_at[1:]):
            assert panel_spans_ok(a, b)


def test_panel_validation_rejects_generic_axes():
    rng = rng_from(110)
    with pytest.raises(DefinitionError):
        Chain(
            3,
            tuple(random_axis(rng, 3) for _ in range(3)),
            Frame(3, rng.uniform(2, 3, 3), np.zeros((0, 3))),
            panel=True,
        )


def test_endpoint_must_avoid_last_axis():
    a = make_axis(3, (0, 0, 0), [(0, 0, 1)])
    with pytest.raises(DefinitionError):
        Chain(3, (a,), Frame(3, np.array([0.0, 0.0, 0.5]), np.zeros((0, 3))))


@pytest.mark.parametrize("d,k,n", [(3, 0, 8), (3, 1, 8), (4, 0, 9), (4, 2, 10)])
def test_generic_fiber_dimension(d, k, n):
    rng = rng_from(200 + 10 * d + k)
    c = random_chain(rng, d, n, k=k)
    J = frame_map_jacobian(c, np.zeros(n - 1))
    sig = np.linalg.svd(J, compute_uv=False)
    rank = int(np.sum(sig > 1e-10 * sig[0] * max(J.shape)))
    assert (n - 1) - rank == generic_fiber_dimension(d, k, n)


def test_flex_cycle_zero_step_is_fixed_point():
    rng = rng_from(111)
    c = random_cycle(rng, 3, 7)
    basis = fiber_tangent_basis(c, np.zeros(6))
    theta = flex_cycle(c, np.zeros(6), basis[0], 0.0)
    assert np.allclose(theta, np.zeros(6))


def test_flex_path_stays_on_fiber():
    rng = rng_from(112)
    c = random_cycle(rng, 3, 7)
    path = flex_path(c, steps=10, step_size=1e-2)
    for theta in path:
        assert np.linalg.norm(frame_residual(c, theta)) <= 1e-8
    assert np.linalg.norm(path[-1]) > 5e-2  # genuinely moved


def test_flex_projection_is_second_order():
    rng = rng_from(113)
    c = random_cycle(rng, 3, 7)
    basis = fiber_tangent_basis(c, np.zeros(6))
    gaps = []
    for step in (2e-2, 1e-2):
        projected = flex_cycle(c, np.zeros(6), basis[0], step)
        gaps.append(np.linalg.norm(projected - step * basis[0]))
    assert gaps[0] < 0.5 * 2e-2
    # halving the step should shrink the correction by about four
    assert gaps[1] < 0.45 * gaps[0]


def _long_step_start():
    c = classical_scenario("generic-cycle", d=3, n=7, seed=2)
    return c, positive_lead(fiber_tangent_basis(c, np.zeros(6))[0])


def test_flex_cycle_halves_rejected_gauss_newton_steps(monkeypatch):
    # a step of 1.5 lands far off the fiber: full Gauss-Newton steps overshoot,
    # so several trials are rejected and halved before the projection converges
    c, direction = _long_step_start()
    calls = {"jacobian": 0, "residual": 0}
    jacobian, residual = chain_module.frame_map_jacobian, chain_module.frame_residual

    def counted_jacobian(*args, **kwargs):
        calls["jacobian"] += 1
        return jacobian(*args, **kwargs)

    def counted_residual(*args):
        calls["residual"] += 1
        return residual(*args)

    monkeypatch.setattr(chain_module, "frame_map_jacobian", counted_jacobian)
    monkeypatch.setattr(chain_module, "frame_residual", counted_residual)
    theta = flex_cycle(c, np.zeros(6), direction, 1.5)
    # one residual for the start, one for the predictor, then one per trial; each
    # Gauss-Newton iteration takes one Jacobian and accepts exactly one trial
    rejected = calls["residual"] - 2 - calls["jacobian"]
    assert rejected >= 3
    assert np.linalg.norm(residual(c, theta)) <= 1e-10


def test_flex_cycle_gives_up_after_50_gauss_newton_iterations(monkeypatch):
    # a Jacobian scaled by 10 shrinks every step tenfold: each trial is accepted,
    # but the residual falls by only a factor 0.9 per iteration
    c, direction = _long_step_start()
    jacobian = chain_module.frame_map_jacobian
    monkeypatch.setattr(chain_module, "frame_map_jacobian", lambda *a, **k: 10 * jacobian(*a, **k))
    with pytest.raises(ProjectionError, match="within 50 iterations"):
        flex_cycle(c, np.zeros(6), direction, 0.05)


def test_flex_requires_fiber_point():
    rng = rng_from(114)
    c = random_cycle(rng, 3, 7)
    basis = fiber_tangent_basis(c, np.zeros(6))
    with pytest.raises(ValueError):
        flex_cycle(c, 0.3 * np.ones(6), basis[0], 1e-2)


def test_off_fiber_theta_and_negative_steps_are_hingekit_errors():
    c = random_cycle(rng_from(114), 3, 7)
    basis = fiber_tangent_basis(c, np.zeros(6))
    with pytest.raises(HingekitError, match="closure condition") as info:
        flex_cycle(c, 0.3 * np.ones(6), basis[0], 1e-2)
    assert isinstance(info.value, ValueError)
    with pytest.raises(DefinitionError, match="step count"):
        flex_path(c, -3, 1e-2)
    assert flex_path(c, 0, 1e-2).shape == (1, 6)


@pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf])
def test_flex_cycle_refuses_a_step_that_is_not_finite_before_placing(step, monkeypatch):
    c = random_cycle(rng_from(114), 3, 7)
    basis = fiber_tangent_basis(c, np.zeros(6))

    def refuse(*args):
        raise AssertionError("a configuration was placed")

    monkeypatch.setattr(chain_module, "_place", refuse)
    chain_module._placed.cache_clear()
    with pytest.raises(DefinitionError, match=rf"^a flex step must be a finite number, got {step!r}$"):
        flex_cycle(c, np.zeros(6), basis[0], step)


@pytest.mark.parametrize("steps", [0, 3])
@pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf])
def test_flex_path_refuses_a_step_that_is_not_finite_for_any_step_count(step, steps, monkeypatch):
    # with 0 steps flex_cycle never runs, and a NaN step size reached the --json output
    c = random_cycle(rng_from(114), 3, 7)

    def refuse(*args):
        raise AssertionError("a configuration was placed")

    monkeypatch.setattr(chain_module, "_place", refuse)
    chain_module._placed.cache_clear()
    with pytest.raises(DefinitionError, match=rf"^a flex step must be a finite number, got {step!r}$"):
        flex_path(c, steps, step)


class _Scripted:
    """Stands in for a numpy Generator: each draw returns the next queued values, in the shape asked for."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def _next(self, *args):
        return np.reshape(np.asarray(self.draws.pop(0), dtype=float), args[-1])

    uniform = standard_normal = _next  # uniform(low, high, size) and standard_normal(size)


def test_random_chain_resamples_an_end_point_drawn_on_the_last_axis():
    # one axis of R^3 along e_3 through 0; the first end-point (0, 0, 2) lies on it
    rng = _Scripted((0, 0, 0), [(0, 0, 1)], (0, 0, 2), np.zeros((0, 3)), (1, 0, 0), np.zeros((0, 3)))
    c = random_chain(rng, 3, 2)
    assert rng.draws == [] and np.array_equal(c.end_frame.origin, (1, 0, 0))


def test_random_cycle_resamples_a_closing_point_on_the_last_axis():
    # in R^2 an axis is a point; the first draw closes the cycle on the point before it
    first, second = [(0, 0), (1, 1), (1, 1)], [(0, 0), (1, 0), (0, 1)]
    rng = _Scripted(*(draw for point in first + second for draw in (point, np.zeros((0, 2)))))
    c = random_cycle(rng, 2, 3)
    assert rng.draws == [] and np.array_equal(c.closing_axis.origin, (0, 1))


def test_random_axis_needs_dimension_two():
    with pytest.raises(DimensionError):
        random_axis(rng_from(0), 1)


def _same_axis(a, b):
    return a.dim == b.dim and np.array_equal(a.origin, b.origin) and a.dirs.shape == b.dirs.shape


@pytest.mark.parametrize("seed", range(4))
def test_samplers_without_direction_rows_match_the_explicit_constructions(seed):
    """A zero-row draw leaves the stream alone, so random_axis (d = 2), random_frame
    (k = 0) and singular_endpoint_chain (d = 2) equal building the empty rows directly
    and leave the generator in the same state."""
    new, old = rng_from(seed), rng_from(seed)
    assert _same_axis(random_axis(new, 2), Axis(2, old.uniform(-1.5, 1.5, 2), np.zeros((0, 2))))
    for d in (2, 3, 5):
        frame = random_frame(new, d, 0)
        origin = old.uniform(-1.5, 1.5, d)
        assert frame.k == 0 and frame.vecs.shape == (0, d) and np.array_equal(frame.origin, origin)
    assert new.random() == old.random()

    new, old = rng_from(seed), rng_from(seed)
    chain = singular_endpoint_chain(new, 2, 5)
    anchor = old.uniform(-1.0, 1.0, 2)
    w = old.standard_normal(2)
    w /= np.linalg.norm(w)
    endpoint = anchor + old.uniform(0.5, 1.5) * w
    axes = [Axis(2, anchor + old.uniform(-1.5, 1.5) * w, np.zeros((0, 2))) for _ in range(4)]
    assert all(_same_axis(a, b) for a, b in zip(chain.ref_axes, axes, strict=True))
    assert np.array_equal(chain.end_frame.origin, endpoint)
    assert new.random() == old.random()


def test_rigid_cycle_has_no_tangent():
    rng = rng_from(115)
    c = random_cycle(rng, 3, 6)
    with pytest.raises(RigidCycleError):
        fiber_tangent_basis(c, np.zeros(5))


def test_bricard_cycle_admits_flex():
    axes = classical_scenario("bricard-symmetric-six", seed=5)
    c = cycle_chain(axes)
    basis = fiber_tangent_basis(c, np.zeros(5))
    assert basis.shape[0] == 1
    theta = flex_cycle(c, np.zeros(5), basis[0], 1e-2)
    assert np.linalg.norm(frame_residual(c, theta)) <= 1e-10
    assert np.linalg.norm(theta) > 1e-3


@pytest.mark.parametrize(
    "name, params",
    [pytest.param("bricard-symmetric-six", {"seed": s}, id=f"bricard-{s}") for s in range(6)]
    + [
        pytest.param("generic-cycle", {"d": 3, "n": 7, "seed": 0}, id="generic-d3n7"),
        pytest.param("generic-cycle", {"d": 4, "n": 11, "seed": 0}, id="generic-d4n11"),
    ],
)
def test_flex_path_first_step_has_positive_largest_component(name, params):
    # the kernel vector's sign is whatever the SVD returns; flex_path pins it,
    # so a last-bit change in the Jacobian cannot reverse the whole path
    c = classical_scenario(name, **params)
    c = c if isinstance(c, Chain) else cycle_chain(c)
    step = np.diff(flex_path(c, steps=1, step_size=1e-2), axis=0)[0]
    assert step[np.argmax(np.abs(step))] > 0


@pytest.mark.parametrize("seed", [11, 21, 22])
def test_bricard_flex_path_does_not_step_along_the_near_kernel(seed):
    # near these mobility-1 fibers the closure Jacobian has a singular value
    # around 1e-11; an untruncated least-squares step jumps along it and
    # Gauss-Newton never reaches the fiber
    c = cycle_chain(classical_scenario("bricard-symmetric-six", seed=seed))
    path = flex_path(c, steps=10, step_size=1e-2)
    assert all(np.linalg.norm(frame_residual(c, theta)) <= 1e-10 for theta in path)
    assert np.all(np.linalg.norm(np.diff(path, axis=0), axis=1) > 5e-3)


def _placed_chain(d, n, seed):
    rng = np.random.default_rng(seed)
    c = random_chain(rng, d, n)
    return c, forward_kinematics(c, rng.uniform(0.0, 2.0 * np.pi, n - 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(2, 22), st.integers(0, 10**6))
def test_placed_origins_and_lazy_axes_equal_the_applied_reference_axes(d, n, seed):
    c, pl = _placed_chain(d, n, seed)
    assert pl.origins.shape == (n - 1, d) and not pl.origins.flags.writeable
    assert pl.dirs.shape == (n - 1, d - 2, d) and not pl.dirs.flags.writeable
    for i, ref in enumerate(c.ref_axes):
        moved = apply(pl.body_isometries[i], ref)
        assert np.array_equal(pl.origins[i], moved.origin)
        assert pl.dirs[i].tobytes() == moved.dirs.tobytes()
        assert pl.axes_at[i].origin.tobytes() == moved.origin.tobytes()
        assert pl.axes_at[i].dirs.tobytes() == moved.dirs.tobytes()
    # every axis of a placed cycle, the closing one carried by body n included
    rng = np.random.default_rng(seed)
    cycle = random_cycle(rng, d, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n - 1)
    ring = [*cycle.ref_axes, cycle.closing_axis]
    placed = cycle_axes_at(cycle, theta)
    for g, ref, axis in zip(forward_kinematics(cycle, theta).body_isometries, ring, placed, strict=True):
        moved = apply(g, ref)
        assert axis.origin.tobytes() == moved.origin.tobytes()
        assert axis.dirs.tobytes() == moved.dirs.tobytes()
    # one C layout for every direction stack
    origins, raws = rng.uniform(-1, 1, (n, d)), rng.standard_normal((n, d - 2, d))
    stacks = [a.dirs for a in make_axes(d, origins, raws)] + [a.dirs for a in placed]
    stacks += [make_axis(d, origins[0], raws[0]).dirs, make_frame(d, origins[0], raws[0]).vecs, pl.dirs]
    assert all(dirs.flags.c_contiguous for dirs in stacks)


def _count_checked_builds(monkeypatch) -> list:
    """Record every run of the validating Axis and Frame constructors from now on."""
    built = []
    for cls in (Axis, Frame):

        def counting(self, check=cls.__post_init__):
            built.append(self)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return built


def test_closure_maps_build_no_axis(monkeypatch):
    # the flex loop reads only origins and generators, and the placed axes,
    # the placed end frame and the closing axis are moved from checked ones,
    # so none of them runs the validating Axis or Frame constructor
    c = classical_scenario("generic-cycle", d=4, n=11, seed=0)
    theta = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, c.n - 1)
    built = _count_checked_builds(monkeypatch)
    frame_residual(c, theta)
    frame_map_jacobian(c, theta)
    pl = forward_kinematics(c, theta)
    frame_columns(c, None, placement=pl)
    assert len(pl.axes_at) == c.n - 1
    assert len(cycle_axes_at(c, theta)) == c.n
    assert built == []


def test_placing_and_the_witness_check_build_no_checked_axis_or_frame(monkeypatch):
    rng = rng_from(5)
    c = parallel_axes_chain(rng, 4, 8)
    axes = [random_axis(rng, 4) for _ in range(7)]
    built = _count_checked_builds(monkeypatch)
    theta = rng.uniform(0.0, 2.0 * np.pi, c.n - 1)
    assert endpoint_singularity(c, theta).singular
    forward_kinematics(c, -theta).axes_at
    cycle = cycle_chain(axes)
    cycle_axes_at(cycle, rng.uniform(0.0, 2.0 * np.pi, cycle.n - 1))
    assert built == []
    # the counter does see the public constructors
    apply(rotate_about(axes[0], 0.5), axes[1])
    assert len(built) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(2, 22), st.integers(0, 10**6))
def test_placed_generators_match_the_generators_of_the_placed_axes(d, n, seed):
    c, pl = _placed_chain(d, n, seed)
    assert pl.generators.shape == (n - 1, d, d)
    for J, axis in zip(pl.generators, pl.axes_at):
        assert np.abs(J - rotation_generator(axis)).max() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(2, 22), st.integers(0, 10**6))
def test_frame_columns_match_the_plucker_points_of_the_placed_axes(d, n, seed):
    c, pl = _placed_chain(d, n, seed)
    for col, axis in zip(frame_columns(c, None, placement=pl), pl.axes_at):
        ref = axis_plucker(axis)
        assert (col.grade, col.ambient) == (ref.grade, ref.ambient)
        assert np.linalg.norm(col.coeffs - ref.coeffs) <= 1e-13 * ref.norm()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_plucker_to_twist_is_a_signed_permutation_onto_the_twist(d, seed):
    M = _plucker_to_twist(d)
    assert set(np.unique(M)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(np.abs(M).sum(axis=0), np.ones(len(M)))
    assert np.array_equal(np.abs(M).sum(axis=1), np.ones(len(M)))
    axis = random_axis(np.random.default_rng(seed), d)
    J = rotation_generator(axis)
    twist = np.concatenate([J[np.triu_indices(d, 1)], -J @ axis.origin])
    assert np.abs(M @ axis_plucker(axis).coeffs - twist).max() <= 1e-13


def _fiber_cycle(family, seed):
    if family == "bricard-symmetric-six":
        return cycle_chain(classical_scenario(family, seed=seed))
    d, n = {"d3n7": (3, 7), "d4n11": (4, 11)}[family]
    return classical_scenario("generic-cycle", d=d, n=n, seed=seed)


@settings(max_examples=12, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(["d3n7", "d4n11"]), st.integers(0, 9)),
        st.tuples(st.just("bricard-symmetric-six"), st.integers(0, 39)),
    )
)
def test_closure_kernel_dimension_is_the_plucker_span_mobility(cycle):
    """The paper's equivalence along the fiber: the closure differential's kernel
    has dimension n - rank of the placed axes' Plucker span."""
    chain = _fiber_cycle(*cycle)
    for theta in flex_path(chain, 10, 0.01):
        J = frame_map_jacobian(chain, theta)
        kernel = J.shape[1] - numeric_rank(J, 1e-10)[0]
        assert kernel == cycle_mobility(cycle_axes_at(chain, theta)).mobility >= 1


def test_cycle_constructor_guards():
    rng = rng_from(116)
    axes = [random_axis(rng, 3) for _ in range(6)]
    c = cycle_chain(axes)
    assert c.is_cycle and c.end_frame.k == 1 and c.closing_axis is axes[-1]
    # a closing axis makes a cycle, which must carry a (d-2)-frame
    with pytest.raises(DefinitionError):
        Chain(3, tuple(axes[:5]), Frame(3, axes[5].origin, np.eye(3)[:2]), closing_axis=axes[5])


def test_cycle_end_frame_must_lie_in_its_closing_axis():
    axes = (make_axis(3, (0, 0, 0), [(0, 0, 1)]), make_axis(3, (1, 0, 0), [(0, 1, 0)]))
    closing = make_axis(3, (5, 5, 5), [(0, 0, 1)])
    with pytest.raises(DefinitionError, match="end frame must lie in its closing axis"):
        Chain(3, axes, make_frame(3, (0, 0, 0), [(1, 0, 0)]), closing_axis=closing)
    # the origin alone, then the vectors alone, off the closing axis
    for origin, vec in (((0, 0, 0), (0, 0, 1)), ((5, 5, 7), (1, 0, 0))):
        with pytest.raises(DefinitionError, match="closing axis"):
            Chain(3, axes, make_frame(3, origin, [vec]), closing_axis=closing)
    # any point of the axis and either orientation of its direction will do
    c = Chain(3, axes, make_frame(3, (5, 5, -2), [(0, 0, -1)]), closing_axis=closing)
    assert c.is_cycle and cycle_chain([*axes, closing]).closing_axis is closing


def _same_placement(a, b):
    return (
        np.array_equal(a.origins, b.origins)
        and np.array_equal(a.generators, b.generators)
        and np.array_equal(a.frame_at.origin, b.frame_at.origin)
        and np.array_equal(a.frame_at.vecs, b.frame_at.vecs)
        and all(
            np.array_equal(g.rot, h.rot) and np.array_equal(g.trans, h.trans)
            for g, h in zip(a.body_isometries, b.body_isometries, strict=True)
        )
        and a.ref_axes is b.ref_axes
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(2, 12),
    st.integers(0, 10**6),
    st.lists(st.integers(0, 2), min_size=1, max_size=8),
)
def test_memoized_placement_equals_a_fresh_placement(d, n, seed, picks):
    # a sequence over three configurations, so it repeats the last one and
    # returns to earlier ones
    rng = np.random.default_rng(seed)
    c = random_chain(rng, d, n)
    thetas = rng.uniform(0.0, 2.0 * np.pi, (3, n - 1))
    for i in picks:
        assert _same_placement(forward_kinematics(c, thetas[i]), chain_module._place(c, thetas[i]))


def _placement_outcome(place):
    """The placements, or the message of the DefinitionError raised."""
    try:
        return place()
    except DefinitionError as exc:
        return str(exc)


def _placement_reference(chain, theta):
    """Reference: one configuration placed joint by joint with ``_place``'s arithmetic and no ``Isometry``. At
    each joint the placed origin R o + t, the generator R J R^T rescaled to Frobenius norm sqrt(2), and the
    directions; then the Rodrigues step S = I + sin(a) J + (1 - cos(a)) J^2, which fixes the placed origin p,
    composed onto the motion so far: (R, t) <- (S R, S t + (p - S p)). Last the end frame is moved."""
    rot, trans, joints, end = np.eye(chain.d), np.zeros(chain.d), [], chain.end_frame
    for axis, J_ref, angle in zip(chain.ref_axes, chain.ref_generators, theta):
        if not np.isfinite(angle):
            raise DefinitionError(f"rotation angle must be finite, got {float(angle)!r}")
        origin = rot @ axis.origin + trans
        J = rot @ J_ref @ rot.T
        J *= np.sqrt(2.0) / np.sqrt(J.ravel().dot(J.ravel()))
        joints.append((origin, J, axis.dirs @ rot.T))
        step = np.eye(chain.d) + np.sin(angle) * J + (1.0 - np.cos(angle)) * (J @ J)
        rot, trans = step @ rot, step @ trans + (origin - step @ origin)
    origins, generators, dirs = map(np.array, zip(*joints))
    return origins, generators, dirs, rot @ end.origin + trans, end.vecs @ rot.T


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(2, 12),
    st.integers(1, 40),
    st.integers(0, 10**6),
    st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3),
)
def test_stacked_placement_equals_one_placement_per_configuration(d, n, samples, seed, bad):
    # chains with any end frame k = 0..d-2 and cycles, at angles of any sign and size, some
    # exactly 0; up to three non-finite angles, anywhere
    rng = np.random.default_rng(seed)
    c = random_cycle(rng, d, n) if seed % 3 == 0 else random_chain(rng, d, n, k=int(rng.integers(0, d - 1)))
    thetas = rng.uniform(-10.0, 10.0, (samples, c.n - 1)) * 10.0 ** rng.integers(-3, 3, (samples, 1))
    thetas[rng.random(thetas.shape) < 0.1] = 0.0
    thetas.flat[rng.choice(thetas.size, min(len(bad), thetas.size), replace=False)] = bad[: thetas.size]
    want = _placement_outcome(lambda: [_placement_reference(c, theta) for theta in thetas])
    one = _placement_outcome(lambda: [chain_module._place(c, theta) for theta in thetas])
    got = _placement_outcome(lambda: chain_module._place_many(c, thetas))
    if isinstance(want, str):
        # the first bad angle in sample, then joint order, as placing one at a time names it
        first = thetas.flat[np.flatnonzero(~np.isfinite(thetas))[0]]
        assert got == one == want == f"rotation angle must be finite, got {float(first)!r}"
        return
    # origins, generators, directions, end-frame origins and vectors, stacked per configuration
    want = [np.array(stack) for stack in zip(*want)]
    one = [np.array(stack) for stack in zip(*((pl.origins, pl.generators, pl.dirs, pl.frame_at.origin,
                                                 pl.frame_at.vecs) for pl in one))]
    if c.end_frame.k:  # only the end-point map reads directions, so a k > 0 stack has none
        assert got[2] is None
        got, one, want = got[:2] + got[3:], one[:2] + one[3:], want[:2] + want[3:]
    assert [(a.shape, a.tobytes()) for a in got] == [(b.shape, b.tobytes()) for b in want]
    assert [(a.shape, a.tobytes()) for a in one] == [(b.shape, b.tobytes()) for b in want]


def _jacobian_reference(pl):
    """Reference: the Jacobian formula of one placement, before placements were stacked: one
    ``einsum`` for the origin block, then one ``(G @ v).T`` block per frame vector v."""
    f = pl.frame_at
    blocks = [np.einsum("iab,ib->ai", pl.generators, f.origin - pl.origins)]
    blocks.extend((pl.generators @ v).T for v in f.vecs)
    return np.vstack(blocks)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(2, 12), st.integers(1, 9), st.integers(0, 10**6), st.booleans())
def test_frame_map_jacobian_and_the_stacked_kernel_equal_the_per_placement_formula(d, n, samples, seed, cycle):
    # end frames of every k = 0..d-2, and cycles (k = d-2)
    rng = np.random.default_rng(seed)
    c = random_cycle(rng, d, n) if cycle else random_chain(rng, d, n, k=int(rng.integers(0, d - 1)))
    thetas = rng.uniform(0.0, 2.0 * np.pi, (samples, c.n - 1))
    want = np.array([_jacobian_reference(forward_kinematics(c, theta)) for theta in thetas])
    assert want.shape == (samples, (c.end_frame.k + 1) * d, c.n - 1)
    assert all(frame_map_jacobian(c, theta).tobytes() == w.tobytes() for theta, w in zip(thetas, want))
    origins, generators, _, ends, vecs = chain_module._place_many(c, thetas)
    got = chain_module._jacobian(origins, generators, ends, vecs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_repeated_placement_is_shared_only_for_the_same_chain():
    c = classical_scenario("generic-cycle", d=3, n=7, seed=0)
    twin = cycle_chain(list(c.ref_axes) + [c.closing_axis])
    other = classical_scenario("generic-cycle", d=3, n=7, seed=1)
    theta = np.full(c.n - 1, 0.25)
    first = forward_kinematics(c, theta)
    assert forward_kinematics(c, theta.copy()) is first
    for chain in (twin, other):
        placed = forward_kinematics(chain, theta)
        assert placed is not first and placed.ref_axes is chain.ref_axes
        assert _same_placement(placed, chain_module._place(chain, theta))


def test_theta_changed_in_place_is_placed_afresh():
    c = classical_scenario("generic-cycle", d=4, n=11, seed=0)
    theta = np.full(c.n - 1, 0.1)
    first = forward_kinematics(c, theta)
    theta[3] += 0.5
    second = forward_kinematics(c, theta)
    assert second is not first
    assert _same_placement(second, chain_module._place(c, theta))


def test_failed_placement_raises_again_and_keeps_the_last_placement():
    c = classical_scenario("generic-cycle", d=3, n=7, seed=0)
    theta = np.zeros(c.n - 1)
    placed = forward_kinematics(c, theta)
    bad = theta.copy()
    bad[2] = np.nan
    for _ in range(2):
        with pytest.raises(DefinitionError):
            forward_kinematics(c, bad)
        assert chain_module._placed.cache_info().currsize == 1
    hits = chain_module._placed.cache_info().hits
    assert forward_kinematics(c, theta) is placed
    assert chain_module._placed.cache_info().hits == hits + 1


@pytest.mark.parametrize("d, n, k", [(2, 4, 0), (3, 7, 0), (4, 11, 2), (5, 6, 1)])
def test_placement_arrays_are_read_only_and_c_ordered(d, n, k):
    # _place writes origins and generators into preallocated arrays, then freezes them
    c = random_chain(rng_from(d, n), d, n, k=k)
    pl = chain_module._place(c, rng_from(1).uniform(0.0, 2.0 * np.pi, n - 1))
    arrays = [pl.origins, pl.generators, pl.dirs, *pl.rots, *pl.trans]
    assert pl.origins.shape == (n - 1, d) and pl.generators.shape == (n - 1, d, d) and len(pl.rots) == n
    for a in arrays:
        assert not a.flags.writeable and a.flags.c_contiguous and a.dtype == float
    with pytest.raises(ValueError):
        pl.origins[0, 0] = 0.0
    with pytest.raises(ValueError):
        pl.generators[0, 0, 0] = 0.0
    assert pl.ref_axes is c.ref_axes


def test_flex_path_places_each_configuration_once_in_a_row(monkeypatch):
    # 10 steps of the generic 7-cycle make 70 forward_kinematics calls;
    # 39 of them repeat the configuration placed just before
    c = classical_scenario("generic-cycle", d=3, n=7, seed=0)
    placed = []
    place = chain_module._place

    def counting(chain, theta):
        placed.append(theta.copy())
        return place(chain, theta)

    monkeypatch.setattr(chain_module, "_place", counting)
    flex_path(c, steps=10, step_size=1e-2)
    assert len(placed) == 31
    assert all(not np.array_equal(a, b) for a, b in zip(placed, placed[1:]))


def test_parallel_axes_chain_refuses_the_plane_by_name():
    # an axis of R^2 is a point, with no direction for the axes to share
    with pytest.raises(DimensionError, match=r"^parallel axes need ambient dimension >= 3"):
        parallel_axes_chain(rng_from(0), 2, 4)


def _axis(d):
    # the axis of R^d through the origin along e_2 .. e_{d-1}
    return make_axis(d, np.zeros(d), np.eye(d)[2:])


def _point(d):
    return Frame(d, np.eye(d)[0], np.zeros((0, d)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Chain(3, (), _point(3)), DefinitionError, "a chain needs at least one hinge (n >= 2 bodies)"),
    (lambda: Chain(3, (_axis(4),), _point(3)), DefinitionError, "every axis must live in the chain's dimension"),
    (lambda: Chain(3, (_axis(3),), _point(4)), DefinitionError, "end frame dimension mismatch"),
    (lambda: Chain(3, (_axis(3),), _point(3), closing_axis=_axis(4)), DefinitionError,
     "closing axis dimension mismatch"),
    (lambda: cycle_chain([_axis(3)]), DefinitionError, "a cycle needs at least two axes"),
    (lambda: random_chain(rng_from(0), 3, 1), DefinitionError, "a chain needs at least one hinge (n >= 2 bodies)"),
    (lambda: numerical_jacobian(np.sin, np.zeros(1), h=0.0), ValueError, "step h must be positive"),
], ids=["no-hinge", "axis-dim", "end-frame-dim", "closing-axis-dim", "cycle-of-one", "random-chain-of-one",
        "jacobian-step"])
def test_malformed_chains_and_cycles_are_refused_by_name(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
