import numpy as np
import pytest

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
    make_axis,
    numerical_jacobian,
    rotate_about,
)
from hingekit.analysis import classical_scenario
from hingekit.chain import panel_spans_ok
from hingekit.errors import DefinitionError, DimensionError, HingekitError, RigidCycleError, WrongMapError
from hingekit.sampling import random_axis, random_chain, random_cycle, rng_from


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


def test_random_axis_needs_dimension_two():
    with pytest.raises(DimensionError):
        random_axis(rng_from(0), 1)


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


def test_cycle_constructor_guards():
    rng = rng_from(116)
    axes = [random_axis(rng, 3) for _ in range(6)]
    c = cycle_chain(axes)
    assert c.is_cycle and c.end_frame.k == 1 and c.closing_axis is axes[-1]
    with pytest.raises(DefinitionError):
        Chain(3, tuple(axes[:5]), Frame(3, axes[5].origin, axes[5].dirs), is_cycle=True)
