import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from hingekit import (
    AffineSubspace,
    Axis,
    Frame,
    Isometry,
    affine_intersection,
    apply,
    axis_plucker,
    common_perpendicular,
    compose,
    flat_plucker,
    identity_isometry,
    incident,
    invert,
    line_plucker,
    make_axes,
    make_axis,
    make_frame,
    project_affine,
    rotate_about,
    rotation_generator,
)
from hingekit import geometry
from hingekit.errors import (
    DefinitionError,
    DegenerateAxisError,
    DegenerateLineError,
    DimensionError,
    ParallelLinesError,
)


def point_axis(x, y):
    return Axis(2, np.array([x, y], dtype=float), np.zeros((0, 2)))


def z_axis():
    return make_axis(3, (0, 0, 0), [(0, 0, 1)])


# --- make_axis ---------------------------------------------------------------


def test_make_axis_normalizes():
    a = make_axis(3, (0, 0, 0), [(0, 0, 2)])
    assert np.allclose(a.dirs, [[0, 0, 1]])


def test_make_axis_d2_point():
    a = make_axis(2, (1, 0), [])
    assert a.dirs.shape == (0, 2)


def test_make_axis_gram_schmidt_order():
    a = make_axis(4, (0, 0, 0, 0), [(1, 0, 0, 0), (1, 1, 0, 0)])
    assert np.allclose(a.dirs, [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_make_axis_rejects_dependent_dirs():
    with pytest.raises(DegenerateAxisError):
        make_axis(4, np.zeros(4), [(1, 0, 0, 0), (2, 0, 0, 0)])


def test_axis_validates_orthonormality():
    with pytest.raises(DegenerateAxisError):
        Axis(3, np.zeros(3), np.array([[0.0, 0.0, 2.0]]))


@pytest.mark.parametrize("build", [Axis, Frame])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_orthonormality_check_rejects_non_finite_rows(build, bad):
    with pytest.raises(DegenerateAxisError, match="orthonormal"):
        build(3, np.zeros(3), np.array([[0.0, bad, 1.0]]))


def _gram_schmidt_reference(raw, what):
    """The per-matrix orthonormalizer that ``make_axes`` stacks: one QR per axis."""
    if raw.shape[0] == 0:
        return raw
    q, r = np.linalg.qr(raw.T)
    diag = np.diag(r)
    scale = np.max(np.abs(raw)) or 1.0
    if np.any(np.abs(diag) <= 1e-10 * scale):
        raise DegenerateAxisError(f"{what} are linearly dependent")
    return (q * np.sign(diag)).T


def _per_axis_reference(d, origins, raws):
    """Axes built one at a time, each checked by the public Axis constructor, or
    (index, type, message) of the first axis that fails."""
    axes = []
    for i, (origin, raw) in enumerate(zip(origins, raws)):
        try:
            axes.append(Axis(d, origin, _gram_schmidt_reference(raw, "axis directions")))
        except DegenerateAxisError as exc:
            return i, type(exc), str(exc)
    return axes


@st.composite
def _axis_stacks(draw):
    """(d, origins, raws) for d = 2..7 and n = 1..21 axes: generic directions, except
    for up to three axes with a zero row, a row proportional to another one,
    1e308-scale entries or 1e-300-scale entries."""
    d = draw(st.integers(2, 7))
    n = draw(st.integers(1, 21))
    kinds = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(("zero", "dependent", "huge", "tiny")),
                                 max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origins = rng.uniform(-2, 2, (n, d))
    raws = rng.standard_normal((n, d - 2, d))
    for i, kind in kinds.items() if d > 2 else ():
        raw, j = raws[i], rng.integers(d - 2)
        if kind == "zero":
            raw[j] = 0.0
        elif kind == "dependent" and d > 3:
            raw[j] = rng.uniform(-3, 3) * raw[(j + 1) % (d - 2)]
        elif kind == "huge":
            raw[:] = np.sign(raw) * 1e308
        elif kind == "tiny":
            raw *= 1e-300
    return d, origins, raws


@pytest.mark.parametrize("build", [
    lambda: make_axis(4, (0, 1, 2, 3), [(1, 1, 0, 0), (0, 1, 1, 0)]),
    lambda: make_frame(4, (0, 1, 2, 3), [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),
    lambda: make_axes(4, [(0, 1, 2, 3)] * 3, [[(1, 1, 0, 0), (0, 1, 1, 0)]] * 3),
], ids=["make_axis", "make_frame", "make_axes"])
def test_make_axis_make_frame_and_make_axes_check_orthonormality_once(build, monkeypatch):
    calls = []
    check = geometry._check_orthonormal
    monkeypatch.setattr(geometry, "_check_orthonormal", lambda *a: calls.append(a) or check(*a))
    build()
    assert len(calls) == 1


@pytest.mark.parametrize("d, rows", [
    (4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0)]),
], ids=["d4-five-vectors", "d3-four-vectors"])
def test_make_frame_refuses_more_vectors_than_dimensions(d, rows):
    """The reduced QR returns at most d rows, so make_frame counts the raw vectors first,
    with the error of the Frame constructor; d of them still make a frame."""
    for build in (make_frame, Frame):
        with pytest.raises(DimensionError, match="^a frame cannot carry more vectors than dimensions$"):
            build(d, np.arange(d, dtype=float), rows)
    assert make_frame(d, np.arange(d, dtype=float), rows[:d]).k == d


@pytest.mark.parametrize("build", [make_axis, make_frame, Axis, Frame])
@pytest.mark.parametrize("dim, rows", [
    (3, [[1, 0]]),
    (4, [[1, 0, 0, 0], [0, 1, 0]]),
], ids=["too-narrow", "ragged"])
def test_direction_rows_of_another_width_name_the_width(build, dim, rows):
    what = "axis directions" if build in (make_axis, Axis) else "frame vectors"
    with pytest.raises(DimensionError, match=f"^{what} must be rows of {dim} numbers$"):
        build(dim, np.zeros(dim), rows)


@settings(max_examples=150, deadline=None)
@given(_axis_stacks())
def test_make_axes_is_bit_identical_to_one_axis_at_a_time(stack):
    d, origins, raws = stack
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _per_axis_reference(d, origins, raws)
        try:
            got = make_axes(d, origins, raws)
        except DegenerateAxisError as exc:
            got = exc.index, type(exc), str(exc)
        singles = []
        for origin, raw in zip(origins, raws):
            try:
                singles.append(make_axis(d, origin, raw))
            except DegenerateAxisError as exc:
                singles.append((type(exc), str(exc)))
    if isinstance(expected, tuple):
        assert got == expected
        assert singles[expected[0]] == expected[1:]
        return
    for want, stacked, single in zip(expected, got, singles):
        for axis in (stacked, single):
            assert axis.dim == d
            assert axis.origin.tobytes() == want.origin.tobytes()
            assert axis.dirs.shape == want.dirs.shape and axis.dirs.strides == want.dirs.strides
            assert axis.dirs.tobytes(order="A") == want.dirs.tobytes(order="A")
            for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE", "OWNDATA"):
                assert axis.dirs.flags[flag] == want.dirs.flags[flag]
                assert axis.origin.flags[flag] == want.origin.flags[flag]
            if d >= 4:
                assert axis.dirs.flags.c_contiguous and not axis.dirs.flags.f_contiguous


@pytest.mark.parametrize(
    "dim, origins, dirs",
    [(1, np.zeros((2, 1)), np.zeros((2, 0, 1))), (3, np.zeros((2, 3)), np.zeros((3, 1, 3))),
     (3, np.zeros((2, 3)), np.zeros((2, 2, 3))), (4, np.zeros((2, 3)), np.zeros((2, 2, 4)))],
)
def test_make_axes_rejects_stacks_of_the_wrong_shape(dim, origins, dirs):
    with pytest.raises(DimensionError, match=f"axes of R\\^{dim} need"):
        make_axes(dim, origins, dirs)


# --- plucker coordinates ------------------------------------------------------


def test_axis_plucker_z_axis():
    coeffs = axis_plucker(z_axis()).coeffs
    expected = np.zeros(6)
    expected[5] = -1.0  # subset {2,3}: the z slot paired with the homogeneous slot
    assert np.allclose(coeffs, expected)


def test_axis_plucker_d2_homogeneous_point():
    assert np.allclose(axis_plucker(point_axis(1, 0)).coeffs, [1.0, 0.0, 1.0])


def test_axis_plucker_origin_slide_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = make_axis(4, rng.uniform(-1, 1, 4), rng.standard_normal((2, 4)))
        slid = Axis(4, a.origin + 0.7 * a.dirs[0] - 1.3 * a.dirs[1], a.dirs)
        assert np.allclose(axis_plucker(a).coeffs, axis_plucker(slid).coeffs, atol=1e-12)


def test_axis_plucker_orientation():
    rng = np.random.default_rng(4)
    a = make_axis(4, rng.uniform(-1, 1, 4), rng.standard_normal((2, 4)))
    # same-orientation rebasing (rotation inside the direction plane)
    c, s = np.cos(0.8), np.sin(0.8)
    rot = np.array([c * a.dirs[0] + s * a.dirs[1], -s * a.dirs[0] + c * a.dirs[1]])
    assert np.allclose(axis_plucker(Axis(4, a.origin, rot)).coeffs, axis_plucker(a).coeffs, atol=1e-12)
    # swapping two directions flips the sign
    swapped = Axis(4, a.origin, a.dirs[::-1])
    assert np.allclose(axis_plucker(swapped).coeffs, -axis_plucker(a).coeffs, atol=1e-12)


def test_line_plucker_through_origin():
    coeffs = line_plucker((0, 0, 0), (1, 0, 0)).coeffs
    expected = np.zeros(6)
    expected[2] = -1.0  # subset {0,3}: x paired with the homogeneous slot
    assert np.allclose(coeffs, expected)


def test_line_plucker_homogeneity_and_slide():
    a = line_plucker((0, 0, 0), (1, 1, 1))
    b = line_plucker((0, 0, 0), (2, 2, 2))
    assert np.allclose(2 * a.coeffs, b.coeffs)
    c = line_plucker((1, 1, 1), (1, 1, 1))  # same projective line
    na, nc = a.coeffs / a.norm(), c.coeffs / c.norm()
    assert min(np.linalg.norm(na - nc), np.linalg.norm(na + nc)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda d: st.lists(
    st.lists(st.integers(-9, 9), min_size=d, max_size=d), min_size=1, max_size=d + 1)))
def test_flat_plucker_of_points_equals_first_point_and_differences(points):
    """(p, 1) ^ (q, 1) = (p, 1) ^ (q - p, 0), exactly; the float wedge agrees."""
    exact = flat_plucker(points, exact=True)
    diffs = [[b - a for a, b in zip(points[0], q)] for q in points[1:]]
    assert list(flat_plucker(points[:1], diffs, exact=True).coeffs) == list(exact.coeffs)
    scale = np.prod([np.linalg.norm([*q, 1]) for q in points])
    want = np.array([float(x) for x in exact.coeffs])
    assert np.abs(flat_plucker(points).coeffs - want).max() <= 1e-12 * scale


def test_line_plucker_rejects_zero_direction():
    with pytest.raises(DegenerateLineError):
        line_plucker((0, 0, 0), (0, 0, 0))


def test_incident_meet_skew_parallel():
    zp = axis_plucker(z_axis())
    assert incident(line_plucker((0, 0, 0), (1, 0, 0)), zp)
    assert not incident(line_plucker((0, 1, 0), (1, 0, 0)), zp)
    assert incident(line_plucker((1, 0, 0), (0, 0, 1)), zp)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.integers(0, 10**6))
def test_incident_constructive_cases(d, seed):
    rng = np.random.default_rng(seed)
    a = make_axis(d, rng.uniform(-1, 1, d), rng.standard_normal((d - 2, d)))
    ap = axis_plucker(a)
    # a line through a point of the axis is incident
    on_axis = a.origin + a.dirs.T @ rng.uniform(-1, 1, d - 2)
    assert incident(line_plucker(on_axis, rng.standard_normal(d)), ap)
    # a line whose direction lies in the axis span is incident (at infinity)
    u = a.dirs.T @ rng.uniform(-1, 1, d - 2) + 1e-12
    assert incident(line_plucker(rng.uniform(-1, 1, d), u), ap, tol=1e-8)
    # a joining line between a point on the axis and an outside point is incident
    outside = rng.uniform(2, 3, d)
    assert incident(line_plucker(outside, on_axis - outside), ap)
    # a random line is generically not incident
    assert not incident(
        line_plucker(rng.uniform(2, 3, d), rng.standard_normal(d)), ap, tol=1e-6
    )


# --- rotations ----------------------------------------------------------------


def test_rotation_generator_d2():
    J = rotation_generator(point_axis(0, 0))
    assert np.allclose(J, [[0, -1], [1, 0]])


def test_rotation_generator_d3():
    J = rotation_generator(z_axis())
    assert np.allclose(J @ [1, 0, 0], [0, 1, 0])
    assert np.allclose(J @ [0, 0, 1], [0, 0, 0])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_rotation_generator_identities(d, seed):
    rng = np.random.default_rng(seed)
    a = (
        Axis(2, rng.uniform(-1, 1, 2), np.zeros((0, 2)))
        if d == 2
        else make_axis(d, rng.uniform(-1, 1, d), rng.standard_normal((d - 2, d)))
    )
    J = rotation_generator(a)
    assert np.allclose(J + J.T, 0, atol=1e-12)
    assert np.allclose(J @ J @ J, -J, atol=1e-12)
    assert np.allclose(J @ a.dirs.T, 0, atol=1e-12)


def random_axis_of(d, rng):
    dirs = rng.standard_normal((d - 2, d))
    return make_axis(d, rng.uniform(-1, 1, d), dirs)


def complement_pair_generator(a):
    """Reference J = u2 u1^T - u1 u2^T from an SVD complement pair with det[dirs; u1; u2] > 0."""
    _, _, vh = np.linalg.svd(np.vstack([a.dirs, np.zeros((2, a.dim))]))
    u1, u2 = vh[a.dim - 2], vh[a.dim - 1]
    if np.linalg.det(np.vstack([a.dirs, u1, u2])) < 0:
        u1, u2 = u2, u1
    return np.outer(u2, u1) - np.outer(u1, u2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_rotation_generator_matches_complement_pair(d, seed):
    a = random_axis_of(d, np.random.default_rng(seed))
    assert np.allclose(rotation_generator(a), complement_pair_generator(a), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_rotation_generator_is_equivariant(d, seed):
    rng = np.random.default_rng(seed)
    a = random_axis_of(d, rng)
    g = rotate_about(random_axis_of(d, rng), rng.uniform(-np.pi, np.pi))
    expected = g.rot @ rotation_generator(a) @ g.rot.T
    assert np.allclose(rotation_generator(apply(g, a)), expected, rtol=0, atol=1e-12)


def test_rotate_about_point_quarter_turn():
    iso = rotate_about(point_axis(1, 0), np.pi / 2)
    assert np.allclose(apply(iso, np.array([2.0, 0.0])), [1, 1])


def test_rotate_about_z_half_turn():
    iso = rotate_about(z_axis(), np.pi)
    assert np.allclose(apply(iso, np.array([1.0, 0.0, 0.0])), [-1, 0, 0], atol=1e-12)


def test_rotate_about_fixes_axis_and_derivative():
    rng = np.random.default_rng(7)
    a = make_axis(3, rng.uniform(-1, 1, 3), rng.standard_normal((1, 3)))
    angle = 1.1
    iso = rotate_about(a, angle)
    for t in (-0.5, 0.0, 0.8):
        p = a.origin + t * a.dirs[0]
        assert np.allclose(apply(iso, p), p, atol=1e-12)
    # finite-difference derivative at 0 matches the generator field
    h = 1e-6
    p = rng.uniform(-1, 1, 3)
    fd = (apply(rotate_about(a, h), p) - p) / h
    assert np.allclose(fd, rotation_generator(a) @ (p - a.origin), atol=1e-5)


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_rotate_about_rejects_non_finite_angles(angle):
    # isometries are not re-checked after construction, so the angle is checked here
    with pytest.raises(DefinitionError, match="finite"):
        rotate_about(z_axis(), angle)


def test_rotation_angles_add():
    rng = np.random.default_rng(8)
    a = make_axis(4, rng.uniform(-1, 1, 4), rng.standard_normal((2, 4)))
    lhs = compose(rotate_about(a, 0.7), rotate_about(a, -1.9))
    rhs = rotate_about(a, 0.7 - 1.9)
    assert np.allclose(lhs.rot, rhs.rot, atol=1e-10)
    assert np.allclose(lhs.trans, rhs.trans, atol=1e-10)


def test_apply_composition_and_inverse():
    rng = np.random.default_rng(9)
    a = make_axis(3, rng.uniform(-1, 1, 3), rng.standard_normal((1, 3)))
    b = make_axis(3, rng.uniform(-1, 1, 3), rng.standard_normal((1, 3)))
    f = rotate_about(a, 0.6)
    g = rotate_about(b, -1.2)
    p = rng.uniform(-1, 1, 3)
    assert np.allclose(apply(compose(g, f), p), apply(g, apply(f, p)), atol=1e-12)
    assert np.allclose(apply(compose(invert(f), f), p), p, atol=1e-12)
    ident = identity_isometry(3)
    assert np.allclose(apply(ident, p), p)
    moved = apply(g, a)  # axes stay axes: orthonormality re-validated on build
    assert isinstance(moved, Axis)


@pytest.mark.parametrize("obj", [Axis(3, [1.0, 0, 0], [[0, 0, 1.0]]), Frame(3, [0, 1.0, 0], [[1.0, 0, 0], [0, 1.0, 0]])])
def test_apply_checks_what_an_isometry_of_the_caller_moves(obj):
    # an Isometry checks only shapes, so apply checks the rows it moves by 2 I
    with pytest.raises(DegenerateAxisError, match="must be orthonormal within 1e-12"):
        apply(Isometry(2.0 * np.eye(3), np.zeros(3)), obj)


def test_isometries_preserve_incidence():
    rng = np.random.default_rng(10)
    a = make_axis(3, rng.uniform(-1, 1, 3), rng.standard_normal((1, 3)))
    iso = rotate_about(make_axis(3, rng.uniform(-1, 1, 3), rng.standard_normal((1, 3))), 0.9)
    p_on = a.origin + 0.4 * a.dirs[0]
    u = rng.standard_normal(3)
    assert incident(line_plucker(p_on, u), axis_plucker(a))
    assert incident(
        line_plucker(apply(iso, p_on), iso.rot @ u), axis_plucker(apply(iso, a))
    )


# --- perpendiculars, intersections, projections --------------------------------


def test_common_perpendicular_known_feet():
    f1, f2 = common_perpendicular(((0, 0, 0), (1, 0, 0)), ((0, 1, 1), (0, 1, 0)))
    assert np.allclose(f1, [0, 0, 0], atol=1e-12)
    assert np.allclose(f2, [0, 0, 1], atol=1e-12)


def test_common_perpendicular_intersecting_lines():
    f1, f2 = common_perpendicular(((0, 0, 0), (1, 0, 0)), ((1, -1, 0), (0, 1, 0)))
    assert np.allclose(f1, f2, atol=1e-10)
    assert np.allclose(f1, [1, 0, 0], atol=1e-10)


def test_common_perpendicular_parallel_rejected():
    with pytest.raises(ParallelLinesError):
        common_perpendicular(((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (2, 0, 0)))


def test_common_perpendicular_beats_grid_search():
    rng = np.random.default_rng(12)
    for _ in range(5):
        p1, p2 = rng.uniform(-1, 1, (2, 3))
        u1, u2 = rng.standard_normal((2, 3))
        f1, f2 = common_perpendicular((p1, u1), (p2, u2))
        assert np.allclose(f1 - p1 - u1 * ((f1 - p1) @ u1) / (u1 @ u1), 0, atol=1e-9)
        assert abs((f2 - f1) @ u1) < 1e-9 and abs((f2 - f1) @ u2) < 1e-9
        best = np.inf  # coarse independent minimization over both parameters
        for s in np.linspace(-4, 4, 161):
            pts1 = p1 + s * u1
            t = np.linspace(-4, 4, 161)
            d2 = np.linalg.norm(pts1[None, :] - (p2 + t[:, None] * u2), axis=1)
            best = min(best, d2.min())
        assert np.linalg.norm(f2 - f1) <= best + 1e-6


def test_affine_intersection_generic_planes_r4():
    rng = np.random.default_rng(13)
    a = make_axis(4, rng.uniform(-1, 1, 4), rng.standard_normal((2, 4)))
    b = make_axis(4, rng.uniform(-1, 1, 4), rng.standard_normal((2, 4)))
    flat = affine_intersection([a, b])
    assert flat is not None and flat.flat_dim == 0 and not flat.near_degenerate


def test_affine_intersection_idempotent():
    rng = np.random.default_rng(14)
    a = make_axis(4, rng.uniform(-1, 1, 4), rng.standard_normal((2, 4)))
    flat = affine_intersection([a, a])
    assert flat is not None and flat.flat_dim == 2
    assert flat.contains(a.origin)
    assert flat.contains(a.origin + a.dirs[0])


def test_affine_intersection_generic_3spaces_r5():
    rng = np.random.default_rng(15)
    a = make_axis(5, rng.uniform(-1, 1, 5), rng.standard_normal((3, 5)))
    b = make_axis(5, rng.uniform(-1, 1, 5), rng.standard_normal((3, 5)))
    flat = affine_intersection([a, b])
    assert flat is not None and flat.flat_dim == 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_affine_intersection_of_one_flat_that_spans_the_space_is_the_space(d):
    # the stacked constraint system is all zero: rank 0, so the flat of dimension d comes back
    flat = affine_intersection([AffineSubspace(d, np.arange(1.0, d + 1), np.eye(d))])
    assert flat is not None and flat.flat_dim == d and not flat.near_degenerate
    assert np.array_equal(flat.origin, np.zeros(d)) and flat.contains(np.full(d, 7.0))


def test_affine_intersection_empty():
    l1 = AffineSubspace(3, np.array([0.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0]]))
    l2 = AffineSubspace(3, np.array([0.0, 1.0, 0.0]), np.array([[1.0, 0.0, 0.0]]))
    assert affine_intersection([l1, l2]) is None


def test_affine_intersection_near_degenerate_flag():
    base = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tilt = base.copy()
    tilt[1, 2] = 1e-13  # almost the same plane: intersection dimension is shaky
    s1 = AffineSubspace(3, np.zeros(3), base)
    s2 = AffineSubspace(3, np.zeros(3), tilt / np.linalg.norm(tilt, axis=1, keepdims=True))
    flat = affine_intersection([s1, s2])
    assert flat is not None and flat.near_degenerate


def test_project_affine():
    z = make_axis(3, (0, 0, 0), [(0, 0, 1)])
    assert np.allclose(project_affine((1, 1, 1), z), [0, 0, 1])
    on = project_affine((0, 0, 0.3), z)
    assert np.allclose(on, [0, 0, 0.3])
    rng = np.random.default_rng(16)
    p = rng.uniform(-2, 2, 3)
    proj = project_affine(p, z)
    assert abs((p - proj) @ z.dirs[0]) < 1e-12


@pytest.mark.parametrize("cls, make, origin", [(Frame, make_frame, (1.0, -2.0, 0.5)), (Axis, make_axis, (1.0, -2.0))])
def test_rowless_frames_and_planar_axes_skip_the_stacked_check_unchanged(cls, make, origin):
    # an end-point frame carries no vectors and an axis of R^2 no directions
    dim = len(origin)
    for obj in (cls(dim, origin, np.zeros((0, dim))), make(dim, origin, [])):
        rows = obj.vecs if cls is Frame else obj.dirs
        assert (obj.dim, obj.origin.tolist(), rows.shape) == (dim, list(origin), (0, dim))
        assert not obj.origin.flags.writeable and not rows.flags.writeable
    if cls is Frame:  # a frame with vectors is still checked
        with pytest.raises(DegenerateAxisError, match="must be orthonormal within 1e-12"):
            Frame(dim, origin, [[2.0, 0.0, 0.0]])


def test_isometry_keeps_read_only_c_ordered_copies_of_its_arguments():
    rot, trans = rotate_about(z_axis(), 0.7).rot.T.copy(order="F"), np.arange(3.0)
    g = Isometry(rot, trans)
    want = (rot.copy(), trans.copy())
    rot[0, 0], trans[0] = 5.0, 5.0  # the caller's arrays change afterwards; the motion does not
    assert np.array_equal(g.rot, want[0]) and np.array_equal(g.trans, want[1])
    for a in (g.rot, g.trans):
        assert not a.flags.writeable and a.flags.c_contiguous and a.dtype == float
        with pytest.raises(ValueError):
            a[0] = 1.0
    with pytest.raises(AttributeError):
        g.rot = np.eye(3)
    assert Isometry([[1, 0], [0, 1]], [0, 2]).trans.tolist() == [0.0, 2.0]  # lists are read as floats


@pytest.mark.parametrize("call, message", [
    (lambda: Axis(1, (0,), []), "axes need ambient dimension >= 2"),
    (lambda: Axis(3, (0, 0), [(0, 0, 1)]), "axis origin must be a point of R^3"),
    (lambda: Axis(4, np.zeros(4), [(1, 0, 0, 0)]), "an axis of R^4 needs 2 directions"),
    (lambda: Frame(3, (0, 0), []), "frame origin must be a point of R^3"),
    (lambda: Isometry(np.eye(3), np.zeros(2)), "rotation and translation dimensions disagree"),
    (lambda: Isometry(np.eye(3)[:2], np.zeros(3)), "rotation and translation dimensions disagree"),
    (lambda: Isometry(np.zeros(3), np.zeros(3)), "rotation and translation dimensions disagree"),
    (lambda: apply(identity_isometry(3), (1.0, 2.0)), "cannot move a shape-(2,) object in R^3"),
    (lambda: affine_intersection([]), "affine_intersection needs at least one subspace"),
], ids=["axis-dim-1", "axis-origin", "axis-direction-count", "frame-origin", "isometry", "isometry-rot-not-square",
        "isometry-rot-1d", "apply-point", "intersect-nothing"])
def test_mismatched_dimensions_raise_dimension_errors(call, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        call()
