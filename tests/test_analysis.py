import itertools
import re

import numpy as np
import pytest
from fractions import Fraction
from math import comb, lcm, prod
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from hingekit import (
    Axis,
    Chain,
    ExteriorVector,
    Frame,
    Platform,
    apply,
    axis_plucker,
    compose,
    cycle_chain,
    cycle_mobility,
    cycle_mobility_exact,
    endpoint_jacobian,
    endpoint_singularity,
    flat_plucker,
    flex_path,
    forward_kinematics,
    frame_columns,
    frame_singularity,
    grid_incident_line,
    incident,
    line_plucker,
    make_axis,
    make_frame,
    pairing_rows,
    platform_flexibility,
    rank_of_span,
    rotate_about,
    stabilizer_pluckers,
    top_pairing,
    wedge,
)
from hingekit.analysis import (
    WitnessLine,
    _check_witness,
    _stabilizer_rows,
    _coincident,
    bricard_symmetric_lines,
    classical_scenario,
    desargues_legs,
    mirror_through_z_axis,
    twisted_cubic_data,
    twisted_cubic_tangent_vectors,
)
from hingekit.errors import (
    DefinitionError,
    DegenerateAxisError,
    DegenerateGeometryError,
    DegenerateLegError,
    ConsistencyError,
    DimensionError,
    GradeError,
    HingekitError,
    ScenarioError,
    ToleranceError,
    WrongMapError,
)
from hingekit.exterior import NON_FINITE, _exact_minor_rows, _minor_rows, numeric_rank, positive_lead
from hingekit.chain import _frame_rows
from hingekit.geometry import _lift, _plucker_to_twist
from hingekit.sampling import (
    common_line_platform_legs,
    parallel_axes_chain,
    random_axis,
    random_chain,
    random_cycle,
    random_frame,
    random_platform_legs,
    rng_from,
    singular_endpoint_chain,
)


# --- end-point verdicts --------------------------------------------------------


def test_collinear_arm_is_singular_with_line_witness():
    arm = classical_scenario("planar-arm", lengths=(1, 1, 1))
    v = endpoint_singularity(arm, np.zeros(3))
    assert v.singular and v.rank == 1 and v.full_rank == 2
    assert isinstance(v.witness, WitnessLine)
    # the witness is the common line of the bars: direction +-x through (3, 0)
    assert abs(v.witness.direction[1]) < 1e-10
    assert np.allclose(v.witness.point, [3, 0])


def test_random_chains_are_regular():
    rng = rng_from(300)
    for _ in range(20):
        c = random_chain(rng, 3, 5, k=0)
        v = endpoint_singularity(c, rng.uniform(0, 2 * np.pi, 4))
        assert not v.singular and v.rank == 3 and v.witness is None


def test_constructed_common_line_chain_detected():
    rng = rng_from(301)
    for _ in range(10):
        c = singular_endpoint_chain(rng, 3, 6)
        v = endpoint_singularity(c, np.zeros(5))
        assert v.singular
        line = line_plucker(v.witness.point, v.witness.direction)
        for a in c.ref_axes:
            assert incident(line, axis_plucker(a), tol=1e-7)


def test_witness_recovers_the_forced_line():
    rng = rng_from(302)
    c = singular_endpoint_chain(rng, 3, 7, parallel_fraction=0.0)
    v = endpoint_singularity(c, np.zeros(6))
    # all axes were threaded through one line within the end-point; with six
    # of them the left-null space is one-dimensional and must match it
    assert v.rank == 2
    feet = [a.origin for a in c.ref_axes]
    span = np.array([f - v.witness.point for f in feet])
    cross = np.linalg.norm(np.cross(span, v.witness.direction), axis=1)
    assert np.max(cross / np.linalg.norm(span, axis=1)) < 1e-6


def _witness_misses_per_axis(placement, null_basis, cutoff) -> list[int]:
    """Reference: the witness check one direction and one axis at a time, through
    line_plucker, axis_plucker and top_pairing; the 1-based axis of every pair
    whose pairing passes its bound, in (direction, axis) order."""
    misses = []
    for direction in null_basis:
        line = line_plucker(placement.frame_at.origin, direction)
        for i, axis in enumerate(placement.axes_at):
            alpha = axis_plucker(axis)
            if abs(top_pairing(line, alpha)) > 8.0 * cutoff + 1e-12 * line.norm() * alpha.norm():
                misses.append(i + 1)
    return misses


def _stacked_witness_outcome(placement, null_basis, cutoff):
    try:
        _check_witness([placement], null_basis[None], np.array([cutoff]))
    except ConsistencyError as exc:
        return int(re.search(r"misses axis (\d+) ", str(exc)).group(1))
    return None


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.integers(3, 12), st.booleans(), st.integers(0, 10**6))
def test_stacked_witness_check_matches_the_per_axis_loop(d, n, parallel, seed):
    rng = rng_from(seed)
    if parallel and d >= 3:
        c = parallel_axes_chain(rng, d, n)
        theta = rng.uniform(0.0, 2.0 * np.pi, n - 1)
    else:
        c = singular_endpoint_chain(rng, d, n)
        theta = np.zeros(n - 1)
    pl = forward_kinematics(c, theta)
    rank, cutoff, u, _, _ = numeric_rank(endpoint_jacobian(c, theta), 1e-10)
    assume(rank < d)
    null_basis = u[:, rank:].T.copy()
    misses = _witness_misses_per_axis(pl, null_basis, cutoff)
    assert _stacked_witness_outcome(pl, null_basis, cutoff) == (misses[0] if misses else None)
    # turn one null direction off the incident line: both checks name the same first missed axis
    bent = null_basis.copy()
    bent[rng.integers(len(bent))] += rng.standard_normal(d)
    misses = _witness_misses_per_axis(pl, bent, cutoff)
    assert misses
    assert _stacked_witness_outcome(pl, bent, cutoff) == misses[0]


def test_doubly_deficient_chain_reports_full_null_basis():
    # every hinge on one common line: all end-point velocities are parallel,
    # so the rank is 1 and the deficiency directions span a 2-plane
    rng = rng_from(299)
    line_dir = np.array([0.3, -0.5, 0.8])
    line_dir /= np.linalg.norm(line_dir)
    axes = tuple(
        make_axis(3, 0.7 * k * line_dir, [line_dir]) for k in range(4)
    )
    c = Chain(3, axes, Frame(3, np.array([1.0, 1.0, 1.0]), np.zeros((0, 3))))
    v = endpoint_singularity(c, np.zeros(4))
    assert v.rank == 1 and v.singular
    assert v.null_directions.shape == (2, 3)
    for direction in v.null_directions:
        line = line_plucker(v.witness.point, direction)
        for a in c.ref_axes:
            assert incident(line, axis_plucker(a), tol=1e-8)


def test_pairing_rows_match_jacobian_rows():
    rng = rng_from(303)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        c = random_chain(rng, d, int(rng.integers(3, 8)), k=0)
        theta = rng.uniform(0, 2 * np.pi, c.n - 1)
        pl = forward_kinematics(c, theta)
        rows = pairing_rows(pl.frame_at.origin, pl.axes_at)
        jac = endpoint_jacobian(c, theta)
        gap = min(
            float(np.max(np.abs(rows - sign * jac.T))) for sign in (1.0, -1.0)
        )
        assert gap < 1e-9 * max(1.0, float(np.max(np.abs(jac))))


@pytest.mark.parametrize("d", [3, 4])
def test_grid_oracle_falls_back_when_every_axis_holds_the_end_point(d):
    # every pairing row is exactly zero, so the oracle answers before its grid, which covers d <= 3 only
    axes = [make_axis(d, np.zeros(d), rows) for rows in (np.eye(d)[2:], np.eye(d)[:d - 2], np.eye(d)[1:d - 1])]
    found, direction, residual = grid_incident_line(np.zeros(d), axes)
    assert found and residual == 0.0 and np.array_equal(direction, np.eye(d)[0])


def test_grid_oracle_agrees_both_ways():
    rng = rng_from(304)
    for d in (2, 3):
        c = singular_endpoint_chain(rng, d, 6)
        found, _, resid = grid_incident_line(c.end_frame.origin, c.ref_axes)
        assert found and resid < 0.02
        c = random_chain(rng, d, 6, k=0)
        theta = rng.uniform(0, 2 * np.pi, 5)
        pl = forward_kinematics(c, theta)
        found, _, _ = grid_incident_line(pl.frame_at.origin, pl.axes_at)
        assert found == endpoint_singularity(c, theta).singular


# --- stabilizers and frame verdicts ---------------------------------------------


def test_stabilizer_counts():
    rng = rng_from(305)
    for d, k, count in [(3, 0, 3), (3, 1, 1), (4, 2, 1), (4, 0, 6), (5, 1, 6), (3, 2, 0), (4, 4, 0)]:
        f = (
            Frame(d, rng.uniform(-1, 1, d), np.zeros((0, d)))
            if k == 0
            else make_frame(d, rng.uniform(-1, 1, d), rng.standard_normal((k, d)))
        )
        assert len(stabilizer_pluckers(f)) == count


def test_loose_hinge_stabilizer_is_its_own_axis():
    rng = rng_from(306)
    f = make_frame(4, rng.uniform(-1, 1, 4), rng.standard_normal((2, 4)))
    (point,) = stabilizer_pluckers(f)
    own = axis_plucker(make_axis(4, f.origin, f.vecs))
    assert np.allclose(point.coeffs, own.coeffs, atol=1e-12)


@pytest.mark.parametrize("d, k", [(d, k) for d in range(2, 7) for k in range(d - 1)])
def test_stabilizer_points_are_the_plucker_points_of_validated_axes(d, k):
    """Each stabilizer point equals axis_plucker of an Axis built, and so validated,
    from the frame vectors and the complement rows it keeps."""
    frame = random_frame(rng_from(308 + 10 * d + k), d, k)
    complement = np.eye(d) if k == 0 else np.linalg.svd(frame.vecs, full_matrices=True)[2][k:]
    points = stabilizer_pluckers(frame)
    pairs = list(itertools.combinations(range(d - k), 2))
    assert len(points) == len(pairs)
    for point, (a, b) in zip(points, pairs):
        keep = [complement[c] for c in range(d - k) if c not in (a, b)]
        want = axis_plucker(Axis(d, frame.origin, np.vstack([frame.vecs, *keep]))).coeffs
        assert np.abs(point.coeffs - want).max() <= 1e-13 * np.linalg.norm(want)


def test_frame_and_endpoint_verdicts_agree_for_points():
    rng = rng_from(307)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(3, 9))
        c = random_chain(rng, d, n, k=0)
        theta = rng.uniform(0, 2 * np.pi, n - 1)
        a = endpoint_singularity(c, theta)
        b = frame_singularity(c, theta)
        assert a.singular == b.singular
        assert a.rank == b.rank


def test_frame_full_rank_dimension():
    rng = rng_from(308)
    c = random_chain(rng, 3, 8, k=1)
    v = frame_singularity(c, rng.uniform(0, 2 * np.pi, 7))
    assert v.full_rank == 5  # frames with one vector in R^3 move in 5 dimensions
    assert not v.singular and v.rank == 5


def test_frame_rank_matches_finite_differences():
    rng = rng_from(309)
    for _ in range(15):
        d = int(rng.integers(3, 5))
        k = int(rng.integers(0, d - 1))
        n = int(rng.integers(4, 9))
        c = random_chain(rng, d, n, k=k)
        theta = rng.uniform(0, 2 * np.pi, n - 1)

        def coords(t, chain=c):
            f = forward_kinematics(chain, t).frame_at
            return np.concatenate([f.origin, f.vecs.ravel()])

        from hingekit import numerical_jacobian

        fd = numerical_jacobian(coords, theta, 1e-5)
        sig = np.linalg.svd(fd, compute_uv=False)
        fd_rank = int(np.sum(sig > 1e-6 * sig[0]))
        assert fd_rank == frame_singularity(c, theta).rank


@pytest.mark.parametrize("chain", [
    lambda: classical_scenario("generic-cycle"),
    lambda: random_chain(rng_from(31), 3, 5, k=1),
    lambda: random_chain(rng_from(32), 5, 9, k=2),
], ids=["generic-cycle", "k=1-chain", "k=2-chain"])
def test_a_frame_verdict_never_reports_a_negative_rank(chain):
    # the stabilizer rows are independent, so only a coarse tolerance can cut the span below them
    c = chain()
    stab_dim = comb(c.d - c.end_frame.k, 2)
    cut = []
    for tol in [10.0**e for e in range(-12, 4)] + [1e300]:
        try:
            v = frame_singularity(c, np.zeros(c.n - 1), tol=tol)
        except ToleranceError as exc:
            message = rf"tolerance {re.escape(str(tol))} cuts the end frame's stabilizer: span rank \d+ < {stab_dim}"
            assert re.fullmatch(message, str(exc))
            cut.append(tol)
        else:
            assert 0 <= v.rank <= v.full_rank
    assert 1e300 in cut


@pytest.mark.parametrize("verdict, tol, shape", [
    (lambda tol: cycle_mobility([*(c := classical_scenario("generic-cycle")).ref_axes, c.closing_axis], tol=tol),
     0.5, "7 x 6"),
    (lambda tol: platform_flexibility(classical_scenario("desargues"), tol=tol), 10.0, "3 x 3"),
    (lambda tol: endpoint_singularity(classical_scenario("planar-arm"), np.zeros(3), tol=tol), 0.5, "2 x 3"),
], ids=["generic-cycle", "desargues", "planar-arm"])
def test_a_tolerance_that_cuts_every_singular_value_is_refused(verdict, tol, shape):
    # these read rank 0 (mobility 7, "flexible", rank 0 of 2) before the refusal; the default keeps full rank
    assert verdict(1e-10).rank > 0
    with pytest.raises(ToleranceError, match=f"^tolerance {tol} cuts every singular value of a {shape} matrix$"):
        verdict(tol)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
@pytest.mark.parametrize("call", [
    lambda tol: incident(line_plucker([0, 0, 0], [1, 0, 0]), axis_plucker(make_axis(3, [0, 0, 0], [[0, 0, 1]])), tol),
    lambda tol: rank_of_span([], 3, tol=tol),
    lambda tol: flex_path(random_cycle(rng_from(114), 3, 7), 0, 0.01, tol=tol),
], ids=["incident", "rank_of_span", "flex_path"])
def test_a_public_tolerance_that_no_rank_test_reads_is_still_checked(call, tol):
    # none of these inputs reaches numeric_rank, so each function checks its own tol
    with pytest.raises(ToleranceError, match=f"^tolerance must be a finite number > 0, got {re.escape(repr(tol))}$"):
        call(tol)


def test_singular_cycle_frame_map():
    axes = classical_scenario("bricard-symmetric-six", seed=2)
    c = cycle_chain(axes)
    v = frame_singularity(c, np.zeros(5))
    assert v.singular
    assert v.witness is not None


# --- cycles ---------------------------------------------------------------------


def test_bricard_cycles_have_mobility_one():
    for seed in range(10):
        axes = classical_scenario("bricard-symmetric-six", seed=seed)
        v = cycle_mobility(axes)
        assert v.rank <= 5
        assert v.mobility >= 1
        assert v.singular


def test_bricard_lines_resample_a_batch_with_a_zero_direction():
    # seed 839 is the first seed whose first batch draws a zero direction (found by search);
    # replay that batch, then check the lines come from a later one
    rng = rng_from(839, 104729)
    first = [rng.integers(-5, 6, 3) for _ in range(6)]
    assert any(not u.any() for u in first[1::2])
    lines = bricard_symmetric_lines(839)
    assert all(any(u) for _, u in lines)
    assert [p for p, _ in lines[:3]] != [list(p) for p in first[0::2]]
    assert not any(_coincident(a, b) for a, b in itertools.combinations(lines, 2))


def test_bricard_involution_dependence_exact():
    lines = bricard_symmetric_lines(seed=3)
    sums = []
    for (p, u), (tp, tu) in zip(lines[:3], lines[3:]):
        a = wedge([list(p) + [1], list(u) + [0]], exact=True)
        b = wedge([list(tp) + [1], list(tu) + [0]], exact=True)
        sums.append(a + b)
    assert rank_of_span(sums, expected_rank=3).rank <= 2


def _coincident_by_float_pluckers(a, b):
    """Reference rule: unit Plucker points equal up to sign, within 1e-9."""
    units = []
    for p, u in (a, b):
        vec = flat_plucker([p], [u])
        units.append(vec.coeffs / vec.norm())
    return min(np.linalg.norm(units[0] - units[1]), np.linalg.norm(units[0] + units[1])) <= 1e-9


_COORD = st.integers(-5, 5)
_POINT = st.lists(_COORD, min_size=3, max_size=3)
_DIRECTION = _POINT.filter(any)


@st.composite
def _line_sets(draw):
    """Integer lines with coordinates in [-5, 5], each one independent or derived from an
    earlier line: moved along itself, reversed, offset in parallel, or mirrored by the
    half-turn about the z axis. A derived line that leaves the box is skipped."""
    lines = [(draw(_POINT), draw(_DIRECTION))]
    for _ in range(draw(st.integers(1, 5))):
        p, u = draw(st.sampled_from(lines))
        how = draw(st.sampled_from(["independent", "along", "reversed", "offset", "mirrored"]))
        if how == "independent":
            line = (draw(_POINT), draw(_DIRECTION))
        elif how == "along":
            t, s = draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2, -1, -2]))
            line = ([x + t * y for x, y in zip(p, u)], [s * y for y in u])
        elif how == "reversed":
            line = (p, [-y for y in u])
        elif how == "offset":
            line = ([x + y for x, y in zip(p, draw(_POINT))], u)
        else:
            line = (mirror_through_z_axis(p), mirror_through_z_axis(u))
        if max(map(abs, line[0] + line[1])) <= 5:
            lines.append(line)
    return lines


@settings(max_examples=300, deadline=None)
@given(_line_sets())
def test_bricard_coincidence_rule_agrees_with_float_pluckers(lines):
    for a, b in itertools.combinations(lines, 2):
        assert _coincident(a, b) == _coincident_by_float_pluckers(a, b)


def test_generic_cycle_mobility_counts():
    rng = rng_from(310)
    for n in (6, 7, 8, 9, 10):
        axes = [random_axis(rng, 3) for _ in range(n)]
        v = cycle_mobility(axes)
        assert v.mobility == max(0, n - 6)
        assert v.singular == (n < 6 or v.rank < 6)


def test_exact_cycle_mobility_on_integer_axes():
    rng = rng_from(311)
    raw = []
    for _ in range(6):
        origin = [int(x) for x in rng.integers(-4, 5, 3)]
        direction = [int(x) for x in rng.integers(-4, 5, 3)]
        if not any(direction):
            direction = [1, 0, 0]
        raw.append((origin, [direction]))
    exact = cycle_mobility_exact(raw)
    axes = [make_axis(3, o, d) for o, d in raw]
    assert exact.rank == cycle_mobility(axes).rank


def test_appending_perturbed_axis_adds_mobility():
    rng = rng_from(312)
    for n in (6, 8):
        axes = [random_axis(rng, 3) for _ in range(n)]
        before = cycle_mobility(axes).mobility
        last = axes[-1]
        wiggle = make_axis(
            3,
            last.origin + 1e-3 * rng.standard_normal(3),
            last.dirs + 1e-3 * rng.standard_normal((1, 3)),
        )
        after = cycle_mobility(axes + [wiggle]).mobility
        assert after == before + 1


@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize(
    "verdict, axis",
    [
        (cycle_mobility, make_axis(3, (0, 0, 0), [(0, 0, 1)])),
        (cycle_mobility_exact, ((0, 0, 0), [(0, 0, 1)])),
    ],
    ids=["float", "exact"],
)
def test_cycle_verdicts_need_two_axes(verdict, axis, count):
    with pytest.raises(DefinitionError, match="a cycle needs at least two axes"):
        verdict([axis] * count)


def _rigid_motion(rng, d):
    """Product of three rotations about random axes, so translations are included."""
    g = rotate_about(random_axis(rng, d), rng.uniform(-np.pi, np.pi))
    for _ in range(2):
        g = compose(rotate_about(random_axis(rng, d), rng.uniform(-np.pi, np.pi)), g)
    return g


def _float_cycle_invariance(data, rng, cubic):
    if cubic:
        ts = data.draw(st.lists(st.integers(-3, 3), min_size=6, max_size=7, unique=True), label="ts")
        axes, d = classical_scenario("twisted-cubic-tangents", ts=ts), 3
    else:
        d = data.draw(st.integers(3, 5), label="d")
        n = data.draw(st.integers(2, comb(d + 1, 2) + 2), label="n")
        axes = [random_axis(rng, d) for _ in range(n)]
    base = cycle_mobility(axes)
    if cubic:
        assert base.rank == 5 and base.singular
    scale = data.draw(st.floats(0.5, 2.0), label="scale")
    g = _rigid_motion(rng, d)
    for moved in (
        [apply(g, a) for a in axes],
        [make_axis(d, scale * a.origin, a.dirs) for a in axes],
        [axes[i] for i in rng.permutation(len(axes))],
    ):
        v = cycle_mobility(moved)
        assert (v.rank, v.singular, v.mobility) == (base.rank, base.singular, base.mobility)


def _exact_cycle_invariance(data, rng):
    if data.draw(st.booleans(), label="cubic"):
        ts = data.draw(st.lists(st.integers(-4, 4), min_size=6, max_size=8, unique=True), label="ts")
        raw = [(p, [u]) for p, u in twisted_cubic_data(ts)]
    else:
        d = data.draw(st.integers(3, 4), label="d")
        vec = st.lists(st.integers(-5, 5), min_size=d, max_size=d)
        raw = data.draw(
            st.lists(st.tuples(vec, st.lists(vec, min_size=d - 2, max_size=d - 2)),
                     min_size=2, max_size=comb(d + 1, 2) + 1),
            label="axes",
        )
        assume(all(not wedge(dirs, exact=True).is_zero() for _, dirs in raw))
    base = cycle_mobility_exact(raw)
    k = data.draw(st.integers(0, len(raw) - 1), label="scaled axis")
    factor = data.draw(st.integers(-4, 4).filter(bool), label="factor")
    origin, (first, *rest) = raw[k]
    scaled = raw[:k] + [(origin, [[factor * x for x in first], *rest])] + raw[k + 1:]
    for moved in ([raw[i] for i in rng.permutation(len(raw))], scaled):
        v = cycle_mobility_exact(moved)
        assert v.rank == base.rank and v.mobility == base.mobility
        assert (v.witness is None) == (base.witness is None)
        if base.witness is not None:
            assert list(v.witness) == list(base.witness)


def _desargues_invariance(data, rng):
    perturb = data.draw(st.just(0) | st.integers(-50, 50).filter(bool).map(lambda k: Fraction(k, 100)))
    legs = [(tuple(map(float, p)), tuple(map(float, q))) for p, q in desargues_legs(perturb)]
    base = platform_flexibility(Platform(2, legs))
    assert base.rank == (2 if perturb == 0 else 3)
    g = _rigid_motion(rng, 2)
    for moved in (
        [(tuple(apply(g, p)), tuple(apply(g, q))) for p, q in legs],
        [legs[i] for i in rng.permutation(3)],
    ):
        v = platform_flexibility(Platform(2, moved))
        assert (v.rank, v.singular) == (base.rank, base.singular)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(["generic", "cubic", "exact", "desargues"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_cycle_mobility_invariances(case, seed, data):
    """Span verdicts survive rigid motion, uniform scaling and reordering.

    Float cycles (generic, d = 3..5, and twisted-cubic tangents at distinct
    integer t) keep rank, singular and mobility under a rigid motion, a
    scaling of the origins and a reordering of the axes. The exact cycle
    verdict keeps rank and conull under reordering and under scaling a
    direction row by a nonzero integer. Desargues platforms, perturbed or
    not, keep their rank under a rigid motion and a reordering of the legs.
    """
    rng = rng_from(seed)
    if case == "exact":
        _exact_cycle_invariance(data, rng)
    elif case == "desargues":
        _desargues_invariance(data, rng)
    else:
        _float_cycle_invariance(data, rng, cubic=case == "cubic")
# --- twisted cubic ---------------------------------------------------------------


def test_twisted_cubic_exact_rank_five():
    vecs = twisted_cubic_tangent_vectors()
    cert = rank_of_span(vecs, expected_rank=6)
    assert cert.exact and cert.rank == 5 and cert.deficient
    # the linear complex containing every tangent: 3 de_{12} + de_{34}
    assert list(cert.conull) == [Fraction(3), 0, 0, 0, 0, Fraction(1)]


def test_twisted_cubic_more_tangents_keep_rank():
    vecs = twisted_cubic_tangent_vectors(
        (0, 1, -1, 2, -2, 3, 4, -3, 5, Fraction(1, 2))
    )
    assert rank_of_span(vecs, expected_rank=6).rank == 5


def test_twisted_cubic_float_path():
    axes = classical_scenario("twisted-cubic-tangents")
    v = cycle_mobility(axes)
    assert v.rank == 5 and v.mobility == 1 and v.singular


def test_twisted_cubic_rejects_duplicate_parameters():
    with pytest.raises(ScenarioError):
        classical_scenario("twisted-cubic-tangents", ts=(0, 1, 1))


# --- platforms -------------------------------------------------------------------


def test_desargues_is_flexible_rank_two():
    p = classical_scenario("desargues")
    v = platform_flexibility(p)
    assert v.singular and v.rank == 2 and v.full_rank == 3
    exact = platform_flexibility(p, exact=True)
    assert exact.rank == 2 and exact.certificate.exact


def test_desargues_perturbation_is_rigid_exactly():
    p = classical_scenario("desargues", perturb=Fraction(1, 1000))
    v = platform_flexibility(p, exact=True)
    assert v.rank == 3 and not v.singular


@pytest.mark.parametrize("value", [0.1, -2.5, 1e-300])
def test_desargues_reads_a_float_perturbation_by_its_exact_binary_value(value):
    legs = desargues_legs(value)
    assert legs == desargues_legs(Fraction(*value.as_integer_ratio()))
    assert legs[0][1] == (2, Fraction(*value.as_integer_ratio()))
    assert all(type(x) is Fraction for leg in legs for point in leg for x in point)


def test_random_spatial_platforms_are_rigid():
    rng = rng_from(314)
    for _ in range(10):
        p = Platform(3, tuple(random_platform_legs(rng, 3, 6)))
        v = platform_flexibility(p)
        assert not v.singular and v.rank == 6


def test_common_line_platforms_are_flexible():
    rng = rng_from(315)
    for _ in range(5):
        p = Platform(3, tuple(common_line_platform_legs(rng, 3, 6)))
        v = platform_flexibility(p)
        assert v.singular and v.rank <= 5
        # the conull annihilates every leg line
        for (a, b) in p.legs:
            leg = wedge([list(a) + [1], list(b) + [1]])
            assert abs(v.witness @ leg.coeffs) <= 1e-8 * np.linalg.norm(leg.coeffs)


def test_platform_leg_count_and_degeneracy_guards():
    with pytest.raises(DefinitionError):
        Platform(2, (((0, 0), (1, 0)),))
    legs = desargues_legs()
    bad = (legs[0], legs[1], ((1, 1), (1, 1)))
    with pytest.raises(DegenerateLegError):
        Platform(2, bad)


def test_scenario_dispatch_unknown_name():
    with pytest.raises(ScenarioError):
        classical_scenario("heptagonal-nonsense")


_OTHER_LEGS = (((0, 1), (0, 2)), ((1, 1), (2, 3)))


def test_platform_tells_rational_leg_ends_10_to_the_minus_20_apart():
    """Two endpoints that differ only past float resolution are two points as rationals;
    a leg with a float coordinate is still compared in floats."""
    third = Fraction(1, 3)
    close = Platform(2, (((third, 0), (third + Fraction(1, 10**20), 0)), *_OTHER_LEGS))
    assert platform_flexibility(close, exact=True).rank == 3
    with pytest.raises(DegenerateLegError):
        Platform(2, (((0.1, 0), (Fraction(1, 10), 0)), *_OTHER_LEGS))


def test_platform_reads_an_a_b_string_leg_as_a_rational():
    """The three bar lines meet at (0, -1): flexible, with the same functional whether
    the first leg is written with 'a/b' strings or Fractions."""
    strings = Platform(2, ((("1/3", 0), (1, "2")), *_OTHER_LEGS))
    fractions = Platform(2, (((Fraction(1, 3), 0), (1, 2)), *_OTHER_LEGS))
    outcome = _verdict_outcome(platform_flexibility, strings, exact=True)
    assert outcome[:2] == (2, None) and outcome == _verdict_outcome(platform_flexibility, fractions, exact=True)
    with pytest.raises(DegenerateLegError):
        Platform(2, ((("1/2", 0), (Fraction(1, 2), 0)), *_OTHER_LEGS))


def test_float_platform_verdict_reads_an_a_b_string_leg():
    """The string is read as a Fraction when the platform is built, so the float verdict
    is the one of the Fraction leg; a leg with a float coordinate is still compared in
    floats, the string included."""
    strings = Platform(2, ((("1/3", 0), (1, "2")), *_OTHER_LEGS))
    assert strings.legs[0] == ((Fraction(1, 3), 0), (1, Fraction(2)))
    fractions = Platform(2, (((Fraction(1, 3), 0), (1, 2)), *_OTHER_LEGS))
    got = platform_flexibility(strings)
    assert got.rank == 2 and _float_outcome(got) == _float_outcome(platform_flexibility(fractions))
    with pytest.raises(DegenerateLegError, match="leg 1 has coincident endpoints"):
        Platform(2, ((("1/10", 0.0), (0.1, 0)), *_OTHER_LEGS))


@pytest.mark.parametrize("bad", ["abc", "1/0", "inf", "nan"])
def test_platform_refuses_a_string_that_is_not_a_finite_rational(bad):
    with pytest.raises(DefinitionError, match="^leg 2: a string coordinate is not a finite rational$"):
        Platform(2, (((0, 0), (1, 0)), ((0, bad), (0, 2)), ((1, 1), (2, 3))))


# --- exact verdicts: one batch of the minor kernel against Fraction minors ----------


def _fraction_minors(rows):
    """Every j x j minor of j rational rows, in ``subsets(m, j)`` order, as Fractions:
    Laplace expansion along the top row over the rows scaled to integers."""
    rows = [[Fraction(x) for x in row] for row in rows]
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    columns = range(len(rows[0]))
    minors = {(): 1}  # minors of the k rows below, keyed by their columns
    for k, (row, scale) in enumerate(zip(rows[::-1], scales[::-1]), 1):
        ints = [int(x * scale) for x in row]
        minors = {cols: sum((-1) ** i * ints[c] * minors[cols[:i] + cols[i + 1:]] for i, c in enumerate(cols))
                  for cols in itertools.combinations(columns, k)}
    return [Fraction(minors[cols], prod(scales)) for cols in itertools.combinations(columns, len(rows))]


def _per_axis_outcome(flats, cycle):
    """Rank, mobility and conull from the Fraction minors of each lifted flat, or the
    error raised.

    Independent of the exact minor kernel under test: each Plucker point is
    read off ``_fraction_minors`` and the exact ``rank_of_span`` decides.
    The shape errors come first, with the messages of ``wedge`` and
    ``rank_of_span``, then a degenerate axis and a cycle of fewer than two.
    """
    try:
        lifted = [_lift([origin], dirs) for origin, dirs in flats] if cycle else [_lift(f) for f in flats]
        for rows in lifted:
            if any(len(row) != len(rows[0]) for row in rows):
                raise DimensionError("wedge inputs must all share one length")
            if len(rows) > len(rows[0]):
                raise GradeError(f"cannot wedge {len(rows)} vectors in R^{len(rows[0])}")
        if len({(len(rows), len(rows[0])) for rows in lifted}) > 1:
            raise GradeError("rank_of_span needs vectors of one common grade and ambient")
        vectors = [ExteriorVector(len(rows), len(rows[0]), np.array(_fraction_minors(rows), dtype=object))
                   for rows in lifted]
        if cycle and any(v.is_zero() for v in vectors):
            raise DegenerateAxisError("axis directions are linearly dependent")
        if cycle and len(vectors) < 2:
            raise DefinitionError("a cycle needs at least two axes")
        cert = rank_of_span(vectors, expected_rank=comb(vectors[0].ambient, 2))
    except HingekitError as exc:
        return type(exc), str(exc)
    conull = None if cert.conull is None else list(cert.conull)
    return cert.rank, len(vectors) - cert.rank if cycle else None, conull


def _verdict_outcome(verdict, *args, **kwargs):
    try:
        v = verdict(*args, **kwargs)
    except HingekitError as exc:
        return type(exc), str(exc)
    assert v.certificate.exact
    return v.rank, v.mobility, None if v.witness is None else list(v.witness)


small = st.integers(-9, 9)
fraction = st.builds(Fraction, small, st.integers(2, 9))
huge = st.integers(-(2**40), 2**40)


def _sprinkle(draw, rows, ratios):
    """Replace a few drawn coordinates by drawn ``ratios``, and a few drawn rows by
    integers up to 2^40, which puts most of those inputs past the int64 guard."""
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(ratios)
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[:] = [draw(huge) for _ in row]


@st.composite
def exact_cycles(draw):
    d = draw(st.integers(2, 7), label="d")
    n = draw(st.integers(2, comb(d + 1, 2) + 1), label="n")
    vec = st.lists(small, min_size=d, max_size=d)
    raw = [(draw(vec), [draw(vec) for _ in range(d - 2)]) for _ in range(n)]
    _sprinkle(draw, [row for origin, dirs in raw for row in (origin, *dirs)], fraction | fraction.map(str))
    dependence = draw(st.sampled_from(["none", "repeat", "degenerate"]), label="dependence")
    if dependence == "repeat":  # a second copy of an axis, its first direction scaled
        origin, dirs = raw[draw(st.integers(0, n - 1))]
        if dirs:
            dirs = [[3 * Fraction(x) for x in dirs[0]], *dirs[1:]]
        raw[draw(st.integers(0, n - 1))] = (origin, dirs)
    elif dependence == "degenerate" and d >= 3:  # directions that span too little
        origin, dirs = raw[draw(st.integers(0, n - 1))]
        dirs[-1] = [-2 * Fraction(x) for x in dirs[0]] if d >= 4 else [0] * d
    return raw


_AXES_R3 = [([1, 2, 0], [[1, -1, 2]]), ([0, 3, 1], [[2, 1, 0]]), ([-2, 0, 1], [[1, 3, -1]]),
            ([1, -1, 4], [[0, 2, 1]]), ([3, 0, -2], [[1, 1, 1]])]
# Hadamard products (|p|^2 + 1) * |v|^2 of the first axis: 2^62 - 2^32 + 2, just below
# the int64 guard, and 2^62 + 1, just above it
BELOW_GUARD = [([2**31 - 1, 0, 0], [[0, 1, 0]])] + _AXES_R3
ABOVE_GUARD = [([2**31, 0, 0], [[0, 1, 0]])] + _AXES_R3
# two entries near 2^40 in R^4: an unguarded int64 elimination overflows on this axis
OVERFLOWING = [([2**40 - 3, 5, -(2**40) + 7, 2], [[2**40, -3, 1, 2**39 + 1], [4, -1, 2, 3]]),
               ([1, 0, 2, -1], [[0, 1, 1, 3], [2, -2, 0, 1]]),
               ([0, 3, -1, 2], [[1, 1, 0, -1], [3, 0, 2, 2]])]
# Five axes in R^3 span at most 5 of 6 dimensions, so each has a functional that rounding
# to floats would change: an int64 stack past 2^53 (and past the guard), and Fractions.
INT64_STACK = [([2**53 + 1, 0, 0], [[0, 1, 1]])] + _AXES_R3[:4]
FRACTION_STACK = [([Fraction(1, 3), 0, 0], [[0, Fraction(2, 3), 1]]), ([0, 1, Fraction(1, 3)], [[1, 0, 0]])] \
    + _AXES_R3[:3]


def test_batch_guard_sits_at_the_hadamard_bound():
    """Just below the bound the batch runs in int64; just above it, and past it, on an
    object array of Python ints. Every row is the Fraction minors of its matrix."""
    for raw, dtype in ((BELOW_GUARD, np.int64), (ABOVE_GUARD, object), (OVERFLOWING, object)):
        lifted = [_lift([origin], dirs) for origin, dirs in raw]
        rows = _exact_minor_rows(lifted)
        assert rows.dtype == dtype
        assert [row.tolist() for row in rows] == [_fraction_minors(mat) for mat in lifted]


@settings(max_examples=150, deadline=None)
@given(exact_cycles())
@example(BELOW_GUARD)
@example(ABOVE_GUARD)
@example(OVERFLOWING)
@example([([0, 0, 0], [[0, 0, 1]]), ([1, 0, 0], [[0, 0, 0]]), ([2, 0, 0], [[1, 0, 0]])])  # degenerate 2nd
@example([([Fraction(1, 3), 2], []), ([0, "-5/7"], []), ([1, 1], [])])  # d = 2: points, j = 1
@example([([0, 0, 0], [[0, 0, 1]]), ([1, 0], [[0, 1]])])  # axes of R^3 and R^2: GradeError
@example([([0, 0], [[1, 0], [0, 1], [1, 1]]), ([1, 0], [])])  # j > m: GradeError
@example([([0, 0, 0], [[0, 1]]), ([1, 0, 0], [[0, 0, 1]])])  # ragged rows: DimensionError
@example(  # ints past 2^63 next to negative ones, which float64 would round to one axis
    [([2**63 + 1, -1, 0], [[0, 1, 0]]), ([2**63, -1, 0], [[0, 1, 0]])] + _AXES_R3[:3]
)
@example(INT64_STACK)
@example(FRACTION_STACK)
def test_batched_exact_cycle_verdict_equals_the_per_axis_route(raw):
    """Rank, mobility and the Fraction conull match, or the same error type and message.

    Where the axes fit one (n, d-1, d) stack, the stack route matches too: int64 when
    every coordinate fits, else objects, with each 'a/b' string read as a Fraction.
    """
    expected = _per_axis_outcome(raw, cycle=True)
    assert _verdict_outcome(cycle_mobility_exact, raw) == expected
    d, rows = len(raw[0][0]), [row for origin, dirs in raw for row in (origin, *dirs)]
    if any(len(dirs) != d - 2 for _, dirs in raw) or any(len(row) != d for row in rows):
        return  # ragged, or axes of two dimensions: no stack
    stack = np.array([[Fraction(x) if isinstance(x, str) else x for x in row] for row in rows], dtype=object)
    if all(type(x) is int and -(2**63) <= x < 2**63 for x in stack.flat):
        stack = stack.astype(np.int64)
    assert _verdict_outcome(cycle_mobility_exact, stack.reshape(len(raw), d - 1, d)) == expected


@st.composite
def exact_platforms(draw):
    d = draw(st.integers(2, 4), label="d")
    vec = st.lists(small, min_size=d, max_size=d)
    legs = [[draw(vec), draw(vec)] for _ in range(comb(d + 1, 2))]
    _sprinkle(draw, [point for leg in legs for point in leg], fraction | fraction.map(str))
    if draw(st.booleans()):  # a leg along the line of another: the bar lines are dependent
        p, q = legs[0]
        legs[draw(st.integers(1, len(legs) - 1))] = [q, [2 * Fraction(b) - Fraction(a) for a, b in zip(p, q)]]
    assume(all(any(Fraction(a) != Fraction(b) for a, b in zip(p, q)) for p, q in legs))
    return Platform(d, tuple(legs))


@settings(max_examples=100, deadline=None)
@given(exact_platforms())
@example(  # ints past 2^63 next to negative ones, which float64 would round to one leg
    Platform(2, (([2**63 + 1, -1], [0, 0]), ([2**63, -1], [0, 0]), ([0, 2], [3, -1])))
)
def test_batched_exact_platform_verdict_equals_the_per_leg_route(platform):
    got = _verdict_outcome(platform_flexibility, platform, exact=True)
    assert got == _per_axis_outcome(platform.legs, cycle=False)


def test_exact_batch_scales_a_fraction_coordinate_instead_of_truncating_it():
    """Two parallel z-axes through (0, 0, 0) and (1/2, 0, 0), plus four generic axes.

    An int64 cast of the 1/2 would truncate it to 0 and make the first two
    Plucker points coincide, which lowers the exact rank from 6 to 5.
    """
    raw = [([0, 0, 0], [[0, 0, 1]]), ([Fraction(1, 2), 0, 0], [[0, 0, 1]])] + _AXES_R3[:4]
    v = cycle_mobility_exact(raw)
    assert (v.rank, v.mobility, v.witness) == (6, 0, None)
    truncated = cycle_mobility_exact([raw[0], ([0, 0, 0], [[0, 0, 1]])] + raw[2:])
    assert (truncated.rank, truncated.mobility) == (5, 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
                         ids=["nan", "inf", "-inf", "numpy-nan"])
@pytest.mark.parametrize("verdict", [
    lambda x: wedge([[x, 1], [0, 1]], exact=True),
    lambda x: cycle_mobility_exact([([x, 0, 0], [[0, 0, 1]]), ([1, 0, 0], [[0, 1, 0]])]),
    lambda x: cycle_mobility_exact(np.array([[[x, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]]])),
    lambda x: platform_flexibility(Platform(2, (((0, 0), (1, x)), ((0, 1), (0, 2)), ((1, 1), (2, 3)))), exact=True),
], ids=["wedge", "cycle-list", "cycle-stack", "platform"])
def test_the_exact_routes_refuse_a_non_finite_coordinate_by_name(verdict, bad):
    # the float routes raise the same error from their rank test
    with pytest.raises(DegenerateGeometryError, match=f"^{re.escape(NON_FINITE)}$"):
        verdict(bad)


@pytest.mark.parametrize("bad, error, message", [
    *((text, DegenerateGeometryError, NON_FINITE) for text in ("nan", "inf", "-inf", " NaN ", "+Infinity")),
    *((text, DefinitionError, f"{text!r} is not a finite rational") for text in ("x", "1/0", "", "1/2/3")),
])
@pytest.mark.parametrize("verdict", [
    lambda x: wedge([[x, 1]], exact=True),
    lambda x: wedge([[x, 1], [0, 1]], exact=True),
    lambda x: cycle_mobility_exact([([x, 0, 0], [[0, 0, 1]]), ([1, 0, 0], [[0, 1, 0]])]),
], ids=["wedge-1", "wedge-2", "cycle-list"])
def test_the_exact_routes_refuse_a_bad_rational_string_by_name(verdict, bad, error, message):
    # Fraction's parser let a bare ValueError (or ZeroDivisionError for '1/0') escape;
    # a NaN or inf spelled out is refused as the float NaN or inf is
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        verdict(bad)


# --- float verdicts: one batch of the float minor kernel against the per-axis route --


def _det_minors(mat) -> np.ndarray:
    """Every j x j minor of one j x m matrix, one ``np.linalg.det`` per minor, taken from
    rows S of its transpose: the float wedge written one matrix at a time."""
    cols = np.array(mat, dtype=float).T
    return np.array([np.linalg.det(cols[list(s), :]) for s in itertools.combinations(range(len(cols)), len(mat))])


@st.composite
def float_flat_batches(draw):
    """Lifted axes of R^d, d = 2..7, from a seeded stream: float or small-integer
    coordinates, with a repeated axis, a dependent direction or neither."""
    d = draw(st.integers(2, 7), label="d")
    n = draw(st.integers(1, comb(d + 1, 2) + 1), label="n")
    rng = rng_from(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="integer coordinates"):
        raw = [(rng.integers(-3, 4, d), rng.integers(-3, 4, (d - 2, d))) for _ in range(n)]
    else:
        raw = [(rng.uniform(-2, 2, d), rng.uniform(-2, 2, (d - 2, d))) for _ in range(n)]
    dependence = draw(st.sampled_from(["none", "repeat", "degenerate"]), label="dependence")
    k = draw(st.integers(0, n - 1), label="axis")
    if dependence == "repeat":
        raw[k] = raw[draw(st.integers(0, n - 1), label="copied axis")]
    elif dependence == "degenerate" and d >= 3:
        raw[k][1][-1] = -2 * raw[k][1][0] if d >= 4 else 0
    return [_lift([origin], dirs) for origin, dirs in raw]


@settings(max_examples=150, deadline=None)
@given(float_flat_batches())
def test_float_minor_kernel_equals_one_determinant_per_minor(mats):
    """Row i of the stacked kernel is the per-minor determinant of matrix i, bit for bit,
    and the float wedge is row 0 of a batch of one."""
    rows = _minor_rows(mats)
    want = np.array([_det_minors(mat) for mat in mats])
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
    assert wedge(mats[0]).coeffs.tobytes() == want[0].tobytes()


def _list_route(points, tol: float = 1e-10):
    """The float rank test on a list of Plucker points as ``rank_of_span`` ran it before
    the rows were stacked once: ``numeric_rank``, then the ``positive_lead`` conull."""
    rows = np.array(points)
    rank, _, _, sig, vh = numeric_rank(rows, tol)
    conull = positive_lead(vh[rank]) if rank < rows.shape[1] else None
    return rank, sig.tobytes(), None if conull is None else conull.tobytes()


def _float_outcome(v):
    """Rank, singular values and conull bits of a float span verdict, whose conull is read-only."""
    assert not v.certificate.exact
    assert v.witness is None or not v.witness.flags.writeable
    return v.certificate.rank, v.certificate.singular_values.tobytes(), None if v.witness is None else v.witness.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from(["cycle", "platform", "frame"]),
    d=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_float_span_verdicts_equal_the_per_axis_list_route(case, d, seed, data):
    """Cycle, platform and frame verdicts read the rank, singular values and conull of
    the per-axis (per-leg, per-column) route bit for bit, dependent inputs included."""
    rng = rng_from(seed)
    if case == "cycle":
        n = data.draw(st.integers(2, comb(d + 1, 2) + 1), label="n")
        axes = [random_axis(rng, d) for _ in range(n)]
        if data.draw(st.booleans(), label="repeat an axis"):
            axes[data.draw(st.integers(0, n - 1))] = axes[0]
        got = cycle_mobility(axes)
        points = [_det_minors(_lift([a.origin], a.dirs)) for a in axes]
        assert got.mobility == n - got.certificate.rank
    elif case == "platform":
        d = min(d, 4)
        dependent = data.draw(st.booleans(), label="common line")
        legs = (common_line_platform_legs if dependent else random_platform_legs)(rng, d, comb(d + 1, 2))
        got = platform_flexibility(Platform(d, tuple(legs)))
        points = [_det_minors(_lift([p, q])) for p, q in legs]
    else:
        d = min(d, 5)
        n = data.draw(st.integers(2, 8), label="n")
        chain = random_chain(rng, d, n, k=data.draw(st.integers(0, d - 2), label="k"))
        theta = rng.uniform(0, 2 * np.pi, n - 1)
        pl = forward_kinematics(chain, theta)
        got = frame_singularity(chain, theta)
        points = [v.coeffs for v in frame_columns(chain, theta, placement=pl) + stabilizer_pluckers(pl.frame_at)]
    assert _float_outcome(got) == _list_route(points)


def _stabilizer_points_per_flat(frame):
    """Reference: the stabilizer points one flat at a time, as ``stabilizer_pluckers`` wedged
    them before the flats were stacked: ``flat_plucker`` of the origin, the frame vectors and
    the complement rows without each pair, the complement from the SVD of the frame."""
    d, k = frame.dim, frame.k
    if d - k <= 1:
        return []
    complement = np.eye(d) if k == 0 else np.linalg.svd(frame.vecs, full_matrices=True)[2][k:]
    return [flat_plucker([frame.origin], [*frame.vecs, *np.delete(complement, pair, axis=0)]).coeffs
            for pair in itertools.combinations(range(d - k), 2)]


def _frame_columns_per_column(pl):
    """Reference: the placed Plucker points as ``frame_columns`` built them before the rows
    were stacked, one ``ExteriorVector`` per row of the twist product, read back."""
    d = pl.origins.shape[1]
    a, b = np.triu_indices(d, 1)
    moments = -np.einsum("iab,ib->ia", pl.generators, pl.origins)
    twists = np.hstack([pl.generators[:, a, b], moments])
    return [ExteriorVector(d - 1, d + 1, p).coeffs for p in twists @ _plucker_to_twist(d)]


@settings(max_examples=150, deadline=None)
@given(d=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stacked_frame_and_stabilizer_rows_equal_the_per_point_route(d, seed, data):
    """The stacked stabilizer and placed-axis rows, their ``ExteriorVector`` views and the frame
    verdict equal the per-flat and per-column route bit for bit, for every k = 0..d: no
    stabilizer rows once k >= d - 1."""
    rng = rng_from(seed)
    k = data.draw(st.integers(0, d), label="k")
    n = data.draw(st.integers(2, 7), label="n")
    chain = random_chain(rng, d, n, k=k)
    theta = rng.uniform(0, 2 * np.pi, n - 1)
    pl = forward_kinematics(chain, theta)
    stab, cols = _stabilizer_points_per_flat(pl.frame_at), _frame_columns_per_column(pl)
    assert len(stab) == (comb(d - k, 2) if k < d - 1 else 0)
    for got, want in ((_stabilizer_rows(pl.frame_at), stab), (_frame_rows(pl), cols)):
        assert got.shape == (len(want), comb(d + 1, 2))
        assert got.tobytes() == b"".join(p.tobytes() for p in want)
    for views, want in ((stabilizer_pluckers(pl.frame_at), stab), (frame_columns(chain, theta, placement=pl), cols)):
        assert [(v.grade, v.ambient, v.coeffs.tobytes()) for v in views] == [(d - 1, d + 1, p.tobytes()) for p in want]
    assert _float_outcome(frame_singularity(chain, theta)) == _list_route(cols + stab)


def test_witness_miss_names_the_axis_its_pairing_and_its_bound():
    rng = rng_from(302)
    c = singular_endpoint_chain(rng, 3, 7, parallel_fraction=0.0)
    pl = forward_kinematics(c, np.zeros(6))
    rank, cutoff, u, _, _ = numeric_rank(endpoint_jacobian(c, np.zeros(6)), 1e-10)
    bent = u[:, rank:].T + np.array([0.0, 0.5, -0.5])
    first = _witness_misses_per_axis(pl, bent, cutoff)[0]
    with pytest.raises(ConsistencyError, match=(
        rf"^rank verdict says singular but the witness misses axis {first} "
        r"\(pairing \d\.\d{3}e[-+]\d\d > bound \d\.\d{3}e[-+]\d\d\)$"
    )):
        _check_witness([pl], bent[None], np.array([cutoff]))


def test_float_cycle_verdict_keeps_its_error_contract():
    """Axes of two ambients raise the rank_of_span message, in any order, not numpy's
    shape error; zero or one axis are ``test_cycle_verdicts_need_two_axes``."""
    r3 = make_axis(3, (0, 0, 0), [(0, 0, 1)])
    r4 = make_axis(4, (0, 0, 0, 0), [(0, 0, 1, 0), (0, 1, 0, 0)])
    r2 = make_axis(2, (1, 0), np.zeros((0, 2)))
    for axes in ([r3, r4], [r4, r3], [r3, r3, r2]):
        with pytest.raises(GradeError, match="^rank_of_span needs vectors of one common grade and ambient$"):
            cycle_mobility(axes)
    assert _minor_rows([]).shape == (0, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: endpoint_singularity(random_chain(rng_from(0), 3, 4, k=1), np.zeros(3)), WrongMapError,
     "endpoint_singularity needs a chain with a bare end-point"),
    (lambda: Platform(3, [((0, 0), (1, 1, 1))] + [((0, 0, 0), (1, 1, 1))] * 5), DefinitionError,
     "leg 1: endpoints must be points of R^3"),
    (lambda: classical_scenario("planar-arm", lengths=(1, 0)), ScenarioError, "planar arm lengths must be positive"),
    # the joints overflow to inf, which the chain used to read as an end-point on the last axis
    (lambda: classical_scenario("planar-arm", lengths=(1e308, 1e308)), ScenarioError,
     "planar arm lengths must have a finite sum, got inf"),
    (lambda: grid_incident_line(np.ones(4), [make_axis(4, np.zeros(4), np.eye(4)[2:])]), DimensionError,
     "the direction grid oracle only covers d = 2 and d = 3"),
], ids=["endpoint-of-a-frame-chain", "platform-leg-length", "planar-arm-zero-length", "planar-arm-overflow",
        "grid-oracle-d4"])
def test_analysis_refuses_malformed_inputs_by_name(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
