import re
import tracemalloc
from math import sqrt

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import hingekit.chain as chain_module
import hingekit.linkage as linkage_module
from hingekit import (
    Linkage,
    Placement,
    apply,
    check_linkage_invariance,
    classical_scenario,
    cycle_axes_at,
    cycle_chain,
    cycle_to_linkage,
    flex_path,
    linkage_at,
    make_axis,
    moduli_invariants,
    rotate_about,
    simplex_orientations,
)
from hingekit.errors import (
    DegenerateGeometryError,
    DegenerateSimplexError,
    DimensionError,
    GenericityError,
    ParallelLinesError,
    ProvenanceError,
    WrongMapError,
)
from hingekit.exterior import NON_FINITE
from hingekit.geometry import affine_intersection, common_perpendicular, project_affine
from hingekit.linkage import (
    _BLOCK,
    ModuliPartition,
    _canonical,
    _orientations,
    _table,
)
from hingekit.sampling import random_axis, random_chain, random_cycle, rng_from


def _labels(d, n):
    return _table(d, n).labels


def _simplices(d, n):
    return _table(d, n).simplices


def _edge_order(d, n):
    return _table(d, n).edge_order


def _stack(configs):
    # the (C, n, d) origins and (C, n, d - 2, d) directions of C lists of axes
    origins = np.array([[a.origin for a in axes] for axes in configs])
    return origins, np.array([[a.dirs for a in axes] for axes in configs])


def edge_lengths(lk):
    return {(a, b): L for a, b, L in lk.edges}


def length(lk, a, b):
    table = edge_lengths(lk)
    return table[(a, b)] if (a, b) in table else table[(b, a)]


@pytest.mark.parametrize("d,n", [(3, 6), (3, 8), (4, 6), (5, 6)])
def test_vertex_and_edge_counts(d, n):
    rng = rng_from(400 + 10 * d + n)
    lk = cycle_to_linkage([random_axis(rng, d) for _ in range(n)])
    assert len(lk.vertices) == 2 * n
    assert len(lk.edges) == (2 * d - 1) * n
    split = moduli_invariants(lk)
    assert len(split.independent) == (2 * d - 3) * n
    assert len(split.dependent) == 2 * n


def test_d3_support_lines_are_the_axes_themselves():
    rng = rng_from(401)
    axes = [random_axis(rng, 3) for _ in range(6)]
    lk = cycle_to_linkage(axes)
    vm = lk.vertex_map()
    for i, a in enumerate(axes):
        for role in ("foot-", "foot+"):
            p = vm[f"{role}{i + 1}"]
            rel = p - a.origin
            assert np.linalg.norm(rel - a.dirs[0] * (rel @ a.dirs[0])) < 1e-9


def test_odd_canonical_orthogonality_residuals():
    rng = rng_from(402)
    axes = [random_axis(rng, 3) for _ in range(7)]
    lk = cycle_to_linkage(axes)
    vm = lk.vertex_map()
    n = 7
    for i in range(n):
        j = i % n + 1
        k = (i + 1) % n + 1
        perp = vm[f"foot-{k}"] - vm[f"foot+{j}"]
        assert abs(perp @ axes[j - 1].dirs[0]) < 1e-10
        assert abs(perp @ axes[k - 1].dirs[0]) < 1e-10


def test_even_canonical_projection_residuals():
    rng = rng_from(403)
    axes = [random_axis(rng, 4) for _ in range(6)]
    lk = cycle_to_linkage(axes)
    vm = lk.vertex_map()
    for i in range(6):
        j = (i + 1) % 6
        drop = vm[f"p{j + 1}"] - vm[f"q{i + 1}"]
        for v in axes[i].dirs:  # the projection plane of q_i is axis i itself
            assert abs(drop @ v) < 1e-9


@pytest.mark.parametrize("d", [3, 4])
def test_dependent_edges_close_right_triangles(d):
    rng = rng_from(404 + d)
    n = 7
    lk = cycle_to_linkage([random_axis(rng, d) for _ in range(n)])
    if d == 3:
        for i in range(1, n + 1):
            j = i % n + 1
            lhs = length(lk, f"foot-{i}", f"foot-{j}") ** 2
            rhs = length(lk, f"foot-{i}", f"foot+{i}") ** 2 + length(lk, f"foot+{i}", f"foot-{j}") ** 2
            assert abs(lhs - rhs) < 1e-10
            lhs = length(lk, f"foot+{i}", f"foot+{j}") ** 2
            rhs = length(lk, f"foot+{i}", f"foot-{j}") ** 2 + length(lk, f"foot-{j}", f"foot+{j}") ** 2
            assert abs(lhs - rhs) < 1e-10
    else:
        for i in range(1, n + 1):
            j = i % n + 1
            h = (i - 2) % n + 1
            lhs = length(lk, f"p{i}", f"p{j}") ** 2
            rhs = length(lk, f"p{i}", f"q{i}") ** 2 + length(lk, f"q{i}", f"p{j}") ** 2
            assert abs(lhs - rhs) < 1e-9
            lhs = length(lk, f"p{h}", f"p{j}") ** 2
            rhs = length(lk, f"p{h}", f"q{i}") ** 2 + length(lk, f"q{i}", f"p{j}") ** 2
            assert abs(lhs - rhs) < 1e-9


def test_global_isometry_preserves_lengths():
    rng = rng_from(406)
    axes = [random_axis(rng, 3) for _ in range(6)]
    base = cycle_to_linkage(axes)
    g = rotate_about(make_axis(3, (0.2, 0.4, -0.3), [(1, 0, 2)]), 0.9)
    moved = cycle_to_linkage([apply(g, a) for a in axes])
    for (a, b, L), (a2, b2, L2) in zip(base.edges, moved.edges):
        assert (a, b) == (a2, b2)
        assert abs(L - L2) < 1e-12


def test_d6_cycle_cuts_planes_and_keeps_its_lengths_under_a_rigid_motion():
    # even d >= 6 projects onto the plane cut by k - 1 = 2 consecutive axes
    c = classical_scenario("generic-cycle", d=6, n=12, seed=0)
    axes = cycle_axes_at(c, np.zeros(11))
    base = cycle_to_linkage(axes)
    split = moduli_invariants(base)
    assert (len(base.vertices), len(base.edges)) == (24, 132)
    assert (len(split.independent), len(split.dependent)) == (108, 24)
    axis = make_axis(6, (0.2, 0.4, -0.3, 0.1, 0.5, -0.7),
                     [(1, 0, 2, 0, 0, 1), (0, 1, 0, 1, 0, 0), (0, 0, 1, 0, 1, 0), (1, 0, 0, 0, 0, -1)])
    g = rotate_about(axis, 0.9)
    moved = cycle_to_linkage([apply(g, a) for a in axes])
    for (a, b, L), (a2, b2, L2) in zip(base.edges, moved.edges):
        assert (a, b) == (a2, b2)
        assert abs(L - L2) <= 1e-12 * L


def test_rescaled_cycle_scales_every_invariant():
    rng = rng_from(405)
    axes = [random_axis(rng, 3) for _ in range(6)]
    base = moduli_invariants(cycle_to_linkage(axes))
    doubled = moduli_invariants(
        cycle_to_linkage([make_axis(3, 2.0 * a.origin, a.dirs) for a in axes])
    )
    for (a, b, L), (a2, b2, L2) in zip(
        base.independent + base.dependent, doubled.independent + doubled.dependent
    ):
        assert (a, b) == (a2, b2)
        assert abs(L2 - 2.0 * L) < 1e-10


def test_d2_polygon_passthrough():
    pts = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)]
    axes = [make_axis(2, p, []) for p in pts]
    lk = cycle_to_linkage(axes)
    assert len(lk.vertices) == 5 and len(lk.edges) == 5
    split = moduli_invariants(lk)
    assert len(split.independent) == 5 and not split.dependent


def test_simplex_structure_and_orientations():
    rng = rng_from(407)
    lk = cycle_to_linkage([random_axis(rng, 3) for _ in range(6)])
    simplices = lk.simplices()
    assert len(simplices) == 6
    assert all(len(s) == 4 for s in simplices)
    # consecutive simplices share exactly d-1 = 2 vertices
    for s, t in zip(simplices, simplices[1:]):
        assert len(set(s) & set(t)) == 2
    assert all(sign in (-1, 1) for sign in simplex_orientations(lk))


def test_flex_path_preserves_lengths_and_orientations():
    rng = rng_from(408)
    c = random_cycle(rng, 3, 7)
    path = flex_path(c, steps=10, step_size=1e-2)
    assert check_linkage_invariance(c, path) <= 1e-6
    signs = simplex_orientations(linkage_at(c, path[0]))
    for theta in path[1:]:
        assert simplex_orientations(linkage_at(c, theta)) == signs


def test_d4_simplex_collapse_is_relative_to_edge_lengths():
    # A simplex of this cycle has |det| ~ 0.14 and vertices far from the origin:
    # a threshold of 1e-10 * (largest coordinate)**d would call it collapsed.
    c = classical_scenario("generic-cycle", d=4, n=11, seed=5)
    path = flex_path(c, steps=10, step_size=1e-2)
    assert 0 not in simplex_orientations(linkage_at(c, path[0]))
    assert check_linkage_invariance(c, path) <= 1e-8


def test_constant_and_rotated_paths_have_zero_drift():
    rng = rng_from(409)
    c = random_cycle(rng, 3, 6)
    assert check_linkage_invariance(c, [np.zeros(5)] * 3) == 0.0
    axes = cycle_axes_at(c, np.zeros(5))
    base = cycle_to_linkage(axes)
    worst = 0.0
    for angle in (0.3, 1.2, 2.5):
        g = rotate_about(make_axis(3, (0.1, -0.2, 0.5), [(2, 1, 0)]), angle)
        moved = cycle_to_linkage([apply(g, a) for a in axes])
        worst = max(
            worst,
            max(abs(L - L2) for (_, _, L), (_, _, L2) in zip(base.edges, moved.edges)),
        )
    assert worst <= 1e-12


def _parallel_support_lines(d):
    # d = 3: axes 1 and 2 are parallel lines. d = 5: axes 1, 2 and 3 all contain
    # e_1, so support line 1 (axes 1 and 2) and support line 2 (axes 2 and 3) are
    # both parallel to e_1
    rng = rng_from(410 + d)
    if d == 3:
        first = [make_axis(3, (0, 0, 0), [(1, 0, 0)]), make_axis(3, (0, 1, 0), [(1, 0, 0)])]
    else:
        e1 = np.eye(5)[0]
        first = [make_axis(5, rng.uniform(-1, 1, 5), np.vstack([e1, rng.standard_normal((2, 5))]))
                 for _ in range(3)]
    return first + [random_axis(rng, d) for _ in range(6 - len(first))]


@pytest.mark.parametrize("d", [3, 5])
def test_parallel_support_lines_are_named_not_a_solver_error(d):
    axes = _parallel_support_lines(d)
    message = "support lines 1 and 2 are parallel; no canonical feet"
    with pytest.raises(GenericityError, match=rf"^{message}$"):
        cycle_to_linkage(axes)
    # one parallel configuration in a stack must not fail the solve of the others
    healthy = cycle_axes_at(random_cycle(rng_from(412), d, 6), np.zeros(5))
    _, _, failure = _canonical(*_stack([healthy, axes, healthy]))
    assert (failure[0], type(failure[1]), str(failure[1])) == (1, GenericityError, message)


def test_even_d_window_that_misses_its_point_is_named():
    # two consecutive axes of R^4 in parallel planes: they share no point
    a1 = make_axis(4, (0, 0, 0, 0), [(1, 0, 0, 0), (0, 1, 0, 0)])
    a2 = make_axis(4, (0, 0, 1, 0), [(1, 0, 0, 0), (0, 1, 0, 0)])
    rng = rng_from(410)
    others = [random_axis(rng, 4) for _ in range(4)]
    with pytest.raises(GenericityError, match=r"axes 1\.\.2 \(cyclic\) should cut a point, got empty"):
        cycle_to_linkage([a1, a2] + others)


@pytest.mark.parametrize("d, what", [(4, "point"), (5, "line")])
@pytest.mark.parametrize("noise", [1e-9, 1e-10])
def test_a_near_degenerate_window_is_named_as_such(d, what, noise):
    # axis 2 is axis 1 with noisy directions through a point of axis 1: the window cuts a flat of
    # the right dimension, but a singular value of its stacked system is below 1e-10 of the largest
    rng = rng_from(415)
    a1 = random_axis(rng, d)
    a2 = make_axis(d, a1.origin + 0.7 * a1.dirs[0] - 0.3 * a1.dirs[-1], a1.dirs + noise * rng.standard_normal((d - 2, d)))
    axes = [a1, a2] + [random_axis(rng, d) for _ in range(5)]
    message = f"axes 1..2 (cyclic) should cut a {what}, got a near-degenerate {what} (singular value ratio below 1e-10)"
    for convert in (cycle_to_linkage, _reference_linkage):
        with pytest.raises(GenericityError, match=f"^{re.escape(message)}$"):
            convert(axes)


def test_invariance_check_reports_failing_configuration():
    rng = rng_from(411)
    c = random_cycle(rng, 3, 7)
    good = np.zeros(6)
    with pytest.raises(GenericityError) as err:
        # feed a nonsense "configuration" that breaks genericity checks:
        # force two consecutive axes parallel by rebuilding a degenerate cycle
        a1 = make_axis(3, (0, 0, 0), [(1, 0, 0)])
        a2 = make_axis(3, (0, 1, 0), [(1, 0, 0)])
        degenerate = cycle_chain([a1, a2] + [random_axis(rng, 3) for _ in range(4)])
        check_linkage_invariance(degenerate, [np.zeros(5)])
    assert "configuration 0" in str(err.value)
    # and a healthy path reports a finite drift
    assert check_linkage_invariance(c, [good, good]) == 0.0


def test_moduli_provenance_guard():
    rng = rng_from(412)
    lk = cycle_to_linkage([random_axis(rng, 3) for _ in range(6)])
    doctored = Linkage(
        lk.d,
        lk.n,
        tuple((label.replace("foot-", "x"), c) if label.startswith("foot-1") else (label, c) for label, c in lk.vertices),
        tuple((a.replace("foot-1", "x1") if a == "foot-1" else a, b, L) for a, b, L in lk.edges),
    )
    with pytest.raises(ProvenanceError):
        moduli_invariants(doctored)


_LABEL = re.compile(r"^(foot[-+]|[pq])(\d+)$")


def _label_key(label):
    # the sort key of the label-keyed construction: (support index, role)
    role, idx = _LABEL.match(label).groups()
    return int(idx), {"foot-": 0, "foot+": 1, "p": 0, "q": 1}[role]


def _pair_key(pair):
    return _label_key(pair[0]), _label_key(pair[1])


def _norm_pair(a, b):
    return (a, b) if _label_key(a) <= _label_key(b) else (b, a)


def _uncached_edges(d, n, positions):
    # the edge list as built before the order was cached: a dict of
    # label-sorted pairs over every simplex, then one sort by label key
    seen = {}
    for simplex in Linkage(d, n, (), ()).simplices():
        for i in range(len(simplex)):
            for j in range(i + 1, len(simplex)):
                a, b = simplex[i], simplex[j]
                if _label_key(a) > _label_key(b):
                    a, b = b, a
                seen[(a, b)] = float(np.linalg.norm(positions[a] - positions[b]))
    ordered = sorted(seen, key=lambda ab: (_label_key(ab[0]), _label_key(ab[1])))
    return tuple((a, b, seen[(a, b)]) for a, b in ordered)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [7, 8, 11, 16])
def test_cached_edge_order_equals_the_uncached_edge_list(d, n):
    labels = {label for s in Linkage(d, n, (), ()).simplices() for label in s}
    rng = np.random.default_rng(100 * d + n)
    positions = {label: rng.normal(size=d) for label in sorted(labels)}
    expected = _uncached_edges(d, n, positions)
    names = _labels(d, n)
    assert tuple((names[a], names[b]) for a, b in _edge_order(d, n)) == tuple(
        (a, b) for a, b, _ in expected
    )
    assert len(expected) == (2 * d - 1) * n


def _reference_simplices(d, n):
    # the label tuples of each body simplex, written out per role
    if d == 2:
        return ()
    out = []
    k = d // 2
    for body in range(n):
        window = [(body - k + 1 + t) % n for t in range(k + 1)]
        if d % 2:
            out.append(tuple(f"foot{sign}{i + 1}" for i in window for sign in ("-", "+")))
        else:
            out.append(tuple([f"p{i + 1}" for i in window] + [f"q{i + 1}" for i in window[1:]]))
    return tuple(out)


def _intersection_flat(axes, start: int, count: int, want_dim: int, what: str):
    # one window of consecutive axes cut by affine_intersection, and its error
    n = len(axes)
    window = [axes[(start + t) % n] for t in range(count)]
    flat = affine_intersection(window)
    if flat is None or flat.flat_dim != want_dim or flat.near_degenerate:
        if flat is None:
            got = "empty"
        elif flat.flat_dim != want_dim:
            got = f"dimension {flat.flat_dim}"
        else:
            got = f"a near-degenerate {what} (singular value ratio below 1e-10)"
        raise GenericityError(
            f"axes {start + 1}..{(start + count - 1) % n + 1} (cyclic) should cut a "
            f"{what}, got {got}"
        )
    return flat


def _scale(axes) -> float:
    # the length scale of the coincidence tests
    return max(1.0, max(float(np.max(np.abs(a.origin))) for a in axes))


def _collapsed(mat):
    # the collapse rule, one simplex at a time
    sig = np.linalg.svd(mat, compute_uv=False)
    return sig[-1] <= 1e-10 * sig[0]


def _reference_positions(axes, d):
    # label -> point, filled support by support
    n = len(axes)
    positions = {}
    scale = _scale(axes)
    if d % 2:
        k = (d - 1) // 2
        lines = []
        for i in range(n):
            flat = axes[i] if k == 1 else _intersection_flat(axes, i, k, 1, "line")
            lines.append((flat.origin, flat.dirs[0]))
        for i in range(n):
            j = (i + 1) % n
            try:
                positions[f"foot+{i + 1}"], positions[f"foot-{j + 1}"] = common_perpendicular(
                    lines[i], lines[j]
                )
            except ParallelLinesError as exc:
                raise GenericityError(
                    f"support lines {i + 1} and {j + 1} are parallel; no canonical feet"
                ) from exc
        for i in range(n):
            gap = np.linalg.norm(positions[f"foot+{i + 1}"] - positions[f"foot-{i + 1}"])
            if gap <= 1e-10 * scale:
                raise DegenerateSimplexError(
                    f"the two canonical feet on support line {i + 1} coincide"
                )
        return positions
    k = d // 2
    points = [_intersection_flat(axes, i, k, 0, "point").origin for i in range(n)]
    planes = [
        axes[i] if k == 2 else _intersection_flat(axes, i, k - 1, 2, "plane") for i in range(n)
    ]
    for i in range(n):
        j = (i + 1) % n
        q = project_affine(points[j], planes[i])
        if np.linalg.norm(q - points[j]) <= 1e-10 * scale:
            raise DegenerateSimplexError(
                f"point {j + 1} already lies on plane {i + 1}; projection degenerates"
            )
        positions[f"p{i + 1}"], positions[f"q{i + 1}"] = points[i], q
    return positions


def _reference_orientations(lk):
    simplices = _reference_simplices(lk.d, lk.n)
    if not simplices:
        return ()
    coords = dict(lk.vertices)
    points = np.array([[coords[label] for label in simplex] for simplex in simplices])
    mats = points[:, 1:] - points[:, :1]
    return tuple(0 if _collapsed(mat) else (1 if np.linalg.det(mat) > 0 else -1) for mat in mats)


def _reference_linkage(axes):
    # cycle_to_linkage from label-keyed positions, with the labels sorted by
    # the regex key; short cycles fall through to whatever the geometry gives
    n, d = len(axes), axes[0].dim
    if d == 2:
        vertices = tuple((f"p{i + 1}", tuple(float(x) for x in axes[i].origin)) for i in range(n))
        edges = []
        for i in range(n):
            j = (i + 1) % n
            length = float(np.linalg.norm(axes[j].origin - axes[i].origin))
            if length <= 1e-12:
                raise DegenerateSimplexError(f"polygon vertices {i + 1} and {j + 1} coincide")
            edges.append((*_norm_pair(f"p{i + 1}", f"p{j + 1}"), length))
        return Linkage(2, n, vertices, tuple(sorted(edges, key=_pair_key)))
    positions = _reference_positions(axes, d)
    vertices = tuple(
        (label, tuple(float(x) for x in positions[label]))
        for label in sorted(positions, key=_label_key)
    )
    pairs = dict.fromkeys(
        _norm_pair(s[i], s[j])
        for s in _reference_simplices(d, n)
        for i in range(len(s))
        for j in range(i + 1, len(s))
    )
    edges = []
    for a, b in sorted(pairs, key=_pair_key):
        v = positions[a] - positions[b]
        edges.append((a, b, sqrt(v.dot(v))))
    lk = Linkage(d, n, vertices, tuple(edges))
    if 0 in _reference_orientations(lk):
        raise DegenerateSimplexError("a body simplex has collapsed (zero volume)")
    return lk


def _reference_moduli(lk):
    d, n = lk.d, lk.n
    if d == 2:
        return ModuliPartition(lk.edges, (), "planar polygon: the edge lengths themselves")
    keys = []
    note = (
        "dependent: like-signed feet across consecutive support lines "
        "(right angles at the perpendicular feet fix them)"
        if d % 2
        else "dependent: point pairs subtending the right angle at each projection vertex"
    )
    for i in range(n):
        j, h = (i + 1) % n, (i - 1) % n
        if d % 2:
            keys += [
                _norm_pair(f"foot-{i + 1}", f"foot-{j + 1}"),
                _norm_pair(f"foot+{i + 1}", f"foot+{j + 1}"),
            ]
        else:
            keys += [_norm_pair(f"p{i + 1}", f"p{j + 1}"), _norm_pair(f"p{h + 1}", f"p{j + 1}")]
    wanted = set(keys)
    if len(wanted) != 2 * n:
        raise ProvenanceError("dependent edges collide; the canonical partition needs a larger cycle")
    by_key = {(a, b): (a, b, length) for a, b, length in lk.edges}
    dependent = tuple(by_key[key] for key in sorted(wanted, key=_pair_key))
    independent = tuple(e for e in lk.edges if (e[0], e[1]) not in wanted)
    if len(independent) != (2 * d - 3) * n:
        raise ProvenanceError(f"expected {(2 * d - 3) * n} independent edges, found {len(independent)}")
    return ModuliPartition(independent, dependent, note)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (GenericityError, DegenerateSimplexError, ProvenanceError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=80, deadline=None)
@given(
    dn=st.integers(2, 7).flatmap(lambda d: st.tuples(st.just(d), st.integers(2, 2 * d + 2))),
    seed=st.integers(0, 2**16),
    theta=st.sampled_from([0.0, 0.3]),
)
def test_numbered_linkage_matches_the_label_keyed_reference(dn, seed, theta):
    d, n = dn
    c = classical_scenario("generic-cycle", d=d, n=n, seed=seed)
    axes = cycle_axes_at(c, np.full(n - 1, theta))
    if d > 2 and n <= 2 * (d // 2):
        with pytest.raises(GenericityError, match=rf"needs at least {2 * (d // 2) + 1} axes"):
            cycle_to_linkage(axes)
        return
    got, want = _outcome(cycle_to_linkage, axes), _outcome(_reference_linkage, axes)
    assert got == want
    if want.startswith("Linkage("):
        lk = cycle_to_linkage(axes)
        assert lk.simplices() == _reference_simplices(d, n)
        assert simplex_orientations(lk) == _reference_orientations(lk)
        assert _outcome(moduli_invariants, lk) == _outcome(_reference_moduli, lk)


def test_edge_order_cache_is_bounded_and_reused():
    assert _table.cache_info().maxsize == 64
    c = classical_scenario("generic-cycle", d=3, n=7, seed=0)
    linkage_at(c, np.zeros(c.n - 1))
    hits = _table.cache_info().hits
    linkage_at(c, np.zeros(c.n - 1))
    assert _table.cache_info().hits == hits + 2  # the kernel and the labelling


@pytest.mark.parametrize(
    "d, n, drift",
    # computed by the uncached edge list on the same paths
    [(3, 7, "0x1.c000000000000p-50"), (4, 11, "0x1.a000000000000p-46")],
)
def test_generic_cycle_drift_is_unchanged_by_the_cached_edge_order(d, n, drift):
    c = classical_scenario("generic-cycle", d=d, n=n, seed=0)
    path = flex_path(c, steps=10, step_size=1e-2)
    assert check_linkage_invariance(c, path) == float.fromhex(drift)


def _orientations_one_by_one(lk):
    # the per-simplex loop simplex_orientations ran before it was batched
    vm = lk.vertex_map()
    signs = []
    for simplex in lk.simplices():
        mat = np.array([vm[label] - vm[simplex[0]] for label in simplex[1:]])
        det = np.linalg.det(mat)
        if _collapsed(mat):
            signs.append(0)
        else:
            signs.append(1 if det > 0 else -1)
    return tuple(signs)


@pytest.mark.parametrize("d, n", [(3, 7), (4, 11)])
def test_edge_lengths_and_orientations_match_numpy_along_a_flex_path(d, n):
    c = classical_scenario("generic-cycle", d=d, n=n, seed=0)
    for theta in flex_path(c, steps=10, step_size=1e-2):
        lk = linkage_at(c, theta)
        vm = lk.vertex_map()
        assert all(length == float(np.linalg.norm(vm[a] - vm[b])) for a, b, length in lk.edges)
        assert simplex_orientations(lk) == _orientations_one_by_one(lk)


def test_collapse_rule_reads_the_same_batched():
    # a d = 4 simplex pushed through the 1e-10 singular value threshold
    c = classical_scenario("generic-cycle", d=4, n=11, seed=0)
    lk = linkage_at(c, np.zeros(c.n - 1))
    vm = lk.vertex_map()
    simplex = lk.simplices()[0]
    base, tip = vm[simplex[0]], vm[simplex[-1]]
    others = np.array([vm[label] - base for label in simplex[1:-1]])
    in_span = base + others.T @ np.linalg.lstsq(others.T, tip - base, rcond=None)[0]
    normal = tip - in_span
    for eps in (0.0, 1e-12, 1e-9, 1e-6, 1.0):
        moved = dict(vm, **{simplex[-1]: in_span + eps * normal})
        doctored = Linkage(
            lk.d, lk.n, tuple((label, tuple(moved[label])) for label, _ in lk.vertices), lk.edges
        )
        assert simplex_orientations(doctored) == _orientations_one_by_one(doctored)
        if eps == 0.0:
            assert simplex_orientations(doctored)[0] == 0


def test_simplex_labels_are_cached_per_dimension_and_size():
    assert _table.cache_info().maxsize == 64
    assert Linkage(4, 9, (), ()).simplices() is Linkage(4, 9, (), ()).simplices()


@pytest.mark.parametrize("d, n", [(3, 2), (3, 3), (4, 4), (4, 5), (5, 4), (5, 5)])
def test_cycles_with_too_few_axes_are_refused_before_any_geometry(d, n):
    rng = rng_from(420 + 10 * d + n)
    axes = [random_axis(rng, d) for _ in range(n)]
    least = 2 * (d // 2) + 1
    if n < least:
        with pytest.raises(
            GenericityError,
            match=rf"^a cycle in R\^{d} needs at least {least} axes for the canonical linkage, got {n}$",
        ):
            cycle_to_linkage(axes)
    else:
        lk = cycle_to_linkage(axes)
        assert (len(lk.vertices), len(lk.edges)) == (2 * n, (2 * d - 1) * n)


def test_the_short_cycle_bound_is_where_the_canonical_edges_appear():
    # n > 2 floor(d/2) exactly when the simplices give (2d - 1) n distinct edges
    # and the moduli split finds its 2n dependent ones
    for d in range(3, 10):
        for n in range(2, 30):
            names = _labels(d, n)
            edges = tuple((names[a], names[b], 1.0) for a, b in _edge_order(d, n))
            try:
                moduli_invariants(Linkage(d, n, (), edges))
                splits = True
            except ProvenanceError:
                splits = False
            long_enough = n > 2 * (d // 2)
            assert (len(edges) == (2 * d - 1) * n) == splits == long_enough, (d, n)


def test_collapsed_simplex_is_refused():
    # axes 1 and 2 meet at the origin, so the common perpendicular of support
    # lines 1 and 2 has length zero: foot+1 and foot-2 are one point, and the
    # body simplex on those two lines is flat
    rng = rng_from(431)
    axes = [make_axis(3, (0, 0, 0), [(1, 0, 0)]), make_axis(3, (0, 0, 0), [(0, 1, 0)])]
    axes += [random_axis(rng, 3) for _ in range(3)]
    with pytest.raises(DegenerateSimplexError, match=r"^a body simplex has collapsed \(zero volume\)$"):
        cycle_to_linkage(axes)


def test_generic_d6_cycle_is_not_called_collapsed():
    # the product-of-edge-lengths rule called a simplex of this cycle collapsed;
    # its smallest singular value ratio is far above 1e-10
    c = classical_scenario("generic-cycle", d=6, n=12, seed=1)
    lk = linkage_at(c, np.zeros(c.n - 1))
    assert 0 not in simplex_orientations(lk)


@pytest.mark.parametrize(
    "pts, pair",
    [([(0, 0), (1, 0), (1, 0), (0, 1)], "2 and 3"), ([(0, 0), (1, 0), (0, 1), (0, 0)], "4 and 1")],
)
def test_polygon_with_coincident_neighbours_names_them_in_cycle_order(pts, pair):
    with pytest.raises(DegenerateSimplexError, match=rf"^polygon vertices {pair} coincide$"):
        cycle_to_linkage([make_axis(2, p, []) for p in pts])


def test_odd_d_axes_through_one_point_have_coincident_feet():
    axes = [make_axis(3, (0, 0, 0), [v]) for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    with pytest.raises(
        DegenerateSimplexError, match=r"^the two canonical feet on support line 1 coincide$"
    ):
        cycle_to_linkage(axes)


def test_even_d_point_already_on_the_projection_plane_is_refused():
    # planes 1, 2 and 3 of R^4 pass through the origin, so points 1 and 2 are
    # both the origin and point 2 lies on plane 1
    rng = rng_from(421)
    axes = [make_axis(4, np.zeros(4), rng.standard_normal((2, 4))) for _ in range(3)]
    axes += [random_axis(rng, 4) for _ in range(2)]
    with pytest.raises(
        DegenerateSimplexError,
        match=r"^point 2 already lies on plane 1; projection degenerates$",
    ):
        cycle_to_linkage(axes)


def test_polygon_has_no_simplices_or_orientations():
    lk = cycle_to_linkage([make_axis(2, p, []) for p in [(0, 0), (2, 0), (1, 1)]])
    assert _simplices(2, 3) == () and lk.simplices() == ()
    assert simplex_orientations(lk) == ()


def test_two_point_polygon_keeps_both_sides():
    lk = cycle_to_linkage([make_axis(2, (0, 0), []), make_axis(2, (3, 4), [])])
    assert lk.vertices == (("p1", (0.0, 0.0)), ("p2", (3.0, 4.0)))
    assert lk.edges == (("p1", "p2", 5.0), ("p1", "p2", 5.0))


def _per_window_vertices(axes):
    # the construction one window, one common perpendicular and one projection
    # at a time, from the public geometry functions, with the collapse rule
    n, d = len(axes), axes[0].dim
    if d > 2 and n <= 2 * (d // 2):
        raise GenericityError(
            f"a cycle in R^{d} needs at least {2 * (d // 2) + 1} axes for the canonical linkage, got {n}"
        )
    if d == 2:
        positions = np.array([a.origin for a in axes])
        for i in range(n):
            if np.linalg.norm(positions[(i + 1) % n] - positions[i]) <= 1e-12:
                raise DegenerateSimplexError(f"polygon vertices {i + 1} and {(i + 1) % n + 1} coincide")
        return positions
    by_label = _reference_positions(axes, d)
    positions = np.array([by_label[label] for label in _labels(d, n)])
    for simplex in _simplices(d, n):
        if _collapsed(positions[list(simplex[1:])] - positions[simplex[0]]):
            raise DegenerateSimplexError("a body simplex has collapsed (zero volume)")
    return positions


def _per_edge_lengths(positions, d, n):
    return [sqrt(v.dot(v)) for v in (positions[a] - positions[b] for a, b in _edge_order(d, n))]


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 8),
    extra=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 4),
)
def test_stacked_kernel_matches_the_per_window_construction(d, extra, seed, count):
    n = 2 * (d // 2) + extra if d > 2 else extra + 1
    c = classical_scenario("generic-cycle", d=d, n=n, seed=seed)
    rng = np.random.default_rng(seed)
    path = [np.zeros(n - 1)] + [rng.uniform(-0.3, 0.3, n - 1) for _ in range(count)]
    configs = [cycle_axes_at(c, theta) for theta in path]
    # through a stack of one: the reference axes
    ref = [*c.ref_axes, c.closing_axis]
    try:
        want = _per_window_vertices(ref)
    except (GenericityError, DegenerateSimplexError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            cycle_to_linkage(ref)
    else:
        lk = cycle_to_linkage(ref)
        assert np.array([coords for _, coords in lk.vertices]).tobytes() == want.tobytes()
        assert [length for *_, length in lk.edges] == _per_edge_lengths(want, d, n)
    # placed configurations, several to a stack
    positions, lengths, failure = _canonical(*_stack(configs))
    base, worst = None, 0.0
    for idx, axes in enumerate(configs):
        try:
            want = _per_window_vertices(axes)
        except (GenericityError, DegenerateSimplexError) as exc:
            assert failure[0] == idx and type(failure[1]) is type(exc) and str(failure[1]) == str(exc)
            with pytest.raises(GenericityError, match=rf"^configuration {idx} of the path: "):
                check_linkage_invariance(c, path)
            return
        assert positions[idx].tobytes() == want.tobytes()
        want_lengths = _per_edge_lengths(want, d, n)
        assert lengths[idx].tolist() == want_lengths
        if base is None:
            base = np.array(want_lengths)
        worst = max(worst, float(np.max(np.abs(np.array(want_lengths) - base))))
    assert failure is None
    assert check_linkage_invariance(c, path) == worst


@settings(max_examples=60, deadline=None)
@given(d=st.integers(3, 8), seed=st.integers(0, 2**16), log_ratio=st.floats(-13.0, -7.0))
def test_collapse_flag_is_the_singular_value_rule(d, seed, log_ratio):
    # edge matrices with sigma_min / sigma_max near 1e-10, one made flat by a row
    # in the span of the others, one random; the flags must not move when the
    # simplex is scaled by a power of two
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((d, d)))
    right, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sig = np.sort(10.0 ** rng.uniform(-2, 2, d))[::-1]
    sig[-1] = sig[0] * 10.0**log_ratio
    near = (left * sig) @ right
    flat = near.copy()
    flat[-1] = flat[:-1].T @ rng.standard_normal(d - 1)
    stack = np.stack([near, flat, rng.standard_normal((d, d))])
    first = None
    for scale in (1.0, 2.0**-30, 2.0**30):
        signs, finite = _orientations(scale * stack)
        assert finite.all() and signs[1] == 0
        for mat, sign in zip(scale * stack, signs.tolist()):
            assert (sign == 0) == _collapsed(mat)
            if sign:
                assert sign == (1 if np.linalg.det(mat) > 0 else -1)
        first = signs.tolist() if first is None else first
        assert signs.tolist() == first


def _turning_cycle():
    # consecutive axes ride one body, so only the closing pair (axis 5, axis 1)
    # moves with theta: joint 4 turns the closing axis about the z-axis (axis 4),
    # and a quarter turn makes it parallel to axis 1
    rng = rng_from(432)
    axes = [make_axis(3, (0.3, -0.2, 0.5), [(0, 1, 1)]), random_axis(rng, 3), random_axis(rng, 3),
            make_axis(3, (0, 0, 0), [(0, 0, 1)]), make_axis(3, (2, 0.5, 0), [(1, 0, 1)])]
    return cycle_chain(axes)


@pytest.mark.parametrize("bad", [2, _BLOCK + 1])
def test_invariance_check_names_the_lowest_failing_configuration(bad):
    c = _turning_cycle()
    turned = np.array([0.0, 0.0, 0.0, np.pi / 2])
    path = [np.full(4, 0.01 * (i % 5)) for i in range(bad + 3)]
    path[bad] = path[bad + 2] = turned
    with pytest.raises(
        GenericityError,
        match=rf"^configuration {bad} of the path: support lines 5 and 1 are parallel; no canonical feet$",
    ):
        check_linkage_invariance(c, path)
    assert check_linkage_invariance(c, path[:bad]) > 0.0


def test_a_placement_error_follows_an_earlier_configuration_failure():
    c = _turning_cycle()
    turned = np.array([0.0, 0.0, 0.0, np.pi / 2])
    with pytest.raises(GenericityError, match=r"^configuration 1 of the path: support lines 5 and 1"):
        check_linkage_invariance(c, [np.zeros(4), turned, np.zeros(3)])


def test_linkage_drift_memory_does_not_grow_with_the_path():
    c = classical_scenario("generic-cycle", d=4, n=5, seed=0)

    def peak(count):
        path = [np.full(c.n - 1, 1e-3 * (i % 7)) for i in range(count)]
        check_linkage_invariance(c, path[:2])  # fill the caches first
        tracemalloc.start()
        try:
            check_linkage_invariance(c, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a few kilobytes per block stay in the interpreter's free lists; six
    # blocks converted at once would peak near six times as high
    one_block, many_blocks = peak(_BLOCK), peak(6 * _BLOCK)
    assert many_blocks <= 1.25 * one_block


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_non_finite_canonical_points_are_refused_as_a_rank_test(d):
    # a NaN origin reaches every point built from its axis; the collapse rule,
    # a singular value test, refuses it as numeric_rank refuses a NaN matrix
    rng = rng_from(433)
    axes = [random_axis(rng, d) for _ in range(2 * (d // 2) + 2)]
    origin = axes[2].origin.copy()
    origin[0] = np.nan
    axes[2] = make_axis(d, origin, axes[2].dirs)
    with pytest.raises(DegenerateGeometryError, match=r"^a rank test met a non-finite number"):
        cycle_to_linkage(axes)


def test_axes_of_mixed_dimension_are_refused_by_name():
    rng = rng_from(434)
    axes = [random_axis(rng, 3) for _ in range(4)] + [random_axis(rng, 4)]
    with pytest.raises(DimensionError, match=r"^axis 5 lives in R\^4, not in the R\^3 of axis 1$"):
        cycle_to_linkage(axes)
    with pytest.raises(IndexError):
        cycle_to_linkage([])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", range(3, 9))
def test_reference_axes_convert_to_the_linkage_placed_at_zero(d, seed):
    # placing at theta = 0 moves nothing, so the bits must not depend on the route
    c = classical_scenario("generic-cycle", d=d, n=2 * d, seed=seed)
    assert cycle_to_linkage([*c.ref_axes, c.closing_axis]) == linkage_at(c, np.zeros(c.n - 1))


def test_drift_reads_the_placed_stacks_and_refuses_a_chain(monkeypatch):
    chain = random_chain(rng_from(435), 3, 6)
    with pytest.raises(WrongMapError):
        check_linkage_invariance(chain, [np.zeros(5)])
    c = classical_scenario("generic-cycle", d=4, n=11, seed=0)
    path = flex_path(c, steps=3, step_size=1e-2)
    want = check_linkage_invariance(c, path)

    def refuse(*args):
        raise AssertionError("the drift built placed Axis objects")

    chain_module._placed.cache_clear()
    for module in (chain_module, linkage_module):
        monkeypatch.setattr(module, "cycle_axes_at", refuse)
    monkeypatch.setattr(Placement, "axes_at", property(refuse))
    assert check_linkage_invariance(c, path) == want


def _raise_non_finite_window():
    # a NaN direction makes the window's normal projectors non-finite, so the
    # stacked cut flags it and the per-window rule names the error
    rng = rng_from(5)
    origins, dirs = _stack([[random_axis(rng, 4) for _ in range(7)]])
    dirs[0, 2, 0] = np.nan
    raise _canonical(origins, dirs)[2][1]


def _non_finite_vertex_linkage():
    rng = rng_from(5)
    lk = cycle_to_linkage([random_axis(rng, 3) for _ in range(6)])
    return Linkage(lk.d, lk.n, (("foot-1", (np.nan, 0.0, 0.0)),) + lk.vertices[1:], lk.edges)


@pytest.mark.parametrize("call", [
    _raise_non_finite_window,
    lambda: simplex_orientations(_non_finite_vertex_linkage()),
], ids=["intersection-window", "simplex-vertex"])
def test_non_finite_input_raises_a_degenerate_geometry_error(call):
    with pytest.raises(DegenerateGeometryError, match=f"^{re.escape(NON_FINITE)}$"):
        call()
