import numpy as np
import pytest

from hingekit import (
    Linkage,
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
from hingekit.errors import GenericityError, ProvenanceError
from hingekit.sampling import random_axis, random_cycle, rng_from


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


def test_genericity_failure_names_the_window():
    # two parallel consecutive axes: the common perpendicular is not unique
    a1 = make_axis(3, (0, 0, 0), [(1, 0, 0)])
    a2 = make_axis(3, (0, 1, 0), [(1, 0, 0)])
    rng = rng_from(410)
    others = [random_axis(rng, 3) for _ in range(4)]
    with pytest.raises(GenericityError) as err:
        cycle_to_linkage([a1, a2] + others)
    assert "1" in str(err.value) and "2" in str(err.value)


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
