"""Arrangement geometry: normals, codimension, vertices, clique solves."""

from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from bishops import (
    NEGATIVE,
    POSITIVE,
    BishopHyperplane,
    EnumerationBoundExceeded,
    Fixation,
    NonIntegerFixationError,
    SignedGraph,
    SingularFixationError,
    codim_of_subset,
    denominator_lcm,
    enumerate_lattice_vertices,
    hyperplane_normal,
    linalg,
    matroid_check,
    move_arrangement,
    period_upper_bound,
    solve_incidence_transpose,
    solve_via_clique_graph,
    subset_signed_graph,
    verify_half_integrality,
    vertices_to_json,
)
from bishops._testkit import random_clique_solve_instance, random_negative_one_forest
from bishops.geometry import LatticeVertex

from helpers import FIXTURE_FIXATION_COORDINATES, example_clique_fixture

F = Fraction


def direct_solve(graph, fixations):
    """Independent reference: stack one row per shared-diagonal equality
    and one per fixation, and solve the square system outright."""
    dim = 2 * graph.q
    rows = []
    rhs = []
    for i, j, sign in graph.edges:
        row = [0] * dim
        ys = 1 if sign == POSITIVE else -1
        row[2 * (i - 1)], row[2 * (i - 1) + 1] = 1, ys
        row[2 * (j - 1)], row[2 * (j - 1) + 1] = -1, -ys
        rows.append(row)
        rhs.append(0)
    for fixation in fixations:
        row = [0] * dim
        row[fixation.position()] = 1
        rows.append(row)
        rhs.append(fixation.value)
    solution = linalg.solve(rows, rhs)
    assert solution.status == linalg.UNIQUE
    return tuple(solution.point)


def test_hyperplane_validation():
    with pytest.raises(ValueError):
        BishopHyperplane(2, 2, POSITIVE)
    with pytest.raises(ValueError):
        BishopHyperplane(3, 2, POSITIVE)
    with pytest.raises(ValueError):
        BishopHyperplane(1, 2, 2)


def test_move_arrangement_size_and_order():
    arrangement = move_arrangement(3)
    assert len(arrangement) == 6
    assert arrangement[0] == BishopHyperplane(1, 2, POSITIVE)
    assert arrangement[1] == BishopHyperplane(1, 2, NEGATIVE)
    assert move_arrangement(1) == []


def test_hyperplane_normals():
    # x1 - y1 - x2 + y2 = 0 and x1 + y1 - x2 - y2 = 0 over (x1,y1,x2,y2)
    assert hyperplane_normal(BishopHyperplane(1, 2, POSITIVE), 2) == [1, -1, -1, 1]
    assert hyperplane_normal(BishopHyperplane(1, 2, NEGATIVE), 2) == [1, 1, -1, -1]
    assert hyperplane_normal(BishopHyperplane(1, 3, POSITIVE), 3) == [
        1, -1, 0, 0, -1, 1]
    with pytest.raises(ValueError):
        hyperplane_normal(BishopHyperplane(1, 3, POSITIVE), 2)


def test_subset_signed_graph():
    subset = [BishopHyperplane(1, 2, POSITIVE), BishopHyperplane(2, 3, NEGATIVE)]
    graph = subset_signed_graph(subset, 3)
    assert graph == SignedGraph(3, ((1, 2, POSITIVE), (2, 3, NEGATIVE)))


def test_codim_small_cases():
    assert codim_of_subset([], 2) == 0
    assert codim_of_subset([BishopHyperplane(1, 2, POSITIVE)], 2) == 1
    assert codim_of_subset(
        [BishopHyperplane(1, 2, POSITIVE), BishopHyperplane(1, 2, NEGATIVE)],
        2) == 2
    # a positive triangle of hyperplanes is dependent: codim 2, not 3
    assert codim_of_subset(
        [BishopHyperplane(1, 2, POSITIVE), BishopHyperplane(2, 3, POSITIVE),
         BishopHyperplane(1, 3, POSITIVE)], 3) == 2


def test_codim_of_full_arrangement():
    for q in range(2, 5):
        assert codim_of_subset(move_arrangement(q), q) == 2 * (q - 1)


def test_dim_plus_codim_identity():
    # the subspace cut out by a subset has dimension |A| + |B| of its
    # mirror signed graph, complementary to the codimension
    from itertools import combinations

    from bishops import signed_cliques

    for q in (2, 3):
        arrangement = move_arrangement(q)
        for size in range(len(arrangement) + 1):
            for subset in combinations(arrangement, size):
                graph = subset_signed_graph(subset, q)
                pos, neg = signed_cliques(graph)
                assert (len(pos) + len(neg)
                        == 2 * q - codim_of_subset(subset, q))


def test_matroid_check():
    assert matroid_check(0)
    assert matroid_check(1)
    assert matroid_check(2)
    assert matroid_check(3)
    with pytest.raises(EnumerationBoundExceeded):
        matroid_check(5)
    with pytest.raises(ValueError):
        matroid_check(-1)


def test_fixation_validation():
    fixation = Fixation("y", 3, F(2))
    assert fixation.value == 2
    assert fixation.coordinate == "y_3"
    assert fixation.position() == 5
    assert Fixation("x", 1, 0).position() == 0
    with pytest.raises(ValueError):
        Fixation("z", 1, 0)
    with pytest.raises(ValueError):
        Fixation("x", 0, 0)
    with pytest.raises(NonIntegerFixationError):
        Fixation("x", 1, F(1, 2))
    with pytest.raises(NonIntegerFixationError):
        Fixation("x", 1, True)
    with pytest.raises(NonIntegerFixationError):
        Fixation("x", 1, 1.0)


def test_vertices_one_piece():
    vertices = enumerate_lattice_vertices(1)
    points = [v.point for v in vertices]
    assert points == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert verify_half_integrality(vertices)
    assert denominator_lcm(vertices) == 1


def test_vertices_two_pieces_all_integral():
    vertices = enumerate_lattice_vertices(2)
    assert len(vertices) == 16
    assert all(c.denominator == 1 for v in vertices for c in v.point)
    assert denominator_lcm(vertices) == 1
    center = (F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    assert center not in {v.point for v in vertices}


def test_vertices_three_pieces():
    vertices = enumerate_lattice_vertices(3)
    assert len(vertices) == 88
    assert verify_half_integrality(vertices)
    assert denominator_lcm(vertices) == 2
    strict = [v for v in vertices
              if any(c.denominator == 2 for c in v.point)]
    assert len(strict) == 24


def test_vertices_four_pieces():
    vertices = enumerate_lattice_vertices(4, bound=4)
    assert len(vertices) == 496
    assert all(0 <= c <= 1 for v in vertices for c in v.point)
    assert verify_half_integrality(vertices)
    assert denominator_lcm(vertices) == 2
    strict = [v for v in vertices
              if any(c.denominator == 2 for c in v.point)]
    assert len(strict) == 240


def fraction_vertices(q):
    """Independent reference: invert each full square system into
    Fractions and add its inverse columns for every 0/1 choice of
    fixation values, keeping the first defining set of each point."""
    dim = 2 * q
    arrangement = move_arrangement(q)
    found = {}
    for k in range(dim + 1):
        for subset in combinations(arrangement, k):
            normals = [hyperplane_normal(h, q) for h in subset]
            if normals and linalg.rank(normals) < k:
                continue
            for fixed in combinations(range(dim), dim - k):
                matrix = [list(row) for row in normals]
                for coordinate in fixed:
                    unit = [0] * dim
                    unit[coordinate] = 1
                    matrix.append(unit)
                inverse = linalg.invert(matrix)
                if inverse is None:
                    continue
                for values in product((0, 1), repeat=dim - k):
                    point = tuple(
                        sum((inverse[r][k + t] for t in range(dim - k)
                             if values[t]), Fraction(0))
                        for r in range(dim))
                    if any(c < 0 or c > 1 for c in point) or point in found:
                        continue
                    fixations = tuple(
                        Fixation("x" if c % 2 == 0 else "y", c // 2 + 1, v)
                        for c, v in zip(fixed, values))
                    found[point] = LatticeVertex(point, subset, fixations)
    return [found[point] for point in sorted(found)]


@pytest.mark.parametrize("q", [1, 2, 3])
def test_vertices_match_fraction_reference(q):
    # LatticeVertex equality covers points, hyperplanes and fixations
    assert enumerate_lattice_vertices(q) == fraction_vertices(q)


def test_vertices_are_deterministic_and_in_cube():
    first = enumerate_lattice_vertices(2)
    second = enumerate_lattice_vertices(2)
    assert [v.point for v in first] == [v.point for v in second]
    assert all(0 <= c <= 1 for v in first for c in v.point)


def test_vertices_bound():
    with pytest.raises(EnumerationBoundExceeded):
        enumerate_lattice_vertices(4)
    with pytest.raises(ValueError):
        enumerate_lattice_vertices(0)


def test_period_upper_bound():
    assert period_upper_bound(1) == 1
    assert period_upper_bound(2) == 1
    assert period_upper_bound(3) == 2


def test_half_integrality_rejects_bad_points():
    third = LatticeVertex((F(1, 3), F(1, 3)), (), ())
    assert not verify_half_integrality([third])
    unmatched = LatticeVertex((F(1, 2), F(1)), (), ())
    assert not verify_half_integrality([unmatched])
    assert verify_half_integrality([])
    assert denominator_lcm([]) == 1


def test_vertices_json_schema():
    import json

    vertices = enumerate_lattice_vertices(1)
    payload = json.loads(vertices_to_json(vertices))
    assert len(payload) == 4
    for entry in payload:
        assert set(entry) == {"point", "hyperplanes", "fixations"}
        assert all("/" in c for c in entry["point"])
        for fixation in entry["fixations"]:
            assert set(fixation) == {"coordinate", "value"}


def test_clique_solve_fixture_point():
    graph = example_clique_fixture()
    values = (1, 0, 1, 0, 1, 1, 0)
    fixations = [Fixation(axis, index, value)
                 for (axis, index), value
                 in zip(FIXTURE_FIXATION_COORDINATES, values)]
    solution = solve_via_clique_graph(graph, fixations)
    assert solution.point == direct_solve(graph, fixations)
    assert solution.point == (
        1, -1, 0, 0, 1, -1, 0, 0, -1, 1, F(-1, 2), F(3, 2), 1, 0)
    # piece 6 lands on strict halves, matched within the pair
    assert solution.point[10].denominator == 2
    assert solution.point[11].denominator == 2


def test_clique_solve_all_zero_fixations_give_the_origin():
    graph = example_clique_fixture()
    fixations = [Fixation(axis, index, 0)
                 for axis, index in FIXTURE_FIXATION_COORDINATES]
    solution = solve_via_clique_graph(graph, fixations)
    assert solution.point == (0,) * 14
    assert solution.a == (0, 0, 0)
    assert solution.b == (0, 0, 0, 0)


def test_clique_solve_matches_direct_solve_on_random_instances():
    rng = Random(3)
    for _ in range(200):
        graph, fixations = random_clique_solve_instance(rng)
        solution = solve_via_clique_graph(graph, fixations)
        assert solution.point == direct_solve(graph, fixations)
        assert all(value.denominator == 1 for value in solution.a)
        assert all(value.denominator == 1 for value in solution.b)
        point = solution.point
        for at in range(0, len(point), 2):
            pair = (point[at].denominator, point[at + 1].denominator)
            assert pair in ((1, 1), (2, 2))


def test_clique_solve_rejects_singular_fixation_sets():
    graph = example_clique_fixture()
    # fixing both coordinates of pieces 1 and 2 revisits the same clique
    # pair twice and leaves other cliques untouched
    fixations = [Fixation("x", 1, 0), Fixation("y", 1, 0),
                 Fixation("x", 2, 0), Fixation("y", 2, 0),
                 Fixation("x", 3, 0), Fixation("x", 4, 0),
                 Fixation("y", 5, 0)]
    with pytest.raises(SingularFixationError):
        solve_via_clique_graph(graph, fixations)


def test_clique_solve_rejects_out_of_range_piece():
    graph = example_clique_fixture()
    with pytest.raises(ValueError):
        solve_via_clique_graph(graph, [Fixation("x", 8, 0)])


def test_solve_incidence_transpose_digon():
    digon = SignedGraph(2, ((1, 2, POSITIVE), (1, 2, NEGATIVE)))
    # H = [[1, 1], [-1, 1]], so the system is w1 - w2 = 0, w1 + w2 = 1
    solution = solve_incidence_transpose(digon, [0, 1])
    assert solution == [F(1, 2), F(1, 2)]


def test_solve_incidence_transpose_validation():
    digon = SignedGraph(2, ((1, 2, POSITIVE), (1, 2, NEGATIVE)))
    tree = SignedGraph(2, ((1, 2, POSITIVE),))
    square_balanced = SignedGraph(2, ((1, 2, POSITIVE), (1, 2, POSITIVE)))
    with pytest.raises(ValueError):
        solve_incidence_transpose(tree, [1, 1])
    with pytest.raises(ValueError):
        solve_incidence_transpose(digon, [1])
    with pytest.raises(SingularFixationError):
        solve_incidence_transpose(square_balanced, [1, 1])


def test_solve_incidence_transpose_half_integrality():
    rng = Random(11)
    for _ in range(60):
        forest = random_negative_one_forest(rng)
        rhs = [rng.randint(-9, 9) for _ in range(forest.q)]
        solution = solve_incidence_transpose(forest, rhs)
        assert all(value.denominator in (1, 2) for value in solution)
        doubled = solve_incidence_transpose(forest, [2 * v for v in rhs])
        assert all(value.denominator == 1 for value in doubled)
