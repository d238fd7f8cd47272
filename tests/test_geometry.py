"""Arrangement geometry: normals, codimension, vertices, clique solves."""

import hashlib
import os
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bishops import (
    NEGATIVE,
    POSITIVE,
    EnumerationBoundExceeded,
    Fixation,
    SignedGraph,
    SingularFixationError,
    denominator_lcm,
    enumerate_lattice_vertices,
    geometry,
    hyperplane_normal,
    interpolate_bishops,
    is_negative_one_forest,
    linalg,
    matroid_check,
    move_arrangement,
    period_upper_bound,
    signed_graph,
    solve_incidence_transpose,
    solve_via_clique_graph,
    verify_half_integrality,
)
from bishops._testkit import random_clique_solve_instance, random_negative_one_forest
from bishops.geometry import LatticeVertex, independence_walk

from helpers import (
    FIXTURE_FIXATION_COORDINATES,
    SQUARE_SYMMETRIES,
    closed_form_vertices,
    cube_points,
    example_clique_fixture,
    flat_orbit,
    orbit_closure,
    partition_pair_orbit_counts,
    per_subset_ranks,
    reference_det,
    reference_solve,
    set_partitions,
    spanned_flat,
    walk_vertices,
)

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
    _, status, point = reference_solve(rows, rhs)
    assert status == linalg.UNIQUE
    return tuple(point)


def test_hyperplane_validation():
    # a float or bool sign equals +-1 but is not an exact int sign
    for edge in ((2, 2, POSITIVE), (3, 2, POSITIVE), (1, 2, 2),
                 (0, 1, NEGATIVE), (1, 2, 1.0), (1, 2, -1.0), (1, 2, True)):
        with pytest.raises(ValueError):
            hyperplane_normal(edge, 3)
    # j > q
    with pytest.raises(ValueError):
        hyperplane_normal((1, 3, NEGATIVE), 2)
    # a float or bool endpoint equals an int but cannot index the normal
    for edge in ((1, 2.0, POSITIVE), (1.0, 2, NEGATIVE), (True, 2, POSITIVE)):
        with pytest.raises(ValueError, match="edge endpoint must be an int"):
            hyperplane_normal(edge, 3)


def test_move_arrangement_size_and_order():
    arrangement = move_arrangement(3)
    assert len(arrangement) == 6
    assert arrangement[0] == (1, 2, NEGATIVE)
    assert arrangement[1] == (1, 2, POSITIVE)
    assert move_arrangement(1) == []
    assert move_arrangement(0) == []
    with pytest.raises(ValueError, match="^q must be nonnegative$"):
        move_arrangement(-2)


def test_hyperplane_normals():
    # x1 - y1 - x2 + y2 = 0 and x1 + y1 - x2 - y2 = 0 over (x1,y1,x2,y2)
    assert hyperplane_normal((1, 2, NEGATIVE), 2) == [1, -1, -1, 1]
    assert hyperplane_normal((1, 2, POSITIVE), 2) == [1, 1, -1, -1]
    assert hyperplane_normal((1, 3, NEGATIVE), 3) == [1, -1, 0, 0, -1, 1]


def test_codim_small_cases():
    assert per_subset_ranks([], 2) == (0, 0)
    assert per_subset_ranks([(1, 2, NEGATIVE)], 2) == (1, 1)
    assert per_subset_ranks([(1, 2, NEGATIVE), (1, 2, POSITIVE)], 2) == (2, 2)
    # a negative triangle of edges is dependent: codim 2, not 3
    assert per_subset_ranks(
        [(1, 2, NEGATIVE), (2, 3, NEGATIVE), (1, 3, NEGATIVE)], 3) == (2, 2)


def test_codim_of_full_arrangement():
    for q in range(2, 5):
        assert per_subset_ranks(move_arrangement(q), q) == (
            2 * (q - 1), 2 * (q - 1))


def test_dim_plus_codim_identity():
    # the subspace cut out by a subset has dimension 2q minus the rank of
    # its normals, which is |A| + |B| of its signed graph
    for q in (2, 3):
        arrangement = move_arrangement(q)
        for size in range(len(arrangement) + 1):
            for subset in combinations(arrangement, size):
                matrix_rank, graph_rank = per_subset_ranks(subset, q)
                assert matrix_rank == graph_rank


def test_matroid_check():
    assert matroid_check(0)
    assert matroid_check(1)
    assert matroid_check(2)
    assert matroid_check(3)
    with pytest.raises(EnumerationBoundExceeded, match="is above the bound 4"):
        matroid_check(5)
    with pytest.raises(ValueError):
        matroid_check(-1)


def test_matroid_check_reaches_five_pieces():
    assert matroid_check(5, bound=5) is True


def test_matroid_check_fails_when_a_route_is_corrupted(monkeypatch):
    # the negative edge of pieces 1, 2 gets the positive normal, so the
    # pair {(1,2,-), (1,2,+)} has matrix rank 1 but forest rank 2
    honest = geometry.hyperplane_normal

    def swapped(h, q):
        if h[:2] == (1, 2):
            return honest((1, 2, POSITIVE), q)
        return honest(h, q)

    monkeypatch.setattr(geometry, "hyperplane_normal", swapped)
    assert matroid_check(3) is False


@pytest.mark.parametrize("q", range(5))
def test_subset_ranks_match_per_subset_routes(q):
    # the walk visits each independent subset and each extension of one
    # by a hyperplane of larger index, once, and no other subset
    walk_size = (1, 1, 4, 60, 2260)[q]
    arrangement = move_arrangement(q)
    ranks = {subset: per_subset_ranks(subset, q)
             for size in range(len(arrangement) + 1)
             for subset in combinations(arrangement, size)}
    independent = {subset for subset, (rank, _) in ranks.items()
                   if rank == len(subset)}
    expected = independent | {
        (*subset, h) for subset in independent
        for k, h in enumerate(arrangement)
        if not subset or arrangement.index(subset[-1]) < k}
    walked = list(independence_walk(q))
    assert len(walked) == len(expected) == walk_size
    assert {subset for subset, _, _ in walked} == expected
    for subset, matrix_independent, forests in walked:
        matrix_rank, graph_rank = ranks[subset]
        assert (matrix_independent, forests) == (
            matrix_rank == len(subset), graph_rank == len(subset))


@pytest.mark.parametrize("q", range(1, 5))
def test_region_count_is_u_at_minus_one(q):
    # Zaslavsky: the arrangement has sum_S (-1)^(|S| - rank S) regions,
    # which is q! u(q; -1); ranks are computed afresh for every subset
    arrangement = move_arrangement(q)
    regions = sum((-1) ** (size - per_subset_ranks(subset, q)[0])
                  for size in range(len(arrangement) + 1)
                  for subset in combinations(arrangement, size))
    assert regions == factorial(q) * interpolate_bishops(q).evaluate(-1)
    assert regions == (1, 4, 36, 576)[q - 1]


@pytest.mark.parametrize("q", range(1, 5))
def test_walk_gives_independent_sets_in_combinations_order(q):
    # the brute-force vertex oracle, helpers.walk_vertices, keeps the
    # first defining set of each point in this order of independent
    # sets; vertex enumeration itself no longer walks
    walked = sorted((subset for subset, independent, _
                     in independence_walk(q) if independent), key=len)
    direct = [subset for k in range(2 * q + 1)
              for subset in combinations(move_arrangement(q), k)
              if not subset or linalg.rank(
                  [hyperplane_normal(h, q) for h in subset]) == k]
    assert walked == direct


def test_fixation_validation():
    fixation = Fixation("y", 3, 2)
    assert fixation.coordinate == "y_3"
    assert fixation.position() == 5
    assert Fixation("x", 1, 0).position() == 0
    with pytest.raises(ValueError):
        Fixation("z", 1, 0)
    with pytest.raises(ValueError):
        Fixation("x", 0, 0)
    for value in (F(1, 2), F(2), True, 1.0):
        with pytest.raises(ValueError, match="fixation value must be an int"):
            Fixation("x", 1, value)
    # "x_1.0" would name no coordinate of the clique-graph solve
    for index in (1.0, True):
        with pytest.raises(ValueError, match="piece index must be an int"):
            Fixation("x", index, 0)


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


def solved_back(vertex, q):
    """The vertex's own defining set solved through the clique graph."""
    graph = SignedGraph(q, vertex.hyperplanes)
    return solve_via_clique_graph(graph, vertex.fixations).point


@cache
def brute_force_vertices(q):
    """The vertices of every independent set and every fixed set
    (``helpers.walk_vertices``), enumerated once a run."""
    return walk_vertices(q)


@cache
def enumerated_vertices(q):
    """``enumerate_lattice_vertices(q, bound=q)``, once a run."""
    return enumerate_lattice_vertices(q, bound=q)


@pytest.mark.parametrize("q", range(1, 5))
def test_vertices_match_the_walk(q):
    # LatticeVertex equality covers points, hyperplanes and fixations:
    # the symmetry closure finds every vertex and the greedy basis its
    # first defining set in the brute force's order
    assert enumerate_lattice_vertices(q, bound=4) == brute_force_vertices(q)


def test_vertices_four_pieces():
    vertices = enumerate_lattice_vertices(4, bound=4)
    assert len(vertices) == 496
    assert all(0 <= c <= 1 for v in vertices for c in v.point)
    assert verify_half_integrality(vertices)
    assert denominator_lcm(vertices) == 2
    strict = [v for v in vertices
              if any(c.denominator == 2 for c in v.point)]
    assert len(strict) == 240
    assert all(solved_back(v, 4) == v.point for v in vertices)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_vertices_solve_back_through_the_clique_graph(q):
    # a vertex's hyperplanes, read as a signed graph, and its fixations
    # pin the same point on either route, strictly half-integral
    # vertices included
    for vertex in enumerate_lattice_vertices(q):
        assert solved_back(vertex, q) == vertex.point


def fraction_vertices(q):
    """Independent reference: solve each full square system in
    Fractions for the unit right-hand side of each fixation and add
    those columns for every 0/1 choice of fixation values, keeping the
    first defining set of each point."""
    dim = 2 * q
    arrangement = move_arrangement(q)
    found = {}
    for k in range(dim + 1):
        for subset in combinations(arrangement, k):
            normals = [hyperplane_normal(h, q) for h in subset]
            if normals and reference_solve(normals, [0] * k)[0] < k:
                continue
            for fixed in combinations(range(dim), dim - k):
                matrix = [list(row) for row in normals]
                for coordinate in fixed:
                    unit = [0] * dim
                    unit[coordinate] = 1
                    matrix.append(unit)
                if reference_solve(matrix, [0] * dim)[0] < dim:
                    continue
                columns = [reference_solve(matrix, [int(r == k + t)
                                                    for r in range(dim)])[2]
                           for t in range(dim - k)]
                for values in product((0, 1), repeat=dim - k):
                    point = tuple(
                        sum((columns[t][r] for t in range(dim - k)
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
    with pytest.raises(EnumerationBoundExceeded,
                       match="^vertex enumeration for q=4 is above the bound 3$"):
        period_upper_bound(4)
    with pytest.raises(ValueError, match="^q must be at least 1$"):
        period_upper_bound(0)


def flat_blocks(partition):
    """A restricted-growth string as the frozenset of its blocks of
    pieces 1..q, as ``helpers.set_partitions`` writes a partition."""
    return frozenset(frozenset(i for i, b in enumerate(partition, 1)
                               if b == block) for block in set(partition))


def representative_points(q):
    """The points of the cube that the flat orbits' spanning sets pin,
    with every set of fixed coordinates (``helpers.cube_points``), not
    one of each x <-> y pair as the package solves them."""
    return {tuple(Fraction(n, d) for n in numerators)
            for flat in geometry._flat_orbits(q)
            for _, (d, numerators)
            in cube_points(geometry._spanning_set(*flat), q)}


@pytest.mark.parametrize("q", range(1, 6))
def test_orbit_representatives_partition_the_independent_sets(q):
    # each flat's spanning set is independent and spans it; under
    # relabelling and x -> 1 - x, taken by the reference action, the
    # flats' orbits are disjoint and together are the flats that the
    # walk's independent sets span, every pair of partitions
    covered = set()
    for pi, sigma in geometry._flat_orbits(q):
        flat = flat_blocks(pi), flat_blocks(sigma)
        spanning = geometry._spanning_set(pi, sigma)
        assert spanned_flat(spanning, q) == flat
        assert len(spanning) == 2 * q - len(flat[0]) - len(flat[1])
        orbit = flat_orbit(*flat, q)
        assert not orbit & covered
        covered |= orbit
    assert covered == {spanned_flat(subset, q)
                       for subset, m, _ in independence_walk(q) if m} == set(
        product(set_partitions(q), repeat=2))


@pytest.mark.parametrize("q", range(1, 6))
def test_orbit_representatives_match_burnside_counts(q):
    # by rank, the number of hyperplanes in a flat's spanning set
    ranks = Counter(len(geometry._spanning_set(*flat))
                    for flat in geometry._flat_orbits(q))
    assert ranks == partition_pair_orbit_counts(q)


def test_burnside_counts_of_partition_pairs():
    assert [sum(partition_pair_orbit_counts(q).values())
            for q in range(1, 7)] == [1, 3, 7, 21, 54, 167]
    assert sum(1 for _ in geometry._flat_orbits(6)) == 167


@pytest.mark.parametrize("q, joined", [
    (3, {3: 1}), (4, {3: 1, 4: 4}), (5, {3: 1, 4: 4, 5: 17})])
def test_half_integral_flats_by_pieces_joined(q, joined):
    # the flat orbits with a strictly half-integral cube point, by the
    # pieces in a block of two or more of pi or sigma: the least joins
    # three pieces
    counts = Counter()
    for pi, sigma in geometry._flat_orbits(q):
        if any(d == 2 for _, (d, _) in cube_points(
                geometry._spanning_set(pi, sigma), q)):
            counts[sum(pi.count(b) > 1 or sigma.count(c) > 1
                       for b, c in zip(pi, sigma))] += 1
    assert counts == joined


@cache
def flat_denominators(q):
    """Per flat orbit, the D of the system of its spanning set with each
    set of fixed coordinates, in ``combinations`` order and 0 when
    singular: by plain elimination (``_solve``), and by the
    clique-graph criterion (``_fixation_denominators``)."""
    dim = 2 * q
    normals = geometry._normals(q)
    denominators = []
    for flat in geometry._flat_orbits(q):
        subset = geometry._spanning_set(*flat)
        rows = [normals[h] for h in subset]
        sets = list(combinations(range(dim), dim - len(subset)))
        solved = [geometry._solve(rows, fixed, dim) for fixed in sets]
        denominators.append((
            [0 if system is None else system[1] for system in solved],
            list(geometry._fixation_denominators(*flat, sets))))
    return denominators


@pytest.mark.parametrize("q, half", [
    (1, 0), (2, 0), (3, 1), (4, 20), (5, 273)])
def test_clique_graph_criterion_matches_elimination(q, half):
    # on every flat orbit and every set of fixed coordinates, not one of
    # each x <-> y pair: singular (0), D = 1 or D = 2 by a spanning
    # negative 1-forest of Psi, against the D that elimination finds
    for eliminated, criterion in flat_denominators(q):
        assert criterion == eliminated
    assert sum(d > 1 for eliminated, _ in flat_denominators(q)
               for d in eliminated) == half


@pytest.mark.parametrize("q, flats", [(3, 1), (4, 6), (5, 24)])
def test_flats_with_a_half_denominator(q, flats):
    # the flat orbits with a system of D > 1, by elimination and by the
    # criterion; a D = 2 system need not pin a half-integral cube point
    # (test_half_integral_flats_by_pieces_joined: 1, 5 and 22)
    assert sum(any(d > 1 for d in eliminated)
               for eliminated, _ in flat_denominators(q)) == flats
    assert sum(2 in criterion
               for _, criterion in flat_denominators(q)) == flats


@pytest.mark.parametrize("passed, first", [((), "0, 1"), ({(0, 1)}, "0, 2")])
def test_elimination_checks_each_system_the_criterion_keeps(monkeypatch,
                                                           passed, first):
    # every system but the ``passed`` ones called D = 2, on the first
    # flat orbit at q = 2, one block each: fixing x_1 and y_1 closes a
    # negative circle, and piece 2's blocks share its one component, so
    # D = 1; fixing x_1 and x_2 closes a balanced one, singular
    def every_system_halves(pi, sigma, fixed_sets):
        return (0 if fixed in passed else 2 for fixed in fixed_sets)

    monkeypatch.setattr(geometry, "_fixation_denominators",
                        every_system_halves)
    with pytest.raises(AssertionError, match=(
            r"^elimination finds no D = 2 for the fixed coordinates "
            rf"\({first}\) of the flat \(\(0, 0\), \(0, 0\)\)$")):
        period_upper_bound(2)


@pytest.mark.parametrize("q", range(1, 5))
def test_orbit_closure_of_representatives_is_the_vertex_set(q):
    # S_q x D_4 maps vertices to vertices, so the vertices of the
    # flat orbits' spanning sets, with every set of fixed coordinates,
    # and their images by the reference action are every vertex, and
    # only vertices; x <-> y is in D_4, which is why the package may
    # solve one set of each swap pair
    expected = {vertex.point for vertex in brute_force_vertices(q)}
    assert orbit_closure(representative_points(q)) == expected


@pytest.mark.parametrize("q", [1, 2, 3])
def test_square_closure_is_the_reference_orbit(q):
    # each vertex's images alone, against the reference S_q x D_4
    # action: the flat orbits' points already meet every S_q orbit
    # of vertices at q <= 5, so the vertex sets alone do not pin D_4
    for vertex in brute_force_vertices(q):
        d = denominator_lcm([vertex])
        images = geometry._square_closure(
            [(d, tuple(int(c * d) for c in vertex.point))])
        assert {tuple(Fraction(n, e) for n in numerators)
                for e, numerators in images} == orbit_closure([vertex.point])


@pytest.mark.parametrize("q", range(1, 5))
def test_period_upper_bound_matches_brute_force(q):
    assert (period_upper_bound(q, bound=4)
            == denominator_lcm(brute_force_vertices(q)) == (1, 1, 2, 2)[q - 1])


def swap_pieces(point):
    """(x_1, y_1, ..., x_q, y_q) with every (x_i, y_i) mapped by the
    reference (x, y) -> (y, x)."""
    swap = SQUARE_SYMMETRIES[4]
    return tuple(c for x, y in zip(point[::2], point[1::2])
                 for c in swap(x, y))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_swapped_fixations_pin_the_swapped_points(q):
    # x_i <-> y_i fixes every attack hyperplane and the cube, so the
    # points of a set with fixed coordinates F are the images of its
    # points with F swapped: the premise of solving one of each pair
    dim = 2 * q
    for subset, independent, _ in independence_walk(q):
        if not independent:
            continue
        points = {}
        for fixed, (d, numerators) in cube_points(subset, q):
            points.setdefault(fixed, set()).add(
                tuple(Fraction(n, d) for n in numerators))
        for fixed in combinations(range(dim), dim - len(subset)):
            marks = swap_pieces(tuple(int(c in fixed) for c in range(dim)))
            image = tuple(c for c, mark in enumerate(marks) if mark)
            assert points.get(image, set()) == {
                swap_pieces(point) for point in points.get(fixed, set())}


# both vertex searches, at a bound that admits q <= 4
VERTEX_SEARCHES = pytest.mark.parametrize("search", [
    lambda q: period_upper_bound(q, bound=4),
    lambda q: enumerate_lattice_vertices(q, bound=4),
], ids=["period_upper_bound", "enumerate_lattice_vertices"])


def count_solves(monkeypatch) -> list[int]:
    """A one-item list that counts the calls of the int-only solve."""
    solves = [0]
    solve = linalg._solve_augmented

    def counted_solve(rows, size):
        solves[0] += 1
        return solve(rows, size)

    monkeypatch.setattr(linalg, "_solve_augmented", counted_solve)
    return solves


def count_filters(monkeypatch) -> list[int]:
    """The D of each system that goes through the cube filter."""
    filters = []
    cube_filter = geometry._cube_filter

    def counted_filter(*system):
        filters.append(system[2])
        return cube_filter(*system)

    monkeypatch.setattr(geometry, "_cube_filter", counted_filter)
    return filters


@VERTEX_SEARCHES
def test_vertex_searches_solve_and_filter_the_same_systems(monkeypatch,
                                                           search):
    # one rule for both searches: each flat orbit's spanning set, with
    # one set of fixed coordinates per swap pair, solved and filtered
    # only where the clique-graph criterion gives D = 2, since a
    # singular system pins nothing and a D = 1 one only corners
    solves, filters = count_solves(monkeypatch), count_filters(monkeypatch)
    counts = []
    for q in range(1, 5):
        solves[0] = 0
        filters.clear()
        search(q)
        assert all(d == 2 for d in filters)
        counts.append((solves[0], len(filters)))
    assert counts == [(0, 0), (0, 0), (1, 1), (13, 13)]


def test_period_upper_bound_at_five_pieces(monkeypatch):
    # 54 flat orbits of the 2,704 flats; the bound is the denominator
    # lcm of the vertices that enumeration closes
    solves, filters = count_solves(monkeypatch), count_filters(monkeypatch)
    period = period_upper_bound(5, bound=5)
    assert (solves[0], len(filters)) == (148, 148)
    assert period == 2 == denominator_lcm(enumerated_vertices(5))


def test_period_upper_bound_at_six_pieces(monkeypatch):
    # 167 flat orbits of the 41,209 flats, one system of each x <-> y
    # pair of fixed-coordinate sets
    solves, filters = count_solves(monkeypatch), count_filters(monkeypatch)
    assert period_upper_bound(6, bound=6) == 2
    assert (solves[0], len(filters)) == (1804, 1804)


def test_period_upper_bound_at_seven_pieces(monkeypatch):
    # 491 flat orbits of the 769,129 flats: of the 629,863 systems of one
    # of each x <-> y pair, 534,460 are singular, 76,305 have D = 1 and
    # only the other 19,098 are solved; about 8 s
    solves, filters = count_solves(monkeypatch), count_filters(monkeypatch)
    assert period_upper_bound(7, bound=7) == 2
    assert (solves[0], len(filters)) == (19098, 19098)


def test_vertices_at_six_pieces():
    # 5^6 - 2 3^6 + 2^7 + 1 points, all half-integral with matched pairs
    vertices = enumerated_vertices(6)
    assert len(vertices) == 14296 == 5 ** 6 - 2 * 3 ** 6 + 2 ** 7 + 1
    assert denominator_lcm(vertices) == 2
    assert verify_half_integrality(vertices)


@pytest.mark.parametrize("q, count", [
    (1, 4), (2, 16), (3, 88), (4, 496), (5, 2704), (6, 14296)])
def test_closed_form_is_the_vertex_set(q, count):
    # each piece at a corner or the center, a center piece with an A
    # corner piece and a B corner piece: 5^q - 2 3^q + 2^(q+1) + 1
    # points, by a route that shares no code with the package
    closed_form = closed_form_vertices(q)
    assert len(closed_form) == count == 5 ** q - 2 * 3 ** q + 2 ** (q + 1) + 1
    assert {vertex.point for vertex in enumerated_vertices(q)} == closed_form


def test_vertices_at_five_pieces():
    # the brute force over every independent set took 943 s of CPU
    vertices = enumerated_vertices(5)
    assert len(vertices) == 2704
    assert sum(all(c.denominator == 1 for c in v.point)
               for v in vertices) == 1024
    assert denominator_lcm(vertices) == 2
    assert verify_half_integrality(vertices)
    assert all(solved_back(v, 5) == v.point for v in vertices)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_vertices_at_five_pieces_are_pinned():
    # points, hyperplanes and fixations as 781b687 gave them, where the
    # walk oracle of test_vertices_match_the_walk does not reach
    assert sha256("".join(
        repr((v.point, v.hyperplanes, v.fixations)) + "\n"
        for v in enumerated_vertices(5))) == (
        "b7dc0ba21a4595ee91fc58284fca990a0b2414028b4ff7a4697bcd7e0b368547")


@VERTEX_SEARCHES
def test_vertex_enumeration_builds_each_normal_once(monkeypatch, search):
    # one normal table per search, for the flat orbits' systems and, in
    # enumeration, the defining sets: 12 at q = 4
    calls = []
    honest = geometry.hyperplane_normal

    def counted(edge, q):
        calls.append(edge)
        return honest(edge, q)

    monkeypatch.setattr(geometry, "hyperplane_normal", counted)
    search(4)
    assert len(calls) == 12


def test_defining_set_names_a_point_that_no_system_pins():
    # (1/2, 1/2) lies on no facet, and one piece has no hyperplanes
    with pytest.raises(AssertionError,
                       match=r"^no system pins the point \(1/2, 1/2\)$"):
        geometry._defining_set((2, (1, 1)), geometry._normals(1))


@pytest.mark.skipif(not os.environ.get("BISHOPS_SLOW"),
                    reason="opt-in, about 30 s: set BISHOPS_SLOW=1")
def test_orbit_closure_at_five_pieces():
    # the closure by the reference action of the flat orbits' points,
    # against the closure that vertex enumeration computes
    assert orbit_closure(representative_points(5)) == {
        vertex.point for vertex in enumerated_vertices(5)}


def test_half_integrality_rejects_bad_points():
    third = LatticeVertex((F(1, 3), F(1, 3)), (), ())
    assert not verify_half_integrality([third])
    unmatched = LatticeVertex((F(1, 2), F(1)), (), ())
    assert not verify_half_integrality([unmatched])
    assert verify_half_integrality([])
    assert denominator_lcm([]) == 1


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


def test_clique_solve_builds_one_signed_graph(monkeypatch):
    # Psi comes straight from the clique graph, so the solve validates
    # no doubled clique graph besides it
    graph = example_clique_fixture()
    built = []
    validate = SignedGraph.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(SignedGraph, "__post_init__", counted)
    fixations = [Fixation(axis, index, 0)
                 for axis, index in FIXTURE_FIXATION_COORDINATES]
    solve_via_clique_graph(graph, fixations)
    assert [(psi.q, len(psi.edges)) for psi in built] == [(7, 7)]


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
    with pytest.raises(ValueError, match="not float"):
        solve_incidence_transpose(digon, [0.5, 1])
    with pytest.raises(SingularFixationError):
        solve_incidence_transpose(square_balanced, [1, 1])


@pytest.mark.parametrize("corrupt, message", [
    # a clique value off by one moves a fixed coordinate
    ("shift", "fixation .* violated"),
    # a clique value off by a half breaks the paired denominators
    ("half", "both strict halves"),
    # reading an edge's equation with the other sign mixes up the two
    # diagonal families
    ("flip-sign", "off the equation of edge"),
])
def test_clique_solve_rechecks_catch_a_corrupted_solve(
        monkeypatch, corrupt, message):
    honest = geometry._solve_transpose

    def shifted(graph, rhs):
        values = honest(graph, rhs)
        values[0] += 1 if corrupt == "shift" else F(1, 2)
        return values

    if corrupt == "flip-sign":
        honest_normal = geometry.hyperplane_normal
        monkeypatch.setattr(geometry, "hyperplane_normal",
                            lambda edge, q: honest_normal(
                                (edge[0], edge[1], -edge[2]), q))
    else:
        monkeypatch.setattr(geometry, "_solve_transpose", shifted)
    graph = example_clique_fixture()
    fixations = [Fixation(axis, index, value)
                 for (axis, index), value
                 in zip(FIXTURE_FIXATION_COORDINATES, (1, 0, 1, 0, 1, 1, 0))]
    with pytest.raises(AssertionError, match=message):
        solve_via_clique_graph(graph, fixations)


def test_negative_one_forest_determinant_counts_components():
    # Lemma: a negative 1-forest's square incidence matrix has
    # |det H| = 2^c, one factor 2 per component's negative circle
    rng = Random(5)
    for _ in range(60):
        forest = random_negative_one_forest(rng)
        det = reference_det(signed_graph.incidence_matrix(forest))
        assert abs(det) == 2 ** len(signed_graph.components(forest))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_solve_incidence_transpose_half_integrality(seed, data):
    # Zaslavsky, "Signed graphs" (1982): a negative 1-forest's incidence
    # matrix has |det H| = 2^c, so H^T w = b solves in half-integers for
    # every integral b, and in integers for 2b
    forest = random_negative_one_forest(Random(seed))
    rhs = data.draw(st.lists(st.integers(-50, 50),
                             min_size=forest.q, max_size=forest.q))
    solution = solve_incidence_transpose(forest, rhs)
    transposed = [list(column) for column
                  in zip(*signed_graph.incidence_matrix(forest))]
    assert reference_solve(transposed, rhs) == (
        forest.q, linalg.UNIQUE, solution)
    assert all(2 % value.denominator == 0 for value in solution)
    doubled = solve_incidence_transpose(forest, [2 * v for v in rhs])
    assert all(value.denominator == 1 for value in doubled)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_solve_incidence_transpose_fraction_rhs(seed, data):
    # rational right-hand sides take the row-scaling path of the solve
    forest = random_negative_one_forest(Random(seed))
    rhs = data.draw(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=forest.q, max_size=forest.q))
    transposed = [list(column) for column
                  in zip(*signed_graph.incidence_matrix(forest))]
    assert reference_solve(transposed, rhs) == (
        forest.q, linalg.UNIQUE, solve_incidence_transpose(forest, rhs))


NEGATIVE_DIGON = SignedGraph(2, ((1, 2, POSITIVE), (1, 2, NEGATIVE)))
POSITIVE_DIGON = SignedGraph(2, ((1, 2, POSITIVE), (1, 2, POSITIVE)))


def test_each_solve_eliminates_once(monkeypatch):
    calls = []
    original = linalg.solve_integral

    def counted(rows, rhs):
        calls.append(len(rows))
        return original(rows, rhs)

    monkeypatch.setattr(linalg, "solve_integral", counted)
    solve_incidence_transpose(NEGATIVE_DIGON, [0, 1])
    assert len(calls) == 1
    fixations = [Fixation(axis, index, 0)
                 for axis, index in FIXTURE_FIXATION_COORDINATES]
    solve_via_clique_graph(example_clique_fixture(), fixations)
    assert len(calls) == 2
    assert is_negative_one_forest(NEGATIVE_DIGON)
    assert len(calls) == 3
    assert not is_negative_one_forest(POSITIVE_DIGON)
    assert len(calls) == 4


@pytest.mark.parametrize("offset, solve", [
    # a negative 1-forest reported one short of full rank
    (-1, lambda: solve_incidence_transpose(NEGATIVE_DIGON, [0, 1])),
    (-1, lambda: solve_via_clique_graph(
        NEGATIVE_DIGON, [Fixation("x", 1, 0), Fixation("y", 2, 0)])),
    # a positive digon, whose matrix is singular, reported at full rank
    (0, lambda: solve_incidence_transpose(POSITIVE_DIGON, [0, 1])),
    (0, lambda: solve_via_clique_graph(
        NEGATIVE_DIGON, [Fixation("x", 1, 0), Fixation("x", 2, 0)])),
    (-1, lambda: is_negative_one_forest(NEGATIVE_DIGON)),
    (0, lambda: is_negative_one_forest(POSITIVE_DIGON)),
])
def test_solvers_check_recognition_against_their_elimination(
        monkeypatch, offset, solve):
    monkeypatch.setattr(signed_graph, "rank", lambda graph: graph.q + offset)
    with pytest.raises(AssertionError, match="disagrees"):
        solve()
