"""Exact linear algebra: the fraction-free kernel against Fraction
references."""

from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bishops import linalg
from bishops.signed_graph import (
    NEGATIVE,
    POSITIVE,
    SignedGraph,
    incidence_matrix,
)

from helpers import reference_solve

small_int = st.integers(min_value=-6, max_value=6)
small_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=6)
entries = st.one_of(small_int, small_fraction)


def square_matrices(size: int, elements=small_int):
    return st.lists(
        st.lists(elements, min_size=size, max_size=size),
        min_size=size, max_size=size)


def leibniz_det(rows) -> Fraction:
    """Sum over permutations of signed products of entries."""
    size = len(rows)
    total = Fraction(0)
    for perm in permutations(range(size)):
        inversions = sum(1 for a in range(size) for b in range(a + 1, size)
                         if perm[a] > perm[b])
        term = prod((Fraction(rows[i][perm[i]]) for i in range(size)),
                    start=Fraction(1))
        total += -term if inversions % 2 else term
    return total


def make_dependent(draw, rows) -> None:
    """Replace some rows, each by a combination k*row_a + row_b of
    earlier rows."""
    for target in range(1, len(rows)):
        if draw(st.booleans()):
            a = draw(st.integers(min_value=0, max_value=target - 1))
            b = draw(st.integers(min_value=0, max_value=target - 1))
            k = draw(small_int)
            rows[target] = [k * x + y for x, y in zip(rows[a], rows[b])]


@st.composite
def dependent_systems(draw):
    """Up to 6 x 6 systems in which some rows are combinations
    k*row_a + row_b of earlier rows; the right-hand side is either
    arbitrary or A times a drawn point, so all three statuses occur."""
    n_rows = draw(st.integers(min_value=0, max_value=6))
    n_cols = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    make_dependent(draw, rows)
    if draw(st.booleans()):
        point = draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
        rhs = [sum((a * x for a, x in zip(row, point)), Fraction(0))
               for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=n_rows, max_size=n_rows))
    return rows, rhs


@st.composite
def stacked_rows(draw):
    """Up to 8 x 8 matrices of ints or of ints and fractions, in which
    some rows are combinations of earlier rows."""
    n_rows = draw(st.integers(min_value=0, max_value=8))
    n_cols = draw(st.integers(min_value=0, max_value=8))
    elements = draw(st.sampled_from([small_int, entries]))
    rows = draw(st.lists(st.lists(elements, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    make_dependent(draw, rows)
    return rows


@settings(max_examples=200, deadline=None)
@given(stacked_rows())
@example([[0, 0], [1, 2], [2, 4], [0, 3]])
def test_reduce_row_grows_a_basis_of_the_rank(rows):
    basis = []
    for at, row in enumerate(rows):
        # clear denominators; the span is unchanged
        scale = lcm(*(Fraction(entry).denominator for entry in row))
        reduced = linalg.reduce_row(
            basis, [int(entry * scale) for entry in row])
        if reduced is not None:
            pivot, kept = reduced
            assert any(kept)
            assert kept[pivot] and not any(kept[:pivot])
            assert all(kept[col] == 0 for col, _ in basis)
            basis.append(reduced)
        assert len(basis) == linalg.rank(rows[:at + 1])


def test_rank_basics():
    assert linalg.rank([]) == 0
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 2, 3], [4, 5, 6]]) == 2


def test_det_known_values():
    assert linalg.det([[Fraction(1)]]) == 1
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert linalg.det([[1, 2], [2, 4]]) == 0


def test_det_row_swap_flips_sign():
    assert linalg.det([[0, 1], [1, 0]]) == -1


def test_invert_singular_is_none():
    assert linalg.invert([[1, 2], [2, 4]]) is None


@settings(max_examples=150, deadline=None)
@given(square_matrices(3))
def test_invert_round_trip(rows):
    inverse = linalg.invert(rows)
    if inverse is None:
        assert linalg.det(rows) == 0
        return
    n = len(rows)
    product = [
        [sum(Fraction(rows[i][k]) * inverse[k][j] for k in range(n))
         for j in range(n)]
        for i in range(n)
    ]
    assert product == [[1 if i == j else 0 for j in range(n)]
                       for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(square_matrices(3), st.lists(small_int, min_size=3, max_size=3))
def test_solve_agrees_with_substitution(rows, rhs):
    solution = linalg.solve(rows, rhs)
    if solution.status == linalg.UNIQUE:
        product = [sum(Fraction(a) * x for a, x in zip(row, solution.point))
                   for row in rows]
        assert product == [Fraction(v) for v in rhs]
    else:
        assert linalg.det(rows) == 0


def test_solve_inconsistent():
    solution = linalg.solve([[1, 1], [1, 1]], [0, 1])
    assert solution.status == linalg.INCONSISTENT
    assert solution.point is None


def test_solve_underdetermined():
    solution = linalg.solve([[1, 1], [2, 2]], [3, 6])
    assert solution.status == linalg.UNDERDETERMINED


def test_solve_rectangular_overdetermined():
    solution = linalg.solve([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
    assert solution.status == linalg.UNIQUE
    assert solution.point == [2, 3]


def test_solve_rejects_a_short_right_hand_side():
    with pytest.raises(ValueError, match="one right-hand side entry per "
                                         "equation"):
        linalg.solve([[1, 0], [0, 1]], [1])


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        linalg.det([[1, 2, 3], [4, 5, 6]])


def test_empty_matrix():
    assert linalg.det([]) == 1
    assert linalg.invert([]) == []
    assert linalg.solve([], []) == linalg.Solution(linalg.UNIQUE, [])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda size: st.one_of(square_matrices(size),
                           square_matrices(size, entries))))
# the pivots fall in columns 1, 2, 0: an even order, +1
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
# one transposition of the 4 x 4 identity: an odd order, -1
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
@example([[0, 0, 2], [0, 3, 0], [5, 0, 0]])
# the first row pivots in its tag column
@example([[0, 0], [1, 2]])
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
def test_det_matches_leibniz(rows):
    assert linalg.det(rows) == leibniz_det(rows)


@settings(max_examples=150, deadline=None)
@given(dependent_systems())
@example(([[1, 0], [0, 1], [1, 1]], [2, 3, 5]))
@example(([[1, 1], [1, 1]], [0, 1]))
@example(([[1, 2, 3], [2, 4, 6]], [1, 2]))
def test_rank_and_solve_match_fraction_reference(system):
    rows, rhs = system
    expected_rank, status, point = reference_solve(rows, rhs)
    assert linalg.rank(rows) == expected_rank
    assert linalg.solve(rows, rhs) == linalg.Solution(status, point)


@settings(max_examples=150, deadline=None)
@given(square_matrices(3, entries))
def test_invert_round_trip_fractions(rows):
    inverse = linalg.invert(rows)
    if inverse is None:
        assert leibniz_det(rows) == 0
        return
    n = len(rows)
    product = [[sum(rows[i][k] * inverse[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
    assert product == [[1 if i == j else 0 for j in range(n)]
                       for i in range(n)]


@st.composite
def square_systems(draw, elements=None):
    """A square matrix up to 6 x 6, of ints or of ints and fractions
    unless ``elements`` is given, sometimes with dependent rows, and 0-3
    right-hand columns."""
    size = draw(st.integers(min_value=0, max_value=6))
    width = draw(st.integers(min_value=0, max_value=3))
    if elements is None:
        elements = draw(st.sampled_from([small_int, entries]))
    rows = draw(square_matrices(size, elements))
    if draw(st.booleans()):
        make_dependent(draw, rows)
    rhs = draw(st.lists(st.lists(elements, min_size=width, max_size=width),
                        min_size=size, max_size=size))
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(square_systems())
@example(([], []))
@example(([[0]], [[1]]))
@example(([[-2]], [[3, 0, -1]]))
@example(([[Fraction(1, 3)]], [[]]))
def test_solve_integral_is_the_scaled_solution(system):
    rows, rhs = system
    size = len(rows)
    solved = linalg.solve_integral(rows, rhs)
    if reference_solve(rows, [0] * size)[0] < size:
        assert solved is None
        return
    d, numerators = solved
    assert type(d) is int and d > 0
    assert all(type(entry) is int for row in numerators for entry in row)
    assert [len(row) for row in numerators] == [len(row) for row in rhs]
    product = [[sum(rows[i][k] * numerators[k][j] for k in range(size))
                for j in range(len(row))] for i, row in enumerate(rhs)]
    assert product == [[d * entry for entry in row] for row in rhs]


def test_solve_integral_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        linalg.solve_integral([[1, 2]], [[1]])
    with pytest.raises(ValueError, match="one right-hand side row"):
        linalg.solve_integral([[1]], [])
    with pytest.raises(ValueError, match="square"):
        linalg.invert([[1, 2, 3], [4, 5, 6]])


@st.composite
def incidence_transposes(draw):
    """H^T of a random signed graph with as many edges as nodes, 2 to 7,
    and one or two integer right-hand columns: square, sparse, and
    singular whenever some component is balanced."""
    q = draw(st.integers(min_value=2, max_value=7))
    edges = []
    for _ in range(q):
        i = draw(st.integers(min_value=1, max_value=q))
        offset = draw(st.integers(min_value=1, max_value=q - 1))
        sign = draw(st.sampled_from((POSITIVE, NEGATIVE)))
        edges.append((i, (i - 1 + offset) % q + 1, sign))
    graph = SignedGraph(q, tuple(edges))
    rows = [list(column) for column in zip(*incidence_matrix(graph))]
    width = draw(st.integers(min_value=1, max_value=2))
    rhs = draw(st.lists(st.lists(small_int, min_size=width, max_size=width),
                        min_size=q, max_size=q))
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(incidence_transposes())
# a repeated negative edge: the second row's pivot lands in the rhs
@example(([[1, 1], [1, 1]], [[0], [1]]))
# a dependent row that is not last: the second row vanishes outright
@example(([[1, 1, 0], [1, 1, 0], [0, 1, 1]], [[1], [1], [2]]))
# a dependent first row: the positive triangle, edge (1, 3) first
@example(([[1, 0, -1], [1, -1, 0], [0, 1, -1]], [[1], [2], [3]]))
# the second row reduces to the pivot -2, which then clears the first
@example(([[1, 1], [1, -1]], [[1, 0], [0, 1]]))
# two components: the second row has nothing to clear in back
# substitution, which leaves it as the forward pass left it
@example(([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]],
          [[1], [2], [3], [4]]))
def test_solve_integral_on_incidence_transposes(system):
    rows, rhs = system
    size = len(rows)
    solved = linalg.solve_integral(rows, rhs)
    references = [reference_solve(rows, [b[c] for b in rhs])
                  for c in range(len(rhs[0]))]
    if references[0][0] < size:
        assert solved is None
        return
    d, numerators = solved
    assert type(d) is int and d > 0
    for c, (_, status, point) in enumerate(references):
        assert status == linalg.UNIQUE
        assert [Fraction(row[c], d) for row in numerators] == point


@settings(max_examples=300, deadline=None)
@given(st.one_of(square_systems(small_int), incidence_transposes()))
@example(([], []))
@example(([[0]], [[1]]))
# a dependent first row: the second row's pivot falls in the rhs
@example(([[1, 1], [1, 1]], [[0], [1]]))
@example(([[1, -1, 0], [0, 1, -1], [1, 0, -1]], [[1, 0], [0, 1], [1, 2]]))
# nonsingular, with back substitution into every row
@example(([[1, 1], [1, -1]], [[1, 0], [0, 1]]))
def test_int_entry_matches_solve_integral(system):
    # the augmented int rows that vertex enumeration and the period
    # bound build go through the same body past the checks
    rows, rhs = system
    augmented = [[*row, *b] for row, b in zip(rows, rhs)]
    assert (linalg._solve_augmented(augmented, len(rows))
            == linalg.solve_integral(rows, rhs))


def test_ragged_rows_are_refused():
    with pytest.raises(ValueError, match="same length"):
        linalg.rank([[1, 2], [3]])
    with pytest.raises(ValueError, match="same length"):
        linalg.solve_integral([[1, 0], [0]], [[1], [1]])
    with pytest.raises(ValueError, match="same length"):
        linalg.solve_integral([[1, 0], [0, 1]], [[1], [1, 2]])


def test_ints_mix_with_whole_fractions():
    assert linalg.rank([[1, Fraction(2, 1)], [Fraction(2, 1), 4]]) == 1
    assert linalg.rank([[1, Fraction(2, 1)], [Fraction(3, 1), 4]]) == 2
    d, numerators = linalg.solve_integral(
        [[2, Fraction(1, 1)], [Fraction(1, 1), 1]], [[Fraction(3, 1)], [2]])
    assert [Fraction(row[0], d) for row in numerators] == [1, 1]


@pytest.mark.parametrize("bad_row, name", [
    pytest.param([0.5, 1], "float", id="0.5"),
    pytest.param([2.0, 1], "float", id="2.0"),
    pytest.param([Decimal(1), 1], "Decimal", id="1"),
    # rows whose sum itself raises TypeError
    pytest.param([Fraction(1, 2), Decimal(1)], "Decimal", id="half-Decimal"),
    pytest.param([1, None], "NoneType", id="None"),
    pytest.param([Fraction(1, 2), "a"], "str", id="half-str"),
])
@pytest.mark.parametrize("call", [
    lambda m: linalg.rank(m),
    lambda m: linalg.det(m),
    lambda m: linalg.solve(m, [1, 1]),
    lambda m: linalg.invert(m),
    lambda m: linalg.solve_integral(m, [[1], [1]]),
], ids=["rank", "det", "solve", "invert", "solve_integral"])
def test_inexact_entries_are_refused(call, bad_row, name):
    with pytest.raises(ValueError,
                       match=f"must be int or Fraction, not {name}$"):
        call([[1, 2], bad_row])


def test_every_entry_point_runs_on_reduce_row(monkeypatch):
    calls = []
    original = linalg.reduce_row

    def counted(basis, row):
        calls.append(len(basis))
        return original(basis, row)

    monkeypatch.setattr(linalg, "reduce_row", counted)
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    for call in (lambda: linalg.rank(rows), lambda: linalg.det(rows),
                 lambda: linalg.solve(rows, [1, 2, 3]),
                 lambda: linalg.invert(rows)):
        calls.clear()
        call()
        assert calls
    for size in range(1, 6):
        calls.clear()
        # nonsingular: the eigenvalues are 1 and size + 1
        rows = [[1 + (r == c) for c in range(size)] for r in range(size)]
        assert linalg.solve_integral(rows, [[1]] * size) is not None
        # size forward reductions, then size - 1 back substitutions
        assert len(calls) == 2 * size - 1
