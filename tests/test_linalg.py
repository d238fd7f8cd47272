"""Exact linear algebra: the fraction-free kernel against Fraction
references."""

from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bishops import linalg

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


def reference_solve(rows, rhs) -> tuple[int, str, list[Fraction] | None]:
    """(rank, solve status, point) by plain Fraction reduced row-echelon
    form, normalizing each pivot row by its pivot."""
    m = [[Fraction(entry) for entry in row] + [Fraction(value)]
         for row, value in zip(rows, rhs)]
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(n_cols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        m[row] = [entry / m[row][col] for entry in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
    if any(m[r][n_cols] != 0 for r in range(len(pivots), len(m))):
        return len(pivots), linalg.INCONSISTENT, None
    if len(pivots) < n_cols:
        return len(pivots), linalg.UNDERDETERMINED, None
    return len(pivots), linalg.UNIQUE, [row[n_cols] for row in m[:n_cols]]


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


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        linalg.det([[1, 2, 3], [4, 5, 6]])


def test_empty_matrix():
    assert linalg.det([]) == 1
    assert linalg.invert([]) == []
    assert linalg.solve([], []) == linalg.Solution(linalg.UNIQUE, [])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda size: st.one_of(square_matrices(size),
                           square_matrices(size, entries))))
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
def square_systems(draw):
    """A square matrix up to 6 x 6, of ints or of ints and fractions,
    sometimes with dependent rows, and 0-3 right-hand columns."""
    size = draw(st.integers(min_value=0, max_value=6))
    width = draw(st.integers(min_value=0, max_value=3))
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
