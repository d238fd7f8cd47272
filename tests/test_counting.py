"""Counters: brute-force oracle vs the fast dynamic program."""

import json
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bishops import (
    BISHOP,
    Configuration,
    SearchBudgetExceeded,
    Square,
    count_bishops_fast,
    count_labelled,
    count_unlabelled,
    count_unlabelled_naive,
    is_nonattacking,
    parse_rider,
    sample_counts,
)


def count_by_definition(rider, q: int, n: int) -> int:
    """Slowest possible reference: filter all q-subsets of the board."""
    squares = [Square(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return sum(
        1 for subset in combinations(squares, q)
        if is_nonattacking(Configuration(subset, n), rider)
    )


def test_naive_matches_definition_small():
    for q in range(0, 4):
        for n in range(0, 5):
            assert (count_unlabelled_naive(BISHOP, q, n)
                    == count_by_definition(BISHOP, q, n)), (q, n)


def test_naive_matches_definition_rook():
    rook = parse_rider("1,0;0,1")
    for q in range(0, 4):
        for n in range(0, 5):
            assert (count_unlabelled_naive(rook, q, n)
                    == count_by_definition(rook, q, n)), (q, n)


def test_rook_counts_are_binomial_squared_times_factorial():
    # q nonattacking rooks on n x n: C(n,q)^2 * q!
    rook = parse_rider("1,0;0,1")
    for n in range(0, 6):
        for q in range(0, n + 1):
            binom = factorial(n) // (factorial(q) * factorial(n - q))
            assert (count_unlabelled_naive(rook, q, n)
                    == binom * binom * factorial(q))


def test_fast_matches_naive_exhaustive():
    for q in range(0, 4):
        for n in range(0, 7):
            assert (count_bishops_fast(q, n)
                    == count_unlabelled_naive(BISHOP, q, n)), (q, n)


def test_degenerate_cases():
    assert count_bishops_fast(0, 5) == 1
    assert count_bishops_fast(0, 0) == 1
    assert count_bishops_fast(3, 0) == 0
    assert count_bishops_fast(2, 1) == 0
    assert count_unlabelled_naive(BISHOP, 2, 1) == 0
    with pytest.raises(ValueError):
        count_bishops_fast(-1, 3)
    with pytest.raises(ValueError):
        count_unlabelled_naive(BISHOP, 1, -2)


def test_known_values():
    assert count_bishops_fast(1, 8) == 64
    assert count_bishops_fast(2, 2) == 4
    assert count_bishops_fast(2, 3) == 26
    assert count_bishops_fast(2, 4) == 92
    assert count_bishops_fast(2, 5) == 240


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=7))
def test_fast_matches_naive_property(q, n):
    assert count_bishops_fast(q, n) == count_unlabelled_naive(BISHOP, q, n)


def test_monotone_in_board_size():
    for q in range(1, 5):
        previous = 0
        for n in range(0, 12):
            current = count_bishops_fast(q, n)
            assert current >= previous
            previous = current


def test_budget_enforced():
    with pytest.raises(SearchBudgetExceeded):
        count_unlabelled_naive(BISHOP, 3, 6, node_budget=5)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_negative_budget_rejected_for_every_q(q):
    with pytest.raises(ValueError, match="node budget must be nonnegative"):
        count_unlabelled_naive(parse_rider("1,0;0,1"), q, 3, node_budget=-5)


def test_count_unlabelled_dispatch():
    rook = parse_rider("1,0;0,1")
    assert count_unlabelled(BISHOP, 2, 3) == 26
    assert count_unlabelled(BISHOP, 2, 3, method="naive") == 26
    assert count_unlabelled(rook, 2, 3, method="auto") == 18
    with pytest.raises(ValueError):
        count_unlabelled(rook, 2, 3, method="fast")
    with pytest.raises(ValueError):
        count_unlabelled(BISHOP, 2, 3, method="guess")


def test_count_labelled_is_factorial_multiple():
    for q in range(0, 4):
        for n in range(0, 5):
            assert (count_labelled(BISHOP, q, n)
                    == factorial(q) * count_unlabelled(BISHOP, q, n))


def test_sample_counts_table():
    table = sample_counts(BISHOP, 2, 1, 4, "fast")
    assert table.entries == {1: 0, 2: 4, 3: 26, 4: 92}
    assert table.rider == "bishop"
    assert table.q == 2
    assert table.method == "fast"
    # "auto" is the default and the table records what it resolved to
    assert sample_counts(BISHOP, 2, 1, 4) == table
    assert sample_counts(BISHOP, 2, 1, 4, "auto") == table
    rook = sample_counts(parse_rider("1,0;0,1"), 2, 2, 3)
    assert rook.method == "naive"
    assert rook.entries == {2: 2, 3: 18}


def test_sample_counts_validation():
    with pytest.raises(ValueError):
        sample_counts(BISHOP, 2, 5, 3, "fast")
    with pytest.raises(ValueError):
        sample_counts(BISHOP, 2, 1, 3, "wrong")
    with pytest.raises(ValueError):
        sample_counts(parse_rider("1,0"), 2, 1, 3, "fast")
    with pytest.raises(ValueError, match="n_from"):
        sample_counts(BISHOP, 2, 5, 3, "auto")
    with pytest.raises(SearchBudgetExceeded):
        sample_counts(parse_rider("1,0"), 3, 5, 6, "auto", node_budget=4)


def test_csv_format():
    table = sample_counts(BISHOP, 2, 2, 3, "fast")
    assert table.to_csv() == "n,count\r\n2,4\r\n3,26\r\n"


def test_json_format_counts_are_strings():
    table = sample_counts(BISHOP, 2, 2, 3, "fast")
    payload = json.loads(table.to_json())
    assert payload["rider"] == "bishop"
    assert payload["q"] == 2
    assert payload["method"] == "fast"
    assert payload["counts"] == {"2": "4", "3": "26"}
