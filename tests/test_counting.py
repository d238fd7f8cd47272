"""Counters: brute-force oracle vs the fast dynamic program."""

import json
from itertools import combinations
from math import factorial

import pytest
from hypothesis import example, given, settings
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
from bishops import counting


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


def test_budget_charges_square_pairs_before_building_masks(monkeypatch):
    def no_attacks(*_):
        raise AssertionError("attack masks built despite the budget")

    monkeypatch.setattr(counting, "attacks", no_attacks)
    rook = parse_rider("1,0;0,1")
    # 1600 squares make 1,279,200 pairs, far over a budget of 1
    with pytest.raises(SearchBudgetExceeded,
                       match="exceeded the budget of 1 nodes"):
        count_unlabelled_naive(rook, 1, 40, node_budget=1)
    # 9 squares make 36 pairs; one piece places no searched node
    with pytest.raises(SearchBudgetExceeded):
        count_unlabelled_naive(rook, 1, 3, node_budget=35)
    monkeypatch.undo()
    assert count_unlabelled_naive(rook, 1, 3, node_budget=36) == 9
    # nothing is charged when no masks are needed
    assert count_unlabelled_naive(rook, 0, 40, node_budget=0) == 1
    assert count_unlabelled_naive(rook, 10, 3, node_budget=0) == 0


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


def per_n_bishop_count(q: int, n: int) -> int:
    """The per-n dynamic program the table builder replaced: sort each
    parity class's column lengths and build both rook profiles afresh."""
    if q == 0:
        return 1
    if n == 0:
        return 0
    even = [n] + [n - 2 * k for k in range(1, (n - 1) // 2 + 1) for _ in (0, 1)]
    odd = [n - (2 * k - 1) for k in range(1, n // 2 + 1) for _ in (0, 1)]
    profiles = []
    for lengths in (even, odd):
        counts = [1] + [0] * q
        for length in sorted(lengths):
            for j in range(min(q, length) - 1, -1, -1):
                counts[j + 1] += counts[j] * (length - j)
        profiles.append(counts)
    first, second = profiles
    return sum(first[j] * second[q - j] for j in range(q + 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=40))
@example(q=3, n_from=0, width=0)  # one board size: one chain only
@example(q=3, n_from=1, width=0)
@example(q=3, n_from=0, width=1)  # both chains, one size each
@example(q=3, n_from=1, width=1)
@example(q=3, n_from=0, width=2)  # the first chain grows once
@example(q=3, n_from=1, width=2)
@example(q=0, n_from=0, width=5)
@example(q=12, n_from=0, width=40)
def test_table_matches_per_n_dp(q, n_from, width):
    """``width`` is n_to - n_from."""
    n_to = n_from + width
    table = sample_counts(BISHOP, q, n_from, n_to, "fast")
    expected = {n: per_n_bishop_count(q, n) for n in range(n_from, n_to + 1)}
    assert table.entries == expected
    assert list(table.entries) == list(expected)


def test_table_matches_per_n_dp_large_q():
    table = sample_counts(BISHOP, 64, 1, 256, "fast")
    assert table.entries == {n: per_n_bishop_count(64, n)
                             for n in range(1, 257)}


def test_fast_table_validation_messages():
    with pytest.raises(ValueError, match="^q and n must be nonnegative$"):
        sample_counts(BISHOP, -1, 0, 3, "fast")
    with pytest.raises(ValueError, match="^need 0 <= n_from <= n_to$"):
        sample_counts(BISHOP, -1, -1, 3, "fast")
    with pytest.raises(ValueError, match="^q and n must be nonnegative$"):
        count_bishops_fast(2, -1)
