"""Counters: brute-force oracle vs the fast dynamic program."""

from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bishops import (
    BISHOP,
    SearchBudgetExceeded,
    count_bishops_fast,
    count_unlabelled_naive,
    parse_rider,
    sample_counts,
)
from bishops import counting
from helpers import CENSUS_RIDERS, reference_count


def test_naive_matches_definition_small():
    for q in range(0, 4):
        for n in range(0, 5):
            assert (count_unlabelled_naive(BISHOP, q, n)
                    == reference_count(BISHOP, q, n)), (q, n)


def test_naive_matches_definition_rook():
    rook = parse_rider("1,0;0,1")
    for q in range(0, 4):
        for n in range(0, 5):
            assert (count_unlabelled_naive(rook, q, n)
                    == reference_count(rook, q, n)), (q, n)


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
    assert count_bishops_fast(10**9, 3) == 0  # profiles sized by n, not q
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
    def no_masks(*_):
        raise AssertionError("attack masks built despite the budget")

    monkeypatch.setattr(counting, "attack_masks", no_masks)
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


def test_budget_runs_out_mid_search():
    # 36 squares charge 630 pairs up front, leaving 70 search nodes
    with pytest.raises(SearchBudgetExceeded,
                       match="exceeded the budget of 700 nodes"):
        count_unlabelled_naive(BISHOP, 4, 6, node_budget=700)
    assert count_unlabelled_naive(BISHOP, 4, 6, node_budget=10**6) == 16428


@pytest.mark.parametrize("piece", CENSUS_RIDERS)
def test_budget_is_pairs_plus_every_smaller_count(piece):
    # the search places one node per nonattacking k-subset, k < q, and
    # counts the q-th piece by popcount: it needs exactly this budget
    rider = parse_rider(CENSUS_RIDERS[piece])
    for n in range(1, 6):
        for q in range(1, min(4, n * n) + 1):
            needed = comb(n * n, 2) + sum(reference_count(rider, k, n)
                                          for k in range(1, q))
            assert (count_unlabelled_naive(rider, q, n, node_budget=needed)
                    == reference_count(rider, q, n)), (q, n)
            if needed == 0:  # one square: no pair, no placement
                continue
            with pytest.raises(SearchBudgetExceeded):
                count_unlabelled_naive(rider, q, n, node_budget=needed - 1)


def test_naive_search_too_deep_for_the_stack_raises_value_error():
    # no two squares of a 40 x 40 board differ by a multiple of (1, 100)
    rider = parse_rider("1,100")
    too_deep = ("^naive search is too deep for q = 1200: it recurses once "
                "per piece$")
    with pytest.raises(ValueError, match=too_deep):
        count_unlabelled_naive(rider, 1200, 40)
    with pytest.raises(ValueError, match=too_deep):
        sample_counts(rider, 1200, 40, 40)
    assert count_unlabelled_naive(rider, 3, 40) == comb(1600, 3)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_negative_budget_rejected_for_every_q(q):
    with pytest.raises(ValueError, match="node budget must be nonnegative"):
        count_unlabelled_naive(parse_rider("1,0;0,1"), q, 3, node_budget=-5)


def test_count_unlabelled_keeps_the_budget_of_sample_counts():
    with pytest.raises(ValueError, match="node budget must be nonnegative"):
        sample_counts(BISHOP, 2, 3, 3, node_budget=-1)
    # the fast table for n = 50 costs 50 * 3 = 150 cell updates
    with pytest.raises(SearchBudgetExceeded, match="150 cell updates"):
        sample_counts(BISHOP, 3, 50, 50, node_budget=10)
    assert sample_counts(BISHOP, 3, 50, 50,
                         node_budget=150).entries == {50: 2403440800}


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


def scanned_bishop_count(q: int, n: int) -> int:
    """u(q; n) from diagonal lengths read off the board: the diagonals
    x - y = d of each colour are the columns of one rook board, whose
    profile the rook DP builds from its sorted column lengths."""
    colours = ({}, {})
    for x in range(n):
        for y in range(n):
            diagonals = colours[(x + y) % 2]
            diagonals[x - y] = diagonals.get(x - y, 0) + 1
    profiles = []
    for diagonals in colours:
        counts = [1] + [0] * q
        for length in sorted(diagonals.values()):
            for j in range(min(q, length) - 1, -1, -1):
                counts[j + 1] += counts[j] * (length - j)
        profiles.append(counts)
    first, second = profiles
    return sum(first[j] * second[q - j] for j in range(q + 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=40))
@example(q=3, n_from=0, width=0)  # board size 0: no columns at all
@example(q=3, n_from=1, width=0)
@example(q=3, n_from=0, width=1)
@example(q=3, n_from=1, width=1)
@example(q=3, n_from=0, width=2)
@example(q=3, n_from=1, width=2)
@example(q=0, n_from=0, width=5)
@example(q=12, n_from=0, width=40)
@example(q=12, n_from=3, width=5)  # n_to < q <= 2 * n_to: cut profiles
@example(q=30, n_from=0, width=10)  # q > 2 * n_to: every count is 0
def test_table_matches_per_n_dp(q, n_from, width):
    """``width`` is n_to - n_from."""
    n_to = n_from + width
    table = sample_counts(BISHOP, q, n_from, n_to, "fast")
    expected = {n: scanned_bishop_count(q, n)
                for n in range(n_from, n_to + 1)}
    assert table.entries == expected
    assert list(table.entries) == list(expected)


def test_table_matches_per_n_dp_large_q():
    table = sample_counts(BISHOP, 64, 1, 256, "fast")
    assert table.entries == {n: scanned_bishop_count(64, n)
                             for n in range(1, 257)}


def test_every_small_table_matches_the_scanned_board():
    for q in range(11):
        reference = [scanned_bishop_count(q, n) for n in range(31)]
        for n_from in range(31):
            for n_to in range(n_from, 31):
                table = counting._bishop_counts(q, n_from, n_to)
                assert list(table.items()) == [
                    (n, reference[n]) for n in range(n_from, n_to + 1)], (
                        q, n_from, n_to)


@pytest.mark.parametrize("q", [24, 32, 64])
def test_table_matches_single_counts_at_large_q(q):
    n_to = 4 * q + 20
    assert list(counting._bishop_counts(q, 0, n_to).items()) == [
        (n, count_bishops_fast(q, n)) for n in range(n_to + 1)]


def test_fast_table_validation_messages():
    with pytest.raises(ValueError, match="^q and n must be nonnegative$"):
        sample_counts(BISHOP, -1, 0, 3, "fast")
    with pytest.raises(ValueError, match="^need 0 <= n_from <= n_to$"):
        sample_counts(BISHOP, -1, -1, 3, "fast")
    with pytest.raises(ValueError, match="^q and n must be nonnegative$"):
        count_bishops_fast(2, -1)
