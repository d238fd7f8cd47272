"""Riders, squares, and the attack relation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bishops import (
    BISHOP,
    BasicMove,
    Rider,
    Square,
    attacks,
    parse_rider,
)
from bishops.board import attack_masks
from helpers import CENSUS_RIDERS


def test_basic_move_canonicalization():
    assert BasicMove(-1, -1) == BasicMove(1, 1)
    assert BasicMove(-1, 1) == BasicMove(1, -1)
    assert BasicMove(0, -1) == BasicMove(0, 1)
    # a (2, 2)-rider skips every other diagonal square: not the bishop
    for dx, dy in [(2, 2), (-3, 3), (0, -2)]:
        with pytest.raises(ValueError, match="primitive"):
            BasicMove(dx, dy)
    with pytest.raises(ValueError):
        BasicMove(0, 0)


@pytest.mark.parametrize("dx, dy", [(True, False), (1.0, 1.0), (0, True)])
def test_basic_move_refuses_non_int_components(dx, dy):
    # True and 1.0 compare equal to 1, but a bool would be stored and
    # printed as itself, and a float fails inside gcd() with a TypeError
    with pytest.raises(ValueError, match="basic move d[xy] must be an int"):
        BasicMove(dx, dy)


def test_bishop_moves():
    assert BISHOP.moves == frozenset({BasicMove(1, 1), BasicMove(1, -1)})


def test_parse_rider():
    assert parse_rider("bishop") == BISHOP
    rook = parse_rider("1,0;0,1")
    assert rook.moves == frozenset({BasicMove(1, 0), BasicMove(0, 1)})
    with pytest.raises(ValueError):
        parse_rider("")
    with pytest.raises(ValueError):
        parse_rider("1,1;0,0")
    with pytest.raises(ValueError, match="primitive"):
        parse_rider("1,0;2,4")


def test_rider_requires_moves():
    with pytest.raises(ValueError):
        Rider("nothing", frozenset())


def test_attacks_bishop():
    assert attacks(Square(1, 1), Square(3, 3), BISHOP)
    assert attacks(Square(1, 3), Square(3, 1), BISHOP)
    assert not attacks(Square(1, 1), Square(1, 2), BISHOP)
    assert not attacks(Square(1, 1), Square(2, 3), BISHOP)


def test_attacks_same_square_rejected():
    with pytest.raises(ValueError):
        attacks(Square(2, 2), Square(2, 2), BISHOP)


def test_attacks_is_symmetric_for_rook_moves():
    rook = parse_rider("1,0;0,1")
    assert attacks(Square(1, 1), Square(1, 5), rook)
    assert attacks(Square(1, 5), Square(1, 1), rook)
    assert not attacks(Square(1, 1), Square(2, 2), rook)


@pytest.mark.parametrize("rider", [
    pytest.param(parse_rider(moves), id=moves)
    for moves in (*CENSUS_RIDERS.values(), "1,2;3,-1", "0,1")
])
def test_line_masks_match_the_pairwise_relation(rider):
    for n in range(10):
        board = [Square(x, y) for y in range(1, n + 1)
                 for x in range(1, n + 1)]
        expected = [sum(1 << t for t, b in enumerate(board)
                        if a != b and attacks(a, b, rider))
                    for a in board]
        assert attack_masks(rider, n) == expected, n


squares = st.builds(Square,
                    st.integers(min_value=1, max_value=8),
                    st.integers(min_value=1, max_value=8))


@given(squares, squares)
def test_attacks_symmetry(a, b):
    if a == b:
        return
    assert attacks(a, b, BISHOP) == attacks(b, a, BISHOP)


@given(squares, squares)
def test_bishop_attack_iff_diagonal(a, b):
    if a == b:
        return
    expected = abs(a.x - b.x) == abs(a.y - b.y)
    assert attacks(a, b, BISHOP) == expected
