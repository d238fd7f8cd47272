"""Riders, squares, the attack predicate and its masks.

A rider attacks along every integral multiple of each of its basic move
vectors; the bishop is the rider with basic moves (1, 1) and (1, -1).
Boards are n x n with 1-based coordinates.  The rule for integer fields
is written here once, and every layer imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _require_int(value: object, what: str) -> None:
    """Refuse a float or a bool where an int is needed: either compares
    equal to one, but is written and indexes as something else.  Any
    other int subclass is an int."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an int, got {value!r}")


@dataclass(frozen=True, order=True)
class BasicMove:
    """A primitive move direction, gcd(dx, dy) = 1: a (2, 2)-rider
    attacks only every other square of a diagonal, which no basic move
    can state, so a non-primitive move is refused.

    Negating a move does not change the attack relation, so moves are
    stored with dx > 0, or dx = 0 and dy > 0.
    """

    dx: int
    dy: int

    def __post_init__(self) -> None:
        _require_int(self.dx, "basic move dx")
        _require_int(self.dy, "basic move dy")
        if (self.dx, self.dy) == (0, 0):
            raise ValueError("a basic move must be nonzero")
        if gcd(self.dx, self.dy) > 1:
            raise ValueError("a basic move must be primitive, "
                             "with gcd(dx, dy) = 1")
        if self.dx < 0 or (self.dx == 0 and self.dy < 0):
            object.__setattr__(self, "dx", -self.dx)
            object.__setattr__(self, "dy", -self.dy)


@dataclass(frozen=True)
class Rider:
    """A piece defined by a nonempty set of basic moves.

    Canonicalization makes parallel moves equal, so the stored set never
    holds two moves along the same line.
    """

    name: str
    moves: frozenset[BasicMove]

    def __post_init__(self) -> None:
        object.__setattr__(self, "moves", frozenset(self.moves))
        if not self.moves:
            raise ValueError("a rider needs at least one basic move")


BISHOP = Rider("bishop", frozenset({BasicMove(1, 1), BasicMove(1, -1)}))


def parse_rider(description: str) -> Rider:
    """Build a rider from a name ("bishop") or a move list "dx,dy;dx,dy"
    of primitive moves (see :class:`BasicMove`)."""
    text = description.strip()
    if text.lower() == "bishop":
        return BISHOP
    moves: list[BasicMove] = []
    for part in text.split(";"):
        fields = part.split(",")
        if len(fields) != 2:
            raise ValueError(f"bad move {part.strip()!r}: expected 'dx,dy'")
        try:
            moves.append(BasicMove(int(fields[0]), int(fields[1])))
        except ValueError as exc:
            raise ValueError(f"bad move {part.strip()!r}: {exc}") from None
    return Rider(text, frozenset(moves))


@dataclass(frozen=True, order=True)
class Square:
    """A board cell; coordinates run from 1 to n."""

    x: int
    y: int


def attacks(a: Square, b: Square, rider: Rider) -> bool:
    """True iff b - a is a nonzero integral multiple of a basic move.

    The squares must be distinct; passing a == b is a caller error.
    Basic moves are primitive, so parallelism (a zero cross product)
    already implies an integral multiple.
    """
    dx, dy = b.x - a.x, b.y - a.y
    if (dx, dy) == (0, 0):
        raise ValueError("attacks() requires two distinct squares")
    return any(move.dx * dy == move.dy * dx for move in rider.moves)


def attack_masks(rider: Rider, n: int) -> list[int]:
    """Per square of the n x n board, the bitmask of the squares it
    attacks; Square(x, y) is bit (y - 1) * n + x - 1.  Squares share a
    line of a basic move iff they share its key dx * y - dy * x (the
    zero cross product of :func:`attacks`): one pass ORs each line."""
    masks = [0] * (n * n)
    for move in rider.moves:
        keys = [move.dx * y - move.dy * x for y in range(n) for x in range(n)]
        lines = dict.fromkeys(keys, 0)
        for s, key in enumerate(keys):
            lines[key] |= 1 << s
        masks = [mask | lines[key] for mask, key in zip(masks, keys)]
    return [mask & ~(1 << s) for s, mask in enumerate(masks)]
