"""Exact counts of nonattacking placements.

Two counters with different trust models: a brute-force oracle that works
for any rider but only at desk scale, and a fast bishop-specific dynamic
program that reaches the board sizes interpolation needs.  The two are
cross-validated against each other in the test suite.  A bishop count
table grows one rook profile pair per parity chain of n, so each board
size after the first costs O(q) column steps and one convolution.  All
arithmetic is arbitrary-precision integer; nothing here floats.

Every count by rider and method goes through :func:`sample_counts`,
which picks the counter and charges the work budget; its table is a
plain record, rendered by :mod:`bishops.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .board import BISHOP, Rider, Square, attacks

DEFAULT_NODE_BUDGET = 10**9


class SearchBudgetExceeded(RuntimeError):
    """A count would do more work than its budget allows: search nodes
    for the naive oracle, cell updates for a fast table."""


def count_unlabelled_naive(rider: Rider, q: int, n: int,
                           *, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Count q-subsets of the n x n board with no attacking pair.

    Depth-first search that places pieces in increasing square order
    (row-major), pruning with precomputed per-square attack bitmasks.
    ``node_budget`` is charged one node for each square pair whose
    attack relation the bitmasks record, all at once before they are
    built, and one node for each placement of a piece; the final piece
    of every branch is counted in bulk by popcount.
    """
    if q < 0 or n < 0:
        raise ValueError("q and n must be nonnegative")
    if node_budget < 0:
        raise ValueError("node budget must be nonnegative")
    if q == 0:
        return 1
    cells = n * n
    if q > cells:
        return 0
    exceeded = f"naive count exceeded the budget of {node_budget} nodes"
    budget = node_budget - cells * (cells - 1) // 2
    if budget < 0:
        raise SearchBudgetExceeded(exceeded)
    squares = [Square(x + 1, y + 1) for y in range(n) for x in range(n)]
    attack_mask = [0] * cells
    for s in range(cells):
        for t in range(s + 1, cells):
            if attacks(squares[s], squares[t], rider):
                attack_mask[s] |= 1 << t
                attack_mask[t] |= 1 << s

    def search(avail: int, remaining: int) -> int:
        nonlocal budget
        if remaining == 1:
            return avail.bit_count()
        total = 0
        # stripping the lowest bit keeps squares in increasing order
        while avail:
            low = avail & -avail
            avail ^= low
            budget -= 1
            if budget < 0:
                raise SearchBudgetExceeded(exceeded)
            s = low.bit_length() - 1
            total += search(avail & ~attack_mask[s], remaining - 1)
        return total

    return search((1 << cells) - 1, q)


def _add_column(counts: list[int], length: int) -> None:
    """Grow a rook profile in place by one column at least as long as
    every column already on the board.

    ``counts[j]`` is the number of ways to place j nonattacking rooks,
    j = 0..q, on a board whose columns nest by length.  Because columns
    arrive shortest first, the new column has ``length - j`` rows free
    of the j earlier rooks, whichever rows those took.  A column of
    length 0 adds nothing.
    """
    for j in range(min(len(counts) - 1, length) - 1, -1, -1):
        counts[j + 1] += counts[j] * (length - j)


def _bishop_counts(q: int, n_from: int, n_to: int) -> dict[int, int]:
    """u(q; n) for every n in n_from..n_to, in order of n.

    Rotating the board 45 degrees splits it into two independent rook
    boards, one per parity class of diagonals, with column lengths
    n, n-2, n-2, n-4, ... (the class of the main diagonal) and
    n-1, n-1, n-3, n-3, ...  Going from n to n + 2 adds columns n and
    n + 2 to the first board and two columns n + 1 to the second, all
    longer than what is there, so one profile pair per parity chain
    (n_from, n_from + 2, ... and n_from + 1, n_from + 3, ...) grows by
    :func:`_add_column` in O(q) per column.  The classes interact only
    through how many pieces each takes, hence one convolution per n.
    Neither board of size at most n_to holds more than n_to rooks, so
    profiles stop at min(q, n_to) rooks, and q > 2 * n_to gives 0.
    """
    if q < 0 or n_from < 0:
        raise ValueError("q and n must be nonnegative")
    most = min(q, n_to)
    counts = {}
    for start in range(n_from, min(n_from + 1, n_to) + 1):
        main, other = [1] + [0] * most, [1] + [0] * most
        # the board of size 0 or 1: one column of that length
        _add_column(main, start % 2)
        for n in range(start % 2, n_to + 1, 2):
            if n >= n_from:
                counts[n] = sum(main[j] * other[q - j]
                                for j in range(max(q - most, 0), most + 1))
            _add_column(main, n)
            _add_column(main, n + 2)
            _add_column(other, n + 1)
            _add_column(other, n + 1)
    return dict(sorted(counts.items()))


def count_bishops_fast(q: int, n: int) -> int:
    """Exact u(q; n) for bishops, in time polynomial in q and n: one
    parity chain of :func:`_bishop_counts`."""
    return _bishop_counts(q, n, n)[n]


def count_unlabelled(rider: Rider, q: int, n: int, *, method: str = "auto",
                     node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """u(q; n) by the requested method, within ``node_budget``: one
    board size of :func:`sample_counts`."""
    return sample_counts(rider, q, n, n, method,
                         node_budget=node_budget).entries[n]


def count_labelled(rider: Rider, q: int, n: int, *, method: str = "auto",
                   node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """o(q; n) = q! * u(q; n): placements of distinguishable pieces."""
    return factorial(q) * count_unlabelled(rider, q, n, method=method,
                                           node_budget=node_budget)


@dataclass(frozen=True)
class CountTable:
    """Counts u(q; n) for one rider and piece count; entries in order of n."""

    rider: str
    q: int
    method: str
    entries: dict[int, int]


def sample_counts(rider: Rider, q: int, n_from: int, n_to: int,
                  method: str = "auto", *,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> CountTable:
    """Count table for every n in n_from..n_to inclusive.

    ``method`` "auto" picks the fast counter for the bishop and the
    naive oracle otherwise; the table records the resolved method,
    "fast" or "naive".  The fast table is built incrementally by
    :func:`_bishop_counts`, which is charged n_to * min(q, n_to) cell
    updates against ``node_budget`` before it starts; the naive one
    counts each board size on its own, each within ``node_budget``.
    """
    if not 0 <= n_from <= n_to:
        raise ValueError("need 0 <= n_from <= n_to")
    is_bishop = rider.moves == BISHOP.moves
    if method == "auto":
        method = "fast" if is_bishop else "naive"
    elif method not in ("naive", "fast"):
        raise ValueError(f"unknown method {method!r}")
    elif method == "fast" and not is_bishop:
        raise ValueError("the fast counter applies only to the bishop")
    if q < 0:
        raise ValueError("q and n must be nonnegative")
    if node_budget < 0:
        raise ValueError("node budget must be nonnegative")
    if method == "fast":
        work = n_to * min(q, n_to)
        if work > node_budget:
            raise SearchBudgetExceeded(
                f"fast count table needs {work} cell updates, more than "
                f"the budget of {node_budget}")
        entries = _bishop_counts(q, n_from, n_to)
    else:
        entries = {n: count_unlabelled_naive(rider, q, n,
                                             node_budget=node_budget)
                   for n in range(n_from, n_to + 1)}
    return CountTable(rider.name, q, method, entries)
