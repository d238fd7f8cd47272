"""Exact counts of nonattacking placements.

Two counters with different trust models: a brute-force oracle that works
for any rider but only at desk scale, and a fast bishop-specific dynamic
program that reaches the board sizes interpolation needs.  The two are
cross-validated against each other in the test suite.  A bishop count
table grows one odd/even pair of rook profiles, so each board size
costs one O(q) column step on each profile and one convolution.  All
arithmetic is arbitrary-precision integer; nothing here floats.

Every count by rider and method goes through :func:`sample_counts`,
which picks the counter and charges the work budget; its table is a
plain record, rendered by :mod:`bishops.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .board import BISHOP, Rider, _require_int, attack_masks

DEFAULT_NODE_BUDGET = 10**9


class SearchBudgetExceeded(RuntimeError):
    """A count would do more work than its budget allows: search nodes
    for the naive oracle, cell updates for a fast table."""


def count_unlabelled_naive(rider: Rider, q: int, n: int,
                           *, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Count q-subsets of the n x n board with no attacking pair.

    Depth-first search in increasing square order (row-major), pruned by
    :func:`~bishops.board.attack_masks`.  ``node_budget`` is charged one
    node per square pair (a fixed rule, paid before the masks are built)
    and each level's placements at once, before they are scanned, with
    the last piece counted by popcount: C(n^2, 2) + u(1; n) + ... + u(q-1; n).
    The search recurses once per piece, so a q near Python's recursion
    limit (about 1,000) raises ValueError.
    """
    _require_int(q, "q")
    _require_int(n, "n")
    _require_int(node_budget, "node budget")
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
    if q == 1:
        return cells
    safe = [~mask for mask in attack_masks(rider, n)]

    def search(avail: int, remaining: int) -> int:
        nonlocal budget
        budget -= avail.bit_count()
        if budget < 0:
            raise SearchBudgetExceeded(exceeded)
        total = 0
        # stripping the lowest bit keeps squares in increasing order
        while avail:
            low = avail & -avail
            avail ^= low
            rest = avail & safe[low.bit_length() - 1]
            if remaining == 2:
                total += rest.bit_count()
            elif rest:
                total += search(rest, remaining - 1)
        return total

    try:
        return search((1 << cells) - 1, q)
    except RecursionError:
        raise ValueError(f"naive search is too deep for q = {q}: it "
                         "recurses once per piece") from None


def _add_column(counts: list[int], length: int) -> None:
    """Grow a rook profile in place by one column at least as long as
    every column already on the board.

    ``counts[j]`` is the number of ways to place j nonattacking rooks,
    j = 0..q, on a board whose columns nest by length.  Because columns
    arrive shortest first, the new column has ``length - j`` rows free
    of the j earlier rooks, whichever rows those took.  A column of
    length 0 or less adds nothing.
    """
    for j in range(min(len(counts) - 1, length) - 1, -1, -1):
        counts[j + 1] += counts[j] * (length - j)


def _bishop_counts(q: int, n_from: int, n_to: int) -> dict[int, int]:
    """u(q; n) for every n in n_from..n_to, in order of n.

    Rotating the board 45 degrees splits it into two independent rook
    boards, one per parity class of diagonals, with column lengths
    n, n-2, n-2, ... (main) and n-1, n-1, n-3, n-3, ... (other), and
    u(q; n) convolves their rook counts.  Two profiles, odd (columns 1,
    1, 3, 3, ...) and even (2, 2, 4, 4, ...), each grow by one column
    per n through :func:`_add_column`: a column n - 1 completes other,
    then a column n makes the profile of parity n main as it stands,
    its second column n coming at n + 1.  No board up to n_to holds
    more than n_to rooks, so profiles stop at min(q, n_to); q > 2 * n_to
    gives 0.
    """
    if q < 0 or n_from < 0:
        raise ValueError("q and n must be nonnegative")
    most = min(q, n_to)
    profiles = ([1] + [0] * most, [1] + [0] * most)  # even, odd
    counts = {}
    for n in range(n_to + 1):
        other, main = profiles[(n - 1) % 2], profiles[n % 2]
        _add_column(other, n - 1)
        _add_column(main, n)
        if n >= n_from:
            counts[n] = sum(main[j] * other[q - j]
                            for j in range(max(q - most, 0), most + 1))
    return counts


def count_bishops_fast(q: int, n: int) -> int:
    """Exact u(q; n) for bishops, in time polynomial in q and n: the
    last board size of :func:`_bishop_counts`."""
    _require_int(q, "q")
    _require_int(n, "n")
    return _bishop_counts(q, n, n)[n]


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
    _require_int(q, "q")
    _require_int(n_from, "n_from")
    _require_int(n_to, "n_to")
    _require_int(node_budget, "node budget")
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
