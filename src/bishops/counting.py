"""Exact counts of nonattacking placements.

Two counters with different trust models: a brute-force oracle that works
for any rider but only at desk scale, and a fast bishop-specific dynamic
program that reaches the board sizes interpolation needs.  The two are
cross-validated against each other in the test suite.  All arithmetic is
arbitrary-precision integer; nothing here floats.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from math import factorial

from .board import BISHOP, Rider, Square, attacks

DEFAULT_NODE_BUDGET = 10**9


class SearchBudgetExceeded(RuntimeError):
    """The naive oracle visited more search nodes than its budget allows."""


def _resolve_method(rider: Rider, method: str) -> str:
    """The counter to use, "fast" or "naive"; "auto" picks the fast
    counter for the bishop and the naive oracle otherwise."""
    is_bishop = rider.moves == BISHOP.moves
    if method == "auto":
        return "fast" if is_bishop else "naive"
    if method not in ("naive", "fast"):
        raise ValueError(f"unknown method {method!r}")
    if method == "fast" and not is_bishop:
        raise ValueError("the fast counter applies only to the bishop")
    return method


def count_unlabelled_naive(rider: Rider, q: int, n: int,
                           *, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Count q-subsets of the n x n board with no attacking pair.

    Depth-first search that places pieces in increasing square order
    (row-major), pruning with precomputed per-square attack bitmasks.
    Each placement of a piece costs one node of ``node_budget``; the
    final piece of every branch is counted in bulk by popcount.
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
    squares = [Square(x + 1, y + 1) for y in range(n) for x in range(n)]
    attack_mask = [0] * cells
    for s in range(cells):
        for t in range(s + 1, cells):
            if attacks(squares[s], squares[t], rider):
                attack_mask[s] |= 1 << t
                attack_mask[t] |= 1 << s

    budget = node_budget

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
                raise SearchBudgetExceeded(
                    f"naive count exceeded the budget of {node_budget} nodes")
            s = low.bit_length() - 1
            total += search(avail & ~attack_mask[s], remaining - 1)
        return total

    return search((1 << cells) - 1, q)


def _rook_profile(lengths: list[int], q: int) -> list[int]:
    """Ways to place j nonattacking rooks, j = 0..q, on a board whose
    columns have the given lengths and nest by length.

    Columns are processed shortest first; nesting makes the number of
    free rows in the j-th occupied column equal to its length minus j,
    independent of which rows the earlier rooks used.
    """
    counts = [0] * (q + 1)
    counts[0] = 1
    for length in sorted(lengths):
        for j in range(min(q, length) - 1, -1, -1):
            counts[j + 1] += counts[j] * (length - j)
    return counts


def count_bishops_fast(q: int, n: int) -> int:
    """Exact u(q; n) for bishops, in time polynomial in q and n.

    Rotating the board 45 degrees splits it into two independent rook
    boards, one per parity class of diagonals; each class has column
    lengths n, n-2, n-2, n-4, ... or n-1, n-1, n-3, n-3, ..., which
    nest, so :func:`_rook_profile` applies.  The classes interact only
    through how many pieces each takes, hence the final convolution.
    """
    if q < 0 or n < 0:
        raise ValueError("q and n must be nonnegative")
    if q == 0:
        return 1
    if n == 0:
        return 0
    even = [n] + [n - 2 * k for k in range(1, (n - 1) // 2 + 1) for _ in (0, 1)]
    odd = [n - (2 * k - 1) for k in range(1, n // 2 + 1) for _ in (0, 1)]
    first = _rook_profile(even, q)
    second = _rook_profile(odd, q)
    return sum(first[j] * second[q - j] for j in range(q + 1))


def count_unlabelled(rider: Rider, q: int, n: int, *, method: str = "auto",
                     node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """u(q; n) by the requested method; "auto" picks the fast counter for
    the bishop and the naive oracle otherwise."""
    if _resolve_method(rider, method) == "fast":
        return count_bishops_fast(q, n)
    return count_unlabelled_naive(rider, q, n, node_budget=node_budget)


def count_labelled(rider: Rider, q: int, n: int, *, method: str = "auto",
                   node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """o(q; n) = q! * u(q; n): placements of distinguishable pieces."""
    return factorial(q) * count_unlabelled(rider, q, n, method=method,
                                           node_budget=node_budget)


@dataclass(frozen=True)
class CountTable:
    """Counts u(q; n) for one rider and piece count over a range of n."""

    rider: str
    q: int
    method: str
    entries: dict[int, int]

    def to_csv(self) -> str:
        """RFC 4180 text with columns n, count."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(["n", "count"])
        for n in sorted(self.entries):
            writer.writerow([n, self.entries[n]])
        return buffer.getvalue()

    def to_json(self) -> str:
        """JSON object; counts are decimal strings since they routinely
        exceed 64-bit range."""
        payload = {
            "rider": self.rider,
            "q": self.q,
            "method": self.method,
            "counts": {str(n): str(self.entries[n]) for n in sorted(self.entries)},
        }
        return json.dumps(payload, indent=2)


def sample_counts(rider: Rider, q: int, n_from: int, n_to: int,
                  method: str = "auto", *,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> CountTable:
    """Count table for every n in n_from..n_to inclusive, one board size
    after another.

    ``method`` is resolved as in :func:`count_unlabelled`; the table
    records the resolved method, "fast" or "naive".
    """
    if not 0 <= n_from <= n_to:
        raise ValueError("need 0 <= n_from <= n_to")
    method = _resolve_method(rider, method)
    entries = {n: count_unlabelled(rider, q, n, method=method,
                                   node_budget=node_budget)
               for n in range(n_from, n_to + 1)}
    return CountTable(rider.name, q, method, entries)
