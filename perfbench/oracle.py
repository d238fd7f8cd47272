"""Expected outputs by routes other than the ones the benchmark times.

- Bishop counts come from the Goldman-Joichi-White factorization of the
  rook polynomial of each diagonal-parity board, not from the package's
  rook recurrence; they are cross-checked against the closed forms for
  q = 1, 2 and against the package's naive oracle on boards up to 6x6.
- Rook counts use the closed form C(n, q)^2 q!.
- Other riders are counted by a search over occupied lines, not over
  pairwise attack masks.
- Interpolated quasipolynomials are evaluated here, off the sampled and
  held-out range, and compared with the fast counter.
- Clique-graph solutions are checked against every defining equation.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import comb, factorial

from bishops.board import BISHOP, parse_rider
from bishops.counting import count_unlabelled_naive

BISHOP_MOVES = ((1, -1), (1, 1))
ROOK_MOVES = ((0, 1), (1, 0))
NAIVE_CROSS_CHECK_MAX_N = 6
# deepest Stirling number kept; the workloads ask for q <= 32
MAX_Q = 40


class OracleDisagreement(AssertionError):
    """Two independent routes gave different answers."""


def _moves(piece: str) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((move.dx, move.dy) for move in parse_rider(piece).moves))


class Oracle:
    """Holds the Stirling table and the memo of rider counts for one run."""

    def __init__(self) -> None:
        # _falling[N][t] = e_t(0, 1, ..., N - 1) for t <= MAX_Q, so the
        # signed Stirling number s(N, N - t) is (-1)^t * _falling[N][t]
        self._falling: list[list[int]] = [[1]]
        self._counts: dict[tuple, int] = {}

    def _falling_elementary(self, size: int, t: int) -> int:
        table = self._falling
        while len(table) <= size:
            n, previous = len(table) - 1, table[-1]
            row = [1] + [previous[k] + n * previous[k - 1]
                         for k in range(1, len(previous))]
            if len(previous) <= MAX_Q:
                row.append(n * previous[-1])
            table.append(row)
        row = table[size]
        return row[t] if t < len(row) else 0

    def _rook_numbers(self, heights: list[int], depth: int) -> list[int]:
        """r_0..r_depth of the Ferrers board with these column heights.

        Goldman-Joichi-White: sum_k r_k x^(m-k falling) equals
        prod_i (x + h_i - i + 1) with heights ascending; matching the
        coefficients of x^m .. x^(m-depth) is a triangular system.
        """
        heights = sorted(heights)
        m = len(heights)
        elementary = [1] + [0] * depth
        for i, height in enumerate(heights):
            b = height - i
            for t in range(depth, 0, -1):
                elementary[t] += b * elementary[t - 1]
        rooks: list[int] = []
        for j in range(depth + 1):
            if j > m:
                rooks.append(0)
                continue
            value = elementary[j]
            for k in range(j):
                stirling = self._falling_elementary(m - k, j - k)
                value -= rooks[k] * (-1) ** (j - k) * stirling
            rooks.append(value)
        return rooks

    def bishops(self, q: int, n: int) -> int:
        """u(q; n) for bishops by rook factorization of the two colour
        classes of diagonals."""
        if q > MAX_Q:
            raise ValueError(f"the oracle handles q <= {MAX_Q}, not {q}")
        key = ("bishop", q, n)
        if key not in self._counts:
            per_class = []
            for parity in (0, 1):
                heights = [n - abs(d) for d in range(-(n - 1), n)
                           if d % 2 == parity]
                per_class.append(self._rook_numbers(heights, q))
            first, second = per_class
            value = sum(first[j] * second[q - j] for j in range(q + 1))
            if q == 1 and value != n * n:
                raise OracleDisagreement(f"u(1;{n}) = {value}, not n^2")
            if q == 2 and 6 * value != n * (n - 1) * (3 * n * n - n + 2):
                raise OracleDisagreement(f"u(2;{n}) = {value} breaks the closed form")
            if n <= NAIVE_CROSS_CHECK_MAX_N:
                naive = count_unlabelled_naive(BISHOP, q, n)
                if naive != value:
                    raise OracleDisagreement(
                        f"u({q};{n}): factorization {value}, naive oracle {naive}")
            self._counts[key] = value
        return self._counts[key]

    def rider(self, piece: str, q: int, n: int) -> int:
        """u(q; n) for any rider, by the cheapest independent route."""
        moves = _moves(piece)
        if moves == BISHOP_MOVES:
            return self.bishops(q, n)
        if moves == ROOK_MOVES:
            return comb(n, q) ** 2 * factorial(q) if q <= n else 0
        key = (moves, q, n)
        if key not in self._counts:
            self._counts[key] = _count_by_lines(moves, q, n)
        return self._counts[key]


def _count_by_lines(moves: tuple[tuple[int, int], ...], q: int, n: int) -> int:
    """Placements of q pieces with no two on a common line of any move.

    The line through (x, y) along move (dx, dy) is keyed by dy*x - dx*y;
    a placed piece removes every square sharing one of its lines.
    """
    lines: dict[tuple[int, int], int] = {}
    keys = []
    for y in range(1, n + 1):
        for x in range(1, n + 1):
            square = (y - 1) * n + x - 1
            own = [(m, dy * x - dx * y) for m, (dx, dy) in enumerate(moves)]
            for key in own:
                lines[key] = lines.get(key, 0) | 1 << square
            keys.append(own)
    blocked = [0] * len(keys)
    for square, own in enumerate(keys):
        for key in own:
            blocked[square] |= lines[key]

    def place(free: int, remaining: int) -> int:
        if remaining == 1:
            return free.bit_count()
        total = 0
        while free:
            low = free & -free
            free ^= low
            total += place(free & ~blocked[low.bit_length() - 1], remaining - 1)
        return total

    return place((1 << len(keys)) - 1, q) if q else 1


def check_count_output(text: str, fmt: str, expected: dict[int, int]) -> str | None:
    """None when the count command's output lists exactly ``expected``."""
    if fmt == "pretty":  # one board size: the count alone
        got = {next(iter(expected)): int(text.strip())}
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["n", "count"]:
            return f"bad csv header {rows[0]}"
        got = {int(n): int(count) for n, count in rows[1:]}
    else:
        got = {int(n): int(count)
               for n, count in json.loads(text)["counts"].items()}
    if got != expected:
        wrong = sorted(n for n in set(got) | set(expected)
                       if got.get(n) != expected.get(n))
        return f"wrong counts at n = {wrong[:5]}"
    return None


def check_interpolation(text: str, q: int, holdout: int, at: int,
                        expected: int) -> str | None:
    """None when the JSON quasipolynomial passed its holdout, has period
    2, and evaluates to ``expected`` at the off-sample n ``at``."""
    payload = json.loads(text)
    top = 4 * q
    if payload["holdout"] != {"range": [top + 1, top + holdout], "pass": True}:
        return f"holdout block {payload['holdout']}"
    if payload["minimized_period"] != 2:
        return f"minimized period {payload['minimized_period']}"
    quasi = payload["quasipolynomial"]
    row = quasi["constituents"][at % quasi["period"]]
    value = Fraction(0)
    for coefficient in row:
        numerator, _, denominator = coefficient.partition("/")
        value = value * at + Fraction(int(numerator), int(denominator))
    if value != expected:
        return f"quasipolynomial gives {value} at n={at}, expected {expected}"
    return None


def check_vertices(text: str, q: int, count: int, lcm: int) -> str | None:
    """None when the JSON vertex list has the known size and lcm and
    every vertex lies in the unit cube on its defining equations."""
    payload = json.loads(text)
    if (payload["count"], payload["denominator_lcm"], payload["half_integral"]) \
            != (count, lcm, True):
        return (f"count {payload['count']}, lcm {payload['denominator_lcm']}, "
                f"half_integral {payload['half_integral']}")
    points = set()
    for vertex in payload["vertices"]:
        point = [Fraction(c) for c in vertex["point"]]
        if len(point) != 2 * q or any(c < 0 or c > 1 for c in point):
            return f"vertex {vertex['point']} is outside the unit cube"
        for h in vertex["hyperplanes"]:
            xi, yi = point[2 * h["i"] - 2], point[2 * h["i"] - 1]
            xj, yj = point[2 * h["j"] - 2], point[2 * h["j"] - 1]
            holds = (xi - yi == xj - yj) if h["sign"] == "+" else (xi + yi == xj + yj)
            if not holds:
                return f"vertex {vertex['point']} is off its hyperplane {h}"
        for fixation in vertex["fixations"]:
            axis, index = fixation["coordinate"].split("_")
            at = 2 * (int(index) - 1) + (0 if axis == "x" else 1)
            if point[at] != fixation["value"]:
                return f"vertex {vertex['point']} breaks {fixation}"
        points.add(tuple(point))
    if len(points) != count:
        return "duplicate vertices"
    return None


def check_graph(text: str, q: int, edges: list[tuple[int, int, int]],
                fixations: list[tuple[str, int, int]]) -> str | None:
    """None when the graph analysis reports the file's size, the right
    component count, and a solution meeting every defining equation."""
    payload = json.loads(text)
    if payload["q"] != q or payload["edges"] != len(edges):
        return f"q {payload['q']}, edges {payload['edges']}"
    parent = list(range(q + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j, _ in edges:
        parent[find(i)] = find(j)
    components = len({find(node) for node in range(1, q + 1)})
    if payload["components"] != components:
        return f"components {payload['components']}, expected {components}"
    point = [Fraction(c) for c in payload["solution"]["point"]]
    for i, j, sign in edges:
        xi, yi, xj, yj = point[2 * i - 2], point[2 * i - 1], point[2 * j - 2], point[2 * j - 1]
        holds = (xi + yi == xj + yj) if sign > 0 else (xi - yi == xj - yj)
        if not holds:
            return f"solution breaks edge ({i},{j},{sign})"
    for axis, index, value in fixations:
        if point[2 * (index - 1) + (0 if axis == "x" else 1)] != value:
            return f"solution breaks fix {axis}_{index} = {value}"
    for at in range(0, len(point), 2):
        if {point[at].denominator, point[at + 1].denominator} not in ({1}, {2}):
            return "solution is not weakly half-integral"
    return None

