"""Fixtures and references shared across test modules."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial
from pathlib import Path

from bishops import (
    NEGATIVE,
    POSITIVE,
    Fixation,
    Rider,
    SignedGraph,
    Square,
    attacks,
    geometry,
    hyperplane_normal,
    linalg,
    signed_cliques,
)
from bishops.geometry import LatticeVertex, independence_walk

DATA_DIR = Path(__file__).parent / "data"
# the riders the benchmark's census workload counts naively
CENSUS_RIDERS = {
    "rook": "1,0;0,1",
    "queen": "1,0;0,1;1,1;1,-1",
    "nightrider": "1,2;2,1;1,-2;2,-1",
    "bishop": "bishop",
}


def reference_count(rider: Rider, q: int, n: int) -> int:
    """u(q; n) by testing every pair of every q-subset of the board with
    ``attacks``; shares no code with the bitmask search."""
    squares = [Square(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return sum(
        1 for subset in combinations(squares, q)
        if not any(attacks(a, b, rider) for a, b in combinations(subset, 2)))


def example_clique_fixture() -> SignedGraph:
    """Seven-piece signed graph whose positive cliques are {1,2},
    {3,4,5}, {6,7} and negative cliques {1,3}, {2,4}, {5,6}, {7}.

    Its clique graph is a bipartite 8-node graph with one edge per
    piece; fixing x_1, y_2, x_3, x_4, y_5, x_7, y_7 turns the doubled
    clique graph into a spanning negative 1-forest.
    """
    return SignedGraph(7, (
        (1, 2, +1),
        (3, 4, +1),
        (4, 5, +1),
        (6, 7, +1),
        (1, 3, -1),
        (2, 4, -1),
        (5, 6, -1),
    ))


FIXTURE_FIXATION_COORDINATES = (
    ("x", 1),
    ("y", 2),
    ("x", 3),
    ("x", 4),
    ("y", 5),
    ("x", 7),
    ("y", 7),
)


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


def rider_arrangement(moves: str, q: int) -> list[list[int]]:
    """Normals over (x_1, y_1, ..., x_q, y_q) of the move arrangement of
    the rider with move list "c,d;c,d": per pair i < j and move (c, d),
    the hyperplane d (x_j - x_i) - c (y_j - y_i) = 0.  Uses no code of
    ``bishops.geometry``."""
    normals = []
    for i, j in combinations(range(q), 2):
        for move in moves.split(";"):
            c, d = map(int, move.split(","))
            normal = [0] * (2 * q)
            normal[2 * i], normal[2 * i + 1] = -d, c
            normal[2 * j], normal[2 * j + 1] = d, -c
            normals.append(normal)
    return normals


def region_count(normals) -> int:
    """Regions of a central arrangement by Zaslavsky's formula, the sum
    over subsets S of (-1)^(|S| - rank S), each rank afresh by
    :func:`reference_solve`."""
    return sum((-1) ** (size - reference_solve(subset, [0] * size)[0])
               for size in range(len(normals) + 1)
               for subset in combinations(normals, size))


def reference_det(rows) -> Fraction:
    """Determinant of a square matrix by plain Fraction elimination with
    row swaps."""
    m = [[Fraction(entry) for entry in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def reference_signed_cliques(
        graph: SignedGraph) -> tuple[list[list[int]], list[list[int]]]:
    """(positive cliques, negative cliques) by a depth-first search over
    each sign's adjacency lists, each clique sorted, listed by least
    node; uses no connectivity code of ``bishops.signed_graph``."""

    def side(sign: int) -> list[list[int]]:
        neighbours: dict[int, list[int]] = {
            v: [] for v in range(1, graph.q + 1)}
        for i, j, edge_sign in graph.edges:
            if edge_sign == sign:
                neighbours[i].append(j)
                neighbours[j].append(i)
        seen: set[int] = set()
        cliques = []
        for start in range(1, graph.q + 1):
            if start in seen:
                continue
            seen.add(start)
            stack, clique = [start], []
            while stack:
                node = stack.pop()
                clique.append(node)
                for other in neighbours[node]:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
            cliques.append(sorted(clique))
        return cliques

    return side(POSITIVE), side(NEGATIVE)


def reference_irredundant_edges(graph: SignedGraph) -> tuple:
    """The edges, in order, that join two trees of their own sign's
    greedy forest over the edges before them."""
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(node: tuple[int, int]) -> tuple[int, int]:
        while parent.get(node, node) != node:
            node = parent[node]
        return node

    kept = []
    for i, j, sign in graph.edges:
        a, b = find((sign, i)), find((sign, j))
        if a != b:
            parent[b] = a
            kept.append((i, j, sign))
    return tuple(kept)


def per_subset_ranks(subset, q: int) -> tuple[int, int]:
    """The two routes computed afresh for one subset: exact rank of the
    stacked normals, and 2q minus the signed cliques of the subset read
    as a signed graph."""
    normals = [hyperplane_normal(h, q) for h in subset]
    pos, neg = signed_cliques(SignedGraph(q, tuple(subset)))
    return linalg.rank(normals), 2 * q - len(pos) - len(neg)


def reciprocity_sum(q: int, m: int, weight=factorial) -> int:
    """Sum over all labelled q-tuples of squares of the m x m board,
    repeats allowed, of the product of weight(k) over the diagonals and
    over the anti-diagonals, k the number of pieces on the line.

    With weight k!, each tuple counts the regions of the move
    arrangement whose closure holds it, so by Ehrhart reciprocity for
    the inside-out cube the sum is q! u(q; -m).  Shares no code with
    ``bishops.counting``."""
    squares = list(product(range(m), repeat=2))
    total = 0
    for placement in product(squares, repeat=q):
        term = 1
        for line in (Counter(x - y for x, y in placement),
                     Counter(x + y for x, y in placement)):
            for k in line.values():
                term *= weight(k)
        total += term
    return total


# the eight symmetries of the unit square, as maps of one piece's (x, y)
SQUARE_SYMMETRIES = (
    lambda x, y: (x, y), lambda x, y: (1 - x, y),
    lambda x, y: (x, 1 - y), lambda x, y: (1 - x, 1 - y),
    lambda x, y: (y, x), lambda x, y: (1 - y, x),
    lambda x, y: (y, 1 - x), lambda x, y: (1 - y, 1 - x),
)


def orbit_closure(points) -> set[tuple]:
    """Every image of the points (x_1, y_1, ..., x_q, y_q) under
    S_q x D_4: one symmetry of the unit square applied to every piece's
    (x_i, y_i), then the pieces in any order.  Shares no code with
    ``bishops.geometry``."""
    closure = set()
    for point in points:
        pieces = list(zip(point[::2], point[1::2]))
        for square in SQUARE_SYMMETRIES:
            moved = [square(x, y) for x, y in pieces]
            closure.update(tuple(c for piece in order for c in piece)
                           for order in permutations(moved))
    return closure


def cube_points(subset, q: int):
    """Yield (fixed coordinates, point) for each point of the unit cube
    that the independent ``subset`` pins with 2q - |subset| facet
    fixations, the point as (denominator, numerators) in lowest terms:
    every set of fixed coordinates, in ``combinations`` order, through
    the solve and cube filter of ``bishops.geometry``."""
    dim = 2 * q
    normals = geometry._normals(q)
    rows = [normals[h] for h in subset]
    for fixed in combinations(range(dim), dim - len(subset)):
        system = geometry._solve(rows, fixed, dim)
        if system is not None:
            for point in geometry._cube_filter(fixed, *system):
                yield fixed, point


def walk_vertices(q: int) -> list:
    """The lattice vertices by brute force: every independent set that
    ``independence_walk`` finds, fewest hyperplanes first and then in
    ``combinations`` order, with each of its sets of fixed coordinates
    (:func:`cube_points`).  Each point keeps the first defining set that
    pins it; the fixed values are its own 0/1 coordinates.  Of
    ``bishops.geometry`` it shares only the solve and cube filter: not
    the orbit representatives, the clique-graph criterion, the symmetry
    closure or the greedy defining sets."""
    found = {}
    # the walk yields subsets in index order, which a stable sort by
    # size turns into combinations() order, size by size
    for subset in sorted((s for s, m, _ in independence_walk(q) if m),
                         key=len):
        for fixed, point in cube_points(subset, q):
            if point not in found:
                d, numerators = point
                found[point] = LatticeVertex(
                    tuple(Fraction(n, d) for n in numerators), subset,
                    tuple(Fixation("x" if c % 2 == 0 else "y", c // 2 + 1,
                                   numerators[c] // d) for c in fixed))
    return sorted(found.values(), key=lambda vertex: vertex.point)


def closed_form_vertices(q: int) -> set[tuple]:
    """The vertex set in closed form, as points (x_1, y_1, ..., x_q, y_q):
    each piece at a corner of the unit square or at its center
    (1/2, 1/2), and a point with a piece at the center has another at a
    corner of A = {(1, 0), (0, 1)} and one at a corner of
    B = {(0, 0), (1, 1)}.  Imports nothing from ``bishops``."""
    a_corners, b_corners = {(1, 0), (0, 1)}, {(0, 0), (1, 1)}
    center = (Fraction(1, 2), Fraction(1, 2))
    points = set()
    for pieces in product((*a_corners, *b_corners, center), repeat=q):
        if center not in pieces or (a_corners & {*pieces}
                                    and b_corners & {*pieces}):
            points.add(tuple(c for piece in pieces for c in piece))
    return points


def set_partitions(q: int) -> list[frozenset]:
    """Every partition of the pieces 1..q, as a frozenset of blocks,
    each block a frozenset: piece k joins a block of a partition of
    1..k-1 or starts its own.  Shares no code with ``bishops.geometry``."""
    partitions = [frozenset()]
    for k in range(1, q + 1):
        partitions = [
            frozenset({*(b for b in p if b != block), block | {k}})
            for p in partitions for block in (*p, frozenset())]
    return partitions


def relabel_partition(partition: frozenset, labels) -> frozenset:
    """The partition with each piece i renamed labels[i - 1]."""
    return frozenset(frozenset(labels[i - 1] for i in block)
                     for block in partition)


def flat_orbit(pi: frozenset, sigma: frozenset, q: int) -> set[tuple]:
    """The images of the flat (pi, sigma), u = x + y constant on the
    blocks of pi and v = x - y on those of sigma, under every
    relabelling of the q pieces, each with and without the reflection
    x -> 1 - x, which exchanges u and 1 - v and so swaps pi and sigma."""
    orbit = set()
    for labels in permutations(range(1, q + 1)):
        image = (relabel_partition(pi, labels), relabel_partition(sigma, labels))
        orbit.update((image, image[::-1]))
    return orbit


def spanned_flat(subset, q: int) -> tuple[frozenset, frozenset]:
    """(pi, sigma) of the flat a set of attack hyperplanes spans: the
    positive and the negative cliques of the subset read as a signed
    graph (:func:`reference_signed_cliques`)."""
    return tuple(frozenset(map(frozenset, cliques)) for cliques
                 in reference_signed_cliques(SignedGraph(q, tuple(subset))))


def partition_pair_orbit_counts(q: int) -> dict[int, int]:
    """Orbits of S_q x Z_2 on the pairs (pi, sigma) of partitions of the
    q pieces, by rank 2q - |pi| - |sigma|, with S_q relabelling both and
    Z_2 swapping them, by Burnside's lemma over every permutation g:
    (g, 1) fixes the pairs of partitions g fixes, and (g, swap) fixes
    (pi, g pi) for each partition pi that g^2 fixes.  Shares no code
    with ``bishops.geometry``."""
    partitions = set_partitions(q)
    total: Counter = Counter()
    for labels in permutations(range(1, q + 1)):
        squared = [labels[i - 1] for i in labels]
        fixed = Counter(q - len(p) for p in partitions
                        if relabel_partition(p, labels) == p)
        for a, x in fixed.items():
            for b, y in fixed.items():
                total[a + b] += x * y
        for p in partitions:
            if relabel_partition(p, squared) == p:
                total[2 * (q - len(p))] += 1
    group = 2 * factorial(q)
    assert all(count % group == 0 for count in total.values())
    return {rank: total[rank] // group for rank in sorted(total)}
