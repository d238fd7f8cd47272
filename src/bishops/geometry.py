"""The bishops arrangement in R^{2q} and its lattice vertices.

Coordinates are interleaved (x_1, y_1, ..., x_q, y_q) throughout.  Each
attack hyperplane is the signed-graph edge (i, j, sign) that names its
equation, so a subset of the arrangement is a signed graph on the q
pieces, whose sign-class forests give an independent route to every
independence test made here.  The equation is written only in
:func:`hyperplane_normal`, which the matroid walk, the vertex searches
and the clique-graph re-check all read.  The matroid check walks the
independent sets and their one-hyperplane extensions depth first,
deciding both independence bits of each subset from its parent's by one
row reduction and at most one union-find merge.  In u = x + y, v = x - y
a set of hyperplanes spans the flat where u is constant on the blocks
of a partition pi of the pieces and v on those of sigma, and the points
a system pins depend only on the flat its hyperplanes span.  Both
vertex searches take one rule: take one spanning set of one flat
(pi, sigma) per orbit of relabelling the pieces and x -> 1 - x, with
one of each x_i <-> y_i pair of fixed-coordinate sets, and solve and
filter to the unit cube only the systems with D = 2, as integer
numerators over D; a singular system pins nothing and one with D = 1
only corners.  D comes from the clique-graph criterion, with no
elimination (Chaiken, Hanusa and Zaslavsky; Zaslavsky, "Signed graphs",
1982).  On the flat the unknowns are a_k = x_i + y_i per block k of pi
and b_l = y_i - x_i per block l of sigma, and fixing x_i or y_i to v is
the equation a_k -/+ b_l = 2v, a positive or negative edge of the
doubled clique graph Psi.  The square system is nonsingular exactly
when its edges form a spanning negative 1-forest of Psi: each
component holds one circle, and that circle is negative.  Along a tree
edge two values differ by an even number, up to sign, and the circle
gives 2a = 2 * (its signed sum of fixed values) at a node on it, so
every a and b of a component is an integer with the parity of that
component's circle sum.  So a loose x_i = (a_k - b_l) / 2 is integral
when blocks k and l share a component, and half of one circle sum
plus or minus the other, up to even terms, when they do not: D = 2
exactly when some piece with both coordinates loose has its blocks in
different components, else D = 1.  The period bound is the lcm of
those points' denominators; vertex enumeration adds the corners and
maps the points by the symmetries of the pieces and of the square.  A
vertex's first defining set fixes the facets it lies on and is the
greedy basis, as in any matroid, of the normals through it restricted
to its loose coordinates, by the walk's row reduction.  The
clique-graph solve rebuilds a vertex, checking its clique values once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import linalg
from .board import _require_int
from .signed_graph import (
    NEGATIVE,
    POSITIVE,
    CliqueGraph,
    Edge,
    SignedGraph,
    _require_sign,
    _solve_transpose,
    clique_graph,
)


class EnumerationBoundExceeded(ValueError):
    """The requested q is above the configured exhaustive-search bound."""


class SingularFixationError(ValueError):
    """The fixation edges do not form a spanning negative 1-forest, so
    the clique-graph matrix is singular."""


def move_arrangement(q: int) -> list[Edge]:
    """All 2 * C(q, 2) attack hyperplanes for q pieces, as edges."""
    _require_int(q, "q")
    if q < 0:
        raise ValueError("q must be nonnegative")
    # per pair, the x - y edge before the x + y one: vertex enumeration
    # keeps the first defining set of each point, in this order
    return [(i, j, sign) for i, j in combinations(range(1, q + 1), 2)
            for sign in (NEGATIVE, POSITIVE)]


def hyperplane_normal(edge: Edge, q: int) -> list[int]:
    """Coefficient vector over (x_1, y_1, ..., x_q, y_q) of the attack
    equation x_i + sign * y_i - x_j - sign * y_j = 0 of edge (i, j, sign):
    a positive edge shares x + y (northwest diagonals), a negative edge
    x - y (northeast diagonals).  The one place that equation is written."""
    _require_int(q, "q")
    i, j, sign = edge
    _require_int(i, "edge endpoint")
    _require_int(j, "edge endpoint")
    if not 1 <= i < j <= q:
        raise ValueError(f"need 1 <= i < j <= {q}, got ({i}, {j})")
    _require_sign(sign)
    normal = [0] * (2 * q)
    normal[2 * i - 2:2 * i] = 1, sign
    normal[2 * j - 2:2 * j] = -1, -sign
    return normal


def independence_walk(q: int) -> Iterator[tuple[tuple[Edge, ...], bool, bool]]:
    """Yield (subset, matrix independent, forests) once for each subset
    of the arrangement that is independent, or extends an independent
    one by one hyperplane of larger index, depth first in index order.

    A subset is expanded only when the matrix route calls it
    independent, since a dependent set has only dependent supersets.
    The matrix route keeps an echelon basis of the stacked normals and
    reduces the new normal against it (:func:`linalg.reduce_row`): the
    child is independent exactly when a nonzero row is left.  The graph
    route keeps one union-find per sign class, as class labels of the
    pieces that a merge relabels in a fresh copy: the child's edges
    still form a forest in each sign class exactly when the parent's do
    and the new edge joins two classes of its sign.  The two routes
    share nothing but the subset.  Two matroids with the same
    independent sets have the same rank function, and the least subset
    on which the routes disagree extends one on which they agree, so
    the walked subsets decide the rank identity on every subset.
    """
    # per hyperplane: its normal, and the two nodes it joins; the labels
    # of both union-finds share one tuple, nodes 0..q-1 being the pieces
    # in the positive class and q..2q-1 those in the negative
    steps = []
    for edge in move_arrangement(q):
        i, j, sign = edge
        offset = 0 if sign == POSITIVE else q
        steps.append((edge, hyperplane_normal(edge, q),
                      offset + i - 1, offset + j - 1))
    # (subset, index of its last hyperplane, echelon basis, class label
    # of each node, matrix independence, forest independence); a
    # dependent subset is never expanded, so its basis goes unread
    stack = [((), -1, (), tuple(range(2 * q)), True, True)]
    while stack:
        subset, last, basis, labels, independent, forests = stack.pop()
        yield subset, independent, forests
        if not independent:
            continue
        # pushed in reverse, so children are walked in index order
        for k in range(len(steps) - 1, last, -1):
            h, normal, i, j = steps[k]
            reduced = linalg.reduce_row(basis, normal)
            a, b = labels[i], labels[j]
            child_labels = labels if a == b else tuple(
                a if label == b else label for label in labels)
            stack.append(((*subset, h), k, (*basis, reduced), child_labels,
                          reduced is not None, forests and a != b))


def matroid_check(q: int, *, bound: int = 4) -> bool:
    """Exhaustively test that arrangement rank equals the direct sum of
    the two sign-class forest ranks, through the independent sets of
    the arrangement and their one-hyperplane extensions (see
    :func:`independence_walk`)."""
    _require_int(q, "q")
    _require_int(bound, "bound")
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q > bound:
        raise EnumerationBoundExceeded(
            f"matroid check for q={q} is above the bound {bound}")
    return all(m == f for _, m, f in independence_walk(q))


@dataclass(frozen=True, order=True)
class Fixation:
    """Pins one coordinate: axis "x" or "y", a 1-based piece index, and
    an integer value."""

    axis: str
    index: int
    value: int

    def __post_init__(self) -> None:
        if self.axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")
        _require_int(self.index, "piece index")
        if self.index < 1:
            raise ValueError("piece index must be at least 1")
        _require_int(self.value, "fixation value")

    @property
    def coordinate(self) -> str:
        return f"{self.axis}_{self.index}"

    def position(self) -> int:
        """Offset of the pinned coordinate in (x_1, y_1, ..., x_q, y_q)."""
        return 2 * (self.index - 1) + (0 if self.axis == "x" else 1)


@dataclass(frozen=True)
class LatticeVertex:
    """A point of R^{2q}, coordinates (x_1, y_1, ..., x_q, y_q), that is
    the unique solution of the recorded hyperplanes plus fixations."""

    point: tuple[Fraction, ...]
    hyperplanes: tuple[Edge, ...]
    fixations: tuple[Fixation, ...]


def _check_vertex_search(q: int, bound: int) -> None:
    """The argument rule of the two vertex searches."""
    _require_int(q, "q")
    _require_int(bound, "bound")
    if q < 1:
        raise ValueError("q must be at least 1")
    if q > bound:
        raise EnumerationBoundExceeded(
            f"vertex enumeration for q={q} is above the bound {bound}")


def _normals(q: int) -> dict[Edge, list[int]]:
    """The normal of each hyperplane, by hyperplane, in the order of
    :func:`move_arrangement`."""
    return {h: hyperplane_normal(h, q) for h in move_arrangement(q)}


def _solve(rows: Sequence[Sequence[int]], fixed: Sequence[int], dim: int
           ) -> tuple[list[int], int, list[list[int]]] | None:
    """(loose coordinates, D, X) of the system of the normals ``rows``
    with the coordinates ``fixed`` of ``dim`` fixed, or None when it is
    singular: for each value x_F of the fixed coordinates, loose
    coordinate t is X[t] . x_F / D, so every point it pins has a
    denominator dividing D."""
    loose = [c for c in range(dim) if c not in fixed]
    # N_L x_L = -N_F x_F, one right-hand column per fixed x
    system = linalg._solve_augmented([[n[c] for c in loose] + [
        -n[c] for c in fixed] for n in rows], len(loose))
    return None if system is None else (loose, *system)


def _cube_filter(fixed: Sequence[int], loose: Sequence[int], d: int,
                 columns: Sequence[Sequence[int]]) -> Iterator[
        tuple[int, tuple[int, ...]]]:
    """Yield each point of the unit cube that a 0/1 choice of the
    ``fixed`` coordinates pins (see :func:`_solve`), in lowest terms as
    (denominator, numerators).

    A loose coordinate's numerator under each choice of values is a
    subset sum of its row of X.  Each row's subset sums are built once,
    by doubling, and the choices are filtered against [0, D] one row at
    a time.  Choice k gives fixed coordinate t the bit m - 1 - t of k,
    m the number of fixed coordinates.
    """
    m = len(fixed)
    # per loose coordinate, its numerator under every choice
    sums = []
    for row in columns:
        column = [0]
        for entry in row:
            column = [a + b for a in column for b in (0, entry)]
        sums.append(column)
    kept = range(2 ** m)
    for column in sums:
        kept = [k for k in kept if 0 <= column[k] <= d]
    numerators = [0] * (len(fixed) + len(loose))
    for k in kept:
        for c, column in zip(loose, sums):
            numerators[c] = column[k]
        for t, c in enumerate(fixed):
            numerators[c] = (k >> (m - 1 - t) & 1) * d
        g = gcd(d, *numerators)
        yield d // g, tuple(n // g for n in numerators)


def verify_half_integrality(vertices: Iterable[LatticeVertex]) -> bool:
    """True iff every vertex is half-integral with matched pairs: each
    piece's (x_i, y_i) are both integers or both strict halves."""
    return all(x.denominator == y.denominator in (1, 2)
               for vertex in vertices
               for x, y in zip(vertex.point[::2], vertex.point[1::2]))


def denominator_lcm(vertices: Iterable[LatticeVertex]) -> int:
    """Least common multiple of every coordinate denominator; 1 when the
    collection is empty."""
    return lcm(*(c.denominator for v in vertices for c in v.point), 1)


def _row_orbit(columns: tuple[tuple[int, ...], ...],
               swaps: Sequence[int]) -> set[tuple[tuple[int, ...], ...]]:
    """The images of a matrix, as its sorted columns, under the orders of
    its rows that the transpositions of rows k and k + 1, k in
    ``swaps``, generate."""
    orbit, stack = {columns}, [columns]
    while stack:
        columns = stack.pop()
        for k in swaps:
            image = tuple(sorted((*c[:k], c[k + 1], c[k], *c[k + 2:])
                                 for c in columns))
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return orbit


def _flat_orbits(q: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield one pair (pi, sigma) of partitions of the pieces, as
    restricted-growth strings, of each orbit of S_q x Z_2 on the flats.

    Relabelling the pieces acts on pi and sigma together, and x -> 1 - x
    swaps them.  So pi is one partition of each shape, its blocks runs
    of consecutive pieces, largest first, and sigma one of each orbit
    of the relabellings that fix pi, of pi's shape or a later one.
    Those permute the pieces inside each block of pi, which leaves the
    matrix M[k][l] = |pi_k & sigma_l| up to the order of sigma's blocks,
    its columns, and permute pi's blocks of one size, M's rows of one
    sum.  When sigma has pi's shape, (pi, sigma) ~ (sigma, pi): M
    transposed.
    """
    # entry i - 1 is piece i's block; blocks are numbered by first use
    partitions: list[tuple[int, ...]] = [()]
    for _ in range(q):
        partitions = [(*s, b) for s in partitions
                      for b in range(max(s, default=-1) + 2)]
    shapes = {s: tuple(sorted(Counter(s).values(), reverse=True))
              for s in partitions}
    order = {shape: k for k, shape in enumerate(sorted(
        set(shapes.values()), reverse=True))}
    for shape, k in order.items():
        pi = tuple(b for b, size in enumerate(shape) for _ in range(size))
        swaps = [b for b in range(len(shape) - 1) if shape[b] == shape[b + 1]]
        seen: set[tuple[tuple[int, ...], ...]] = set()
        for sigma in partitions:
            if order[shapes[sigma]] < k:
                continue
            meets = [[0] * (max(sigma) + 1) for _ in shape]
            for b, c in zip(pi, sigma):
                meets[b][c] += 1
            columns = tuple(sorted(zip(*meets)))
            if columns not in seen:
                yield pi, sigma
                seen |= _row_orbit(columns, swaps)
                if shapes[sigma] == shape:
                    # sigma's blocks as rows, largest first
                    seen |= _row_orbit(tuple(sorted(zip(*sorted(
                        columns, key=sum, reverse=True)))), swaps)


def _spanning_set(pi: Sequence[int], sigma: Sequence[int]) -> tuple[Edge, ...]:
    """The hyperplanes that span the flat (pi, sigma) (:func:`_flat_orbits`)
    as a path on each block, in increasing piece order: positive edges
    on the blocks of pi, negative ones on those of sigma, sorted."""
    edges = []
    for partition, sign in ((pi, POSITIVE), (sigma, NEGATIVE)):
        last: dict[int, int] = {}
        for piece, block in enumerate(partition, 1):
            if block in last:
                edges.append((last[block], piece, sign))
            last[block] = piece
    return tuple(sorted(edges))


def _fixation_denominators(pi: Sequence[int], sigma: Sequence[int],
                           fixed_sets: Iterable[Sequence[int]]
                           ) -> Iterator[int]:
    """Yield, for each set F of the ``fixed_sets`` of coordinates, the D
    of the system of the flat (pi, sigma) (:func:`_flat_orbits`) with F
    fixed, as :func:`_solve` would find it, by the clique-graph
    criterion and with no elimination: 0 when the system is singular,
    else 1 or 2.

    Psi has a node per block of pi and of sigma; fixing x_i adds a
    positive edge, y_i a negative one, from piece i's block of pi to its
    block of sigma.  A union-find keeps each node's parity of path sign
    to its root, and accepts an edge that joins two components, not
    both with a circle, or that closes a negative first circle of its
    component; any other edge is dependent, so the square system is
    singular.  D = 2 exactly when a piece with both coordinates loose
    has its two blocks in different components.
    """
    blocks = max(pi) + 1
    nodes = blocks + max(sigma) + 1
    # per coordinate c of piece c // 2: the edge's two nodes, and 1 for
    # a fixed y, the negative edge
    ends = [(pi[c >> 1], blocks + sigma[c >> 1], c & 1)
            for c in range(2 * len(pi))]
    for fixed in fixed_sets:
        parent, parity = list(range(nodes)), [0] * nodes
        circled = [False] * nodes
        for c in fixed:
            k, l, sign = ends[c]
            while parent[k] != k:
                sign ^= parity[k]
                k = parent[k]
            while parent[l] != l:
                sign ^= parity[l]
                l = parent[l]
            if k != l and not (circled[k] and circled[l]):
                parent[k], parity[k] = l, sign
                circled[l] = circled[l] or circled[k]
            elif k == l and sign and not circled[k]:
                circled[k] = True
            else:
                yield 0
                break
        else:
            d = 1
            for c in range(0, len(ends), 2):
                if c not in fixed and c + 1 not in fixed:
                    k, l, _ = ends[c]
                    while parent[k] != k:
                        k = parent[k]
                    while parent[l] != l:
                        l = parent[l]
                    if k != l:
                        d = 2
                        break
            yield d


def _representative_points(q: int, normals: dict[Edge, list[int]]
                           ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield the cube points (:func:`_cube_filter`) of each system with
    D = 2 of the spanning set (:func:`_spanning_set`) of each flat orbit
    (:func:`_flat_orbits`), with the hyperplanes' ``normals``
    (:func:`_normals`).  Only the F of each pair {F, F with every
    x_i <-> y_i} that sorts first is taken: that swap maps each attack
    equation to plus or minus itself and the cube to itself, so F's swap
    image pins the swapped points.

    Each system's D comes from the clique-graph criterion
    (:func:`_fixation_denominators`; its parity argument is in the
    module docstring), and only those with D = 2 are solved
    (:func:`_solve`) and filtered, the solve re-checking each D it is
    handed."""
    dim = 2 * q
    # per count of fixed coordinates, the sets that sort no later than
    # their swap image; coordinate c of piece i swaps with c ^ 1
    fixed_sets = [[fixed for fixed in combinations(range(dim), m)
                   if tuple(sorted(c ^ 1 for c in fixed)) >= fixed]
                  for m in range(dim + 1)]
    for flat in _flat_orbits(q):
        subset = _spanning_set(*flat)
        rows = [normals[h] for h in subset]
        sets = fixed_sets[dim - len(subset)]
        for fixed, d in zip(sets, _fixation_denominators(*flat, sets)):
            if d == 2:
                system = _solve(rows, fixed, dim)
                if system is None or system[1] != 2:
                    raise AssertionError(
                        f"elimination finds no D = 2 for the fixed "
                        f"coordinates {fixed} of the flat {flat}")
                yield from _cube_filter(fixed, *system)


def period_upper_bound(q: int, *, bound: int = 3) -> int:
    """Geometric bound on the counting period: the denominator lcm of
    the lattice vertices, by the one rule of vertex enumeration, over
    the points of :func:`_representative_points`, since the symmetries
    keep every coordinate's denominator and a corner's is 1."""
    _check_vertex_search(q, bound)
    points = _representative_points(q, _normals(q))
    return lcm(1, *{d for d, _ in points})


def _square_closure(points: Iterable[tuple[int, tuple[int, ...]]]
                    ) -> set[tuple[int, tuple[int, ...]]]:
    """Every image of the points (D, numerators) under S_q x D_4: one
    symmetry of the square [0, D]^2, composed of x -> D - x, y -> D - y
    and x <-> y, applied to every piece, then the pieces in any order.
    Each image is in lowest terms when its point is."""
    closed: set[tuple[int, tuple[int, ...]]] = set()
    for point in points:
        if point in closed:
            continue
        d, numerators = point
        pieces = list(zip(numerators[::2], numerators[1::2]))
        for swap, flip_x, flip_y in product((False, True), repeat=3):
            moved = [(d - x if flip_x else x, d - y if flip_y else y)
                     for x, y in ((b, a) if swap else (a, b)
                                  for a, b in pieces)]
            closed.update((d, tuple(c for piece in order for c in piece))
                          for order in permutations(moved))
    return closed


def _defining_set(point: tuple[int, tuple[int, ...]],
                  normals: dict[Edge, list[int]]
                  ) -> tuple[tuple[Edge, ...], tuple[int, ...]]:
    """(hyperplanes, fixed coordinates) of the first system, fewest
    hyperplanes first and then in ``combinations`` order, that pins the
    cube point (D, numerators), with the hyperplanes' ``normals``
    (:func:`_normals`).  Such a system uses only hyperplanes through the
    point and facets it lies on, so it takes at least one hyperplane per
    loose coordinate, inside (0, D), and then fixes every facet: the
    first such basis in ``combinations`` order is the greedy one, as in
    any matroid."""
    d, numerators = point
    loose = [c for c, n in enumerate(numerators) if 0 < n < d]
    subset, basis = [], []
    for h, normal in normals.items():
        if len(basis) < len(loose) and not sum(map(mul, normal, numerators)):
            reduced = linalg.reduce_row(basis, [normal[c] for c in loose])
            if reduced is not None:
                basis.append(reduced)
                subset.append(h)
    if len(basis) == len(loose):
        return tuple(subset), tuple(
            c for c, n in enumerate(numerators) if n in (0, d))
    raise AssertionError("no system pins the point ("
                         + ", ".join(str(Fraction(n, d)) for n in numerators)
                         + ")")


def enumerate_lattice_vertices(q: int, *, bound: int = 3) -> list[LatticeVertex]:
    """All vertices of the inside-out unit cube for q bishops, sorted by
    point, each with its first defining set (:func:`_defining_set`).
    Relabelling the pieces and a symmetry of the unit square applied to
    every piece map the arrangement and the cube to themselves, so the
    vertices are the closure (:func:`_square_closure`) of the corners
    and of the representatives' points (:func:`_representative_points`),
    the one rule that also gives :func:`period_upper_bound`.
    """
    _check_vertex_search(q, bound)
    normals = _normals(q)
    points = {(1, corner) for corner in product((0, 1), repeat=2 * q)}
    points.update(_representative_points(q, normals))
    closed = _square_closure(points)
    # the points are distinct, so their numerators over one common
    # denominator sort them as their coordinates do
    scale = lcm(*(d for d, _ in closed))
    vertices = []
    for point in sorted(closed, key=lambda p: [n * (scale // p[0])
                                               for n in p[1]]):
        d, numerators = point
        subset, fixed = _defining_set(point, normals)
        vertices.append(LatticeVertex(
            tuple(Fraction(n, d) for n in numerators), subset, tuple(
                Fixation("x" if c % 2 == 0 else "y", c // 2 + 1,
                         numerators[c] // d) for c in fixed)))
    return vertices


@dataclass(frozen=True)
class CliqueSolution:
    """Solution of a clique-graph system: the point, the per-positive-
    clique sums a_k = x_i + y_i, the per-negative-clique values
    b_l = -x_i + y_i, and the clique graph whose cliques index a and b."""

    point: tuple[Fraction, ...]
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    clique: CliqueGraph


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def solve_via_clique_graph(graph: SignedGraph,
                           fixations: Sequence[Fixation]) -> CliqueSolution:
    """Reconstruct the point pinned by a signed graph's equalities plus
    integer fixations, through the clique-graph system M^T (a; b) = 2(c; d).

    Pieces joined by positive edges share x_i + y_i (the clique value
    a_k), pieces joined by negative edges share -x_i + y_i (the value
    b_l).  Psi has one node per clique, the positive ones 1..|pos|
    first, and one edge per fixation: fixing x_i or y_i, where piece i
    has clique-graph edge (k, l), adds the edge (k + 1, |pos| + l + 1),
    positive for x and negative for y, which is the x or y copy of that
    edge in the doubled clique graph.  Psi must be a spanning negative
    1-forest, which is exactly what makes M = H(Psi) nonsingular.  The
    right-hand side 2(c; d) is even, so a and b come out integral, which
    is to say every coordinate x_i = (a_k - b_l)/2, y_i = (a_k + b_l)/2
    is a weak half integer with matched parity inside each piece's pair.
    That is re-checked once, on a and b; each edge's attack equation
    (its :func:`hyperplane_normal`) and each fixation is then checked on
    2 * point in integers, and only the returned point is a Fraction.
    """
    clique = clique_graph(graph)
    for fixation in fixations:
        if not 1 <= fixation.index <= graph.q:
            raise ValueError(
                f"fixation {fixation.coordinate} is outside 1..{graph.q}")
    offset = len(clique.pos)
    ends = [clique.edges[fixation.index - 1] for fixation in fixations]
    psi = SignedGraph(offset + len(clique.neg), tuple(
        (k + 1, offset + l + 1, POSITIVE if fixation.axis == "x" else NEGATIVE)
        for fixation, (k, l) in zip(fixations, ends)))
    values = _solve_transpose(psi, [2 * fixation.value
                                    for fixation in fixations])
    if values is None:
        raise SingularFixationError(
            "the fixation edges must form a spanning negative 1-forest "
            "of the doubled clique graph; M would be singular")
    _require(all(value.denominator == 1 for value in values),
             "piece coordinates must be integral or both strict halves")
    a, b = tuple(values[:offset]), tuple(values[offset:])
    twice = [t for k, l in clique.edges for t in (
        a[k].numerator - b[l].numerator, a[k].numerator + b[l].numerator)]
    for i, j, sign in graph.edges:
        normal = hyperplane_normal((i, j, sign), graph.q)
        _require(sum(n * t for n, t in zip(normal, twice)) == 0,
                 f"the point is off the equation of edge ({i},{j},{sign:+d})")
    for fixation in fixations:
        _require(twice[fixation.position()] == 2 * fixation.value,
                 f"fixation {fixation.coordinate} = {fixation.value} violated")
    return CliqueSolution(tuple(Fraction(t, 2) for t in twice), a, b, clique)


def solve_incidence_transpose(graph: SignedGraph,
                              rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Solve H(graph)^T w = rhs exactly; the graph must be a negative
    1-forest so that its square incidence matrix is nonsingular."""
    if len(graph.edges) != graph.q:
        raise ValueError("the incidence matrix must be square")
    if len(rhs) != graph.q:
        raise ValueError("need one right-hand side entry per edge")
    solution = _solve_transpose(graph, rhs)
    if solution is None:
        raise SingularFixationError("the incidence matrix is singular")
    return solution
