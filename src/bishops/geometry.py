"""The bishops arrangement in R^{2q} and its lattice vertices.

Coordinates are interleaved (x_1, y_1, ..., x_q, y_q) throughout.  Each
attack hyperplane is the signed-graph edge (i, j, sign) that names its
equation, so a subset of the arrangement is a signed graph on the q
pieces, whose sign-class forests give an independent route to every
independence test made here.  The equation is written only in
:func:`hyperplane_normal`, which the matroid walk, vertex enumeration
and the clique-graph re-check all read.  The matroid check walks the
independent sets and their one-hyperplane extensions depth first,
deciding both independence bits of each subset from its parent's by one
row reduction and at most one union-find merge.  Lattice vertices of
the inside-out unit cube are enumerated over the walk's independent sets,
as integer numerators over one denominator per system with a
``Fraction`` only for a kept vertex, and checked for half-integrality;
the clique-graph linear system reconstructs a vertex from its fixations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, product
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from . import linalg
from .signed_graph import (
    NEGATIVE,
    POSITIVE,
    CliqueGraph,
    Edge,
    SignedGraph,
    _require_int,
    _require_sign,
    _solve_transpose,
    clique_graph,
)


class EnumerationBoundExceeded(ValueError):
    """The requested q is above the configured exhaustive-search bound."""


class SingularFixationError(ValueError):
    """The fixation edges do not form a spanning negative 1-forest, so
    the clique-graph matrix is singular."""


class NonIntegerFixationError(ValueError):
    """Fixation values must be integers."""


def move_arrangement(q: int) -> list[Edge]:
    """All 2 * C(q, 2) attack hyperplanes for q pieces, as edges."""
    # per pair, the x - y edge before the x + y one: vertex enumeration
    # keeps the first defining set of each point, in this order
    return [(i, j, sign) for i, j in combinations(range(1, q + 1), 2)
            for sign in (NEGATIVE, POSITIVE)]


def hyperplane_normal(edge: Edge, q: int) -> list[int]:
    """Coefficient vector over (x_1, y_1, ..., x_q, y_q) of the attack
    equation x_i + sign * y_i - x_j - sign * y_j = 0 of edge (i, j, sign):
    a positive edge shares x + y (northwest diagonals), a negative edge
    x - y (northeast diagonals).  The one place that equation is written."""
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
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise NonIntegerFixationError(
                f"fixation value {self.value!r} is not an integer")

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


def enumerate_lattice_vertices(q: int, *, bound: int = 3) -> list[LatticeVertex]:
    """All vertices of the inside-out unit cube for q bishops.

    Every choice of k independent hyperplanes (those that the matrix
    route of :func:`independence_walk` calls independent) plus 2q - k facet
    fixations (values 0 or 1) whose system has a unique solution
    contributes its solution, filtered to the cube.  Substituting the
    fixed coordinates leaves a k x k system on the loose ones,
    eliminated once per choice of fixed coordinates into integer
    numerators over one positive denominator D, so each 0/1 choice of
    values is an integer column sum tested against [0, D]; a
    ``Fraction`` is built only for a vertex that is kept.  Points
    reachable from several defining sets are kept once, with the first
    defining set in iteration order; the result is sorted by
    coordinates, so it is deterministic.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if q > bound:
        raise EnumerationBoundExceeded(
            f"vertex enumeration for q={q} is above the bound {bound}")
    dim = 2 * q
    # keyed by the point in lowest terms: (denominator, numerators)
    found: dict[tuple[int, tuple[int, ...]], LatticeVertex] = {}
    # the walk yields subsets in index order, which a stable sort by
    # size turns into combinations() order, size by size
    for subset in sorted((s for s, m, _ in independence_walk(q) if m),
                         key=len):
        normals = [hyperplane_normal(h, q) for h in subset]
        for fixed in combinations(range(dim), dim - len(subset)):
            loose = [c for c in range(dim) if c not in fixed]
            # N_L x_L = -N_F x_F, one right-hand column per fixed x
            solved = linalg.solve_integral(
                [[row[c] for c in loose] for row in normals],
                [[-row[c] for c in fixed] for row in normals])
            if solved is None:
                continue
            d, columns = solved
            numerators = [0] * dim
            for values in product((0, 1), repeat=len(fixed)):
                for c, row in zip(loose, columns):
                    numerators[c] = sum(compress(row, values))
                if any(not 0 <= numerators[c] <= d for c in loose):
                    continue
                for c, v in zip(fixed, values):
                    numerators[c] = v * d
                g = gcd(d, *numerators)
                key = (d // g, tuple(n // g for n in numerators))
                if key in found:
                    continue
                fixations = tuple(
                    Fixation("x" if c % 2 == 0 else "y", c // 2 + 1, v)
                    for c, v in zip(fixed, values))
                point = tuple(Fraction(n, d) for n in numerators)
                found[key] = LatticeVertex(point, subset, fixations)
    return sorted(found.values(), key=lambda vertex: vertex.point)


def _half_integral(point: Sequence[Fraction]) -> bool:
    """True iff each piece's (x_i, y_i) are both integers or both strict halves."""
    return all(x.denominator == y.denominator in (1, 2)
               for x, y in zip(point[::2], point[1::2]))


def verify_half_integrality(vertices: Iterable[LatticeVertex]) -> bool:
    """True iff every vertex is half-integral with matched pairs."""
    return all(_half_integral(vertex.point) for vertex in vertices)


def denominator_lcm(vertices: Iterable[LatticeVertex]) -> int:
    """Least common multiple of every coordinate denominator; 1 when the
    collection is empty."""
    return lcm(*(c.denominator for v in vertices for c in v.point), 1)


def period_upper_bound(q: int, *, bound: int = 3) -> int:
    """Geometric bound on the counting period: the denominator lcm of
    the enumerated lattice vertices."""
    return denominator_lcm(enumerate_lattice_vertices(q, bound=bound))


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
    edge in the doubled clique graph.  Psi must
    be a spanning negative 1-forest, which is exactly what makes
    M = H(Psi) nonsingular.  The right-hand side 2(c; d) is even, so a
    and b come out integral, which is to say every coordinate
    x_i = (a_k - b_l)/2, y_i = (a_k + b_l)/2 is a weak half integer with
    matched parity inside each piece's pair.  That is re-checked on the
    way out, as is every fixation and every edge's attack equation, as
    the dot product of its :func:`hyperplane_normal` with 2 * point.
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
    a, b = tuple(values[:offset]), tuple(values[offset:])
    point = [c for k, l in clique.edges
             for c in ((a[k] - b[l]) / 2, (a[k] + b[l]) / 2)]
    _require(_half_integral(point),
             "piece coordinates must be integral or both strict halves")
    twice = [c.numerator * (2 // c.denominator) for c in point]
    for i, j, sign in graph.edges:
        normal = hyperplane_normal((i, j, sign), graph.q)
        _require(sum(n * t for n, t in zip(normal, twice)) == 0,
                 f"the point is off the equation of edge ({i},{j},{sign:+d})")
    for fixation in fixations:
        _require(point[fixation.position()] == fixation.value,
                 f"fixation {fixation.coordinate} = {fixation.value} violated")
    return CliqueSolution(tuple(point), a, b, clique)


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
