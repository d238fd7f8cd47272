"""The bishops arrangement in R^{2q} and its lattice vertices.

Coordinates are interleaved (x_1, y_1, ..., x_q, y_q) throughout.  The
attack hyperplanes pair off piece indices; subsets of them are mirrored
by signed graphs, whose clique structure gives an independent route to
every rank computed here.  Lattice vertices of the inside-out unit cube
are enumerated outright, as integer numerators over one denominator per
system with a ``Fraction`` only for a kept vertex, and checked for
half-integrality; the clique-graph linear system reconstructs a vertex
from its fixations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, product
from math import gcd, lcm
from typing import Iterable, Sequence

from . import linalg
from .signed_graph import (
    NEGATIVE,
    POSITIVE,
    SignedGraph,
    clique_graph,
    double_signed,
    incidence_matrix,
    is_negative_one_forest,
    signed_cliques,
)


class EnumerationBoundExceeded(ValueError):
    """The requested q is above the configured exhaustive-search bound."""


class SingularFixationError(ValueError):
    """The fixation edges do not form a spanning negative 1-forest, so
    the clique-graph matrix is singular."""


class NonIntegerFixationError(ValueError):
    """Fixation values must be integers."""


@dataclass(frozen=True, order=True)
class BishopHyperplane:
    """Attack locus of pieces i < j: sign +1 is x_i - y_i = x_j - y_j
    (northeast diagonals), sign -1 is x_i + y_i = x_j + y_j (northwest
    diagonals)."""

    i: int
    j: int
    sign: int

    def __post_init__(self) -> None:
        if not 1 <= self.i < self.j:
            raise ValueError("need 1 <= i < j")
        if self.sign not in (POSITIVE, NEGATIVE):
            raise ValueError("sign must be +1 or -1")


def move_arrangement(q: int) -> list[BishopHyperplane]:
    """All 2 * C(q, 2) attack hyperplanes for q pieces."""
    return [BishopHyperplane(i, j, sign)
            for i, j in combinations(range(1, q + 1), 2)
            for sign in (POSITIVE, NEGATIVE)]


def hyperplane_normal(h: BishopHyperplane, q: int) -> list[int]:
    """Coefficient vector of the hyperplane equation over
    (x_1, y_1, ..., x_q, y_q)."""
    if h.j > q:
        raise ValueError(f"piece index {h.j} out of range for q={q}")
    row = [0] * (2 * q)
    row[2 * (h.i - 1)] = 1
    row[2 * (h.i - 1) + 1] = -h.sign
    row[2 * (h.j - 1)] = -1
    row[2 * (h.j - 1) + 1] = h.sign
    return row


def subset_signed_graph(subset: Iterable[BishopHyperplane], q: int) -> SignedGraph:
    """Signed graph on the q pieces with one edge (i, j, sign) per
    hyperplane of the subset."""
    return SignedGraph(q, tuple((h.i, h.j, h.sign) for h in subset))


def _two_route_ranks(subset: Sequence[BishopHyperplane],
                     q: int) -> tuple[int, int]:
    """(exact rank of the stacked normals, sum of the two sign-class
    forest ranks of the mirror signed graph)."""
    normals = [hyperplane_normal(h, q) for h in subset]
    matrix_rank = linalg.rank(normals) if normals else 0
    pos, neg = signed_cliques(subset_signed_graph(subset, q))
    return matrix_rank, 2 * q - len(pos) - len(neg)


def codim_of_subset(subset: Iterable[BishopHyperplane], q: int) -> int:
    """Codimension of the intersection of the subset, computed both as
    the exact rank of the stacked normals and as the sum of the two
    sign-class forest ranks of the mirror signed graph.

    The two routes must agree; a mismatch is a build-stopping bug, not a
    recoverable condition.
    """
    matrix_rank, graph_rank = _two_route_ranks(list(subset), q)
    if matrix_rank != graph_rank:
        raise AssertionError(
            f"codimension mismatch for q={q}: matrix rank {matrix_rank}, "
            f"sign-class rank {graph_rank}")
    return matrix_rank


def matroid_check(q: int, *, bound: int = 4) -> bool:
    """Exhaustively test that arrangement rank equals the direct sum of
    the two sign-class forest ranks, over every one of the
    2^(2*C(q,2)) subsets of the arrangement."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q > bound:
        raise EnumerationBoundExceeded(
            f"matroid check for q={q} needs 2^{q * (q - 1)} subsets; "
            f"the bound is {bound}")
    arrangement = move_arrangement(q)
    for size in range(len(arrangement) + 1):
        for subset in combinations(arrangement, size):
            matrix_rank, graph_rank = _two_route_ranks(subset, q)
            if matrix_rank != graph_rank:
                return False
    return True


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
        if self.index < 1:
            raise ValueError("piece index must be at least 1")
        value = self.value
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise NonIntegerFixationError(
                    f"fixation value {value} is not an integer")
            value = int(value)
        if not isinstance(value, int) or isinstance(value, bool):
            raise NonIntegerFixationError(
                f"fixation value {value!r} is not an integer")
        object.__setattr__(self, "value", value)

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
    hyperplanes: tuple[BishopHyperplane, ...]
    fixations: tuple[Fixation, ...]


def enumerate_lattice_vertices(q: int, *, bound: int = 3) -> list[LatticeVertex]:
    """All vertices of the inside-out unit cube for q bishops.

    Every choice of k hyperplanes plus 2q - k facet fixations (values 0
    or 1) whose system has a unique solution contributes its solution,
    filtered to the cube.  Substituting the fixed coordinates leaves a
    k x k system on the loose ones, eliminated once per choice of fixed
    coordinates into integer numerators over one positive denominator
    D, so each 0/1 choice of values is an integer column sum tested
    against [0, D]; a ``Fraction`` is built only for a vertex that is
    kept.  Points reachable from several defining sets are kept once,
    with the first defining set in iteration order; the result is
    sorted by coordinates, so it is deterministic.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if q > bound:
        raise EnumerationBoundExceeded(
            f"vertex enumeration for q={q} is above the bound {bound}")
    dim = 2 * q
    arrangement = move_arrangement(q)
    # keyed by the point in lowest terms: (denominator, numerators)
    found: dict[tuple[int, tuple[int, ...]], LatticeVertex] = {}
    for k in range(dim + 1):
        for subset in combinations(arrangement, k):
            normals = [hyperplane_normal(h, q) for h in subset]
            # dependent attack equations can never complete to a
            # uniquely solvable square system
            if normals and linalg.rank(normals) < k:
                continue
            for fixed in combinations(range(dim), dim - k):
                loose = [c for c in range(dim) if c not in fixed]
                # N_L x_L = -N_F x_F, one right-hand column per fixed x
                solved = linalg.solve_integral(
                    [[row[c] for c in loose] for row in normals],
                    [[-row[c] for c in fixed] for row in normals])
                if solved is None:
                    continue
                d, columns = solved
                numerators = [0] * dim
                for values in product((0, 1), repeat=dim - k):
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


def verify_half_integrality(vertices: Iterable[LatticeVertex]) -> bool:
    """True iff every coordinate has denominator 1 or 2 and, within each
    piece's pair (x_i, y_i), both are integers or both are strict
    halves."""
    for vertex in vertices:
        denominators = [c.denominator for c in vertex.point]
        if any(d not in (1, 2) for d in denominators):
            return False
        for at in range(0, len(denominators), 2):
            if denominators[at] != denominators[at + 1]:
                return False
    return True


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
    clique sums a_k = x_i + y_i, and the per-negative-clique values
    b_l = -x_i + y_i."""

    point: tuple[Fraction, ...]
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _solve_transpose(graph: SignedGraph,
                     rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Exact solution of H(graph)^T w = rhs for a graph the caller has
    already recognized as a negative 1-forest."""
    transposed = [list(column) for column in zip(*incidence_matrix(graph))]
    solution = linalg.solve(transposed, list(rhs))
    _require(solution.status == linalg.UNIQUE,
             "a negative 1-forest must give a nonsingular system")
    return solution.point


def solve_via_clique_graph(graph: SignedGraph,
                           fixations: Sequence[Fixation]) -> CliqueSolution:
    """Reconstruct the point pinned by a signed graph's equalities plus
    integer fixations, through the clique-graph system M^T (a; b) = 2(c; d).

    Pieces joined by positive edges share the coordinate sum
    x_i + y_i (the clique value a_k); pieces joined by negative edges
    share -x_i + y_i (the value b_l).  Each fixation selects the x or y
    edge of its piece in the doubled clique graph (x is positive, y is
    negative); those edges must form a spanning negative 1-forest, which
    is exactly what makes M = H(Psi) nonsingular.  The right-hand side
    2(c; d) is even, so a and b come out integral and every coordinate
    x_i = (a_k - b_l)/2, y_i = (a_k + b_l)/2 is a weak half integer with
    matched parity inside each piece's pair; both facts are re-checked
    on the way out, as is every defining equation.
    """
    clique = clique_graph(graph)
    n_pos = len(clique.pos)
    for fixation in fixations:
        if not 1 <= fixation.index <= graph.q:
            raise ValueError(
                f"fixation {fixation.coordinate} is outside 1..{graph.q}")
    # the doubled clique graph lists piece i's x edge, then its y edge,
    # in the same order as the coordinates
    doubled = double_signed(clique)
    psi = SignedGraph(doubled.q, tuple(doubled.edges[fixation.position()]
                                       for fixation in fixations))
    if not is_negative_one_forest(psi):
        raise SingularFixationError(
            "the fixation edges must form a spanning negative 1-forest "
            "of the doubled clique graph; M would be singular")
    values = _solve_transpose(
        psi, [2 * Fraction(fixation.value) for fixation in fixations])
    a = tuple(values[:n_pos])
    b = tuple(values[n_pos:])
    _require(all(v.denominator == 1 for v in values),
             "an even right-hand side must give integral clique values")
    point: list[Fraction] = []
    for k, l in clique.edges:
        point.append((a[k] - b[l]) / 2)
        point.append((a[k] + b[l]) / 2)
    for i, j, sign in graph.edges:
        xi, yi = point[2 * (i - 1)], point[2 * (i - 1) + 1]
        xj, yj = point[2 * (j - 1)], point[2 * (j - 1) + 1]
        if sign == POSITIVE:
            _require(xi + yi == xj + yj,
                     f"coordinate sums differ across positive edge ({i},{j})")
        else:
            _require(xi - yi == xj - yj,
                     f"coordinate differences differ across negative edge ({i},{j})")
    for fixation in fixations:
        _require(point[fixation.position()] == fixation.value,
                 f"fixation {fixation.coordinate} = {fixation.value} violated")
    for at in range(0, len(point), 2):
        _require(point[at].denominator == point[at + 1].denominator
                 and point[at].denominator in (1, 2),
                 "piece coordinates must be integral or both strict halves")
    return CliqueSolution(tuple(point), a, b)


def solve_incidence_transpose(graph: SignedGraph,
                              rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Solve H(graph)^T w = rhs exactly; the graph must be a negative
    1-forest so that its square incidence matrix is nonsingular."""
    if len(graph.edges) != graph.q:
        raise ValueError("the incidence matrix must be square")
    if len(rhs) != graph.q:
        raise ValueError("need one right-hand side entry per edge")
    if not is_negative_one_forest(graph):
        raise SingularFixationError("the incidence matrix is singular")
    return _solve_transpose(graph, rhs)


def vertices_to_json(vertices: Iterable[LatticeVertex]) -> str:
    """JSON list with each vertex's coordinates as "num/den" strings and
    its defining hyperplanes and fixations."""
    payload = []
    for vertex in vertices:
        payload.append({
            "point": [f"{c.numerator}/{c.denominator}" for c in vertex.point],
            "hyperplanes": [
                {"i": h.i, "j": h.j, "sign": "+" if h.sign == POSITIVE else "-"}
                for h in vertex.hyperplanes
            ],
            "fixations": [
                {"coordinate": f.coordinate, "value": f.value}
                for f in vertex.fixations
            ],
        })
    return json.dumps(payload, indent=2)
