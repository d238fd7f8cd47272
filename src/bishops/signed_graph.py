"""Signed multigraphs and their calculus.

Nodes are v_1..v_q; edges carry a sign, parallel edges are allowed and
keep their construction order, loops are not allowed.  The module covers
components, balance and rank, incidence matrices, signed cliques, the
clique graph, irredundant reduction, negative-1-forest recognition with
its incidence-transpose solve, and a text exchange format, with all
connectivity in two greedy passes, each a union-find whose finds halve
the paths.  Rank and balance come from one pass of the frame matroid
(:func:`_frame`), whose union-find keeps path sign parity: it keeps at
most one circle, a negative one, in each of its components, and its
kept edges number |N| minus the balanced components.  Everything else
is one pass of the graphic matroid (:func:`_forest`), which labels each
node by the least node of its class and flags the edges that merged two
classes: over all edges its classes are the components, and over the
sign double, each piece once in the positive class and once in the
negative, its classes are the signed cliques and its merging edges the
irredundant reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from . import linalg
from .board import _require_int

POSITIVE = 1
NEGATIVE = -1

Edge = tuple[int, int, int]

_SIGN_TOKENS = {"+": POSITIVE, "-": NEGATIVE}
_SIGN_NAMES = {POSITIVE: "+", NEGATIVE: "-"}


def _require_sign(sign: object) -> None:
    """Refuse an edge sign other than the int +1 or -1: a float or a
    bool compares equal to one but would carry into exact arithmetic."""
    if type(sign) is not int or sign not in (POSITIVE, NEGATIVE):
        raise ValueError(f"edge sign must be the int +1 or -1, got {sign!r}")


@dataclass(frozen=True)
class SignedGraph:
    """Multigraph on q nodes with edges (i, j, sign), sign being +1 or -1.

    Endpoints are normalized to i < j; edge order is preserved.
    """

    q: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        _require_int(self.q, "node count")
        if self.q < 0:
            raise ValueError("node count must be nonnegative")
        normalized = []
        for i, j, sign in self.edges:
            _require_int(i, "edge endpoint")
            _require_int(j, "edge endpoint")
            if i == j:
                raise ValueError(f"loop at node {i} is not allowed")
            if not (1 <= i <= self.q and 1 <= j <= self.q):
                raise ValueError(f"edge ({i},{j}) is outside 1..{self.q}")
            _require_sign(sign)
            normalized.append((i, j, sign) if i < j else (j, i, sign))
        object.__setattr__(self, "edges", tuple(normalized))


def _forest(size: int, pairs: Iterable[tuple[int, int]]
            ) -> tuple[list[int], list[bool]]:
    """(labels, merged) of one greedy pass of the graphic matroid over the
    ``pairs`` (a, b) on the nodes 0..size-1: labels[v] is the least node
    of v's class, and merged[k] says whether pair k joined two classes,
    so the merging pairs are a spanning forest.

    Each find halves its path, and a merge hangs the larger root under
    the smaller, so no node's parent is larger than the node and one
    ascending sweep turns the parents into the labels.
    """
    parent = list(range(size))
    merged = []
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a > b:
            a, b = b, a
        parent[b] = a
        merged.append(a != b)
    for node in range(size):
        parent[node] = parent[parent[node]]
    return parent, merged


def _classes(labels: Sequence[int]) -> list[list[int]]:
    """The 1-based nodes of each label, ascending, listed by least node."""
    classes: dict[int, list[int]] = {}
    for node, label in enumerate(labels, 1):
        classes.setdefault(label, []).append(node)
    return list(classes.values())


def _by_sign(graph: SignedGraph) -> tuple[list[int], list[bool]]:
    """One :func:`_forest` pass on the sign double: piece i is node i - 1
    in the positive class and q + i - 1 in the negative one."""
    q = graph.q
    return _forest(2 * q, ((i - 1, j - 1) if sign == POSITIVE
                           else (q + i - 1, q + j - 1)
                           for i, j, sign in graph.edges))


def components(graph: SignedGraph) -> list[list[int]]:
    """Connected components of the underlying graph, each sorted, listed
    by least node."""
    labels = _forest(graph.q, ((i - 1, j - 1) for i, j, _ in graph.edges))[0]
    return _classes(labels)


def _frame(size: int, edges: Iterable[tuple[int, int, int]]
           ) -> tuple[int, int]:
    """(kept, circles) of one greedy pass of the frame matroid over the
    ``edges`` (a, b, odd) on the nodes 0..size-1, odd being 1 for a
    negative edge.

    A union-find keeps each node's parity of path sign to its parent,
    halving paths as it finds.  An edge is kept when it joins two
    components that do not both hold a circle, or when it closes its
    component's first circle and that circle is negative; any other edge
    is dependent.  So the kept edges are a basis: each of their
    components holds at most one circle, and kept, the joins plus the
    circles, is the rank |N| - b, b counting the balanced components of
    the graph (Zaslavsky, "Signed graphs", 1982).  When every edge is
    kept, circles counts the components that hold one.
    """
    parent, parity = list(range(size)), [0] * size
    circled = [False] * size
    joined = circles = 0
    for a, b, odd in edges:
        # find each end's root, folding its parity into odd
        while parent[a] != a:
            up = parent[a]
            parity[a] ^= parity[up]
            parent[a] = parent[up]
            odd ^= parity[a]
            a = parent[a]
        while parent[b] != b:
            up = parent[b]
            parity[b] ^= parity[up]
            parent[b] = parent[up]
            odd ^= parity[b]
            b = parent[b]
        if a != b and not (circled[a] and circled[b]):
            parent[a], parity[a] = b, odd
            circled[b] = circled[b] or circled[a]
            joined += 1
        elif a == b and odd and not circled[a]:
            circled[a] = True
            circles += 1
    return joined + circles, circles


def rank(graph: SignedGraph) -> int:
    """|N| - b, where b counts the balanced components: the edges that
    one frame-matroid pass keeps (:func:`_frame`).  The result equals
    the incidence matrix's rank, as the tests check."""
    return _frame(graph.q, ((i - 1, j - 1, sign == NEGATIVE)
                            for i, j, sign in graph.edges))[0]


def incidence_matrix(graph: SignedGraph) -> list[list[int]]:
    """Node-by-edge matrix whose column nonzeros multiply to minus the
    edge sign: a positive edge gets +1 at its smaller endpoint and -1 at
    the larger, a negative edge +1 at both."""
    matrix = [[0] * len(graph.edges) for _ in range(graph.q)]
    for column, (i, j, sign) in enumerate(graph.edges):
        matrix[i - 1][column] = 1
        matrix[j - 1][column] = -1 if sign == POSITIVE else 1
    return matrix


def signed_cliques(graph: SignedGraph) -> tuple[list[list[int]], list[list[int]]]:
    """(positive cliques, negative cliques): the components of the
    spanning all-positive and all-negative subgraphs.  Isolated nodes
    appear as singletons on both sides."""
    q, labels = graph.q, _by_sign(graph)[0]
    return _classes(labels[:q]), _classes(labels[q:])


@dataclass(frozen=True)
class CliqueGraph:
    """Bipartite graph on positive cliques vs negative cliques.

    ``edges[i] = (k, l)`` says node v_{i+1} joins positive clique k and
    negative clique l (0-based indices into ``pos`` and ``neg``); there
    is exactly one edge per original node.
    """

    pos: tuple[tuple[int, ...], ...]
    neg: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def q(self) -> int:
        return len(self.edges)


def clique_graph(graph: SignedGraph) -> CliqueGraph:
    """Clique graph C: one node per signed clique, one edge per node of
    the original graph, joining the two cliques that contain it."""
    pos, neg = signed_cliques(graph)
    pos_of = {node: k for k, part in enumerate(pos) for node in part}
    neg_of = {node: l for l, part in enumerate(neg) for node in part}
    edges = tuple((pos_of[v], neg_of[v]) for v in range(1, graph.q + 1))
    return CliqueGraph(tuple(tuple(p) for p in pos),
                       tuple(tuple(p) for p in neg), edges)


def irredundant_reduction(graph: SignedGraph) -> SignedGraph:
    """Subgraph with the same signed cliques in which both sign classes
    are forests: an edge survives iff it joins two components of its own
    sign class among the edges kept so far.  Keeps 2q - |A| - |B| edges."""
    merged = _by_sign(graph)[1]
    return SignedGraph(graph.q, tuple(compress(graph.edges, merged)))


def _solve_transpose(graph: SignedGraph,
                     rhs: Sequence[int | Fraction]) -> list[Fraction] | None:
    """Exact solution of H(graph)^T w = rhs, or None when the graph is
    not a negative 1-forest.

    A square graph is recognized by its frame-matroid rank (:func:`rank`):
    full rank means no component is balanced, so each one holds a
    circle, and |E| = |N| leaves each exactly one, which is negative.
    H^T is then eliminated once, and whether that elimination finds H
    singular must agree with the recognition, in both directions.
    """
    if len(graph.edges) != graph.q:
        return None
    forest = rank(graph) == graph.q
    transposed = [list(column) for column in zip(*incidence_matrix(graph))]
    solved = linalg.solve_integral(transposed, [[value] for value in rhs])
    if (solved is not None) != forest:
        raise AssertionError(
            "negative-1-forest recognition disagrees with the incidence "
            "matrix")
    if solved is None:
        return None
    d, numerators = solved
    return [Fraction(row[0], d) for row in numerators]


def is_negative_one_forest(graph: SignedGraph) -> bool:
    """True iff every component has exactly one independent circle and
    that circle is negative: for a square graph, a nonsingular incidence
    matrix, as one exact solve of H^T w = 0 re-checks."""
    return _solve_transpose(graph, [0] * len(graph.edges)) is not None


def cyclomatic(graph: SignedGraph) -> int:
    """|E| - |N| + number of components."""
    return len(graph.edges) - graph.q + len(components(graph))


RawFixation = tuple[str, int, int]


def parse_graph(text: str) -> tuple[SignedGraph, list[RawFixation]]:
    """Parse the exchange format: a line holding q, then edge lines
    "i j +" or "i j -", then optional fixation lines "fix x_3 = 1".

    '#' starts a comment; blank lines are skipped.  Fixations come back
    as raw (axis, index, value) triples for the geometry layer.
    """
    q: int | None = None
    edges: list[Edge] = []
    fixations: list[RawFixation] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if q is None:
            if len(fields) != 1 or not fields[0].isdecimal():
                raise ValueError(f"line {number}: expected the node count")
            q = int(fields[0])
            continue
        if fields[0] == "fix":
            if len(fields) != 4 or fields[2] != "=":
                raise ValueError(
                    f"line {number}: expected 'fix x_i = value'")
            coordinate = fields[1]
            axis = coordinate[0]
            index_text = coordinate[1:].lstrip("_")
            if axis not in ("x", "y") or not index_text.isdecimal():
                raise ValueError(
                    f"line {number}: bad coordinate {coordinate!r}")
            try:
                value = int(fields[3])
            except ValueError:
                raise ValueError(
                    f"line {number}: bad integer {fields[3]!r}") from None
            fixations.append((axis, int(index_text), value))
            continue
        if len(fields) != 3:
            raise ValueError(f"line {number}: expected 'i j sign'")
        sign_token = fields[2].replace("−", "-")
        if sign_token not in _SIGN_TOKENS:
            raise ValueError(f"line {number}: bad sign {fields[2]!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {number}: bad node index") from None
        edges.append((i, j, _SIGN_TOKENS[sign_token]))
    if q is None:
        raise ValueError("empty graph text")
    try:
        return SignedGraph(q, tuple(edges)), fixations
    except ValueError as exc:
        raise ValueError(str(exc)) from None


def format_graph(graph: SignedGraph,
                 fixations: Sequence[RawFixation] = ()) -> str:
    """Inverse of :func:`parse_graph`."""
    lines = [str(graph.q)]
    lines.extend(f"{i} {j} {_SIGN_NAMES[sign]}" for i, j, sign in graph.edges)
    lines.extend(f"fix {axis}_{index} = {value}"
                 for axis, index, value in fixations)
    return "\n".join(lines) + "\n"
