"""Signed multigraphs and their calculus.

Nodes are v_1..v_q; edges carry a sign, parallel edges are allowed and
keep their construction order, loops are not allowed.  The module covers
components, balance and rank, incidence matrices, signed cliques, the
bipartite clique graph, irredundant reduction, negative-1-forest
recognition, and a small text exchange format, with all connectivity on
one union-find.  Balance is read off the signed double cover, where a
component is balanced exactly when it lifts to two classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg

POSITIVE = 1
NEGATIVE = -1

Edge = tuple[int, int, int]

_SIGN_TOKENS = {"+": POSITIVE, "-": NEGATIVE}
_SIGN_NAMES = {POSITIVE: "+", NEGATIVE: "-"}


@dataclass(frozen=True)
class SignedGraph:
    """Multigraph on q nodes with edges (i, j, sign), sign being +1 or -1.

    Endpoints are normalized to i < j; edge order is preserved.
    """

    q: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError("node count must be nonnegative")
        normalized = []
        for i, j, sign in self.edges:
            if i == j:
                raise ValueError(f"loop at node {i} is not allowed")
            if not (1 <= i <= self.q and 1 <= j <= self.q):
                raise ValueError(f"edge ({i},{j}) is outside 1..{self.q}")
            if sign not in (POSITIVE, NEGATIVE):
                raise ValueError(f"edge sign must be +1 or -1, got {sign!r}")
            normalized.append((i, j, sign) if i < j else (j, i, sign))
        object.__setattr__(self, "edges", tuple(normalized))


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the two classes; False if already together."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def components(graph: SignedGraph) -> list[list[int]]:
    """Connected components of the underlying graph, each sorted, listed
    by least node."""
    forest = _UnionFind(graph.q)
    for i, j, _ in graph.edges:
        forest.union(i - 1, j - 1)
    groups: dict[int, list[int]] = {}
    for node in range(1, graph.q + 1):
        groups.setdefault(forest.find(node - 1), []).append(node)
    return sorted(groups.values(), key=lambda part: part[0])


def rank(graph: SignedGraph) -> int:
    """|N| - b, where b counts the balanced components.

    In the double cover node v has copies v and v'; a positive edge
    joins like copies and a negative edge unlike ones.  A balanced
    component lifts to two classes that split each node's copies and an
    unbalanced one to one class, so b is half the split classes.  The
    result equals the incidence matrix's rank, as the tests check.
    """
    q = graph.q
    cover = _UnionFind(2 * q)
    for i, j, sign in graph.edges:
        flip = 0 if sign == POSITIVE else q
        cover.union(i - 1, j - 1 + flip)
        cover.union(q + i - 1, q + j - 1 - flip)
    split = {cover.find(v) for v in range(2 * q)
             if cover.find(v) != cover.find((v + q) % (2 * q))}
    return q - len(split) // 2


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

    def side(sign: int) -> list[list[int]]:
        subgraph = SignedGraph(
            graph.q, tuple(e for e in graph.edges if e[2] == sign))
        return components(subgraph)

    return side(POSITIVE), side(NEGATIVE)


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
    forests = {POSITIVE: _UnionFind(graph.q), NEGATIVE: _UnionFind(graph.q)}
    kept = []
    for edge in graph.edges:
        i, j, sign = edge
        if forests[sign].union(i - 1, j - 1):
            kept.append(edge)
    return SignedGraph(graph.q, tuple(kept))


def is_negative_one_forest(graph: SignedGraph) -> bool:
    """True iff every component has exactly one independent circle and
    that circle is negative.

    Full rank means no component is balanced, so each one holds a
    circle, and |E| = |N| leaves each exactly one, which is negative.
    For a square graph this is a nonsingular incidence matrix; that
    equivalence is re-checked here by exact determinant.
    """
    square = len(graph.edges) == graph.q
    result = square and rank(graph) == graph.q
    if square and graph.q > 0:
        nonsingular = linalg.det(incidence_matrix(graph)) != 0
        if nonsingular != result:
            raise AssertionError(
                "negative-1-forest recognition disagrees with the "
                "incidence determinant")
    return result


def cyclomatic(graph: SignedGraph) -> int:
    """|E| - |N| + number of components."""
    return len(graph.edges) - graph.q + len(components(graph))


def double_signed(clique: CliqueGraph) -> SignedGraph:
    """Signed graph on the clique nodes with each clique-graph edge v_i
    doubled into a positive x-version and a negative y-version.

    Positive-clique nodes come first (1..|pos|), then negative-clique
    nodes; the edges for v_i are columns 2i-1 and 2i in order.
    """
    offset = len(clique.pos)
    edges: list[Edge] = []
    for k, l in clique.edges:
        a, b = k + 1, offset + l + 1
        edges.append((a, b, POSITIVE))
        edges.append((a, b, NEGATIVE))
    return SignedGraph(offset + len(clique.neg), tuple(edges))


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
            if len(fields) != 1 or not fields[0].isdigit():
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
            if axis not in ("x", "y") or not index_text.isdigit():
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
