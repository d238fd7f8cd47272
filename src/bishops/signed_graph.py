"""Signed multigraphs and their calculus.

Nodes are v_1..v_q; edges carry a sign, parallel edges are allowed and
keep their construction order, loops are not allowed.  The module covers
components, balance and rank, incidence matrices, signed cliques, the
clique graph, irredundant reduction, negative-1-forest recognition with
its incidence-transpose solve, and a text exchange format, with all
connectivity on union-find.  Balance is read off the signed double cover.
One pass unions each edge into its sign's forest: the signed cliques are
its classes, and the irredundant reduction is the edges that merged two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg

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


def _require_int(value: object, what: str) -> None:
    """Refuse a float or a bool where an int is needed: either compares
    equal to one, but is written and indexes as something else."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")


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

    def classes(self) -> list[list[int]]:
        """1-based classes, each ascending, listed by least node."""
        groups: dict[int, list[int]] = {}
        for node in range(len(self.parent)):
            groups.setdefault(self.find(node), []).append(node + 1)
        return list(groups.values())


def _by_sign(graph: SignedGraph) -> tuple[list[Edge], _UnionFind, _UnionFind]:
    """(edges that merge two classes of their sign, + forest, - forest)."""
    forests = {POSITIVE: _UnionFind(graph.q), NEGATIVE: _UnionFind(graph.q)}
    merged = [edge for edge in graph.edges
              if forests[edge[2]].union(edge[0] - 1, edge[1] - 1)]
    return merged, forests[POSITIVE], forests[NEGATIVE]


def components(graph: SignedGraph) -> list[list[int]]:
    """Connected components of the underlying graph, each sorted, listed
    by least node."""
    forest = _UnionFind(graph.q)
    for i, j, _ in graph.edges:
        forest.union(i - 1, j - 1)
    return forest.classes()


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
    _, positive, negative = _by_sign(graph)
    return positive.classes(), negative.classes()


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
    return SignedGraph(graph.q, tuple(_by_sign(graph)[0]))


def _solve_transpose(graph: SignedGraph,
                     rhs: Sequence[int | Fraction]) -> list[Fraction] | None:
    """Exact solution of H(graph)^T w = rhs, or None when the graph is
    not a negative 1-forest.

    A square graph is recognized on its double cover: full rank means no
    component is balanced, so each one holds a circle, and |E| = |N|
    leaves each exactly one, which is negative.  H^T is then eliminated
    once, and whether that elimination finds H singular must agree with
    the recognition, in both directions.
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
