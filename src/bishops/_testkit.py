"""Random instance generators shared by the CLI check command and the
test suite.  Everything takes an explicit ``random.Random`` so runs are
reproducible from a seed."""

from __future__ import annotations

from random import Random

from .geometry import Fixation
from .signed_graph import NEGATIVE, POSITIVE, SignedGraph, _UnionFind, clique_graph


def random_signed_graph(rng: Random, *, max_q: int = 8,
                        max_edges: int = 20) -> SignedGraph:
    """Arbitrary signed multigraph; parallel edges and isolated nodes are
    all welcome."""
    q = rng.randint(1, max_q)
    edge_count = rng.randint(0, max_edges) if q >= 2 else 0
    edges = []
    for _ in range(edge_count):
        i = rng.randint(1, q)
        j = rng.randint(1, q - 1)
        if j >= i:
            j += 1
        edges.append((i, j, rng.choice((POSITIVE, NEGATIVE))))
    return SignedGraph(q, tuple(edges))


def random_signed_tree(rng: Random, *, max_q: int = 8) -> SignedGraph:
    """Spanning tree with random edge signs."""
    q = rng.randint(1, max_q)
    edges = []
    for node in range(2, q + 1):
        parent = rng.randint(1, node - 1)
        edges.append((parent, node, rng.choice((POSITIVE, NEGATIVE))))
    return SignedGraph(q, tuple(edges))


def random_negative_one_forest(rng: Random, *, max_nodes: int = 8) -> SignedGraph:
    """Graph in which every component is a tree plus one extra edge whose
    unique circle is negative, so the square incidence matrix is
    nonsingular.

    Components are built as random trees with random signs; switching
    values along the tree then tell which sign the extra edge needs for
    its circle to come out negative.
    """
    nodes = rng.randint(2, max_nodes)
    sizes = []
    remaining = nodes
    while remaining:
        if remaining < 4:
            size = remaining
        else:
            size = rng.randint(2, min(remaining, 6))
            if remaining - size == 1:
                size += 1
        sizes.append(size)
        remaining -= size
    edges = []
    start = 1
    for size in sizes:
        theta = {start: 1}
        for node in range(start + 1, start + size):
            parent = rng.randint(start, node - 1)
            sign = rng.choice((POSITIVE, NEGATIVE))
            edges.append((parent, node, sign))
            theta[node] = theta[parent] * sign
        u = rng.randint(start, start + size - 1)
        v = rng.randint(start, start + size - 2)
        if v >= u:
            v += 1
        # switched by theta the tree is all positive, so the circle
        # through this edge is negative iff its switched sign is
        edges.append((u, v, -theta[u] * theta[v]))
        start += size
    return SignedGraph(nodes, tuple(edges))


def random_clique_solve_instance(
        rng: Random, *, max_q: int = 7,
        value_range: tuple[int, int] = (-9, 9),
) -> tuple[SignedGraph, list[Fixation]]:
    """A signed graph plus a fixation set whose edges form a spanning
    negative 1-forest of the doubled clique graph.

    Per component of the clique graph, a random spanning tree of pieces
    is fixed on one random axis each, and one tree piece is fixed on its
    other axis too; the doubled pair is a one-positive-one-negative
    digon, which supplies the required negative circle.
    """
    graph = random_signed_graph(rng, max_q=max_q, max_edges=max_q + 3)
    clique = clique_graph(graph)
    n_pos = len(clique.pos)
    forest = _UnionFind(n_pos + len(clique.neg))
    pieces = list(range(1, graph.q + 1))
    rng.shuffle(pieces)
    tree_pieces: list[int] = []
    for piece in pieces:
        k, l = clique.edges[piece - 1]
        if forest.union(k, n_pos + l):
            tree_pieces.append(piece)
    # every clique node is an endpoint of some piece edge, so the tree
    # pieces span all clique nodes; doubling one piece per component
    # adds the negative circle that component needs
    doubled: set[int] = set()
    seen_roots: set[int] = set()
    for piece in tree_pieces:
        root = forest.find(clique.edges[piece - 1][0])
        if root not in seen_roots:
            seen_roots.add(root)
            doubled.add(piece)
    low, high = value_range
    fixations = []
    for piece in tree_pieces:
        axis = rng.choice(("x", "y"))
        fixations.append(Fixation(axis, piece, rng.randint(low, high)))
        if piece in doubled:
            other = "y" if axis == "x" else "x"
            fixations.append(Fixation(other, piece, rng.randint(low, high)))
    return graph, fixations
