"""Random instance generators shared by the CLI check command and the
test suite, and the property suites that ``bishops check`` runs on them.
Everything takes an explicit ``random.Random`` so runs are reproducible
from a seed.  Each suite returns None, or what failed."""

from __future__ import annotations

from itertools import compress
from random import Random

from . import linalg
from .board import BISHOP
from .counting import count_bishops_fast, count_unlabelled_naive
from .geometry import (
    Fixation,
    SingularFixationError,
    solve_incidence_transpose,
    solve_via_clique_graph,
)
from .signed_graph import (
    NEGATIVE,
    POSITIVE,
    SignedGraph,
    _forest,
    clique_graph,
    incidence_matrix,
    irredundant_reduction,
    rank,
    signed_cliques,
)

# sizes of the generated instances; a change here changes the instances
# pinned in tests/golden/testkit/instances.txt
FOREST_MAX_NODES = 8
CLIQUE_SOLVE_MAX_Q = 7
FIXATION_VALUE_RANGE = (-9, 9)


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


def random_negative_one_forest(rng: Random) -> SignedGraph:
    """Graph in which every component is a tree plus one extra edge whose
    unique circle is negative, so the square incidence matrix is
    nonsingular.

    Components are built as random trees with random signs; switching
    values along the tree then tell which sign the extra edge needs for
    its circle to come out negative.
    """
    nodes = rng.randint(2, FOREST_MAX_NODES)
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
        rng: Random) -> tuple[SignedGraph, list[Fixation]]:
    """A signed graph plus a fixation set whose edges form a spanning
    negative 1-forest of the doubled clique graph.

    Per component of the clique graph, a random spanning tree of pieces
    is fixed on one random axis each, and one tree piece is fixed on its
    other axis too; the doubled pair is a one-positive-one-negative
    digon, which supplies the required negative circle.
    """
    graph = random_signed_graph(rng, max_q=CLIQUE_SOLVE_MAX_Q,
                                max_edges=CLIQUE_SOLVE_MAX_Q + 3)
    clique = clique_graph(graph)
    n_pos = len(clique.pos)
    pieces = list(range(1, graph.q + 1))
    rng.shuffle(pieces)
    labels, merged = _forest(n_pos + len(clique.neg), (
        (k, n_pos + l) for k, l in (clique.edges[p - 1] for p in pieces)))
    tree_pieces = list(compress(pieces, merged))
    # every clique node is an endpoint of some piece edge, so the tree
    # pieces span all clique nodes; doubling the first tree piece of each
    # component, keyed by its label, adds the negative circle it needs
    doubled: dict[int, int] = {}
    for piece in tree_pieces:
        doubled.setdefault(labels[clique.edges[piece - 1][0]], piece)
    low, high = FIXATION_VALUE_RANGE
    fixations = []
    for piece in tree_pieces:
        axis = rng.choice(("x", "y"))
        fixations.append(Fixation(axis, piece, rng.randint(low, high)))
        if piece in doubled.values():
            other = "y" if axis == "x" else "x"
            fixations.append(Fixation(other, piece, rng.randint(low, high)))
    return graph, fixations


def check_counters(rng: Random, trials: int) -> str | None:
    cases = [(2, 2), (2, 3)]
    cases += [(rng.randint(1, 4), rng.randint(0, 8)) for _ in range(trials)]
    for q, n in cases:
        fast = count_bishops_fast(q, n)
        naive = count_unlabelled_naive(BISHOP, q, n)
        if fast != naive:
            return f"u({q};{n}): fast {fast} != naive {naive}"
    return None


def check_signed_graphs(rng: Random, trials: int) -> str | None:
    for _ in range(trials):
        graph = random_signed_graph(rng)
        by_balance = rank(graph)
        by_matrix = linalg.rank(incidence_matrix(graph))
        if by_balance != by_matrix:
            return f"rank mismatch on {graph}: {by_balance} vs {by_matrix}"
        pos, neg = signed_cliques(graph)
        reduced = irredundant_reduction(graph)
        if signed_cliques(reduced) != (pos, neg):
            return f"reduction changed the cliques of {graph}"
        if len(reduced.edges) != 2 * graph.q - len(pos) - len(neg):
            return f"reduction edge count wrong on {graph}"
        tree = random_signed_tree(rng)
        tpos, tneg = signed_cliques(tree)
        if len(tpos) + len(tneg) != tree.q + 1:
            return f"signed tree clique count wrong on {tree}"
    return None


def check_transpose_solves(rng: Random, trials: int) -> str | None:
    for _ in range(trials):
        forest = random_negative_one_forest(rng)
        rhs = [rng.randint(-9, 9) for _ in range(forest.q)]
        try:
            solution = solve_incidence_transpose(forest, rhs)
            even = solve_incidence_transpose(forest, [2 * v for v in rhs])
        except (AssertionError, SingularFixationError) as error:
            return f"{error} for {forest}"
        if any(value.denominator not in (1, 2) for value in solution):
            return f"solution not weakly half-integral for {forest}"
        if any(value.denominator != 1 for value in even):
            return f"even right-hand side gave a fractional solution for {forest}"
    return None


def check_clique_solves(rng: Random, trials: int) -> str | None:
    for _ in range(trials):
        graph, fixations = random_clique_solve_instance(rng)
        # the solver re-verifies equations, integrality, and parity
        try:
            solve_via_clique_graph(graph, fixations)
        except (AssertionError, SingularFixationError) as error:
            return f"{error} for {graph} fixed by {fixations}"
    return None
