"""Signed graphs: balance, rank, cliques, reductions, text format."""

from itertools import combinations
from random import Random
from time import process_time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bishops import (
    NEGATIVE,
    POSITIVE,
    SignedGraph,
    clique_graph,
    components,
    cyclomatic,
    format_graph,
    incidence_matrix,
    irredundant_reduction,
    is_negative_one_forest,
    linalg,
    parse_graph,
    rank,
    signed_cliques,
)
from bishops._testkit import (
    random_clique_solve_instance,
    random_signed_graph,
    random_signed_tree,
)
from bishops.signed_graph import _forest, _frame

from helpers import (
    example_clique_fixture,
    reference_components,
    reference_irredundant_edges,
    reference_signed_cliques,
)


@st.composite
def signed_graphs(draw, square=False):
    """Up to 12 edges on 1..6 nodes; exactly as many edges as nodes when
    ``square``, the only shape a negative 1-forest can have."""
    q = draw(st.integers(min_value=1, max_value=6))
    if q == 1:
        return SignedGraph(1, ())
    pairs = list(combinations(range(1, q + 1), 2))
    edges = draw(st.lists(
        st.tuples(st.sampled_from(pairs),
                  st.sampled_from((POSITIVE, NEGATIVE))),
        min_size=q if square else 0, max_size=q if square else 12))
    return SignedGraph(q, tuple((i, j, s) for (i, j), s in edges))


def test_construction_validation():
    with pytest.raises(ValueError):
        SignedGraph(2, ((1, 1, POSITIVE),))
    with pytest.raises(ValueError):
        SignedGraph(2, ((1, 3, POSITIVE),))
    for sign in (0, 1.0, -1.0, True):
        with pytest.raises(ValueError):
            SignedGraph(2, ((1, 2, sign),))
    with pytest.raises(ValueError, match="node count must be nonnegative"):
        SignedGraph(-1, ())
    # 2.0 would be written "1 2.0 +", which parse_graph refuses
    for q in (2.0, True):
        with pytest.raises(ValueError, match="node count must be an int"):
            SignedGraph(q, ())
    for edge in ((1, 2.0, POSITIVE), (1.0, 2, POSITIVE), (True, 2, NEGATIVE)):
        with pytest.raises(ValueError, match="edge endpoint must be an int"):
            SignedGraph(2, (edge,))
    graph = SignedGraph(3, ((3, 1, NEGATIVE), (2, 1, POSITIVE)))
    assert graph.edges == ((1, 3, NEGATIVE), (1, 2, POSITIVE))


def test_components():
    graph = SignedGraph(5, ((1, 2, POSITIVE), (4, 5, NEGATIVE)))
    assert components(graph) == [[1, 2], [3], [4, 5]]


@settings(max_examples=200, deadline=None)
@given(signed_graphs())
def test_components_match_reference(graph):
    expected = reference_components(graph)
    assert components(graph) == expected
    assert cyclomatic(graph) == len(graph.edges) - graph.q + len(expected)


def test_forest_labels_and_merges():
    # (3, 5) is a parallel edge of (5, 3), and (6, 1) comes twice
    pairs = ((5, 3), (3, 5), (6, 1), (1, 3), (6, 1), (5, 6), (2, 0))
    labels, merged = _forest(7, pairs)
    # classes {0, 2}, {1, 3, 5, 6} and {4}, each labelled by its least node
    assert labels == [0, 1, 0, 1, 4, 1, 1]
    # the greedy spanning forest: each pair that joins two classes of the
    # pairs before it
    assert merged == [True, False, True, True, False, False, True]
    assert _forest(3, ()) == ([0, 1, 2], [])
    assert _forest(0, ()) == ([], [])


def test_forest_is_near_linear_on_a_reversed_path():
    # the edges (k, k + 1), k descending, hang each root under the next
    # node down, so node n sits at the foot of a chain of n nodes; each
    # copy of the far edge (n - 1, n) then climbs it unless the finds
    # halve the paths, which takes the pass quadratic
    n = 8_000
    path = [(k, k + 1, POSITIVE) for k in range(n - 1, 0, -1)]
    graph = SignedGraph(n, tuple(path + [(n - 1, n, POSITIVE)] * n))
    start = process_time()
    assert components(graph) == [list(range(1, n + 1))]
    assert irredundant_reduction(graph).edges == tuple(path)
    assert process_time() - start < 1


def test_rank_of_negative_digon():
    digon = SignedGraph(2, ((1, 2, POSITIVE), (1, 2, NEGATIVE)))
    assert rank(digon) == 2
    assert linalg.rank(incidence_matrix(digon)) == 2


def test_rank_balanced_versus_unbalanced_triangle():
    balanced = SignedGraph(3, ((1, 2, POSITIVE), (2, 3, POSITIVE),
                               (1, 3, POSITIVE)))
    unbalanced = SignedGraph(3, ((1, 2, POSITIVE), (2, 3, POSITIVE),
                                 (1, 3, NEGATIVE)))
    assert rank(balanced) == 2
    assert rank(unbalanced) == 3


def test_rank_counts_only_balanced_components():
    graph = SignedGraph(5, (
        (1, 2, POSITIVE), (1, 2, NEGATIVE),  # unbalanced digon
        (3, 4, POSITIVE),                    # balanced edge; node 5 isolated
    ))
    assert rank(graph) == 5 - 2


@pytest.mark.parametrize("size, edges, last, kept, circles", [
    # the last edge is dropped: it closes a positive circle
    (3, ((0, 1, 0), (1, 2, 1), (0, 2, 1)), False, 2, 0),
    # it closes a second circle in one component
    (2, ((0, 1, 0), (0, 1, 1), (0, 1, 1)), False, 2, 1),
    # it joins two unbalanced components
    (4, ((0, 1, 0), (0, 1, 1), (2, 3, 1), (2, 3, 0), (1, 2, 0)), False, 4, 2),
    # the last edge is kept: it closes a negative circle
    (3, ((0, 1, 0), (1, 2, 1), (0, 2, 0)), True, 3, 1),
    # it joins an unbalanced component to a balanced one
    (4, ((0, 1, 0), (0, 1, 1), (2, 3, 0), (1, 2, 1)), True, 4, 1),
])
def test_frame_keeps_or_drops_the_last_edge(size, edges, last, kept, circles):
    assert _frame(size, edges) == (kept, circles)
    assert _frame(size, edges[:-1])[0] == kept - last


@settings(max_examples=200, deadline=None)
@given(signed_graphs())
# two negative digons joined by an edge, which the pass drops: it keeps
# two circles in one unbalanced component, so circles count unbalanced
# components only on an independent set
@example(SignedGraph(6, ((1, 2, POSITIVE), (1, 2, NEGATIVE), (3, 4, POSITIVE),
                         (3, 4, NEGATIVE), (1, 3, POSITIVE))))
def test_frame_keeps_exactly_the_independent_sets(graph):
    # independent: the incidence matrix has full column rank; then each
    # component holds at most one circle, so the circles are |E| - |N| + c
    kept, circles = _frame(graph.q, (
        (i - 1, j - 1, sign == NEGATIVE) for i, j, sign in graph.edges))
    if linalg.rank(incidence_matrix(graph)) == len(graph.edges):
        assert (kept, circles) == (len(graph.edges), cyclomatic(graph))
    else:
        assert kept < len(graph.edges)


def test_frame_is_near_linear_on_a_star():
    # every edge (1, k) makes the finds climb one root chain unless the
    # paths are halved, which takes the pass quadratic
    star = SignedGraph(32_000, tuple(
        (1, k, POSITIVE if k % 3 else NEGATIVE) for k in range(2, 32_001)))
    start = process_time()
    assert rank(star) == 31_999
    assert process_time() - start < 2


def test_incidence_column_convention():
    graph = SignedGraph(3, ((1, 2, POSITIVE), (1, 3, NEGATIVE)))
    matrix = incidence_matrix(graph)
    assert [row[0] for row in matrix] == [1, -1, 0]
    assert [row[1] for row in matrix] == [1, 0, 1]


@settings(max_examples=200, deadline=None)
@given(signed_graphs())
def test_rank_matches_incidence_rank(graph):
    assert rank(graph) == linalg.rank(incidence_matrix(graph))


@settings(max_examples=200, deadline=None)
@given(signed_graphs())
def test_incidence_columns_encode_edges(graph):
    matrix = incidence_matrix(graph)
    for column, (i, j, sign) in enumerate(graph.edges):
        entries = [(row, matrix[row][column]) for row in range(graph.q)
                   if matrix[row][column] != 0]
        assert [row for row, _ in entries] == [i - 1, j - 1]
        assert entries[0][1] * entries[1][1] == -sign


def test_signed_cliques_fixture():
    pos, neg = signed_cliques(example_clique_fixture())
    assert pos == [[1, 2], [3, 4, 5], [6, 7]]
    assert neg == [[1, 3], [2, 4], [5, 6], [7]]


def test_isolated_node_is_a_singleton_on_both_sides():
    pos, neg = signed_cliques(SignedGraph(2, ((1, 2, POSITIVE),)))
    assert pos == [[1, 2]]
    assert neg == [[1], [2]]


@settings(max_examples=200, deadline=None)
@given(signed_graphs())
def test_clique_count_identity(graph):
    # |A| + |B| = 2q - rk(positive class) - rk(negative class)
    pos, neg = signed_cliques(graph)
    rank_pos = graph.q - len(pos)
    rank_neg = graph.q - len(neg)
    assert len(pos) + len(neg) == 2 * graph.q - rank_pos - rank_neg


def test_signed_cliques_builds_no_signed_graph(monkeypatch):
    graph = example_clique_fixture()
    built = []
    validate = SignedGraph.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(SignedGraph, "__post_init__", counted)
    signed_cliques(graph)
    assert built == []


@settings(max_examples=300, deadline=None)
@given(signed_graphs())
def test_sign_classes_match_reference(graph):
    assert signed_cliques(graph) == reference_signed_cliques(graph)
    assert irredundant_reduction(graph).edges == reference_irredundant_edges(
        graph)


def test_clique_graph_fixture():
    clique = clique_graph(example_clique_fixture())
    assert clique.q == 7
    assert clique.edges == (
        (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2), (2, 3))


def test_clique_graph_is_bipartite_with_one_edge_per_node():
    graph = SignedGraph(4, ((1, 2, POSITIVE), (3, 4, NEGATIVE)))
    clique = clique_graph(graph)
    assert len(clique.edges) == 4
    for k, l in clique.edges:
        assert 0 <= k < len(clique.pos)
        assert 0 <= l < len(clique.neg)


def test_irredundant_reduction_all_positive_triangle():
    triangle = SignedGraph(3, ((1, 2, POSITIVE), (2, 3, POSITIVE),
                               (1, 3, POSITIVE)))
    assert len(irredundant_reduction(triangle).edges) == 2


@settings(max_examples=200, deadline=None)
@given(signed_graphs())
def test_irredundant_reduction_properties(graph):
    reduced = irredundant_reduction(graph)
    pos, neg = signed_cliques(graph)
    assert signed_cliques(reduced) == (pos, neg)
    assert len(reduced.edges) == 2 * graph.q - len(pos) - len(neg)
    # already-irredundant graphs are fixed points
    assert irredundant_reduction(reduced) == reduced


def test_signed_trees_have_q_plus_one_cliques():
    rng = Random(7)
    for _ in range(100):
        tree = random_signed_tree(rng)
        pos, neg = signed_cliques(tree)
        assert len(pos) + len(neg) == tree.q + 1


def test_negative_one_forest_recognition():
    negative_digon = SignedGraph(2, ((1, 2, POSITIVE), (1, 2, NEGATIVE)))
    positive_digon = SignedGraph(2, ((1, 2, POSITIVE), (1, 2, POSITIVE)))
    negative_triangle = SignedGraph(3, ((1, 2, POSITIVE), (2, 3, POSITIVE),
                                        (1, 3, NEGATIVE)))
    balanced_triangle = SignedGraph(3, ((1, 2, POSITIVE), (2, 3, POSITIVE),
                                        (1, 3, POSITIVE)))
    assert is_negative_one_forest(negative_digon)
    assert not is_negative_one_forest(positive_digon)
    assert is_negative_one_forest(negative_triangle)
    assert not is_negative_one_forest(balanced_triangle)
    # tree component: too few edges
    assert not is_negative_one_forest(SignedGraph(2, ((1, 2, POSITIVE),)))


def test_negative_one_forest_union_needs_every_component():
    two_digons = SignedGraph(4, (
        (1, 2, POSITIVE), (1, 2, NEGATIVE),
        (3, 4, POSITIVE), (3, 4, NEGATIVE),
    ))
    one_bad = SignedGraph(4, (
        (1, 2, POSITIVE), (1, 2, NEGATIVE),
        (3, 4, POSITIVE), (3, 4, POSITIVE),
    ))
    assert is_negative_one_forest(two_digons)
    assert not is_negative_one_forest(one_bad)


@settings(max_examples=300, deadline=None)
@given(st.one_of(signed_graphs(), signed_graphs(square=True)))
def test_negative_one_forest_matches_per_component_reference(graph):
    # each component needs as many edges as nodes and a nonsingular
    # incidence block; never routed through signed_graph.rank
    matrix = incidence_matrix(graph)

    def unicyclic_negative(part):
        columns = [c for c, (i, _, _) in enumerate(graph.edges) if i in part]
        return len(columns) == len(part) and linalg.rank(
            [[matrix[v - 1][c] for c in columns] for v in part]) == len(part)

    expected = all(unicyclic_negative(part) for part in components(graph))
    assert is_negative_one_forest(graph) == expected


def test_cyclomatic():
    graph = SignedGraph(4, ((1, 2, POSITIVE), (2, 3, POSITIVE),
                            (1, 3, NEGATIVE)))
    assert cyclomatic(graph) == 3 - 4 + 2


def test_parse_graph_round_trip():
    graph = example_clique_fixture()
    fixations = [("x", 1, 1), ("y", 2, 0)]
    text = format_graph(graph, fixations)
    parsed, parsed_fixations = parse_graph(text)
    assert parsed == graph
    assert parsed_fixations == fixations


def test_format_graph_round_trips_testkit_instances():
    rng = Random(27)
    for _ in range(200):
        graph, fixations = random_clique_solve_instance(rng)
        raw = [(f.axis, f.index, f.value) for f in fixations]
        assert parse_graph(format_graph(graph, raw)) == (graph, raw)
        graph = random_signed_graph(rng)
        assert parse_graph(format_graph(graph)) == (graph, [])


def test_parse_graph_accepts_comments_and_unicode_minus():
    text = "# header\n3\n1 2 +\n2 3 −\nfix y_3 = -2\n"
    graph, fixations = parse_graph(text)
    assert graph.edges == ((1, 2, POSITIVE), (2, 3, NEGATIVE))
    assert fixations == [("y", 3, -2)]


def test_parse_graph_accepts_bare_coordinate_names():
    graph, fixations = parse_graph("1\nfix x1 = 0\n")
    assert graph.q == 1
    assert fixations == [("x", 1, 0)]


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_graph("bogus\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_graph("3\n1 2 *\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_graph("3\n1 2 +\nfix z_1 = 0\n")
    with pytest.raises(ValueError):
        parse_graph("")


def test_parse_graph_node_count_must_be_decimal():
    # "²".isdigit() holds, but int("²") fails
    with pytest.raises(ValueError, match="^line 2: expected the node count$"):
        parse_graph("# q\n²\n")


def test_parse_graph_fixation_index_must_be_decimal():
    with pytest.raises(ValueError, match="^line 3: bad coordinate 'x_²'$"):
        parse_graph("2\n1 2 +\nfix x_² = 0\n")
