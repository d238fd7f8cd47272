"""Command-line surface.

Subcommands: count, interpolate, verify-period, vertices, graph, check.
Output defaults to a human-readable form; --format json (and csv for
count) produces machine-readable output.  Exit status:

0  everything the command verified came out true;
1  a verification failed (FAIL is printed on stdout);
2  the input was rejected: one ``error:`` line on stderr;
3  an internal invariant was violated: a traceback and one
   ``internal error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from random import Random

from . import linalg
from ._testkit import (
    random_clique_solve_instance,
    random_negative_one_forest,
    random_signed_graph,
    random_signed_tree,
)
from .board import BISHOP, parse_rider
from .counting import (
    DEFAULT_NODE_BUDGET,
    SearchBudgetExceeded,
    count_bishops_fast,
    count_unlabelled_naive,
    sample_counts,
)
from .geometry import (
    Fixation,
    denominator_lcm,
    enumerate_lattice_vertices,
    period_upper_bound,
    solve_incidence_transpose,
    solve_via_clique_graph,
    verify_half_integrality,
    vertices_to_json,
)
from .quasipoly import _fit_table, interpolate_bishops
from .signed_graph import (
    clique_graph,
    components,
    cyclomatic,
    format_graph,
    incidence_matrix,
    irredundant_reduction,
    is_negative_one_forest,
    parse_graph,
    rank,
    signed_cliques,
)


def _parse_range(text: str) -> tuple[int, int]:
    head, sep, tail = text.partition("..")
    if not sep or not head.strip().isdigit() or not tail.strip().isdigit():
        raise ValueError(f"bad range {text!r}: expected 'from..to'")
    return int(head), int(tail)


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def cmd_count(args: argparse.Namespace) -> int:
    rider = parse_rider(args.piece)
    if (args.n is None) == (args.n_range is None):
        raise ValueError("give exactly one of -n or --n-range")
    if args.n is not None:
        n_from = n_to = args.n
    else:
        n_from, n_to = _parse_range(args.n_range)
    table = sample_counts(rider, args.q, n_from, n_to, args.method,
                          node_budget=args.budget)
    if args.format == "json":
        print(table.to_json())
    elif args.format == "csv":
        print(table.to_csv(), end="")
    elif args.n is not None:
        print(table.entries[args.n])
    else:
        for n in sorted(table.entries):
            print(f"n={n}: {table.entries[n]}")
    return 0


def cmd_interpolate(args: argparse.Namespace) -> int:
    rider = parse_rider(args.piece)
    q = args.q
    if q < 1:
        raise ValueError("q must be at least 1")
    if args.holdout < 1:
        raise ValueError("holdout must be at least 1")
    quasi, holdout = _fit_table(q, args.period, rider, args.budget,
                                args.holdout)
    degree = quasi.degree
    top = degree * quasi.period
    minimized = quasi.minimize_period()
    holdout_ok = quasi.verify_against(holdout)
    at_minus_one = minimized.evaluate(-1)
    if args.format == "json":
        payload = {
            "rider": rider.name,
            "q": q,
            "quasipolynomial": minimized.to_json_dict(),
            "minimized_period": minimized.period,
            "holdout": {
                "range": [top + 1, top + args.holdout],
                "pass": holdout_ok,
            },
            "value_at_minus_1": _fraction_str(at_minus_one),
            "coefficient_periods": quasi.coefficient_periods(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"degree {degree}, minimized period {minimized.period}")
        print(minimized.pretty())
        print(f"holdout n={top + 1}..{top + args.holdout}: "
              f"{'PASS' if holdout_ok else 'FAIL'}")
        print(f"value at n=-1 (reported, not verified): {at_minus_one}")
        print(f"observed coefficient periods: {quasi.coefficient_periods()}")
    return 0 if holdout_ok else 1


def cmd_verify_period(args: argparse.Namespace) -> int:
    q = args.q
    if q < 1:
        raise ValueError("q must be at least 1")
    geometric = period_upper_bound(q, bound=args.bound)
    minimized = interpolate_bishops(q).minimize_period().period
    expected = 1 if q < 3 else 2
    ok = (2 % geometric == 0 and geometric % minimized == 0
          and minimized == expected)
    print(f"geometric denominator lcm: {geometric}")
    print(f"interpolated minimized period: {minimized} (expected {expected})")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_vertices(args: argparse.Namespace) -> int:
    vertices = enumerate_lattice_vertices(args.q, bound=args.bound)
    ok = verify_half_integrality(vertices)
    if args.format == "json":
        payload = {
            "q": args.q,
            "count": len(vertices),
            "half_integral": ok,
            "denominator_lcm": denominator_lcm(vertices),
            "vertices": json.loads(vertices_to_json(vertices)),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{len(vertices)} vertices for q={args.q}")
        for vertex in vertices:
            print("  (" + ", ".join(str(c) for c in vertex.point) + ")")
        print(f"denominator lcm: {denominator_lcm(vertices)}")
        print(f"half-integrality: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_graph(args: argparse.Namespace) -> int:
    graph, raw_fixations = parse_graph(Path(args.file).read_text())
    pos, neg = signed_cliques(graph)
    reduced = irredundant_reduction(graph)
    clique = clique_graph(graph)
    analysis = {
        "q": graph.q,
        "edges": len(graph.edges),
        "components": len(components(graph)),
        "rank": rank(graph),
        "cyclomatic": cyclomatic(graph),
        "positive_cliques": [list(part) for part in pos],
        "negative_cliques": [list(part) for part in neg],
        "clique_graph_edges": [[k + 1, l + 1] for k, l in clique.edges],
        "irredundant_edges": len(reduced.edges),
        "negative_one_forest": is_negative_one_forest(graph),
    }
    solution = None
    if raw_fixations:
        fixations = [Fixation(axis, index, value)
                     for axis, index, value in raw_fixations]
        solution = solve_via_clique_graph(graph, fixations)
        analysis["solution"] = {
            "point": [_fraction_str(c) for c in solution.point],
            "a": [_fraction_str(v) for v in solution.a],
            "b": [_fraction_str(v) for v in solution.b],
        }
    if args.format == "json":
        print(json.dumps(analysis, indent=2))
        return 0
    print(f"q = {graph.q}, {len(graph.edges)} edges, "
          f"{analysis['components']} components, rank {analysis['rank']}, "
          f"cyclomatic {analysis['cyclomatic']}")
    print(f"positive cliques: {analysis['positive_cliques']}")
    print(f"negative cliques: {analysis['negative_cliques']}")
    print(f"clique graph edges (A_k, B_l per node): "
          f"{analysis['clique_graph_edges']}")
    print(f"irredundant reduction keeps {len(reduced.edges)} edges:")
    print(format_graph(reduced), end="")
    print(f"negative 1-forest: {analysis['negative_one_forest']}")
    if solution is not None:
        print("solution point: ("
              + ", ".join(str(c) for c in solution.point) + ")")
        print("a =", [str(v) for v in solution.a])
        print("b =", [str(v) for v in solution.b])
    return 0


def _check_counters(rng: Random, trials: int) -> str | None:
    cases = [(2, 2), (2, 3)]
    cases += [(rng.randint(1, 4), rng.randint(0, 8)) for _ in range(trials)]
    for q, n in cases:
        fast = count_bishops_fast(q, n)
        naive = count_unlabelled_naive(BISHOP, q, n)
        if fast != naive:
            return f"u({q};{n}): fast {fast} != naive {naive}"
    return None


def _check_signed_graphs(rng: Random, trials: int) -> str | None:
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


def _check_transpose_solves(rng: Random, trials: int) -> str | None:
    for _ in range(trials):
        forest = random_negative_one_forest(rng)
        rhs = [rng.randint(-9, 9) for _ in range(forest.q)]
        solution = solve_incidence_transpose(forest, rhs)
        if any(value.denominator not in (1, 2) for value in solution):
            return f"solution not weakly half-integral for {forest}"
        even = [2 * value for value in rhs]
        if any(value.denominator != 1
               for value in solve_incidence_transpose(forest, even)):
            return f"even right-hand side gave a fractional solution for {forest}"
    return None


def _check_clique_solves(rng: Random, trials: int) -> str | None:
    for _ in range(trials):
        graph, fixations = random_clique_solve_instance(rng)
        # the solver re-verifies equations, integrality, and parity
        solve_via_clique_graph(graph, fixations)
    return None


def cmd_check(args: argparse.Namespace) -> int:
    if min(args.spot, args.graphs, args.matrices, args.solves) < 0:
        raise ValueError("trial counts must be nonnegative")
    rng = Random(args.seed)
    suites = [
        ("counter agreement", _check_counters, args.spot),
        ("signed graphs", _check_signed_graphs, args.graphs),
        ("incidence transpose solves", _check_transpose_solves, args.matrices),
        ("clique-graph solves", _check_clique_solves, args.solves),
    ]
    failed = False
    for name, suite, trials in suites:
        error = suite(rng, trials)
        if error is None:
            print(f"{name}: ok ({trials} trials)")
        else:
            print(f"{name}: FAIL ({error})")
            failed = True
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bishops",
        description="Exact nonattacking-placement counts, quasipolynomial "
                    "interpolation, and period verification for riders on "
                    "square boards.")
    commands = parser.add_subparsers(dest="command", required=True)

    count = commands.add_parser(
        "count", help="exact placement counts")
    count.add_argument("--piece", "-p", default="bishop",
                       help="rider name or move list 'dx,dy;dx,dy'")
    count.add_argument("-q", type=int, required=True, help="piece count")
    count.add_argument("-n", type=int, help="board size")
    count.add_argument("--n-range", help="board size range 'from..to'")
    count.add_argument("--method", choices=("auto", "naive", "fast"),
                       default="auto")
    count.add_argument("--format", choices=("pretty", "csv", "json"),
                       default="pretty")
    count.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                       help="search-node budget for the naive counter")
    count.set_defaults(handler=cmd_count)

    interp = commands.add_parser(
        "interpolate",
        help="recover the counting quasipolynomial from sampled counts")
    interp.add_argument("--piece", "-p", default="bishop")
    interp.add_argument("-q", type=int, required=True)
    interp.add_argument("--period", type=int, default=2,
                        help="period hypothesis for the interpolation")
    interp.add_argument("--holdout", type=int, default=4,
                        help="extra samples verified after interpolation")
    interp.add_argument("--format", choices=("pretty", "json"),
                        default="pretty")
    interp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    interp.set_defaults(handler=cmd_interpolate)

    verify = commands.add_parser(
        "verify-period",
        help="check the interpolated period against the geometric bound")
    verify.add_argument("-q", type=int, required=True)
    verify.add_argument("--bound", type=int, default=3,
                        help="largest q allowed for vertex enumeration")
    verify.set_defaults(handler=cmd_verify_period)

    vertices = commands.add_parser(
        "vertices",
        help="enumerate the lattice vertices of the inside-out cube")
    vertices.add_argument("-q", type=int, required=True)
    vertices.add_argument("--bound", type=int, default=3)
    vertices.add_argument("--format", choices=("pretty", "json"),
                          default="pretty")
    vertices.set_defaults(handler=cmd_vertices)

    graph = commands.add_parser(
        "graph", help="analyse a signed graph from a text file")
    graph.add_argument("file", help="graph in the text exchange format")
    graph.add_argument("--format", choices=("pretty", "json"),
                       default="pretty")
    graph.set_defaults(handler=cmd_graph)

    check = commands.add_parser(
        "check", help="run the randomized property suites")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--spot", type=int, default=5,
                       help="random counter-agreement cases")
    check.add_argument("--graphs", type=int, default=500,
                       help="random signed graphs")
    check.add_argument("--matrices", type=int, default=200,
                       help="random incidence transpose solves")
    check.add_argument("--solves", type=int, default=200,
                       help="random clique-graph solves")
    check.set_defaults(handler=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, SearchBudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
