"""Command-line surface, and the one place where results are rendered.

Subcommands: count, interpolate, verify-period, vertices, graph, check.
Output defaults to a human-readable form; --format json (and csv for
count) produces machine-readable output: indent-2 JSON, with every
count as a decimal string and every rational as "num/den", and CSV
with CRLF line ends.  Exit status:

0  everything the command verified came out true;
1  a verification failed (FAIL is printed on stdout);
2  the input was rejected, an input file could not be read or the
   output could not be written: one ``error:`` line on stderr;
3  an internal invariant was violated, or any other exception
   escaped: a traceback and one ``internal error:`` line on stderr;
141  the reader closed stdout before the output ended (128 + SIGPIPE);
     nothing more is printed.

:func:`main` parses with one argument parser per process, built on the
first call and shared by every later one.  Importing this module loads
only the counting layer, which the parser needs; each handler imports
the layers it runs (geometry, signed graphs, interpolation, the check
suites of ``bishops._testkit``) and ``json`` only when it renders JSON,
so a count starts without them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import TYPE_CHECKING

from .board import BISHOP, parse_rider
from .counting import DEFAULT_NODE_BUDGET, SearchBudgetExceeded, sample_counts

# sizes checked past a fit; kept here, as the parser must not load quasipoly
DEFAULT_HOLDOUT = 4

if TYPE_CHECKING:
    from fractions import Fraction

    from .quasipoly import Quasipolynomial


def _parse_range(text: str) -> tuple[int, int]:
    head, sep, tail = text.partition("..")
    if not sep or not head.strip().isdecimal() or not tail.strip().isdecimal():
        raise ValueError(f"bad range {text!r}: expected 'from..to'")
    return int(head), int(tail)


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _print_json(payload: dict) -> None:
    import json
    print(json.dumps(payload, indent=2))


def _quasipolynomial_dict(quasi: Quasipolynomial) -> dict:
    return {
        "period": quasi.period,
        "degree": quasi.degree,
        "constituents": [[_fraction_str(c) for c in row]
                         for row in quasi.constituents],
    }


def _quasipolynomial_text(quasi: Quasipolynomial) -> str:
    """One polynomial in n per residue class, highest power first,
    without zero terms or unit coefficients."""
    lines = []
    for r, row in enumerate(quasi.constituents):
        terms = []
        for i, c in enumerate(row):
            if c == 0:
                continue
            power = quasi.degree - i
            if power == 0:
                body = str(abs(c))
            else:
                monomial = "n" if power == 1 else f"n^{power}"
                body = monomial if abs(c) == 1 else f"{abs(c)}*{monomial}"
            terms.append(("- " if c < 0 else "+ ") + body)
        # the leading term has no "+" and no space after its sign
        text = " ".join(terms)
        text = text[2:] if text.startswith("+") else text.replace(" ", "", 1)
        lines.append(f"n = {r} (mod {quasi.period}): {text or '0'}")
    return "\n".join(lines)


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
    entries = table.entries.items()
    if args.format == "json":
        _print_json({
            "rider": table.rider,
            "q": table.q,
            "method": table.method,
            "counts": {str(n): str(count) for n, count in entries},
        })
    elif args.format == "csv":
        print("n,count\r\n"
              + "".join(f"{n},{count}\r\n" for n, count in entries), end="")
    elif args.n is not None:
        print(table.entries[args.n])
    else:
        for n, count in entries:
            print(f"n={n}: {count}")
    return 0


def cmd_interpolate(args: argparse.Namespace) -> int:
    from .quasipoly import _fit_table
    rider = parse_rider(args.piece)
    q = args.q
    if q < 1:
        raise ValueError("q must be at least 1")
    if args.holdout < 1:
        raise ValueError("holdout must be at least 1")
    quasi, holdout = _fit_table(q, args.period, rider, args.budget,
                                args.holdout)
    first, last = min(holdout), max(holdout)
    minimized = quasi.minimize_period()
    holdout_ok = quasi.verify_against(holdout)
    at_minus_one = minimized.evaluate(-1)
    if args.format == "json":
        _print_json({
            "rider": rider.name,
            "q": q,
            "quasipolynomial": _quasipolynomial_dict(minimized),
            "minimized_period": minimized.period,
            "holdout": {
                "range": [first, last],
                "pass": holdout_ok,
            },
            "value_at_minus_1": _fraction_str(at_minus_one),
            "coefficient_periods": quasi.coefficient_periods(),
        })
    else:
        print(f"degree {quasi.degree}, minimized period {minimized.period}")
        print(_quasipolynomial_text(minimized))
        print(f"holdout n={first}..{last}: "
              f"{'PASS' if holdout_ok else 'FAIL'}")
        print(f"value at n=-1 (reported, not verified): {at_minus_one}")
        print(f"observed coefficient periods: {quasi.coefficient_periods()}")
    return 0 if holdout_ok else 1


def cmd_verify_period(args: argparse.Namespace) -> int:
    from .geometry import period_upper_bound
    from .quasipoly import _fit_table
    q = args.q
    geometric = period_upper_bound(q, bound=args.bound)
    quasi, holdout = _fit_table(q, 2, BISHOP, DEFAULT_NODE_BUDGET,
                                DEFAULT_HOLDOUT)
    minimized = quasi.minimize_period().period
    expected = 1 if q < 3 else 2
    ok = (2 % geometric == 0 and geometric % minimized == 0
          and minimized == expected and quasi.verify_against(holdout))
    print(f"geometric denominator lcm: {geometric}")
    print(f"interpolated minimized period: {minimized} (expected {expected})")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_vertices(args: argparse.Namespace) -> int:
    from .geometry import (
        denominator_lcm,
        enumerate_lattice_vertices,
        verify_half_integrality,
    )
    from .signed_graph import POSITIVE
    vertices = enumerate_lattice_vertices(args.q, bound=args.bound)
    ok = verify_half_integrality(vertices)
    if args.format == "json":
        _print_json({
            "q": args.q,
            "count": len(vertices),
            "half_integral": ok,
            "denominator_lcm": denominator_lcm(vertices),
            "vertices": [{
                "point": [_fraction_str(c) for c in vertex.point],
                "hyperplanes": [
                    {"i": h.i, "j": h.j,
                     "sign": "+" if h.sign == POSITIVE else "-"}
                    for h in vertex.hyperplanes],
                "fixations": [{"coordinate": f.coordinate, "value": f.value}
                              for f in vertex.fixations],
            } for vertex in vertices],
        })
    else:
        print(f"{len(vertices)} vertices for q={args.q}")
        for vertex in vertices:
            print("  (" + ", ".join(str(c) for c in vertex.point) + ")")
        print(f"denominator lcm: {denominator_lcm(vertices)}")
        print(f"half-integrality: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_graph(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .geometry import Fixation, solve_via_clique_graph
    from .signed_graph import (
        clique_graph,
        components,
        cyclomatic,
        format_graph,
        irredundant_reduction,
        is_negative_one_forest,
        parse_graph,
        rank,
    )
    graph, raw_fixations = parse_graph(Path(args.file).read_text())
    fixations = [Fixation(*raw) for raw in raw_fixations]
    solution = solve_via_clique_graph(graph, fixations) if fixations else None
    clique = clique_graph(graph) if solution is None else solution.clique
    reduced = irredundant_reduction(graph)
    analysis = {
        "q": graph.q,
        "edges": len(graph.edges),
        "components": len(components(graph)),
        "rank": rank(graph),
        "cyclomatic": cyclomatic(graph),
        "positive_cliques": [list(part) for part in clique.pos],
        "negative_cliques": [list(part) for part in clique.neg],
        "clique_graph_edges": [[k + 1, l + 1] for k, l in clique.edges],
        "irredundant_edges": len(reduced.edges),
        "negative_one_forest": is_negative_one_forest(graph),
    }
    if solution is not None:
        analysis["solution"] = {
            "point": [_fraction_str(c) for c in solution.point],
            "a": [_fraction_str(v) for v in solution.a],
            "b": [_fraction_str(v) for v in solution.b],
        }
    if args.format == "json":
        _print_json(analysis)
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


def cmd_check(args: argparse.Namespace) -> int:
    from random import Random

    from . import _testkit
    if min(args.spot, args.graphs, args.matrices, args.solves) < 0:
        raise ValueError("trial counts must be nonnegative")
    rng = Random(args.seed)
    suites = [
        ("counter agreement", _testkit.check_counters, args.spot),
        ("signed graphs", _testkit.check_signed_graphs, args.graphs),
        ("incidence transpose solves", _testkit.check_transpose_solves,
         args.matrices),
        ("clique-graph solves", _testkit.check_clique_solves, args.solves),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``bishops`` argument parser, built on the first call.

    Every call returns that same parser, which :func:`main` shares
    across calls; callers must not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="bishops",
        description="Exact nonattacking-placement counts, quasipolynomial "
                    "interpolation, and period verification for riders on "
                    "square boards.")
    commands = parser.add_subparsers(dest="command", required=True)
    budget_help = ("work budget: search nodes for the naive counter, cell "
                   "updates for the fast table")

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
                       help=budget_help)
    count.set_defaults(handler=cmd_count)

    interp = commands.add_parser(
        "interpolate",
        help="recover the counting quasipolynomial from sampled counts")
    interp.add_argument("--piece", "-p", default="bishop")
    interp.add_argument("-q", type=int, required=True)
    interp.add_argument("--period", type=int, default=2,
                        help="period hypothesis for the interpolation")
    interp.add_argument("--holdout", type=int, default=DEFAULT_HOLDOUT,
                        help="extra samples verified after interpolation")
    interp.add_argument("--format", choices=("pretty", "json"),
                        default="pretty")
    interp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                        help=budget_help)
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
    try:
        try:
            args = build_parser().parse_args(argv)
        finally:  # --help output meets a closed pipe here, not at exit
            sys.stdout.flush()
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (ValueError, SearchBudgetExceeded, OSError) as exc:
        closed = isinstance(exc, BrokenPipeError)  # the reader went away
        if not closed:
            print(f"error: {exc}", file=sys.stderr)
        try:  # output that failed once fails again at exit,
            sys.stdout.flush()
        except OSError:  # so what is still buffered goes to the null device
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141 if closed else 2
    except Exception as exc:  # any other exception is a bug
        import traceback
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
