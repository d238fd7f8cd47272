"""Seeded operation lists for the three workloads.

An operation is a JSON-ready dict: ``argv`` for ``bishops.cli.main`` (or
``call`` for a library entry point), ``check`` naming the independent
check and its parameters, ``metric`` when the operation's time is a named
end-to-end metric, and ``files`` it reads.  The same seed always gives a
byte-identical list (see :func:`serialize`).

Why these workloads:

- ``formula`` is interpolation: dense Fraction Vandermonde solves
  dominate, with the fast counter supplying samples.
- ``certify`` runs thousands of tiny 0/+-1 eliminations (vertex
  enumeration, the matroid check) plus signed-graph and clique-graph
  work, so it uses the linalg layer the other way round from formula.
- ``census`` is a stream of small count queries in which linalg,
  quasipoly and geometry do no work, so CLI dispatch and the counters
  dominate and kernel changes should show no effect.
"""

from __future__ import annotations

import json
from random import Random

from bishops._testkit import random_clique_solve_instance
from bishops.signed_graph import format_graph

WORKLOADS = ("formula", "certify", "census")
INTERPOLATE_QS = (8, 16, 24, 32)
CHECK_RUNS = 3
# certify: one graph file per cell of a grid of q = 2..7 pieces by 8
# slices of the edge count 0..10 (random_clique_solve_instance's range)
GRAPH_QS = range(2, 8)
GRAPH_EDGE_SLICES, GRAPH_MAX_EDGES = 8, 10
NAIVE_BUDGET = 1_000_000
CENSUS_SINGLE, CENSUS_TABLES = 276, 50
PIECES = {
    "rook": "1,0;0,1",
    "queen": "1,0;0,1;1,1;1,-1",
    "nightrider": "1,2;2,1;1,-2;2,-1",
    "bishop": "bishop",
}
# largest q searched naively per piece; with n <= 7 this keeps every
# naive op under about 50 ms and far below NAIVE_BUDGET nodes
NAIVE_MAX_Q = {"rook": 7, "queen": 7, "nightrider": 5, "bishop": 5}
# the suites of `bishops check` as its output names them, and their
# default trial counts
CHECK_SUITES = ("counter agreement", "signed graphs",
                "incidence transpose solves", "clique-graph solves")
CHECK_DEFAULT_TRIALS = [5, 500, 200, 200]


def _op(argv=None, check=(), *, metric=None, call=None, files=None) -> dict:
    op = {"argv": argv, "call": call, "check": list(check), "metric": metric}
    if files:
        op["files"] = files
    return op


def interpolate_op(seed: int, q: int) -> dict:
    """``interpolate -q Q`` with a seeded holdout, checked at a seeded n
    beyond the sampled and held-out range."""
    rng = Random(f"interpolate:{seed}:{q}")
    holdout = rng.randint(4, 16)
    at = 4 * q + holdout + rng.randint(1, 100)
    metric = f"interpolate_q{q}_s" if q in (24, 32) else None
    return _op(["interpolate", "-q", str(q), "--holdout", str(holdout),
                "--format", "json"],
               ["interpolate", q, holdout, at], metric=metric)


def reference_ops(seed: int) -> list[dict]:
    """One operation behind each named op-time metric; every workload
    reports these, timing them after its own passes when it lacks them."""
    rng = Random(f"check:{seed}")
    checks = [_op(["check", "--seed", str(rng.randrange(10**6))],
                  ["check", CHECK_DEFAULT_TRIALS], metric="check_s")
              for _ in range(CHECK_RUNS)]
    return [interpolate_op(seed, 24), interpolate_op(seed, 32),
            _op(["verify-period", "-q", "3"], ["verify_period", 3],
                metric="verify_period_q3_s"),
            _op(call="matroid_check", check=["matroid", 4], metric="matroid_q4_s"),
            *checks]


def layer_sweep() -> list[dict]:
    """Small ops that between them reach every traced layer.  A traced
    run follows each traced pass with them, so that no layer reads 0 in
    any workload; they are the same for every workload and seed."""
    queen = PIECES["queen"]
    return [
        _op(["count", "-p", queen, "-q", "2", "-n", "4",
             "--budget", str(NAIVE_BUDGET)], ["count", queen, 2, [4], "pretty"]),
        _op(["count", "-q", "2", "--n-range", "1..8", "--format", "csv"],
            ["count", "bishop", 2, list(range(1, 9)), "csv"]),
        interpolate_op(0, 4),
        _op(["vertices", "-q", "2", "--format", "json"], ["vertices", 2, 16, 1]),
        _op(call="matroid_check", check=["matroid", 2]),
        _op(["check", "--seed", "0", "--spot", "1", "--graphs", "20",
             "--matrices", "10", "--solves", "10"], ["check", [1, 20, 10, 10]]),
        _graph_op(_graph_in_cell(Random("sweep"), 3, 4),
                  ".perfbench_out/sweep-graph.txt"),
    ]


def _graph_op(instance, path: str) -> dict:
    """``graph FILE`` on a clique-solve instance written to ``path``."""
    graph, fixations = instance
    raw = [(f.axis, f.index, f.value) for f in fixations]
    return _op(["graph", path, "--format", "json"],
               ["graph", graph.q, [list(e) for e in graph.edges],
                [list(f) for f in raw]],
               files={path: format_graph(graph, raw)})


def _formula(seed: int) -> list[dict]:
    return [interpolate_op(seed, q) for q in INTERPOLATE_QS]


def _certify(seed: int) -> list[dict]:
    reference = {op["metric"]: op for op in reference_ops(seed)}
    ops = [reference["verify_period_q3_s"],
           _op(["vertices", "-q", "2", "--format", "json"], ["vertices", 2, 16, 1]),
           _op(["vertices", "-q", "3", "--format", "json"], ["vertices", 3, 88, 2]),
           reference["matroid_q4_s"]]
    ops += [op for op in reference_ops(seed) if op["metric"] == "check_s"]
    rng = Random(f"graphs:{seed}")
    cells = [(q, edges) for q in GRAPH_QS for edges in range(GRAPH_EDGE_SLICES)]
    for index, (q, edges) in enumerate(cells):
        ops.append(_graph_op(_graph_in_cell(rng, q, edges),
                             f".perfbench_out/graphs-{seed}/graph-{index:03d}.txt"))
    # interleaved, the short graph ops fall into different calibration
    # chunks, so one burst of host noise cannot shift them all
    rng.shuffle(ops)
    return ops


def _slice_bounds(index: int, count: int, low: int, high: int) -> tuple[int, int]:
    """First and last value of slice ``index`` of ``count`` equal slices
    of low..high."""
    span = high - low + 1
    start = low + span * index // count
    return start, max(start, low + span * (index + 1) // count - 1)


def _in_slice(rng: Random, index: int, count: int, low: int, high: int) -> int:
    """A value from slice ``index`` of ``count`` equal slices of low..high."""
    return rng.randint(*_slice_bounds(index, count, low, high))


def _graph_in_cell(rng: Random, q: int, edge_slice: int):
    """The first of ``random_clique_solve_instance``'s instances with q
    pieces and an edge count in the given slice.  A graph op's cost
    depends mostly on these two, so a grid of them keeps the spread of
    certify's op times the same for every seed."""
    low, high = _slice_bounds(edge_slice, GRAPH_EDGE_SLICES, 0, GRAPH_MAX_EDGES)
    while True:
        graph, fixations = random_clique_solve_instance(rng)
        if graph.q == q and low <= len(graph.edges) <= high:
            return graph, fixations


def _strata(rng: Random, count: int, low: int, high: int) -> list[int]:
    """``count`` integers, one drawn from each of ``count`` equal slices
    of low..high, in random order; every seed then covers the range
    evenly, which keeps a pass's total work steady across seeds."""
    values = [_in_slice(rng, i, count, low, high) for i in range(count)]
    rng.shuffle(values)
    return values


def _census(seed: int) -> list[dict]:
    rng = Random(f"census:{seed}")
    ops = []
    for q, n in zip(_strata(rng, CENSUS_SINGLE, 1, 24),
                    _strata(rng, CENSUS_SINGLE, 1, 400)):
        ops.append(_op(["count", "-q", str(q), "-n", str(n)],
                       ["count", "bishop", q, [n], "pretty"]))
    # a table's cost grows with where its range starts and with its
    # width, and less with q; table i takes slice i of the starts, and
    # the width and q slices go round in fixed orders (7 and 11 are prime
    # to 50), so each table's cost is nearly the same for every seed
    for i in range(CENSUS_TABLES):
        width = _in_slice(rng, 7 * i % CENSUS_TABLES, CENSUS_TABLES, 50, 100)
        start = _in_slice(rng, i, CENSUS_TABLES, 1, 401 - width)
        q = _in_slice(rng, 11 * i % CENSUS_TABLES, CENSUS_TABLES, 1, 24)
        stop = start + width - 1
        fmt = rng.choice(("csv", "json"))
        ops.append(_op(["count", "-q", str(q), "--n-range", f"{start}..{stop}",
                        "--format", fmt],
                       ["count", "bishop", q, list(range(start, stop + 1)), fmt]))
    for piece, moves in PIECES.items():
        # every case once: 20 each for rook and queen, 17 each for
        # nightrider and bishop
        for q, n in [(q, n) for n in range(3, 8)
                     for q in range(2, min(n, NAIVE_MAX_Q[piece]) + 1)]:
            argv = ["count", "-p", moves, "-q", str(q), "-n", str(n),
                    "--budget", str(NAIVE_BUDGET)]
            if piece == "bishop":
                argv += ["--method", "naive"]
            ops.append(_op(argv, ["count", moves, q, [n], "pretty"]))
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int) -> list[dict]:
    """The operations of one pass over ``workload``."""
    builders = {"formula": _formula, "certify": _certify, "census": _census}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return builders[workload](seed)


def serialize(ops: list[dict]) -> bytes:
    return json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
