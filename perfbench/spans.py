"""Spans around the public functions of each bishops module, recorded
from outside the package.

The package imports names directly (``from .counting import
count_bishops_fast``), so wrapping one module attribute is not enough: a
traced function is rebound in every loaded ``bishops.*`` namespace that
holds it, and restored on exit.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, attribute path) of every function it covers
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("bishops.cli", "main"),),
    "board.attacks": (("bishops.board", "attacks"),),
    "counting.count_bishops_fast": (("bishops.counting", "count_bishops_fast"),),
    "counting.count_unlabelled_naive": (
        ("bishops.counting", "count_unlabelled_naive"),),
    "counting.sample_counts": (("bishops.counting", "sample_counts"),),
    "quasipoly.interpolate": (("bishops.quasipoly", "interpolate"),),
    "quasipoly.verify": tuple(
        ("bishops.quasipoly", f"Quasipolynomial.{method}")
        for method in ("verify_against", "evaluate", "minimize_period",
                       "coefficient_periods")),
    "linalg.solve": (("bishops.linalg", "solve"),),
    "linalg.rank": (("bishops.linalg", "rank"),),
    "linalg.invert": (("bishops.linalg", "invert"),),
    "linalg.det": (("bishops.linalg", "det"),),
    "geometry.enumerate_lattice_vertices": (
        ("bishops.geometry", "enumerate_lattice_vertices"),),
    "geometry.matroid_check": (("bishops.geometry", "matroid_check"),),
    "geometry.solve_via_clique_graph": (
        ("bishops.geometry", "solve_via_clique_graph"),),
    "geometry.solve_incidence_transpose": (
        ("bishops.geometry", "solve_incidence_transpose"),),
    "signed_graph.components": (("bishops.signed_graph", "components"),),
    "signed_graph.is_negative_one_forest": (
        ("bishops.signed_graph", "is_negative_one_forest"),),
    "signed_graph.clique_graph": (("bishops.signed_graph", "clique_graph"),),
    "signed_graph.parse_graph": (("bishops.signed_graph", "parse_graph"),),
    "testkit": tuple(
        ("bishops._testkit", name)
        for name in ("random_signed_graph", "random_signed_tree",
                     "random_negative_one_forest",
                     "random_clique_solve_instance")),
}

# per-layer metric -> (span name, statistic); Tracer.metrics adds the
# ratios and sizes read from the boundary counters
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "cli.main.calls": ("cli.main", "calls"),
    "cli.self_s": ("cli.main", "self_s"),
    "board.attacks.calls": ("board.attacks", "calls"),
    "board.attacks.s": ("board.attacks", "s"),
    "counting.count_bishops_fast.calls": (
        "counting.count_bishops_fast", "calls"),
    "counting.count_bishops_fast.s": ("counting.count_bishops_fast", "s"),
    "counting.count_unlabelled_naive.calls": (
        "counting.count_unlabelled_naive", "calls"),
    "counting.count_unlabelled_naive.self_s": (
        "counting.count_unlabelled_naive", "self_s"),
    "counting.sample_counts.self_s": ("counting.sample_counts", "self_s"),
    "quasipoly.interpolate.calls": ("quasipoly.interpolate", "calls"),
    "quasipoly.interpolate.self_s": ("quasipoly.interpolate", "self_s"),
    "quasipoly.verify.s": ("quasipoly.verify", "s"),
    "linalg.solve.calls": ("linalg.solve", "calls"),
    "linalg.solve.s": ("linalg.solve", "s"),
    "linalg.rank.calls": ("linalg.rank", "calls"),
    "linalg.rank.s": ("linalg.rank", "s"),
    "linalg.invert.calls": ("linalg.invert", "calls"),
    "linalg.invert.s": ("linalg.invert", "s"),
    "linalg.det.calls": ("linalg.det", "calls"),
    "linalg.det.s": ("linalg.det", "s"),
    "geometry.enumerate_lattice_vertices.self_s": (
        "geometry.enumerate_lattice_vertices", "self_s"),
    "geometry.matroid_check.self_s": ("geometry.matroid_check", "self_s"),
    "geometry.solve_via_clique_graph.calls": (
        "geometry.solve_via_clique_graph", "calls"),
    "geometry.solve_via_clique_graph.self_s": (
        "geometry.solve_via_clique_graph", "self_s"),
    "geometry.solve_incidence_transpose.calls": (
        "geometry.solve_incidence_transpose", "calls"),
    "geometry.solve_incidence_transpose.self_s": (
        "geometry.solve_incidence_transpose", "self_s"),
    "signed_graph.components.calls": ("signed_graph.components", "calls"),
    "signed_graph.components.s": ("signed_graph.components", "s"),
    "signed_graph.is_negative_one_forest.calls": (
        "signed_graph.is_negative_one_forest", "calls"),
    "signed_graph.is_negative_one_forest.self_s": (
        "signed_graph.is_negative_one_forest", "self_s"),
    "signed_graph.clique_graph.s": ("signed_graph.clique_graph", "s"),
    "signed_graph.parse_graph.s": ("signed_graph.parse_graph", "s"),
    "testkit.s": ("testkit", "s"),
}


def _resolve(module_name: str, path: str):
    """(owner, function) for ``Class.method`` or ``function``."""
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, vars(owner)[attribute]


class Tracer:
    """Span recorder.  Each span is (name, start, end, parent index, op
    id); the parent is the innermost traced call still open."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op = -1
        self.counters = {"invert_nonsingular": 0, "solve_max_rows": 0,
                         "vertices_found": 0}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.op = -1
        for key in self.counters:
            self.counters[key] = 0

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "linalg.invert" and result is not None:
            self.counters["invert_nonsingular"] += 1
        elif name == "linalg.solve":
            self.counters["solve_max_rows"] = max(
                self.counters["solve_max_rows"], len(args[0]))
        elif name == "geometry.enumerate_lattice_vertices":
            self.counters["vertices_found"] += len(result)

    def _wrap(self, name: str, function):
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            self._observe(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function in every loaded bishops
        namespace for the duration of the block."""
        importlib.import_module("bishops.cli")
        namespaces = [module for key, module in list(sys.modules.items())
                      if key == "bishops" or key.startswith("bishops.")]
        rebound: list[tuple[object, str, object]] = []
        try:
            for name, targets in LAYERS.items():
                for module_name, path in targets:
                    owner, original = _resolve(module_name, path)
                    wrapper = self._wrap(name, original)
                    # a method lives only on its class; a function may be
                    # imported into any bishops module
                    is_method = owner is not sys.modules[module_name]
                    for holder in [owner] if is_method else namespaces:
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                setattr(holder, key, wrapper)
                                rebound.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(rebound):
                setattr(holder, key, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name.

        Inclusive time counts only spans with no open ancestor of the
        same name, so nested calls of one layer are not counted twice;
        self time is a span's duration minus its direct children's.
        """
        child_time = [0.0] * len(self.spans)
        stats: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in LAYERS}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += end - start
        return stats

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace_overhead_s, which needs
        an untraced pass to compare with."""
        stats = self.summary()
        values: dict[str, float] = {
            metric: stats[span][statistic]
            for metric, (span, statistic) in LAYER_METRICS.items()}
        inverts = stats["linalg.invert"]["calls"]
        # non-None inverses, and vertices found, per invert call
        values["linalg.invert.nonsingular_ratio"] = (
            self.counters["invert_nonsingular"] / inverts if inverts else 0.0)
        values["geometry.vertices_per_system"] = (
            self.counters["vertices_found"] / inverts if inverts else 0.0)
        # most equations handed to one linalg.solve call
        values["linalg.solve.max_rows"] = self.counters["solve_max_rows"]
        values["trace.spans"] = len(self.spans)
        return values

    def dump(self) -> dict:
        """Spans as a compact JSON-ready table."""
        names = sorted(LAYERS)
        code = {name: index for index, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[code[name], round(start - origin, 7),
                       round(end - origin, 7), parent, op]
                      for name, start, end, parent, op in self.spans],
        }
