"""Exact counting and formula discovery for nonattacking riders.

The package computes exact placement counts, recovers the counting
quasipolynomial of the bishop by interpolation, and independently bounds
its period through the signed-graph geometry of the move arrangement.

``import bishops`` loads no submodule: each exported name is looked up
in the table below on first use, and only its own module is imported.
"""

from importlib import import_module

__version__ = "0.1.0"

# every exported name, by the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "board": ("BISHOP", "BasicMove", "Rider", "Square", "attacks",
              "parse_rider"),
    "counting": ("DEFAULT_NODE_BUDGET", "CountTable", "SearchBudgetExceeded",
                 "count_bishops_fast", "count_unlabelled_naive",
                 "sample_counts"),
    "geometry": ("CliqueSolution", "EnumerationBoundExceeded", "Fixation",
                 "LatticeVertex", "SingularFixationError", "denominator_lcm",
                 "enumerate_lattice_vertices", "hyperplane_normal",
                 "matroid_check", "move_arrangement", "period_upper_bound",
                 "solve_incidence_transpose", "solve_via_clique_graph",
                 "verify_half_integrality"),
    "quasipoly": ("InconsistentSamplesError", "InsufficientSamplesError",
                  "InterpolationError", "Quasipolynomial", "interpolate",
                  "interpolate_bishops"),
    "signed_graph": ("NEGATIVE", "POSITIVE", "CliqueGraph", "SignedGraph",
                     "clique_graph", "components", "cyclomatic",
                     "format_graph", "incidence_matrix",
                     "irredundant_reduction", "is_negative_one_forest",
                     "parse_graph", "rank", "signed_cliques"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
