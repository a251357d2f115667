"""Strong edge-coloring of multigraphs with maximum degree 4.

The solver guarantees at most 22 colors; companions include an exact
exponential oracle for small graphs, graph generators and fixtures, a
verifier, and text file formats with a CLI.

The public names are those of `__all__`, listed once each in `_EXPORTS`
by the submodule that defines them. `import strongcolor` loads no
submodule: a name is imported from its submodule on first use (PEP 562)
and is then an attribute of the package like any other.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "coloring": "ConflictError PaletteExhausted PartialColoring greedy_color verify",
    "gen": (
        "GenSpec RejectionBudgetExhausted erdos_nesetril_5 fixture_names generate"
        " load_fixture random_4regular random_max4 star_neighborhood"
    ),
    "graphio": "GraphFormatError emit_coloring emit_graph parse_coloring parse_graph",
    "hall": "DiscrepancyResult common_color find_sdr max_discrepancy_subset",
    "metrics": "CycleDescriptor find_shortest_cycle girth",
    "multigraph": "MultiGraph",
    "oracle": "BoundTooLow ExactResult exact_strong_index",
    "solver": "LemmaAssertionError MaxDegreeExceeded SolveReport Telemetry Unsatisfiable solve",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
