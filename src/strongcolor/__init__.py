"""Strong edge-coloring of multigraphs with maximum degree 4.

The solver guarantees at most 22 colors; companions include an exact
exponential oracle for small graphs, graph generators and fixtures, a
verifier, and text file formats with a CLI.
"""

from .coloring import ConflictError, PaletteExhausted, PartialColoring, greedy_color, verify
from .gen import (
    GenSpec,
    RejectionBudgetExhausted,
    erdos_nesetril_5,
    fixture_names,
    generate,
    load_fixture,
    random_4regular,
    random_max4,
    star_neighborhood,
)
from .graphio import GraphFormatError, emit_coloring, emit_graph, parse_coloring, parse_graph
from .hall import DiscrepancyResult, common_color, find_sdr, max_discrepancy_subset
from .metrics import CycleDescriptor, find_shortest_cycle, girth
from .multigraph import MultiGraph
from .oracle import BoundTooLow, ExactResult, exact_strong_index
from .solver import (
    LemmaAssertionError,
    MaxDegreeExceeded,
    SolveReport,
    Telemetry,
    Unsatisfiable,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BoundTooLow",
    "ConflictError",
    "CycleDescriptor",
    "DiscrepancyResult",
    "ExactResult",
    "GenSpec",
    "GraphFormatError",
    "LemmaAssertionError",
    "MaxDegreeExceeded",
    "MultiGraph",
    "PaletteExhausted",
    "PartialColoring",
    "RejectionBudgetExhausted",
    "SolveReport",
    "Telemetry",
    "Unsatisfiable",
    "common_color",
    "emit_coloring",
    "emit_graph",
    "erdos_nesetril_5",
    "exact_strong_index",
    "find_sdr",
    "find_shortest_cycle",
    "fixture_names",
    "generate",
    "girth",
    "greedy_color",
    "load_fixture",
    "max_discrepancy_subset",
    "parse_coloring",
    "parse_graph",
    "random_4regular",
    "random_max4",
    "solve",
    "star_neighborhood",
    "verify",
]
