"""Exact solvers and verifiers for graceful colorings, distance-two
colorings, progression-free set spans, and the reductions tying them to
NAE satisfiability."""

from .coloring import (EdgeLabelling, VertexColoring, Violation,
                       induced_difference_labelling, is_distance_two_coloring,
                       is_graceful_coloring)
from .graph import (Graph, GraphFormatError, StructuralReport, complete_bipartite,
                    complete_graph, cubic_graph, cycle_graph, degeneracy,
                    generate, gnp_graph, hypercube_graph, parse_edge_list,
                    parse_graph6, path_graph, petersen_graph, prism_graph,
                    square, star_graph, structural_report, write_edge_list,
                    write_graph6)
from .sequences import (ApFreeSet, a_of_n, a_of_n_bruteforce,
                        all_optimal_witnesses, is_ap_free)
from .solve import (Decision, OptimumResult, SearchBudget, UndecidedError,
                    bounds, distance_two_chromatic_number,
                    distance_two_k_colorable, enumerate_graceful_colorings,
                    graceful_chromatic_number, graceful_k_colorable,
                    graceful_k_colorable_bruteforce, lift_distance_two)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
