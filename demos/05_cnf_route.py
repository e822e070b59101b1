"""Graceful colorability through a SAT encoding.

Besides the native backtracking solver there is a CNF route: one boolean
per (vertex, color), clause families for properness, distance-two pairs,
and equal-difference path triples, decided by a small built-in CDCL solver
(conflict-driven clause learning, whose nodes are its decisions) or by any
external SAT solver fed the DIMACS text.  The two routes must always agree.
Three more families carry the native search's pruning rules: the degree
bound, reflection at the root, and increasing twin classes.  They keep the
formula satisfiable exactly when a graceful coloring exists, but its models
are only the colorings that obey the rules."""

from graceful import complete_graph, cycle_graph, graceful_k_colorable
from graceful.cnf import (decode_model, encode_graceful, internal_sat,
                          write_dimacs)

g = cycle_graph(5)
for k in (3, 4, 5):
    formula = encode_graceful(g, k)
    sat = internal_sat(formula)
    native = graceful_k_colorable(g, k)
    print(f"C_5, k={k}: {len(formula.clauses)} clauses "
          f"{formula.family_counts}, SAT={sat.status} in {sat.nodes} decisions, "
          f"native={native.status}")
    if sat.status == "sat":
        print("   decoded witness:", decode_model(formula, sat.model).colors)

print("\nDIMACS for K_3 with 4 colors (first lines):")
print("\n".join(write_dimacs(encode_graceful(complete_graph(3), 4)).splitlines()[:5]))
