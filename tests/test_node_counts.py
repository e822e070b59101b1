"""Pinned search-node counts.  Node counts are machine independent and follow
from the branching order alone, so any change to the order in which the
native search picks vertices and colors, or the CDCL solver picks,
propagates and learns literals, or the clauses the encoder emits, changes
some number here.  A change to how the vertex is found that keeps the
order, such as its data structure, moves none.  A change that means to
alter the order must say so and update the pins.

The native search branches on the vertex with the fewest allowed colors,
then the most wipeouts so far (dom/wdeg), then the highest degree, then
(graceful only) the lowest sum of neighbour degrees, then the lowest
index, and at a dead end it jumps back to the deepest assignment the dead
end depends on; the reduced NAE-3SAT-E4 pins are the ones these rules
move most, from 252 vertices (six variables) to 882 (twenty-one).  On a
regular graph every vertex ties on degree and on neighbour-degree sum,
so the cubic, Petersen, Q_3 and K_q searches are those of the
lowest-index tie-break.  chi_g starts from max(chi(G^2), minimum degree
+ ceil(chi(G^2)/2)), which skips refuted k's: Q_3 at k = 4 and K_q below
q - 1 + ceil(q/2), so their chig counts are the sums of fewer searches.
Graceful search also colors each class of twins in increasing order,
which moves the counts of graphs with twins only: the complete graphs
here, not the reduced NAE-3SAT-E4, cubic, Petersen or Q_3 pins.
Distance-two search fixes the colors of Graph.square_clique, its i-th
vertex to color i, so a k below the clique's size is 'no' in 0 nodes;
this rule replaced value precedence (one new color per node), which took
90 nodes, not 65, for chi(G^2) of the cubic graph below and left the
K_q, Petersen and Q_3 pins as they are.  The CDCL pins are of formulas
that carry the same three rules as clauses (degree, reflection and twin
order; see graceful.cnf), which cut their refutations most: K_6 at
k = 10 took 1,980 decisions without them.  Their variables are numbered
breadth first from the root, so the smallest-variable decisions color
the graph outward from it: cubic_graph(16, 0) at k = 5 takes 11
decisions, against 70 with ids by vertex index."""

import pytest

from graceful import (SearchBudget, complete_graph, cubic_graph,
                      distance_two_chromatic_number, graceful_chromatic_number,
                      graceful_k_colorable, hypercube_graph, petersen_graph)
from graceful.cnf import decode_model, encode_graceful, internal_sat
from graceful.reductions import (NaeFormula, check_nae_reduction, clause_gadget,
                                 nae_reduce, smallest_e4_instance,
                                 variable_gadget, verify_gadget)


def _decided(g, k, budget):
    dec = graceful_k_colorable(g, k, SearchBudget(budget))
    return dec.status, dec.nodes


def test_reduced_e4_3_at_k4():
    g = nae_reduce(smallest_e4_instance()).graph
    assert _decided(g, 4, 3000) == ("yes", 130)


@pytest.mark.parametrize("i", range(3))
def test_reduced_e4_6(e4_6, i):
    g = nae_reduce(e4_6[i]).graph
    assert _decided(g, 4, 1500) == ("yes", (411, 536, 873)[i])
    assert _decided(g, 5, 1500) == ("yes", (252, 252, 252)[i])


def test_reduced_e4_6_full_decision(e4_6):
    g = nae_reduce(e4_6[0]).graph
    # a larger budget changes no node count, as the search stops at its first
    # coloring and picks its vertices with no regard to the budget
    assert _decided(g, 4, 50000) == ("yes", 411)


def test_reduced_e4_18_at_k4(e4_6):
    # the three formulas side by side, on variables 0-5, 6-11 and 12-17, pin
    # the selection on a 756-vertex graph, three times the size of each
    phi = NaeFormula.make(18, [tuple(x + 6 * i for x in cl)
                               for i, f in enumerate(e4_6) for cl in f.clauses])
    g = nae_reduce(phi).graph
    assert g.n == 756
    assert _decided(g, 4, 10000) == ("yes", 2743)


def test_reduced_e4_9_unsat_at_k4(e4_9_unsat):
    # NAE-unsatisfiable, so 'no' needs the whole tree: the budget must hold it
    results = [check_nae_reduction(phi, SearchBudget(100_000)) for phi in e4_9_unsat]
    assert [(r.status, r.details["graceful_4"], r.details["nodes"]) for r in results] == [
        ("consistent", "no", 5541), ("consistent", "no", 8254)]


# the pairing-model NAE-3SAT-E4 formula on 12 variables with seed 0
# (bench/naegen.py), which is NAE-satisfiable
E4_12 = NaeFormula.make(12, (
    (0, 3, 10), (1, 2, 10), (1, 2, 6), (3, 5, 7), (0, 1, 9), (0, 4, 8), (3, 4, 8), (5, 7, 10),
    (3, 9, 11), (2, 7, 8), (2, 4, 6), (5, 8, 11), (4, 6, 9), (6, 7, 11), (0, 5, 10), (1, 9, 11)))


@pytest.mark.parametrize("nine_first, nodes", [(False, 13199), (True, 7161)],
                         ids=["nae12-first", "nae9-first"])
def test_reduced_union_in_both_orders(e4_9_unsat, nine_first, nodes):
    # the NAE-9 refutation must be found again under every assignment of the
    # NAE-12 gadgets colored before it; the search jumps back over them, and
    # backtracking to the previous assignment took 859,853 nodes with NAE-9
    # last (24,102 with it first)
    blocks = [(9, e4_9_unsat[0]), (12, E4_12)]
    if not nine_first:
        blocks.reverse()
    offset, clauses = 0, []
    for num_vars, phi in blocks:
        clauses += [tuple(x + offset for x in cl) for cl in phi.clauses]
        offset += num_vars
    g = nae_reduce(NaeFormula.make(21, clauses)).graph
    assert _decided(g, 4, 50_000) == ("no", nodes)


def test_reduced_e4_9_unsat_on_cnf_route(e4_9_unsat):
    # the CNF route refutes the paper's hard case too, matching the native 'no'
    results = [internal_sat(encode_graceful(nae_reduce(phi).graph, 4), SearchBudget(2_000))
               for phi in e4_9_unsat]
    assert [(r.status, r.nodes) for r in results] == [("unsat", 375), ("unsat", 277)]


CUBIC_K5_NODES = {12: 32, 14: 32, 16: 68, 18: 38}


@pytest.mark.parametrize("n", CUBIC_K5_NODES)
def test_cubic_at_k5(n):
    assert _decided(cubic_graph(n, 0), 5, 10 ** 7) == ("no", CUBIC_K5_NODES[n])


@pytest.mark.parametrize("g, k, expected", [
    (cubic_graph(12, 0), 5, ("unsat", 10, None)),
    (cubic_graph(14, 0), 5, ("unsat", 10, None)),
    (cubic_graph(16, 0), 5, ("unsat", 11, None)),
    (cubic_graph(18, 0), 5, ("unsat", 11, None)),
    (complete_graph(5), 8, ("unsat", 24, None)),
    (complete_graph(5), 9, ("sat", 5, (1, 2, 4, 8, 9))),
    (cubic_graph(12, 0), 6, ("sat", 20, (1, 6, 2, 2, 3, 5, 4, 3, 5, 1, 6, 4))),
    (cubic_graph(14, 0), 6, ("sat", 17, (1, 6, 3, 2, 5, 4, 3, 1, 2, 6, 6, 4, 3, 5))),
    (cubic_graph(16, 0), 6, ("sat", 17, (1, 4, 2, 2, 6, 3, 6, 5, 4, 2, 1, 5, 6, 4, 3, 1))),
    (complete_graph(6), 10, ("unsat", 51, None)),
    (complete_graph(6), 11, ("sat", 5, (1, 2, 4, 5, 10, 11))),
])
def test_dpll_nodes(g, k, expected):
    # CDCL is DPLL with clause learning; a node is a decision, which sets the
    # smallest unassigned variable true (the vertices numbered breadth first
    # from the root), and the model pins the assignment the search stops at
    formula = encode_graceful(g, k)
    res = internal_sat(formula)
    colors = decode_model(formula, res.model).colors if res.status == "sat" else None
    assert (res.status, res.nodes, colors) == expected


@pytest.mark.parametrize("g, chi2, chig", [
    (petersen_graph(), (10, 10), (10, 20)),
    (hypercube_graph(3), (4, 8), (5, 16)),
])
def test_chromatic_numbers(g, chi2, chig):
    res = distance_two_chromatic_number(g)
    assert (res.status, res.value, res.nodes) == ("ok", *chi2)
    res = graceful_chromatic_number(g)
    assert (res.status, res.value, res.nodes) == ("ok", *chig)


def test_square_clique_decides_chi2_of_a_cubic_graph():
    # G^2 holds a 6-clique, so k = 4 and 5 are 'no' without search; from
    # max degree + 1 = 4, a search that did not know the clique was still
    # 'unknown' on k = 5 after 10^7 nodes
    res = distance_two_chromatic_number(cubic_graph(60, 18282431747914352928),
                                        SearchBudget(2000))
    assert (res.status, res.value, res.nodes) == ("ok", 6, 65)


# chi_g(K_q) = a(q).  All of K_q is one twin class, colored in increasing
# order; with the reflection cap alone, K_8 ran past 50,000 nodes.  The
# distance-two search breaks no twin symmetry: chi(K_q^2) = q in q nodes.
COMPLETE_GRAPHS = {5: (9, 113), 6: (11, 270), 7: (13, 582), 8: (14, 620), 9: (20, 9966)}


@pytest.mark.parametrize("q", COMPLETE_GRAPHS)
def test_complete_graphs(q):
    res = distance_two_chromatic_number(complete_graph(q))
    assert (res.status, res.value, res.nodes) == ("ok", q, q)
    res = graceful_chromatic_number(complete_graph(q))
    assert (res.status, res.value, res.nodes) == ("ok", *COMPLETE_GRAPHS[q])


@pytest.mark.parametrize("make, count", [(variable_gadget, 16), (clause_gadget, 48)])
def test_gadget_enumeration(make, count):
    report = verify_gadget(make())
    assert report.certified and report.colorings_enumerated == count
