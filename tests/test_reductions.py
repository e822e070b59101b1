import pytest

from graceful import (SearchBudget, VertexColoring, complete_bipartite,
                      complete_graph, cubic_graph, distance_two_k_colorable,
                      hypercube_graph, is_graceful_coloring, petersen_graph,
                      prism_graph, structural_report)
from graceful import reductions, solve
from graceful.reductions import (BehaviorRow, GadgetSpec, NaeFormula,
                                 brute_force_nae, check_construction1_guarantee,
                                 check_nae_reduction, clause_gadget,
                                 construction1, embed_palette,
                                 extract_assignment, leaf_extension_coloring,
                                 nae_reduce, parse_nae, smallest_e4_instance,
                                 variable_gadget, verify_gadget, write_nae)
from graceful.graph import Graph


# ---------------------------------------------------------------------------
# Construction 1

def test_construction1_k5_is_identity():
    g = complete_graph(4)
    assert construction1(g, 5) == g


def test_construction1_k7_leaves():
    out = construction1(complete_graph(4), 7)
    assert out.n == 12 and out.m == 6 + 8
    assert structural_report(out).max_degree == 5  # k - 2


def test_construction1_preserves_bipartiteness():
    out = construction1(complete_bipartite(3, 3), 6)
    assert out.n == 12
    rep = structural_report(out)
    assert rep.is_bipartite and rep.max_degree == 4


def test_construction1_counts():
    for k in (5, 6, 7, 8):
        g = cubic_graph(8, seed=4)
        out = construction1(g, k)
        assert out.n == g.n * (k - 4)
        assert out.m == g.m + g.n * (k - 5)


def test_construction1_leaf_layout():
    # the leaves of v are n + v(k-5) .. n + (v+1)(k-5) - 1
    out = construction1(cubic_graph(8, seed=4), 7)
    assert all(out.adjacency[8 + 2 * v + i] == (v,) for v in range(8) for i in range(2))


def test_construction1_rejects_non_cubic():
    with pytest.raises(ValueError, match="3-regular"):
        construction1(complete_graph(3), 5)
    with pytest.raises(ValueError, match="k"):
        construction1(complete_graph(4), 4)
    with pytest.raises(ValueError, match="3-regular"):
        leaf_extension_coloring(complete_graph(3), 6, VertexColoring((1, 2, 6), 6))


def test_leaf_extension_produces_graceful_coloring():
    g = hypercube_graph(3)
    d2 = distance_two_k_colorable(g, 4)
    assert d2.status == "yes"
    for k in (5, 6, 7, 8):
        f = leaf_extension_coloring(g, k, embed_palette(d2.coloring, k))
        assert f.k == k
        assert is_graceful_coloring(construction1(g, k), f)[0]


def test_leaf_extension_scheme_values():
    # a vertex colored 2 gets leaves {4..k-2}; colored k-1 gets {3..k-3}
    g = hypercube_graph(3)
    d2 = distance_two_k_colorable(g, 4)
    k = 7
    f = leaf_extension_coloring(g, k, embed_palette(d2.coloring, k))
    base = embed_palette(d2.coloring, k)
    for v in range(g.n):
        leaves = f.colors[g.n + v * (k - 5):g.n + (v + 1) * (k - 5)]
        if base.colors[v] == 2:
            assert sorted(leaves) == [4, 5]
        elif base.colors[v] == k - 1:
            assert sorted(leaves) == [3, 4]


def test_guarantee_check():
    assert check_construction1_guarantee(complete_graph(4), 5).status == "consistent"
    assert check_construction1_guarantee(complete_bipartite(3, 3), 6).status == "consistent"
    assert check_construction1_guarantee(petersen_graph(), 5).status == "consistent"
    assert check_construction1_guarantee(complete_graph(4), 9).status == "consistent"
    with pytest.raises(ValueError, match="k must be >= 5"):
        check_construction1_guarantee(complete_graph(4), 4)


# ---------------------------------------------------------------------------
# NAE formulas

def test_nae_formula_validation():
    phi = smallest_e4_instance()
    assert phi.num_vars == 3 and len(phi.clauses) == 4
    with pytest.raises(ValueError, match="distinct"):
        NaeFormula.make(3, [(0, 0, 1)] * 4)
    with pytest.raises(ValueError, match="four"):
        NaeFormula.make(3, [(0, 1, 2)] * 3)


def test_nae_text_roundtrip():
    phi = smallest_e4_instance()
    assert parse_nae(write_nae(phi)) == phi
    with pytest.raises(ValueError, match="header"):
        parse_nae("p cnf 3 4\n")


def test_brute_force_nae():
    phi = smallest_e4_instance()
    bits = brute_force_nae(phi)
    assert bits is not None and len(set(bits)) == 2
    assert brute_force_nae(NaeFormula(0, ())) is not None  # vacuous


def test_brute_force_nae_unsatisfiable():
    # positive NAE satisfiability is 2-coloring of a 3-uniform hypergraph;
    # the Fano plane is the smallest non-2-colorable one.  It has three
    # occurrences per variable, not four, so it bypasses make(): this
    # instance exercises the oracle only, not the reduction.
    fano = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
            (1, 4, 6), (2, 3, 6), (2, 4, 5))
    assert brute_force_nae(NaeFormula(7, fano)) is None


# ---------------------------------------------------------------------------
# Gadgets

def test_variable_gadget_certifies():
    spec = variable_gadget()
    rep = verify_gadget(spec)
    assert rep.certified
    assert {r.name for r in rep.rows if r.mode == "forall"} == {"ports equal and in {1,4}"}
    assert rep.colorings_enumerated > 0


def test_clause_gadget_certifies():
    rep = verify_gadget(clause_gadget())
    assert rep.certified
    names = [r.name for r in rep.rows]
    assert "anchors never all equal" in names
    assert sum(1 for r in rep.rows if r.mode == "exists") == 6


def test_gadget_degree_and_degeneracy():
    for spec in (variable_gadget(), clause_gadget()):
        # account for one pending external edge per port
        n = spec.graph.n
        edges = list(spec.graph.edges())
        for i, v in enumerate(sorted(spec.ports.values())):
            edges.append((v, n + i))
        aug = Graph.from_edges(n + len(spec.ports), edges)
        rep = structural_report(aug)
        assert rep.max_degree <= 3
        assert rep.degeneracy <= 2


def test_verify_gadget_single_vertex():
    g = Graph.from_edges(1, [])
    spec = GadgetSpec(g, {"p": 0}, (
        BehaviorRow("color in palette", "forall",
                    lambda pc, sc: pc["p"] in {1, 2, 3, 4}),))
    assert verify_gadget(spec).certified


def test_verify_gadget_reports_counterexample():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    spec = GadgetSpec(g, {"a": 0, "b": 2}, (
        BehaviorRow("endpoints equal", "forall",
                    lambda pc, sc: pc["a"] == pc["b"]),))
    rep = verify_gadget(spec)
    assert not rep.certified
    assert rep.rows[0].counterexample is not None


def test_verify_gadget_stubs_follow_sorted_port_names():
    # stub 3 hangs on port "a" (vertex 0) and stub 4 on "b" (vertex 2),
    # whatever order the ports dict lists them in
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    spec = GadgetSpec(g, {"b": 2, "a": 0}, (
        BehaviorRow("endpoints equal", "forall",
                    lambda pc, sc: pc["a"] == pc["b"]),))
    rep = verify_gadget(spec)
    assert rep.rows[0].counterexample == (1, 2, 4, 3, 1)
    assert rep.colorings_enumerated == 56


def test_verify_gadget_has_no_size_cap():
    # two disjoint variable gadgets: 36 vertices, 8 ports, 44 with the stubs;
    # the node budget, not a vertex count, bounds the enumeration
    one = variable_gadget()
    n = one.graph.n
    edges = list(one.graph.edges()) + [(u + n, v + n) for u, v in one.graph.edges()]
    ports = {f"{copy}{name}": v + off
             for copy, off in (("a_", 0), ("b_", n))
             for name, v in one.ports.items()}
    spec = GadgetSpec(Graph.from_edges(2 * n, edges), ports, (
        BehaviorRow("each copy's ports equal", "forall",
                    lambda pc, sc: all(
                        len({c for name, c in pc.items() if name.startswith(copy)}) == 1
                        for copy in ("a_", "b_"))),))
    rep = verify_gadget(spec)
    assert rep.certified and rep.colorings_enumerated == 256


# ---------------------------------------------------------------------------
# Full reduction

def test_nae_reduce_structure():
    phi = smallest_e4_instance()
    out = nae_reduce(phi)
    assert len(out.port_edges) == 12  # 3|C| = 4|X|
    rep = structural_report(out.graph)
    assert rep.max_degree == 3
    assert rep.degeneracy == 2
    assert set(out.provenance) == set(range(out.graph.n))
    kinds = {p[0] for p in out.provenance.values()}
    assert kinds == {"variable", "clause"}


def test_nae_reduce_layout():
    # variable gadgets first, then clause gadgets, 18 vertices each
    out = nae_reduce(smallest_e4_instance())
    assert out.graph.n == 126
    assert out.variable_ports == ((0, 1, 2, 3), (18, 19, 20, 21), (36, 37, 38, 39))
    assert out.port_edges[:3] == ((0, 54), (18, 55), (36, 56))
    for p, a in out.port_edges:
        (pkind, _, prole), (akind, _, arole) = out.provenance[p], out.provenance[a]
        assert (pkind, akind) == ("variable", "clause")
        assert prole.startswith("x_") and arole.startswith("c_")


def test_check_nae_reduction_consistent():
    res = check_nae_reduction(smallest_e4_instance())
    assert res.status == "consistent"
    assert res.details["graceful_4"] == "yes"


def test_extract_assignment_and_reflection():
    phi = smallest_e4_instance()
    out = nae_reduce(phi)
    from graceful import graceful_k_colorable
    dec = graceful_k_colorable(out.graph, 4)
    assert dec.status == "yes"
    bits = extract_assignment(out, dec.coloring)
    reflected = VertexColoring(tuple(5 - c for c in dec.coloring.colors), 4)
    assert extract_assignment(out, reflected) == tuple(not b for b in bits)


def test_extract_assignment_rejects_invalid():
    out = nae_reduce(smallest_e4_instance())
    with pytest.raises(ValueError):
        extract_assignment(out, VertexColoring((1,) * out.graph.n, 4))


def test_check_nae_verifies_its_witness_once(monkeypatch):
    # the search's witness is verified where it is found, and its ports are
    # read without a second check
    calls = []

    def counted(g, f):
        calls.append(g.n)
        return is_graceful_coloring(g, f)

    for module in (solve, reductions):
        monkeypatch.setattr(module, "is_graceful_coloring", counted)
    res = check_nae_reduction(smallest_e4_instance())
    assert (res.status, res.details["graceful_4"]) == ("consistent", "yes")
    assert len(calls) == 1
