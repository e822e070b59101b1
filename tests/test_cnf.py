import pytest

from graceful import (SearchBudget, complete_bipartite, complete_graph,
                      cubic_graph, enumerate_graceful_colorings, gnp_graph,
                      graceful_k_colorable, is_graceful_coloring, star_graph)
from graceful.cnf import (CnfFormula, SatResult, _breadth_first, decode_model,
                          encode_graceful, internal_sat, parse_solver_output,
                          predicted_clause_counts, write_dimacs)
from graceful.graph import SplitMix64
from graceful.reductions import nae_reduce, smallest_e4_instance
from graceful.solve import _static_bans


def test_encode_k2():
    res = internal_sat(encode_graceful(complete_graph(2), 2))
    assert res.status == "sat"
    f = decode_model(encode_graceful(complete_graph(2), 2), res.model)
    assert sorted(f.colors) == [1, 2]


def test_encode_k3_with_3_colors_unsat():
    assert internal_sat(encode_graceful(complete_graph(3), 3)).status == "unsat"


def test_encode_reference_graph(fig1):
    g, _ = fig1
    formula = encode_graceful(g, 5)
    res = internal_sat(formula)
    assert res.status == "sat"
    assert is_graceful_coloring(g, decode_model(formula, res.model))[0]


def test_encode_k4_needs_five_colors():
    formula = encode_graceful(complete_graph(4), 5)
    res = internal_sat(formula)
    assert res.status == "sat"
    decode_model(formula, res.model)
    assert internal_sat(encode_graceful(complete_graph(4), 4)).status == "unsat"


def test_clause_counts_match_closed_form():
    graphs = [gnp_graph(3 + i % 4, 0.5, 800 + i) for i in range(20)] + TWIN_RICH
    for g in graphs:
        for k in (3, 4, 5):
            formula = encode_graceful(g, k)
            assert formula.family_counts == predicted_clause_counts(g, k)
            assert len(formula.clauses) == sum(formula.family_counts.values())
    # K_4 at k = 5: degree 3 bans color 3 (max(2, 2) < 3) at each vertex, the
    # root loses 4 and 5, and one class of four twins gives C(4, 2) vertex
    # pairs times C(5, 2) color pairs
    counts = encode_graceful(complete_graph(4), 5).family_counts
    assert (counts["degree"], counts["reflection"], counts["twin"]) == (4, 2, 60)
    assert list(counts) == ["a", "b", "c", "d2", "d3", "degree", "reflection", "twin"]


# twin-rich graphs: a star's leaves, each side of K_{a,b} and all of K_q are
# twin classes
TWIN_RICH = ([star_graph(m) for m in range(1, 6)]
             + [complete_bipartite(a, b) for a in (2, 3) for b in range(a, 5)]
             + [complete_graph(q) for q in range(2, 6)])


def _families(formula):
    """The clauses of each family, by name."""
    out, start = {}, 0
    for name, count in formula.family_counts.items():
        out[name] = formula.clauses[start:start + count]
        start += count
    return out


def _model(f, formula):
    """Coloring f as an assignment: x_{v,c}, with id r*k + c for v at rank r
    of the breadth-first order, is true iff f(v) == c."""
    order = _breadth_first(formula.graph)
    true = {r * f.k + f.colors[v] for r, v in enumerate(order)}
    return [x if x in true else -x for x in range(1, formula.num_vars + 1)]


def _satisfies(f, formula, clauses):
    """Whether coloring f satisfies every clause."""
    lits = set(_model(f, formula))
    return all(not lits.isdisjoint(cl) for cl in clauses)


def _soundness_cases():
    rng = SplitMix64(5)
    for i in range(30):
        g = gnp_graph(2 + rng.randint(6), 0.5, 2000 + i)  # up to 7 vertices
        for k in range(1, 6):
            yield g, k
    for g in TWIN_RICH:
        for k in range(1, 8):
            yield g, k
    yield complete_graph(5), 8
    yield complete_graph(5), 9  # a(5) = 9


def test_d3_family_matches_its_definition():
    # every path u - mid - w (u < w) and every ordered pair of distinct
    # same-parity endpoint colors, in that order, the middle color forced
    rng = SplitMix64(17)
    for i in range(12):
        g = gnp_graph(2 + rng.randint(9), 0.4, 1700 + i)
        rank = {v: r for r, v in enumerate(_breadth_first(g))}
        for k in range(1, 9):
            expected = [(-(rank[u] * k + cu), -(rank[mid] * k + (cu + cw) // 2),
                         -(rank[w] * k + cw))
                        for mid in range(g.n)
                        for u in g.adjacency[mid] for w in g.adjacency[mid] if u < w
                        for cu in range(1, k + 1) for cw in range(1, k + 1)
                        if cu != cw and cu % 2 == cw % 2]
            assert _families(encode_graceful(g, k))["d3"] == expected, (g.edges(), k)


def test_unit_families_are_the_static_bans(e4_6):
    # the degree and reflection unit clauses, decoded to (v, c), are the
    # bans the native search starts from, neither more nor less
    graphs = [gnp_graph(n, 0.3, 900 + n) for n in range(12)] + TWIN_RICH
    graphs += [cubic_graph(n, s) for n in (8, 20) for s in range(2)]
    graphs += [complete_graph(q) for q in range(8)]
    graphs += [nae_reduce(phi).graph for phi in e4_6]
    for g in graphs:
        order = _breadth_first(g)
        for k in (1, 3, 4, 5, 6, 8):
            families = _families(encode_graceful(g, k))
            bans = _static_bans(g, k, True, True)
            assert list(bans) == ["degree", "reflection"]
            for name, pairs in bans.items():
                units = [divmod(-lit - 1, k) for (lit,) in families[name]]
                assert {(order[r], c + 1) for r, c in units} == {
                    (v, c) for v, colors in pairs for c in colors}, (name, g.edges(), k)


def test_families_hold_on_every_graceful_coloring():
    # evaluated directly on the enumeration, with no SAT solver: families
    # a-d3 state gracefulness and the degree units are implied by it, and
    # the assignment of a coloring decodes to the coloring
    for g, k in _soundness_cases():
        formula = encode_graceful(g, k)
        families = _families(formula)
        implied = [cl for name in ("a", "b", "c", "d2", "d3", "degree")
                   for cl in families[name]]
        for f in enumerate_graceful_colorings(g, k):
            assert _satisfies(f, formula, implied), (g.edges(), k, f.colors)
            assert decode_model(formula, _model(f, formula)) == f


def test_symmetry_clauses_keep_one_coloring_per_class():
    # reflection and twin order cut colorings, but some graceful coloring
    # survives them exactly when there is one
    for g, k in _soundness_cases():
        formula = encode_graceful(g, k)
        found = enumerate_graceful_colorings(g, k)
        assert any(_satisfies(f, formula, formula.clauses)
                   for f in found) == bool(found), (g.edges(), k)


def test_variables_are_numbered_breadth_first_from_the_root():
    graphs = [gnp_graph(n, p, 4000 + i) for i, (n, p) in
              enumerate((n, p) for n in (0, 1, 5, 9, 14) for p in (0.1, 0.25, 0.6))]
    graphs += [star_graph(m) for m in range(4)] + [cubic_graph(n, s) for n in (8, 20)
                                                   for s in range(3)]
    assert any(0 in map(len, g.adjacency) for g in graphs)  # isolated vertices
    for g in graphs:
        order = _breadth_first(g)
        assert sorted(order) == list(range(g.n))
        rank = {v: r for r, v in enumerate(order)}
        if g.n:
            assert order[0] == max(range(g.n), key=g.degree)  # the reflection root
        # a vertex with no earlier neighbour starts a component, at its lowest
        # index once the root's is done; every other vertex follows its parent,
        # its earliest neighbour, in order of (parent, index)
        previous = (-1, -1)
        for r, v in enumerate(order):
            parent = min((rank[u] for u in g.adjacency[v]), default=r)
            if parent < r:
                assert (parent, v) > previous, (g.edges(), order)
                previous = (parent, v)
                continue
            component, todo = {v}, [v]
            while todo:
                todo += [u for u in g.adjacency[todo.pop()] if u not in component]
                component.update(todo)
            assert all(rank[u] >= r for u in component), (g.edges(), order)
            assert r == 0 or v == min(component), (g.edges(), order)


def test_equivalence_with_native_solver():
    rng = SplitMix64(5)
    for i in range(30):
        n = 2 + rng.randint(6)  # up to 7 vertices
        g = gnp_graph(n, 0.5, 2000 + i)
        for k in range(1, 6):
            native = graceful_k_colorable(g, k).status
            sat = internal_sat(encode_graceful(g, k))
            assert (native == "yes") == (sat.status == "sat"), (n, k, i)
            if sat.status == "sat":
                decode_model(encode_graceful(g, k), sat.model)


def test_native_search_matches_cnf_route_on_reduced_and_cubic_graphs(e4_6):
    # graphs of many loosely joined parts, where the native search jumps
    # back over the vertices that played no part in a dead end
    cases = [(nae_reduce(phi).graph, 4) for phi in (smallest_e4_instance(),) + e4_6]
    cases += [(cubic_graph(n, s), k) for n in (10, 12, 14, 16) for s in range(4)
              for k in (5, 6, 7)]
    for g, k in cases:
        native = graceful_k_colorable(g, k).status
        sat = internal_sat(encode_graceful(g, k))
        assert (native == "yes") == (sat.status == "sat"), (g.n, k)


def test_cubic_k5_refuted_within_budget():
    # construction 1's 'no' at k = 5, which the native search also gives
    g = cubic_graph(18, 25)
    res = internal_sat(encode_graceful(g, 5), SearchBudget(2000))
    assert res.status == "unsat" and res.nodes <= 2000
    assert graceful_k_colorable(g, 5).status == "no"


def test_decode_rejects_double_color():
    formula = encode_graceful(complete_graph(2), 2)
    with pytest.raises(ValueError, match="colors"):
        decode_model(formula, [1, 2, -3, 4])


def test_write_dimacs():
    f = CnfFormula(1, [(1,)])
    assert write_dimacs(f) == "p cnf 1 1\n1 0\n"


def test_parse_solver_output():
    assert parse_solver_output("s UNSATISFIABLE\n") == ("unsat", None)
    assert parse_solver_output("s UNKNOWN\n") == ("unknown", None)
    verdict, model = parse_solver_output("c comment\ns SATISFIABLE\nv 1 -2\nv 3 0\n")
    assert verdict == "sat" and model == [1, -2, 3]
    with pytest.raises(ValueError, match="line 1"):
        parse_solver_output("garbage\n")
    with pytest.raises(ValueError, match="verdict"):
        parse_solver_output("c nothing here\n")


def test_dimacs_roundtrip_verdicts():
    # the DIMACS text must describe the same instance the internal solver saw:
    # re-parse it naively and re-solve
    rng = SplitMix64(17)
    for i in range(20):
        g = gnp_graph(2 + rng.randint(4), 0.6, 3000 + i)
        formula = encode_graceful(g, 3)
        text = write_dimacs(formula)
        lines = text.splitlines()
        header = lines[0].split()
        clauses = [tuple(int(x) for x in ln.split()[:-1]) for ln in lines[1:]]
        reparsed = CnfFormula(int(header[2]), clauses)
        assert internal_sat(reparsed).status == internal_sat(formula).status


def test_formula_rejects_bad_literals():
    for clauses, message in ([[(1, 0)], "zero literal"],
                             [[(1,), (2, -3)], "exceeds num_vars"],
                             [[(1, 2), (2, -1, 1)], "and its negation"]):
        with pytest.raises(ValueError, match=message):
            CnfFormula(2, clauses)
    assert CnfFormula(2, [(1, 1, -2), (-2,)]).clauses == [(1, 1, -2), (-2,)]


def test_encoded_formulas_pass_the_literal_checks():
    # encode_graceful's output skips the checks above; rebuilding it through
    # CnfFormula runs them
    for g, k in _soundness_cases():
        formula = encode_graceful(g, k)
        assert CnfFormula(formula.num_vars, formula.clauses).clauses == formula.clauses


def test_internal_sat_edges():
    assert internal_sat(CnfFormula(1, [(1,), (-1,)])).status == "unsat"
    res = internal_sat(CnfFormula(2, []))
    assert res.status == "sat" and len(res.model) == 2
    assert internal_sat(CnfFormula(2, [(), (1, 2)])) == SatResult("unsat", None, 0)


def test_internal_sat_empty_clause_after_units():
    # the empty clause is met while the clauses load, after a unit clause
    # was set, or after two unit clauses already conflict
    unsat = SatResult("unsat", None, 0)
    assert internal_sat(CnfFormula(2, [(1,), ()])) == unsat
    assert internal_sat(CnfFormula(3, [(1,), (-2, 3), (1, 2, 3), ()])) == unsat
    assert internal_sat(CnfFormula(2, [(1,), (-1,), ()])) == unsat
    assert internal_sat(CnfFormula(2, [(2,), (1, 2), (-2,), (), (1,)])) == unsat


def test_internal_sat_branches_on_smallest_unassigned_variable():
    # variable 2 is unassigned after 1 is set true, although its one clause is
    # satisfied: the search still branches on it, then on 3, so 3 nodes
    res = internal_sat(CnfFormula(4, [(1, 2), (3, 4), (-3, -4)]))
    assert (res.status, res.model, res.nodes) == ("sat", (1, 2, 3, -4), 3)


def test_internal_sat_matches_truth_table():
    for seed in range(41, 45):
        rng = SplitMix64(seed)
        for _ in range(300):
            nv = 1 + rng.randint(10)
            clauses = []
            for _ in range(rng.randint(4 * nv + 1)):
                cl = []
                for _ in range(1 + rng.randint(4)):
                    lit = (1 + rng.randint(nv)) * (1 if rng.randint(2) else -1)
                    if -lit not in cl:
                        cl.append(lit)
                clauses.append(tuple(cl))
            res = internal_sat(CnfFormula(nv, clauses))
            sat = any(all(any((bits >> (abs(lit) - 1) & 1) == (lit > 0) for lit in cl)
                          for cl in clauses) for bits in range(1 << nv))
            assert res.status == ("sat" if sat else "unsat"), (nv, clauses)
            if sat:
                assert all(any(lit in res.model for lit in cl) for cl in clauses)


def test_internal_sat_needs_no_recursion():
    # 1100 independent blocks (a or b)(not a or not b): one decision each,
    # and unit propagation settles b, so the search is 1100 frames deep
    clauses = []
    for i in range(1100):
        a, b = 2 * i + 1, 2 * i + 2
        clauses += [(a, b), (-a, -b)]
    res = internal_sat(CnfFormula(2200, clauses))
    assert (res.status, res.nodes) == ("sat", 1100)
    assert all((res.model[2 * i] > 0) != (res.model[2 * i + 1] > 0) for i in range(1100))


def test_internal_sat_budget():
    formula = encode_graceful(complete_graph(6), 10)
    res = internal_sat(formula, SearchBudget(3))
    # an undecided search reports exactly its budget, and a search that
    # needs exactly its budget still decides
    assert (res.status, res.nodes) == ("unknown", 3)
    full = internal_sat(formula)
    assert internal_sat(formula, SearchBudget(full.nodes)) == full
