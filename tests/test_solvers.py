"""Solver tests: brute-force oracle agreement plus the metamorphic
invariants (reflection, translation, restriction, monotonicity)."""

from itertools import product

import pytest

from graceful import (Graph, SearchBudget, VertexColoring, bounds,
                      complete_bipartite, complete_graph, cycle_graph,
                      distance_two_chromatic_number,
                      distance_two_k_colorable, enumerate_graceful_colorings,
                      gnp_graph, graceful_chromatic_number, graceful_k_colorable,
                      graceful_k_colorable_bruteforce, hypercube_graph,
                      is_distance_two_coloring, is_graceful_coloring,
                      cubic_graph, lift_distance_two, path_graph, petersen_graph,
                      prism_graph, star_graph, a_of_n)
from graceful.graph import SplitMix64
from graceful.reductions import (clause_gadget, nae_reduce, smallest_e4_instance,
                                 variable_gadget)
from graceful.solve import _graceful_bans, _least_k, _tie_order


def test_distance_two_c4():
    assert distance_two_k_colorable(cycle_graph(4), 4).status == "yes"
    assert distance_two_k_colorable(cycle_graph(4), 3).status == "no"


def test_distance_two_q3():
    # square(Q_3) is K_8 minus a perfect matching; antipodal pairs share a color
    assert distance_two_k_colorable(hypercube_graph(3), 4).status == "yes"
    assert distance_two_k_colorable(hypercube_graph(3), 3).status == "no"


def test_distance_two_chromatic_numbers():
    assert distance_two_chromatic_number(cycle_graph(5)).value == 5
    assert distance_two_chromatic_number(star_graph(4)).value == 5
    # chi_g(K_{1,14}) meets its lower bound chi(G^2) = 15 without a(15)
    res = graceful_chromatic_number(star_graph(14))
    assert (res.status, res.value) == ("ok", 15)
    for n in range(1, 6):
        assert distance_two_chromatic_number(complete_graph(n)).value == n


def test_graceful_k3():
    assert graceful_k_colorable(complete_graph(3), 3).status == "no"
    dec = graceful_k_colorable(complete_graph(3), 4)
    assert dec.status == "yes"
    assert is_graceful_coloring(complete_graph(3), dec.coloring)[0]


def test_graceful_reference_graph(fig1):
    g, _ = fig1
    assert graceful_k_colorable(g, 5).status == "yes"
    assert graceful_k_colorable(g, 4).status == "no"
    assert graceful_chromatic_number(g).value == 5
    assert distance_two_chromatic_number(g).value == 5


def test_chromatic_number_complete_graphs():
    for n in range(1, 7):
        assert graceful_chromatic_number(complete_graph(n)).value == a_of_n(n)[0]


def test_empty_graph_graceful_chromatic_number():
    assert graceful_chromatic_number(Graph.from_edges(3, [])).value == 1
    assert graceful_chromatic_number(Graph.from_edges(0, [])).value == 0


def _chig_floor(g, q):
    """max(q, delta + ceil(q/2)), the lower bound on chi_g that
    graceful_chromatic_number starts from, with q = chi(G^2)."""
    return max(q, min(map(g.degree, range(g.n))) + (q + 1) // 2)


def test_chig_floor_holds_by_bruteforce():
    # no graceful coloring below the floor, where it says more than chi(G^2)
    graphs = [complete_graph(q) for q in range(2, 6)] + [star_graph(4), cycle_graph(5)]
    graphs += [gnp_graph(n, p, 40 * n + i) for n in range(2, 7) for p in (0.4, 0.7, 0.9)
               for i in range(3)]
    above = 0
    for g in graphs:
        q = distance_two_chromatic_number(g).value
        floor = _chig_floor(g, q)
        if floor > q:
            above += 1
            assert graceful_k_colorable_bruteforce(g, floor - 1).status == "no", g.edges()
    assert above >= 10


def test_chig_floor_changes_no_value():
    # the same chi_g as iterating k upward from chi(G^2)
    for i in range(100):
        g = gnp_graph(4 + i % 7, (0.3, 0.5, 0.7, 0.9)[i % 4], 500 + i)
        q = distance_two_chromatic_number(g).value
        upward = _least_k(g, q, SearchBudget(), 0, True, lambda k: False)
        res = graceful_chromatic_number(g)
        assert (res.status, res.value) == ("ok", upward.value), g.edges()


def test_budget_exhaustion_is_unknown():
    dec = graceful_k_colorable(complete_graph(6), 10, SearchBudget(3))
    assert dec.status == "unknown"
    assert dec.coloring is None
    assert dec.nodes == 3


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, 21, 34, 55, 89])
def test_chromatic_numbers_stay_within_budget(budget):
    # the k loop hands each decision only what is left of the budget, and an
    # 'unknown' spends all of it
    for g in (petersen_graph(), hypercube_graph(3), complete_graph(5)):
        for number in (distance_two_chromatic_number, graceful_chromatic_number):
            res = number(g, SearchBudget(budget))
            assert res.nodes <= budget
            assert res.status == "ok" or res.nodes == budget


def test_solver_matches_bruteforce():
    rng = SplitMix64(11)
    for i in range(40):
        n = 2 + rng.randint(5)
        g = gnp_graph(n, 0.5, 900 + i)
        for k in range(1, 6):
            fast = graceful_k_colorable(g, k).status
            slow = graceful_k_colorable_bruteforce(g, k).status
            assert fast == slow, (n, k, i)
            # the oracle tries all k^n colorings, so it checks the search's
            # clique fix too
            fast = distance_two_k_colorable(g, k).status
            slow = any(is_distance_two_coloring(g, VertexColoring(c, k))[0]
                       for c in product(range(1, k + 1), repeat=n))
            assert fast == ("yes" if slow else "no"), (n, k, i)


def _exhaustive_colorings(g, k, graceful=True):
    """Every graceful (else distance-two) k-coloring of g, as color tuples.
    Vertices are colored in breadth-first order, and a branch is cut as soon
    as its colored vertices break the definition: two equal colors within
    distance two or, for graceful, a zero or repeated difference label at a
    vertex.  Those rules only ever fail more as more vertices are colored,
    so no extendable prefix is dropped, and every full coloring also passes
    the verifier.  Unlike the solver, it breaks no symmetry and skips no
    branch."""
    adj = g.adjacency
    order = []
    for s in range(g.n):
        if s not in order:
            i = len(order)
            order.append(s)
            while i < len(order):
                order += [u for u in sorted(adj[order[i]]) if u not in order]
                i += 1
    col = [0] * g.n
    verify = is_graceful_coloring if graceful else is_distance_two_coloring

    def fits(v, c):
        if not graceful:
            return not any(col[u] == c or any(col[x] == c for x in adj[u] if x != v)
                           for u in adj[v])
        labels = [abs(c - col[x]) for x in adj[v] if col[x]]
        if 0 in labels or len(set(labels)) < len(labels):
            return False
        return not any(abs(col[w] - c) == abs(col[w] - col[x])
                       for w in adj[v] if col[w] for x in adj[w] if col[x] and x != v)

    def extend(i):
        if i == g.n:
            assert verify(g, VertexColoring(tuple(col), k))[0]
            yield tuple(col)
            return
        v = order[i]
        for c in range(1, k + 1):
            if fits(v, c):
                col[v] = c
                yield from extend(i + 1)
                col[v] = 0

    return extend(0)


# Counting every coloring is the sharp check on backjumping: a ban reason
# that misses a participant lets the search jump over a branch that holds
# colorings, which a yes/no answer rarely shows.  cubic_graph(10, s) at k = 7
# for s = 6, 20 and 21 are here because their counts change when x is
# dropped from the reason of 2c - f(x) (s = 21), a from (f(a) + c)/2
# (s = 6, 20) or u from 2f(u) - c (s = 20, 21).
ENUMERATION_CASES = (
    [(f"cubic{n}-{s}", cubic_graph(n, s), k)
     for n in (8, 10) for s in range(3) for k in (6, 7)]
    + [(f"cubic10-{s}", cubic_graph(10, s), 7) for s in (6, 20, 21)]
    + [(f"gnp{n}-{s}", gnp_graph(n, 0.3, 100 * n + s), k)
       for n, s in ((7, 0), (7, 1), (8, 0), (8, 4), (9, 0), (9, 6), (10, 1), (10, 7))
       for k in (5, 6)]
    + [(f"P{n}", path_graph(n), 4) for n in (8, 9)]
    + [(f"C{n}", cycle_graph(n), 5) for n in (8, 9)]
    + [("variable-gadget", variable_gadget().graph, 4),
       ("clause-gadget", clause_gadget().graph, 4)])


@pytest.mark.parametrize("g, k", [case[1:] for case in ENUMERATION_CASES],
                         ids=[f"{case[0]}-k{case[2]}" for case in ENUMERATION_CASES])
def test_enumeration_matches_exhaustive_search(g, k):
    expected = sorted(_exhaustive_colorings(g, k))
    assert [f.colors for f in enumerate_graceful_colorings(g, k)] == expected


def test_distance_two_matches_exhaustive_search():
    rng = SplitMix64(17)
    cases = [(gnp_graph(7 + rng.randint(4), 0.3, 1700 + i), range(2, 8)) for i in range(30)]
    # the clique the search fixes need not be a closed neighbourhood: all of
    # C_5 and Petersen, a 4-cycle of Q_3
    for g in [cycle_graph(n) for n in range(5, 10)] + [prism_graph(), hypercube_graph(3),
                                                       petersen_graph()]:
        q = len(g.square_clique)
        cases.append((g, range(q, q + 3)))
    for g, ks in cases:
        for k in ks:
            expected = next(_exhaustive_colorings(g, k, False), None) is not None
            assert distance_two_k_colorable(g, k).yes == expected, (g.edges(), k)


def test_clique_bans_refute_a_smaller_k_without_search():
    # a vertex of square_clique past the k-th has every color banned
    for g, k in ((star_graph(4), 4), (cubic_graph(18, 25), 3), (cubic_graph(18, 25), 4)):
        assert len(g.square_clique) > k
        dec = distance_two_k_colorable(g, k)
        assert (dec.status, dec.nodes) == ("no", 0)


def test_tie_order_is_the_index_order_on_regular_graphs():
    # every vertex has degree d and neighbour-degree sum d*d, so a regular
    # graph keeps the search tree of the lowest-index tie-break
    graphs = ([cubic_graph(n, seed) for n in (12, 16, 20) for seed in range(3)]
              + [complete_graph(q) for q in range(1, 8)] + [cycle_graph(n) for n in (3, 7)]
              + [petersen_graph(), hypercube_graph(3)])
    for g in graphs:
        assert _tie_order(g, True) == list(range(g.n)), g.edges()


def test_tie_order_of_a_star_and_a_path():
    assert _tie_order(star_graph(4), True) == [0, 1, 2, 3, 4]
    assert _tie_order(Graph.from_edges(5, [(4, v) for v in range(4)]), True) == [4, 0, 1, 2, 3]
    # 1 and 3 have degree 2 and neighbour-degree sum 3, and 2 has sum 4
    assert _tie_order(path_graph(5), True) == [1, 3, 2, 0, 4]


def test_tie_order_matches_definition():
    for i in range(30):
        g = gnp_graph(4 + i % 9, 0.3, 700 + i)
        deg, sq = g.degree, g.square_adjacency
        assert _tie_order(g, True) == sorted(
            range(g.n), key=lambda v: (-deg(v), sum(map(deg, g.adjacency[v])), v))
        # distance-two search breaks ties by G^2 degree, then index
        assert _tie_order(g, False) == sorted(range(g.n), key=lambda v: (-len(sq[v]), v))


def test_degree_bans_match_definition():
    # max(c-1, k-c) < d(v): color c offers too few difference labels for v
    graphs = ([cubic_graph(10, 0), gnp_graph(9, 0.5, 3), star_graph(6), complete_graph(7),
               path_graph(4), Graph.from_edges(3, [(0, 1)])]
              + [nae_reduce(smallest_e4_instance()).graph])
    for g in graphs:
        for k in range(1, 25):
            degree, _, _ = _graceful_bans(g, k)
            assert set(degree) == set(map(g.degree, range(g.n)))
            assert [list(degree[g.degree(v)]) for v in range(g.n)] == [
                [c for c in range(1, k + 1) if max(c - 1, k - c) < g.degree(v)]
                for v in range(g.n)], (g.edges(), k)


TWIN_RICH = ([star_graph(m) for m in range(1, 7)]
             + [complete_bipartite(a, b) for a in (2, 3) for b in range(a, 8 - a)]
             + [complete_graph(q) for q in range(2, 8)]
             + [path_graph(3), cycle_graph(4)]
             # isolated vertices share N(v) = {} but may share a color too
             + [Graph.from_edges(5, [(0, 1)]), Graph.from_edges(6, [(1, 2), (1, 3)])])


def test_graceful_search_never_builds_the_square():
    # graceful search bans f(v) within distance two on its own walk from v
    g = cubic_graph(18, 25)
    graceful_k_colorable(g, 5)
    assert "square_adjacency" not in vars(g)
    gadget = variable_gadget().graph
    assert enumerate_graceful_colorings(gadget, 4)
    assert "square_adjacency" not in vars(gadget)
    distance_two_k_colorable(g, 5)
    assert "square_adjacency" in vars(g)


def test_twin_order_matches_exhaustive_search():
    # twins (same open or closed neighbourhood) are colored in increasing
    # order by the symmetric search; the oracle breaks no symmetry
    rng = SplitMix64(13)
    graphs = TWIN_RICH + [gnp_graph(2 + rng.randint(6), 0.5, 1300 + i) for i in range(30)]
    for g in graphs:
        for k in range(1, 10):
            found = next(_exhaustive_colorings(g, k), None) is not None
            assert graceful_k_colorable(g, k).yes == found, (g.edges(), k)


def test_oracles_agree():
    # the exhaustive search finds exactly the colorings among all k^n
    for g in TWIN_RICH[:3] + [complete_graph(3), path_graph(3), cycle_graph(4)]:
        for k in range(1, 6):
            for graceful in (True, False):
                verify = is_graceful_coloring if graceful else is_distance_two_coloring
                expected = [c for c in product(range(1, k + 1), repeat=g.n)
                            if verify(g, VertexColoring(c, k))[0]]
                assert sorted(_exhaustive_colorings(g, k, graceful)) == expected, (g.edges(), k)


@pytest.mark.parametrize("g, k", [
    (complete_graph(4), 7), (star_graph(4), 6), (complete_bipartite(2, 3), 7),
    (path_graph(3), 5),
])
def test_enumeration_keeps_twin_symmetric_colorings(g, k):
    # symmetric=False: every coloring, twins in either order
    expected = [combo for combo in product(range(1, k + 1), repeat=g.n)
                if is_graceful_coloring(g, VertexColoring(combo, k))[0]]
    assert expected
    assert [f.colors for f in enumerate_graceful_colorings(g, k)] == expected


def test_enumeration_matches_bruteforce_count(fig1):
    for g, k in ((cycle_graph(4), 4), (path_graph(4), 4), (star_graph(3), 4),
                 (fig1[0], 5)):
        expected = [combo for combo in product(range(1, k + 1), repeat=g.n)
                    if is_graceful_coloring(g, VertexColoring(combo, k))[0]]
        assert expected
        got = enumerate_graceful_colorings(g, k)
        assert [f.colors for f in got] == expected, (g, k)


def test_deep_graph_needs_no_recursion():
    # one search frame per vertex: a recursive search overflows the stack
    p = path_graph(1200)
    for decide, k in ((graceful_k_colorable, 5), (distance_two_k_colorable, 3)):
        dec = decide(p, k)
        assert (dec.status, dec.nodes) == ("yes", 1200)


def test_monotonicity_in_k():
    for i in range(15):
        g = gnp_graph(5, 0.5, 300 + i)
        for k in range(1, 5):
            if graceful_k_colorable(g, k).status == "yes":
                assert graceful_k_colorable(g, k + 1).status == "yes"


def test_reflection_and_translation_of_witnesses():
    rng = SplitMix64(23)
    for i in range(30):
        g = gnp_graph(2 + rng.randint(5), 0.5, 600 + i)
        res = graceful_chromatic_number(g)
        f, k = res.coloring, res.value
        reflected = VertexColoring(tuple(k + 1 - c for c in f.colors), k)
        assert is_graceful_coloring(g, reflected)[0]
        t = 1 + rng.randint(3)
        shifted = VertexColoring(tuple(c + t for c in f.colors), k + t)
        assert is_graceful_coloring(g, shifted)[0]


def test_restriction_to_subgraphs():
    rng = SplitMix64(31)
    for i in range(20):
        g = gnp_graph(6, 0.6, 700 + i)
        res = graceful_chromatic_number(g)
        edges = g.edges()
        if not edges:
            continue
        drop = edges[rng.randint(len(edges))]
        sub = Graph.from_edges(g.n, [e for e in edges if e != drop])
        assert is_graceful_coloring(sub, res.coloring)[0]


def test_lift_distance_two():
    p3 = path_graph(3)
    lifted = lift_distance_two(p3, VertexColoring((1, 2, 3), 3))
    assert lifted.colors == (1, 2, 4)
    assert is_graceful_coloring(p3, lifted)[0]

    k2 = complete_graph(2)
    assert lift_distance_two(k2, VertexColoring((1, 2), 2)).colors == (1, 2)

    c5 = cycle_graph(5)
    d2 = distance_two_k_colorable(c5, 5)
    lifted = lift_distance_two(c5, d2.coloring)
    assert lifted.k == a_of_n(5)[0] == 9
    assert is_graceful_coloring(c5, lifted)[0]


def test_lift_rejects_bad_input():
    with pytest.raises(ValueError):
        lift_distance_two(cycle_graph(4), VertexColoring((1, 2, 1, 2), 2))


def test_bounds():
    assert bounds(complete_graph(5)) == (5, 9)
    assert bounds(complete_graph(2)) == (2, 2)
    assert bounds(cycle_graph(5)) == (5, 9)


def test_sandwich_on_random_graphs():
    for i in range(30):
        g = gnp_graph(3 + i % 5, 0.5, 100 + i)
        lo, hi = bounds(g)
        val = graceful_chromatic_number(g).value
        assert lo <= val <= hi
