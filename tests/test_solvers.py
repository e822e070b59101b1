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
                      lift_distance_two, path_graph, petersen_graph,
                      star_graph, a_of_n)
from graceful.graph import SplitMix64


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
            # color interchange pruning too
            fast = distance_two_k_colorable(g, k).status
            slow = any(is_distance_two_coloring(g, VertexColoring(c, k))[0]
                       for c in product(range(1, k + 1), repeat=n))
            assert fast == ("yes" if slow else "no"), (n, k, i)


def _graceful_exhaustive(g, k):
    """Whether g has a graceful k-coloring, by extending colorings of the
    induced subgraphs g[0..j-1] one vertex at a time through the verifier.
    A graceful coloring restricts to one of every induced subgraph, so this
    drops no prefix that could be extended; unlike the solver, it breaks no
    symmetry."""
    prefix = [Graph.from_edges(j, [(u, v) for u, v in g.edges() if v < j])
              for j in range(g.n + 1)]
    stack = [()]
    while stack:
        f = stack.pop()
        if len(f) == g.n:
            return True
        for c in range(1, k + 1):
            h = f + (c,)
            if is_graceful_coloring(prefix[len(h)], VertexColoring(h, k))[0]:
                stack.append(h)
    return False


TWIN_RICH = ([star_graph(m) for m in range(1, 7)]
             + [complete_bipartite(a, b) for a in (2, 3) for b in range(a, 8 - a)]
             + [complete_graph(q) for q in range(2, 8)]
             + [path_graph(3), cycle_graph(4)]
             # isolated vertices share N(v) = {} but may share a color too
             + [Graph.from_edges(5, [(0, 1)]), Graph.from_edges(6, [(1, 2), (1, 3)])])


def test_twin_order_matches_exhaustive_search():
    # twins (same open or closed neighbourhood) are colored in increasing
    # order by the symmetric search; the oracle breaks no symmetry
    rng = SplitMix64(13)
    graphs = TWIN_RICH + [gnp_graph(2 + rng.randint(6), 0.5, 1300 + i) for i in range(30)]
    for g in graphs:
        for k in range(1, 10):
            expected = "yes" if _graceful_exhaustive(g, k) else "no"
            assert graceful_k_colorable(g, k).status == expected, (g.edges(), k)


def test_oracles_agree():
    for g in TWIN_RICH[:3] + [complete_graph(3), path_graph(3), cycle_graph(4)]:
        for k in range(1, 6):
            assert (_graceful_exhaustive(g, k)
                    == graceful_k_colorable_bruteforce(g, k).yes), (g.edges(), k)


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
