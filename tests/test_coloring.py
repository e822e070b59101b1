from itertools import combinations

import pytest

from graceful import (Graph, VertexColoring, Violation, complete_graph,
                      cycle_graph, gnp_graph, induced_difference_labelling,
                      is_distance_two_coloring, is_graceful_coloring, path_graph,
                      petersen_graph, star_graph)
from graceful.graph import SplitMix64


def test_induced_labelling_reference_graph(fig1):
    g, f = fig1
    assert induced_difference_labelling(g, f).labels == (2, 1, 3, 3, 1, 4, 2)


def test_induced_labelling_constant_coloring():
    g = complete_graph(2)
    assert induced_difference_labelling(g, VertexColoring((1, 1), 1)).labels == (0,)
    g = cycle_graph(4)
    labels = induced_difference_labelling(g, VertexColoring((2, 2, 2, 2), 2)).labels
    assert set(labels) == {0}


def test_labelling_size_mismatch():
    with pytest.raises(ValueError):
        induced_difference_labelling(complete_graph(3), VertexColoring((1, 2), 2))


def test_distance_two_on_c4():
    c4 = cycle_graph(4)
    ok, viol = is_distance_two_coloring(c4, VertexColoring((1, 2, 1, 2), 2))
    assert not ok and viol.kind == "distance2"
    ok, _ = is_distance_two_coloring(c4, VertexColoring((1, 2, 3, 4), 4))
    assert ok


def test_distance_two_reference_coloring(fig1):
    g, f = fig1
    assert is_distance_two_coloring(g, f) == (True, None)


def test_graceful_reference_coloring(fig1):
    g, f = fig1
    assert is_graceful_coloring(g, f) == (True, None)


def test_graceful_p3():
    p3 = path_graph(3)
    ok, viol = is_graceful_coloring(p3, VertexColoring((1, 2, 3), 3))
    assert not ok and viol.kind == "label" and viol.via == 1
    assert is_graceful_coloring(p3, VertexColoring((1, 2, 4), 4)) == (True, None)


def test_graceful_detects_improper_edge():
    ok, viol = is_graceful_coloring(complete_graph(2), VertexColoring((3, 3), 3))
    assert not ok and viol.kind == "edge"


def test_every_graceful_coloring_is_distance_two(fig1):
    g, f = fig1
    assert is_graceful_coloring(g, f)[0]
    assert is_distance_two_coloring(g, f)[0]


def _ordered_scan(g, f, kind, value):
    # the verifiers as they were: the first improper edge in edge order, else
    # the first clash at the lowest vertex, its neighbours in increasing order
    for u, v in g.edges():
        if f[u] == f[v]:
            return False, Violation("edge", u, v)
    for v in range(g.n):
        seen = {}
        for u in sorted(g.adjacency[v]):
            x = value(u, v)
            if x in seen:
                return False, Violation(kind, seen[x], u, via=v)
            seen[x] = u
    return True, None


def test_verifiers_match_pairwise_definitions_and_ordered_scan():
    rng = SplitMix64(23)
    graphs = ([path_graph(n) for n in range(1, 6)] + [cycle_graph(n) for n in range(3, 7)]
              + [star_graph(m) for m in range(5)] + [complete_graph(4), petersen_graph()]
              + [gnp_graph(2 + rng.randint(7), 0.45, 2300 + i) for i in range(40)])
    seen = set()
    for g in graphs:
        adj = g.adjacency
        for _ in range(60):
            k = 1 + rng.randint(2 * g.n + 2)
            f = VertexColoring(tuple(1 + rng.randint(k) for _ in range(g.n)), k)
            proper = all(f[u] != f[v] for u, v in g.edges())
            d2 = proper and all(f[u] != f[w] for v in range(g.n)
                                for u, w in combinations(adj[v], 2))
            graceful = proper and all(abs(f[u] - f[v]) != abs(f[w] - f[v]) for v in range(g.n)
                                      for u, w in combinations(adj[v], 2))
            got = is_distance_two_coloring(g, f)
            assert got[0] == d2
            assert got == _ordered_scan(g, f, "distance2", lambda u, v: f[u])
            got = is_graceful_coloring(g, f)
            assert got[0] == graceful
            assert got == _ordered_scan(g, f, "label", lambda u, v: abs(f[u] - f[v]))
            seen.add((d2, graceful, got[1].kind if got[1] else None))
    # every verdict and violation kind was drawn
    assert seen >= {(True, True, None), (True, False, "label"), (False, False, "edge")}
