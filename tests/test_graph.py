from collections import deque
from itertools import combinations

import pytest

from graceful import (Graph, GraphFormatError, complete_graph, cubic_graph,
                      cycle_graph, degeneracy, gnp_graph, hypercube_graph,
                      parse_edge_list, parse_graph6, path_graph, petersen_graph,
                      square, star_graph, structural_report, write_graph6)
from graceful.graph import (GENERATORS, SplitMix64, complete_bipartite, generate,
                            prism_graph)
from graceful.reductions import construction1, nae_reduce, smallest_e4_instance
from graceful.solve import _graceful_bans


def test_equality_and_hash_ignore_edge_order():
    a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    b = Graph.from_edges(4, [(3, 2), (0, 1), (2, 1)])
    assert a == b and hash(a) == hash(b)
    # G^2, its clique and the twin classes are cached on first use, and read
    # by neither
    assert a.square_adjacency is a.square_adjacency
    assert a.square_clique is a.square_clique
    assert a.twin_classes is a.twin_classes
    assert a == b and hash(a) == hash(b)
    assert a != Graph.from_edges(4, [(0, 1), (1, 2)])


def test_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.m == 1
    assert write_graph6(complete_graph(2)) == "A_"


def test_graph6_empty_graphs():
    g = parse_graph6("D??")
    assert g.n == 5 and g.m == 0
    assert write_graph6(Graph.from_edges(1, [])) == "@"


def test_graph6_roundtrip_random():
    rng = SplitMix64(7)
    for i in range(100):
        n = 1 + rng.randint(12)
        g = gnp_graph(n, 0.4, 1000 + i)
        s = write_graph6(g)
        assert s == _graph6_by_has_edge(g)
        assert parse_graph6(s) == g
        assert write_graph6(parse_graph6(s)) == s


@pytest.mark.parametrize("n", [63, 64, 126, 300])
def test_graph6_long_form_roundtrip(n):
    g = gnp_graph(n, 0.1, n)
    s = write_graph6(g)
    assert s[0] == "~" and len(s) == 4 + (n * (n - 1) // 2 + 5) // 6
    assert s == _graph6_by_has_edge(g)
    assert parse_graph6(s) == g
    assert write_graph6(parse_graph6(s)) == s


def test_graph6_long_form_header():
    # nauty's formats.txt: N(460) = 126 63 70 75
    assert write_graph6(Graph.from_edges(460, []))[:4] == "~?FK"
    assert write_graph6(Graph.from_edges(62, []))[0] == chr(62 + 63)


@pytest.mark.parametrize("bad", ["", ">>graph6<<", "~??", "~~??????", "~?F" + chr(20),
                                 "A", "A_x", chr(20) + "_"])
def test_graph6_malformed(bad):
    with pytest.raises(GraphFormatError):
        parse_graph6(bad)


def test_edge_list_parse():
    assert parse_edge_list("2 1\n0 1") == complete_graph(2)
    assert parse_edge_list("3 3\n0 1\n1 2\n0 2") == complete_graph(3)


@pytest.mark.parametrize("text,msg", [
    ("3 2\n0 1\n0 1", "duplicate"),
    ("3 1\n0 0", "loop"),
    ("3 1\n0 5", "range"),
    ("3 2\n0 1", "mismatch"),
    ("2 1\n0 x", "bad edge line"),
])
def test_edge_list_errors(text, msg):
    with pytest.raises(GraphFormatError, match=msg):
        parse_edge_list(text)


def test_square_p4():
    p4 = path_graph(4)
    assert sorted(square(p4).edges()) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def test_square_c5_is_k5():
    assert square(cycle_graph(5)) == complete_graph(5)


def test_square_of_empty():
    g = Graph.from_edges(4, [])
    assert square(g) == g


def test_square_contains_original():
    for i in range(20):
        g = gnp_graph(7, 0.4, i)
        sq = square(g)
        assert set(g.edges()) <= set(sq.edges())


def _fact_graphs():
    """Seeded G(n, p), cubic graphs, the reduced e4-3 graph, stars, K_{a,b},
    K_q and graphs with isolated vertices."""
    graphs = [gnp_graph(n, p, seed) for n in (1, 6, 12, 25) for p in (0.1, 0.3, 0.7)
              for seed in range(3)]
    graphs += [cubic_graph(n, seed) for n in (8, 20) for seed in range(3)]
    graphs.append(nae_reduce(smallest_e4_instance()).graph)
    graphs += [star_graph(s) for s in (0, 1, 2, 5)]
    graphs += [complete_bipartite(a, b) for a, b in ((1, 1), (2, 3), (3, 3), (1, 4))]
    graphs += [complete_graph(q) for q in (0, 1, 2, 3, 6)]
    graphs += [Graph.from_edges(5, [(0, 1)]),
               Graph.from_edges(7, [(1, 2), (2, 3), (1, 3), (5, 6)])]
    return graphs


def _within_two(g, v):
    """The vertices at BFS distance 1 or 2 from v."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return tuple(sorted(w for w, d in dist.items() if d in (1, 2)))


def test_square_is_distance_one_or_two():
    for g in _fact_graphs():
        near = tuple(_within_two(g, v) for v in range(g.n))
        assert g.square_adjacency == near
        assert square(g) == Graph.from_edges(
            g.n, [(u, v) for u in range(g.n) for v in near[u] if u < v])


def test_square_clique_is_a_maximal_clique_of_the_square():
    graphs = [gnp_graph(n, p, 700 + seed) for n in (0, 1, 6, 15, 30)
              for p in (0.05, 0.2, 0.5) for seed in range(3)]
    graphs += [cubic_graph(n, seed) for n in (8, 20, 60) for seed in range(3)]
    for g in graphs:
        clique = g.square_clique
        near = [set(a) for a in g.square_adjacency]
        assert len(set(clique)) == len(clique) and bool(clique) == bool(g.n)
        assert all(v in near[u] for u, v in combinations(clique, 2)), g.edges()
        # maximal: no vertex outside it is adjacent in G^2 to all of it
        assert not any(set(clique) <= near[w] for w in range(g.n)), g.edges()
    assert len(petersen_graph().square_clique) == 10  # diameter 2: G^2 = K_10
    assert len(star_graph(6).square_clique) == 7
    assert cycle_graph(5).square_clique == (0, 1, 2, 3, 4)
    assert path_graph(4).square_clique == (0, 1, 2)


def test_twin_classes_match_pairwise_definition():
    for g in _fact_graphs():
        adj = g.adjacency

        def twins(u, v):
            return bool(adj[u]) and (adj[u] == adj[v] or {u, *adj[u]} == {v, *adj[v]})

        for v in range(g.n):
            expected = tuple(u for u in range(g.n) if u == v or twins(u, v))
            assert g.twin_classes[v] == (expected if len(expected) > 1 else ())


def test_reflection_root_is_lowest_of_its_twin_class():
    # the premise of symmetry soundness: sorting each twin class after a
    # reflection can only lower the root's color
    for g in _fact_graphs():
        _, root, reflection = _graceful_bans(g, 4)
        assert list(reflection) == [3, 4]
        if not g.n:
            assert root is None
            continue
        assert root == min(range(g.n), key=lambda v: (-g.degree(v), v))
        assert g.twin_classes[root][:1] in ((), (root,))


def test_degeneracy():
    assert degeneracy(star_graph(5))[0] == 1
    assert degeneracy(cycle_graph(5))[0] == 2
    assert degeneracy(complete_graph(4))[0] == 3


def _min_peeling(g):
    """Reference degeneracy: peel the live vertex of least (degree, index)."""
    deg = [g.degree(v) for v in range(g.n)]
    live = set(range(g.n))
    d, order = 0, []
    while live:
        v = min(live, key=lambda u: (deg[u], u))
        d = max(d, deg[v])
        live.remove(v)
        order.append(v)
        for u in live.intersection(g.adjacency[v]):
            deg[u] -= 1
    return d, order


def test_degeneracy_matches_min_peeling(e4_6):
    graphs = [gnp_graph(n, p, seed) for n in (1, 5, 12, 30) for p in (0.1, 0.3, 0.6)
              for seed in range(3)]
    graphs += [cubic_graph(n, seed) for n in (8, 20, 40) for seed in range(3)]
    graphs.append(nae_reduce(smallest_e4_instance()).graph)
    graphs.append(nae_reduce(e4_6[0]).graph)
    for g in graphs:
        assert degeneracy(g) == _min_peeling(g)


def test_degeneracy_edge_cases_match_min_peeling(e4_9_unsat):
    cubic, path = cubic_graph(20, 0), path_graph(5)
    # a cubic graph on 0-19, a path on 20-24 and isolated vertices 25-27
    union = Graph.from_edges(cubic.n + path.n + 3, cubic.edges()
                             + [(u + cubic.n, v + cubic.n) for u, v in path.edges()])
    graphs = [Graph.from_edges(0, []), Graph.from_edges(6, []), union]
    graphs += [complete_graph(q) for q in range(1, 8)]
    graphs.append(nae_reduce(e4_9_unsat[0]).graph)
    graphs += [cubic_graph(400, seed) for seed in range(3)]
    for g in graphs:
        assert degeneracy(g) == _min_peeling(g), g.n
    assert degeneracy(Graph.from_edges(0, [])) == (0, [])
    assert degeneracy(Graph.from_edges(6, [])) == (0, list(range(6)))
    assert degeneracy(union)[0] == 3
    assert [degeneracy(complete_graph(q))[0] for q in range(1, 8)] == list(range(7))


def test_degeneracy_below_max_degree():
    for i in range(20):
        g = gnp_graph(8, 0.5, 50 + i)
        rep = structural_report(g)
        assert rep.degeneracy <= rep.max_degree


def test_structural_report():
    rep = structural_report(complete_bipartite(3, 3))
    assert (rep.max_degree, rep.is_regular, rep.is_bipartite, rep.degeneracy) == (3, True, True, 3)
    rep = structural_report(path_graph(3))
    assert (rep.max_degree, rep.is_regular, rep.is_bipartite, rep.degeneracy) == (2, False, True, 1)
    rep = structural_report(complete_graph(4))
    assert (rep.max_degree, rep.is_regular, rep.is_bipartite, rep.degeneracy) == (3, True, False, 3)
    assert rep.odd_cycle is not None and len(rep.odd_cycle) % 2 == 1


def test_generators():
    assert complete_graph(4).m == 6
    assert structural_report(cycle_graph(5)).is_regular
    assert star_graph(4).n == 5
    assert hypercube_graph(3).m == 12


def _assert_sorted_tuple_adjacency(g):
    for adjacency in (g.adjacency, g.square_adjacency):
        assert type(adjacency) is tuple and len(adjacency) == g.n
        for v, a in enumerate(adjacency):
            assert type(a) is tuple and all(type(u) is int for u in a), (v, a)
            assert list(a) == sorted(set(a)) and v not in a, (v, a)
            assert all(v in adjacency[u] for u in a), (v, a)


def test_every_graph_has_sorted_tuple_adjacency():
    rng = SplitMix64(31)
    graphs = []
    for i in range(20):
        g = gnp_graph(2 + rng.randint(30), 0.3, 3100 + i)
        edges = [(v, u) if rng.randint(2) else (u, v) for u, v in g.edges()]
        rng.shuffle(edges)
        shuffled = Graph.from_edges(g.n, edges)
        assert shuffled == g
        graphs += [g, shuffled, square(g)]
    graphs += [parse_graph6(write_graph6(gnp_graph(n, 0.2, n))) for n in (9, 62, 63, 130)]
    graphs.append(parse_edge_list("5 4\n4 0\n2 4\n3 1\n4 3\n"))
    graphs.append(construction1(cubic_graph(10, 3), 7))
    graphs.append(nae_reduce(smallest_e4_instance()).graph)
    graphs += [complete_graph(5), path_graph(4), cycle_graph(6), star_graph(4),
               complete_bipartite(2, 3), hypercube_graph(3), petersen_graph(),
               prism_graph(), cubic_graph(20, 9), Graph.from_edges(0, [])]
    args = {"gnp": ("8", "0.4", "2"), "cubic": ("8", "2")}
    graphs += [generate(kind, *args.get(kind, ("7",))) for kind in GENERATORS]
    for g in graphs:
        _assert_sorted_tuple_adjacency(g)


def test_cubic_generator_regular_and_deterministic():
    g = cubic_graph(8, seed=1)
    assert structural_report(g).is_regular and g.degree(0) == 3
    assert cubic_graph(8, seed=1) == g
    assert cubic_graph(8, seed=2) != g


def _cubic_graph_whole_shuffles(n, seed):
    # cubic_graph as it was: shuffle all 3n points, then pair them off
    rng = SplitMix64(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i:i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            return Graph.from_edges(n, sorted(edges))


def _graph6_by_has_edge(g):
    # write_graph6 as it was: one has_edge call and one bit at a time
    bits = [1 if g.has_edge(u, v) else 0 for v in range(1, g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(g.n + 63)] if g.n < 63 else ["~"] + [chr((g.n >> s & 63) + 63) for s in (12, 6, 0)]
    for i in range(0, len(bits), 6):
        v = 0
        for b in bits[i:i + 6]:
            v = (v << 1) | b
        out.append(chr(v + 63))
    return "".join(out)


def test_cubic_generator_and_graph6_match_the_plain_algorithms():
    # cubic_graph checks each pair as the shuffle fixes it and skips the rest
    # of a failed shuffle; the corpora it seeds must not change by one edge
    for n in range(4, 90, 2):
        for seed in range(40):
            expected = _graph6_by_has_edge(_cubic_graph_whole_shuffles(n, seed))
            assert write_graph6(cubic_graph(n, seed)) == expected, (n, seed)


def test_cubic_generator_rejects_odd_n():
    with pytest.raises(ValueError):
        cubic_graph(7, seed=1)
