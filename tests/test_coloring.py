import pytest

from graceful import (Graph, VertexColoring, complete_graph, cycle_graph,
                      induced_difference_labelling, is_distance_two_coloring,
                      is_graceful_coloring, path_graph)


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
