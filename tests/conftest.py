import pytest

from graceful import Graph, VertexColoring
from graceful.reductions import NaeFormula


@pytest.fixture
def fig1():
    """5-vertex, 7-edge graph admitting a graceful 5-coloring; vertex 2 is
    adjacent to every other vertex, so its square is K_5."""
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4)])
    f = VertexColoring((2, 4, 1, 5, 3), 5)
    return g, f


@pytest.fixture
def e4_6():
    """Positive NAE-3SAT-E4 formulas on 6 variables, dealt by the pairing
    model (four copies of each variable shuffled into clauses of three) with
    seeds 0, 1 and 2."""
    return tuple(NaeFormula.make(6, clauses) for clauses in (
        ((1, 2, 3), (0, 2, 5), (0, 2, 3), (1, 3, 5), (0, 1, 4), (0, 4, 5), (2, 3, 4), (1, 4, 5)),
        ((0, 3, 5), (0, 4, 5), (1, 2, 4), (2, 3, 5), (1, 2, 4), (0, 1, 3), (0, 4, 5), (1, 2, 3)),
        ((0, 4, 5), (0, 1, 5), (0, 1, 2), (1, 2, 4), (2, 3, 4), (2, 3, 5), (1, 3, 5), (0, 3, 4)),
    ))


@pytest.fixture
def e4_9_unsat():
    """The NAE-unsatisfiable Positive NAE-3SAT-E4 formulas on 9 variables
    dealt by the pairing model with seeds 1115 and 196, the paper's hard
    case with answer 'no'."""
    return tuple(NaeFormula.make(9, clauses) for clauses in (
        ((0, 5, 7), (3, 4, 5), (1, 7, 8), (0, 1, 6), (1, 4, 7), (1, 2, 8),
         (3, 4, 5), (0, 4, 8), (2, 5, 6), (2, 6, 7), (3, 6, 8), (0, 2, 3)),
        ((4, 7, 8), (1, 5, 6), (0, 4, 6), (2, 5, 7), (3, 5, 8), (3, 6, 7),
         (0, 1, 4), (2, 3, 7), (1, 2, 4), (2, 6, 8), (0, 3, 5), (0, 1, 8)),
    ))
