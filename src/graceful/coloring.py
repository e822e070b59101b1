"""Vertex colorings, induced difference edge labellings, and the verifiers
for graceful / distance-two colorings.

Palette convention follows the literature: colors are 1..k.  A label 0 can
only arise from an improper coloring and is reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class VertexColoring:
    """A map f: V -> {1..k}, stored as a color per vertex index."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if any(not (1 <= c <= self.k) for c in self.colors):
            raise ValueError(f"colors must lie in 1..{self.k}")

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def __len__(self) -> int:
        return len(self.colors)


@dataclass(frozen=True)
class EdgeLabelling:
    """The induced map h(uv) = |f(u) - f(v)|, stored per edge of g.edges()."""

    labels: tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    """Witness for a failed coloring check.

    kind is 'edge' (improper pair u,v), 'distance2' (u,v share neighbor via),
    or 'label' (path u-via-w with equal incident labels).
    """

    kind: str
    u: int
    v: int
    via: int | None = None


def induced_difference_labelling(g: Graph, f: VertexColoring) -> EdgeLabelling:
    if len(f) != g.n:
        raise ValueError(f"coloring has {len(f)} entries for a {g.n}-vertex graph")
    return EdgeLabelling(tuple(abs(f[u] - f[v]) for u, v in g.edges()))


def _check(g: Graph, f: VertexColoring, kind: str, value) -> tuple[bool, Violation | None]:
    """f is proper, and no two neighbours u of a vertex v share value(u, v);
    a clash is reported as a Violation of this kind."""
    if len(f) != g.n:
        raise ValueError(f"coloring has {len(f)} entries for a {g.n}-vertex graph")
    for u, v in g.edges():
        if f[u] == f[v]:
            return False, Violation("edge", u, v)
    for v in range(g.n):
        seen: dict[int, int] = {}
        for u in sorted(g.adjacency[v]):
            x = value(u, v)
            if x in seen:
                return False, Violation(kind, seen[x], u, via=v)
            seen[x] = u
    return True, None


def is_distance_two_coloring(g: Graph, f: VertexColoring) -> tuple[bool, Violation | None]:
    """Proper coloring of G in which no two neighbours of a vertex share a
    color, i.e. a proper coloring of G^2."""
    return _check(g, f, "distance2", lambda u, v: f[u])


def is_graceful_coloring(g: Graph, f: VertexColoring) -> tuple[bool, Violation | None]:
    """Proper coloring whose induced difference labelling is a proper edge
    coloring: edges sharing an endpoint carry distinct labels."""
    return _check(g, f, "label", lambda u, v: abs(f[u] - f[v]))
