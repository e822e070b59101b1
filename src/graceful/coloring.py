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


def _colors(g: Graph, f: VertexColoring) -> tuple[int, ...]:
    if len(f) != g.n:
        raise ValueError(f"coloring has {len(f)} entries for a {g.n}-vertex graph")
    return f.colors


def induced_difference_labelling(g: Graph, f: VertexColoring) -> EdgeLabelling:
    c = _colors(g, f)
    return EdgeLabelling(tuple(abs(c[u] - c[v]) for u, v in g.edges()))


def _first_violation(g: Graph, f: VertexColoring, kind: str, value) -> Violation:
    """The first improper edge of f in edge order, else the first vertex v
    at which two neighbours u, in increasing order, share value(u, v),
    reported as a Violation of this kind.  Only a rejected f gets here."""
    for u, v in g.edges():
        if f[u] == f[v]:
            return Violation("edge", u, v)
    for v in range(g.n):
        seen: dict[int, int] = {}
        for u in g.adjacency[v]:
            x = value(u, v)
            if x in seen:
                return Violation(kind, seen[x], u, via=v)
            seen[x] = u
    raise AssertionError("a rejected coloring has no violation")


# Each verifier decides in one set per vertex: v's deg(v) neighbours give
# deg(v) distinct values, none of them 0 for a label or f(v) for a color,
# at every v exactly when f is proper and no value repeats at a vertex.

def is_distance_two_coloring(g: Graph, f: VertexColoring) -> tuple[bool, Violation | None]:
    """Proper coloring of G in which no two neighbours of a vertex share a
    color, i.e. a proper coloring of G^2."""
    c = _colors(g, f)
    if all(x not in (s := {c[u] for u in a}) and len(s) == len(a)
           for x, a in zip(c, g.adjacency)):
        return True, None
    return False, _first_violation(g, f, "distance2", lambda u, v: f[u])


def is_graceful_coloring(g: Graph, f: VertexColoring) -> tuple[bool, Violation | None]:
    """Proper coloring whose induced difference labelling is a proper edge
    coloring: edges sharing an endpoint carry distinct labels."""
    c = _colors(g, f)
    if all(0 not in (s := {abs(x - c[u]) for u in a}) and len(s) == len(a)
           for x, a in zip(c, g.adjacency)):
        return True, None
    return False, _first_violation(g, f, "label", lambda u, v: abs(f[u] - f[v]))
