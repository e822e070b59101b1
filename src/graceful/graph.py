"""Simple undirected graphs: representation, graph6/edge-list I/O, structural
queries and generators.

Vertices are always the dense integers 0..n-1.  Graph objects are immutable
after construction, so they can be shared freely.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class GraphFormatError(ValueError):
    """Raised for malformed graph6 / edge-list input."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.  adjacency[v] holds v's
    neighbours in increasing order as a tuple, a fraction of a frozenset's
    memory, so every walk over N(v) visits it in index order.

    G^2, a clique of G^2 and the twin classes are computed on first use and
    cached on the object; equality and hashing read only n and adjacency."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, tuple(tuple(sorted(s)) for s in adj))

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """Edge list, each edge (u,v) with u < v, sorted."""
        return [(u, v) for u, a in enumerate(self.adjacency) for v in a if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @cached_property
    def square_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency of G^2: for each vertex, the vertices at distance 1 or 2
        in increasing order, the form of adjacency.  Read by the distance-two
        search (solve._colorings), the CNF encoder (cnf.encode_graceful),
        square() and square_clique; graceful search never builds it."""
        adj = self.adjacency
        return tuple(tuple(sorted(set(a).union(*(adj[u] for u in a)) - {v}))
                     for v, a in enumerate(adj))

    @cached_property
    def square_clique(self) -> tuple[int, ...]:
        """A clique of G^2, grown greedily from each vertex by adding the
        lowest-index vertex adjacent in G^2 to all chosen; the largest found."""
        near = self.square_adjacency
        best: tuple[int, ...] = ()
        for v in range(self.n):
            clique, common = [v], set(near[v])
            while common:
                clique.append(min(common))
                common.intersection_update(near[clique[-1]])
            best = max(best, tuple(clique), key=len)
        return best

    @cached_property
    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex its twin class in increasing order, itself
        included, or () if it has no twin.  Twins are vertices of degree
        >= 1 with the same open neighbourhood N(v) or the same closed one
        N[v]; no vertex has twins of both kinds, and no open neighbourhood
        equals a closed one, so one dict finds both, keyed by the adjacency
        tuple for N(v) and by a frozenset for N[v]."""
        classes: dict[tuple[int, ...] | frozenset[int], list[int]] = {}
        for v, a in enumerate(self.adjacency):
            if a:
                classes.setdefault(a, []).append(v)
                classes.setdefault(frozenset(a + (v,)), []).append(v)
        twins: list[tuple[int, ...]] = [()] * self.n
        for members in classes.values():
            if len(members) > 1:
                members = tuple(members)
                for v in members:
                    twins[v] = members
        return tuple(twins)


# ---------------------------------------------------------------------------
# graph6 (nauty's formats.txt): n in one byte for n <= 62, or '~' and three
# bytes for 63 <= n <= 258047; then the upper triangle of the adjacency matrix
# column by column, six bits to a byte.

_GRAPH6_MAX_N = 258047


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 line into a Graph.

    Errors report the byte offset of the offending character.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    header = range(1)
    if s[0] == "~":
        if s[1:2] == "~":
            raise GraphFormatError(
                f"8-byte graph6 header at byte 0: only n <= {_GRAPH6_MAX_N} supported")
        if len(s) < 4:
            raise GraphFormatError(
                f"truncated long-form header: need 3 bytes after '~', got {len(s) - 1}")
        header = range(1, 4)
    n = 0
    for off in header:
        b = ord(s[off])
        if not (63 <= b <= 126):
            raise GraphFormatError(f"out-of-range byte {b} at offset {off}")
        n = (n << 6) | (b - 63)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[header.stop:]
    if len(body) < need:
        raise GraphFormatError(
            f"truncated bit vector: need {need} bytes after header, got {len(body)}")
    if len(body) > need:
        raise GraphFormatError(
            f"trailing data at offset {header.stop + need}: expected {need} body bytes")
    bits: list[int] = []
    for off, ch in enumerate(body):
        b = ord(ch)
        if not (63 <= b <= 126):
            raise GraphFormatError(f"out-of-range byte {b} at offset {off + header.stop}")
        v = b - 63
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise GraphFormatError("nonzero padding bits in final byte")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 line (requires n <= 258047)."""
    if g.n > _GRAPH6_MAX_N:
        raise ValueError(f"n={g.n} exceeds graph6 range (n <= {_GRAPH6_MAX_N})")
    nbits = g.n * (g.n - 1) // 2
    bits = ["0"] * (nbits + -nbits % 6)
    for u, v in g.edges():
        bits[v * (v - 1) // 2 + u] = "1"
    if g.n < 63:
        out = [chr(g.n + 63)]
    else:
        out = ["~"] + [chr((g.n >> shift & 63) + 63) for shift in (12, 6, 0)]
    out += [chr(int("".join(bits[i:i + 6]), 2) + 63) for i in range(0, len(bits), 6)]
    return "".join(out)


# ---------------------------------------------------------------------------
# Edge-list format: first line "n m", then m lines "u v".

def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"bad header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise GraphFormatError(
            f"edge count mismatch: header says {m}, found {len(lines) - 1} lines")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise GraphFormatError(f"bad edge line {ln!r}") from None
        edges.append((u, v))
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural queries

def square(g: Graph) -> Graph:
    """G^2: same vertices, edges between all pairs at distance 1 or 2."""
    return Graph(g.n, g.square_adjacency)


def degeneracy(g: Graph) -> tuple[int, list[int]]:
    """Degeneracy by repeated minimum-degree peeling, the lowest index first
    among equal degrees (smallest-last order; Matula & Beck, JACM 1983).
    heaps[e] is a heap of vertex indices, each pushed when its degree fell to
    e; an entry whose vertex has since been peeled or fallen further is
    skipped when it surfaces.  A peel lowers degrees by at most one, so the
    least non-empty degree lo steps down by at most one per peel and the
    scan up from it costs O(n + max degree) in all, O((n + m) log n) with
    the heaps.

    Returns (d, order) where order is the elimination order used.
    """
    deg = list(map(len, g.adjacency))
    heaps: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, e in enumerate(deg):
        heaps[e].append(v)  # increasing, so already a heap
    order: list[int] = []
    d = lo = 0
    while len(order) < g.n:
        heap = heaps[lo]
        if not heap:
            lo += 1
            continue
        v = heapq.heappop(heap)
        if deg[v] != lo:
            continue  # stale: peeled (deg -1) or fallen below lo since
        if lo > d:
            d = lo
        deg[v] = -1
        order.append(v)
        for u in g.adjacency[v]:
            if deg[u] > 0:  # live: its edge to v still counts
                deg[u] -= 1
                heapq.heappush(heaps[deg[u]], u)
        if lo:
            lo -= 1
    return d, order


def is_bipartite(g: Graph) -> tuple[bool, list[int] | None]:
    """BFS 2-coloring; on failure the second item is an odd-cycle certificate."""
    side = [-1] * g.n
    parent = [-1] * g.n
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in g.adjacency[v]:
                if side[u] == -1:
                    side[u] = 1 - side[v]
                    parent[u] = v
                    queue.append(u)
                elif side[u] == side[v]:
                    # walk both vertices up to a common ancestor
                    pv, pu = v, u
                    anc_v = []
                    while pv != -1:
                        anc_v.append(pv)
                        pv = parent[pv]
                    seen = set(anc_v)
                    path_u = []
                    while pu not in seen:
                        path_u.append(pu)
                        pu = parent[pu]
                    cycle = anc_v[:anc_v.index(pu) + 1] + list(reversed(path_u))
                    return False, cycle
    return True, None


@dataclass(frozen=True)
class StructuralReport:
    max_degree: int
    is_regular: bool
    is_bipartite: bool
    degeneracy: int
    odd_cycle: tuple[int, ...] | None = None


def structural_report(g: Graph) -> StructuralReport:
    degs = [g.degree(v) for v in range(g.n)]
    maxd = max(degs, default=0)
    regular = len(set(degs)) <= 1
    bip, cert = is_bipartite(g)
    d, _ = degeneracy(g)
    return StructuralReport(maxd, regular, bip, d,
                            tuple(cert) if cert else None)


# ---------------------------------------------------------------------------
# Deterministic PRNG for generators.
#
# splitmix64: a fixed, portable 64-bit mixer so seeded corpora reproduce
# bit-for-bit across machines and languages.

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the state steps by this constant per draw


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo bias is negligible at desk scale."""
        return self.next_u64() % n

    def random(self) -> float:
        return self.next_u64() / 2.0 ** 64

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randint(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


# ---------------------------------------------------------------------------
# Generators

def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n}: center 0 joined to n leaves."""
    if n < 0:
        raise ValueError("star needs n >= 0 leaves")
    return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def hypercube_graph(d: int) -> Graph:
    n = 1 << d
    edges = [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]
    return Graph.from_edges(n, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def prism_graph() -> Graph:
    """Triangular prism: two triangles joined by a matching."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0,1]")
    rng = SplitMix64(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


CUBIC_RETRIES = 1000


def cubic_graph(n: int, seed: int) -> Graph:
    """Random 3-regular graph via the pairing model, rejecting loops and
    multi-edges, with up to CUBIC_RETRIES pairings.  Deterministic in
    (n, seed).

    A pairing is a Fisher-Yates shuffle of the 3n points, paired off as
    (0, 1), (2, 3), ...  The shuffle fixes positions from the end, so pair
    (i, i+1) is checked as soon as position i is drawn; a bad pair ends the
    attempt, and the i-1 draws left of its shuffle are skipped by stepping
    the generator's state, so the graphs are those of whole shuffles."""
    if n < 4 or n % 2:
        raise ValueError("cubic graphs need even n >= 4")
    rng = SplitMix64(seed)
    for _ in range(CUBIC_RETRIES):
        points = [v for v in range(n) for _ in range(3)]
        edges = set()
        for i in range(len(points) - 1, -1, -1):
            if i:  # as SplitMix64.shuffle does
                j = rng.randint(i + 1)
                points[i], points[j] = points[j], points[i]
            if i % 2:
                continue
            u, v = sorted(points[i:i + 2])
            if u == v or (u, v) in edges:
                rng.state = (rng.state + max(i - 1, 0) * _GAMMA) & _MASK
                break
            edges.add((u, v))
        else:
            return Graph.from_edges(n, sorted(edges))
    raise RuntimeError(f"cubic generation failed after {CUBIC_RETRIES} retries")


# generate() and `graceful gen`: kind -> (generator, parameter name -> type)
GENERATORS = {
    "complete": (complete_graph, {"n": int}),
    "path": (path_graph, {"n": int}),
    "cycle": (cycle_graph, {"n": int}),
    "star": (star_graph, {"n": int}),
    "gnp": (gnp_graph, {"n": int, "p": float, "seed": int}),
    "cubic": (cubic_graph, {"n": int, "seed": int}),
}


def generate(kind: str, *args) -> Graph:
    """Named generator dispatch used by the CLI: e.g. generate('cycle', 5)."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown graph kind {kind!r}")
    make, params = GENERATORS[kind]
    if len(args) != len(params):
        raise ValueError(f"graph kind {kind!r} takes {len(params)} parameters "
                         f"({' '.join(params)}), got {len(args)}")
    return make(*(convert(a) for convert, a in zip(params.values(), args)))
