"""Exact backtracking solvers for graceful and distance-two colorability,
the chromatic-number iterations, and the span-sequence bound machinery.

All solvers are budgeted by search-tree node count (not wall clock) so
outcomes are machine independent.  'no' is only ever reported after a
complete, exhausted search; budget exhaustion yields 'unknown'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, product
from operator import or_
from typing import Callable, Iterator, Sequence

from .coloring import VertexColoring, is_distance_two_coloring, is_graceful_coloring
from .graph import Graph
from .sequences import MAX_N, a_of_n

DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError("budget must be >= 1")


class UndecidedError(RuntimeError):
    """No certified answer: a search budget ran out, or a needed bound lies
    beyond what the sequence machinery computes."""


@dataclass(frozen=True)
class Decision:
    """Outcome of a budgeted decision: status in {'yes','no','unknown'}."""

    status: str
    coloring: VertexColoring | None
    nodes: int

    @property
    def yes(self) -> bool:
        return self.status == "yes"


@dataclass(frozen=True)
class OptimumResult:
    status: str  # 'ok' or 'unknown'
    value: int | None
    coloring: VertexColoring | None
    nodes: int


class InternalConsistencyError(AssertionError):
    """A solver outcome contradicted a proven bound; implementation defect."""


# ---------------------------------------------------------------------------
# The search engine.  A graceful coloring is a distance-two coloring whose
# difference labels are also distinct at every vertex, so one depth-first
# search decides both; `graceful` switches the label check on.

def _reflection_root(g: Graph) -> int:
    """The lowest-index vertex of maximum degree of a non-empty g."""
    degrees = list(map(len, g.adjacency))
    return degrees.index(max(degrees))


def _static_bans(g: Graph, k: int, graceful: bool,
                 symmetric: bool) -> dict[str, list[tuple[int, Sequence[int]]]]:
    """The colors ruled out before a k-coloring search, as (vertex, banned
    colors) pairs per family, keyed by the CNF encoder's family names in its
    order: the native search (_colorings) starts from them, and
    cnf.encode_graceful emits them as unit clauses.  In graceful mode:
      - degree: color c offers max(c-1, k-c) distinct difference labels,
        and a vertex of degree d needs d of them.
      - reflection, with symmetric and n > 0: the colors above ceil(k/2) at
        the root r = _reflection_root(g), as c -> k+1-c maps graceful
        colorings to graceful colorings.  With twin order (see _colorings)
        it stays complete, as r is the lowest-index member of its twin class
        (twins have the same degree): reflect a coloring if f(r) > ceil(k/2),
        then sort each class, which can only lower f(r).
    In distance-two mode:
      - clique, with symmetric: the i-th vertex of Graph.square_clique keeps
        color i alone, none if i > k, as the clique's colors differ and can
        be permuted to 1, 2, ... (Van Gelder, Discrete Appl. Math. 2008).
        Twin order could order two twins against it, so this mode has none."""
    if not graceful:
        return {"clique": [(v, [c for c in range(1, k + 1) if c != i])
                           for i, v in enumerate(g.square_clique if symmetric else (), 1)]}
    # max(c-1, k-c) < d exactly for c in [k-d+1, d]
    degree = {d: range(max(1, k - d + 1), min(k, d) + 1) for d in set(map(len, g.adjacency))}
    reflection = range((k + 1) // 2 + 1, k + 1)
    return {"degree": [(v, degree[len(a)]) for v, a in enumerate(g.adjacency)],
            "reflection": [(_reflection_root(g), reflection)] if symmetric and g.n else []}


def _tie_order(g: Graph, graceful: bool) -> list[int]:
    """The vertices in the order that breaks branching ties: highest degree
    (in g for graceful, in G^2 otherwise), then, for graceful, the lowest sum
    of neighbour degrees, then the lowest index."""
    adj = g.adjacency
    if graceful:
        degree = list(map(len, adj))
        n2 = g.n * g.n  # above any sum of neighbour degrees
        rank = [sum(map(degree.__getitem__, a)) - d * n2 for a, d in zip(adj, degree)]
    else:
        rank = [-len(a) for a in g.square_adjacency]
    return sorted(range(g.n), key=rank.__getitem__)


def _colorings(g: Graph, k: int, budget: SearchBudget, tally: list[int],
               graceful: bool, symmetric: bool) -> Iterator[tuple[int, ...]]:
    """Yield k-colorings of g in depth-first order, counting search nodes in
    tally[0] and raising UndecidedError, with tally[0] at the budget, when
    one more node would exceed it.

    Branching is failure driven, after dom/wdeg (Boussemart, Hemery, Lecoutre
    & Sais, ECAI 2004): each vertex has a weight, raised by one whenever it is
    picked with no allowed color left (a wipeout), and kept on backtracking.
    The branching vertex has the fewest allowed colors, then the highest
    weight, then the earliest place in _tie_order (highest degree, in g for
    graceful and in G^2 otherwise; for graceful the lowest sum of neighbour
    degrees; lowest index), so vertices that keep failing are tried early.
    In a regular graph every vertex has degree d and neighbour-degree sum
    d*d, so the order is the index order.
    The search starts from the bans of _static_bans, which states each
    family and why it is sound.  With symmetric, one coloring per symmetry
    class survives, by rules independent of the branching order: the
    reflection or clique bans, and in graceful search twin order.  Each twin
    class (see Graph.twin_classes) is colored increasingly in vertex index.
    Any permutation of a twin class is an automorphism, and twins lie
    within distance two, so their colors differ and every graceful coloring
    can be sorted into this order (lex-leader symmetry breaking; Crawford,
    Ginsberg, Luks & Roy, KR 1996).  When a twin takes color c, its
    uncolored later twins ban 1..c-1 and its uncolored earlier twins ban
    c+1..k.
    Without symmetric no symmetry rule applies, and every coloring is found.

    The allowed colors are kept, not recomputed.  ban[v*K + c] is 0 if c is
    allowed at the uncolored vertex v, 1 for a ban the search starts from,
    and else the OR of lb[x] = 2 << d over the x in its reason, x colored at
    depth d: with v just colored, {v} for a G^2 or twin-order ban, {v, x}
    for 2c - f(x) (x - v - w), {v, a} for (f(a) + c)/2 (a - w - v) and
    {v, u} for 2f(u) - c (v - u - w).  forbid sets and trails a ban only if
    it is unset; a repeat comes from the same frame or a deeper one, so the
    first stands, reason and all, until its frame undoes the trail to the
    mark it took.  dom[v] counts v's allowed colors, and v's branching key
    is key[v] = rank - weight*n, rank being its place in order =
    _tie_order(...), built once per search; as 0 <= rank < n, key % n is
    the rank.  live[a] holds the keys of the uncolored vertices not yet
    picked with dom == a, and branching takes key = min(bucket) in the first
    non-empty bucket and v = order[key % n].  Only a wipeout changes a key,
    and only that of the vertex just picked, which sits in no bucket.

    Distance-two search reads G^2 (Graph.square_adjacency) for its bans.
    Graceful search never builds it: it bans c at each uncolored w on the
    walks v - w and v - u - w that its label rules take anyway.  No label or
    twin ban of the same assignment lands on (w, c), as each would need a
    vertex within distance two of v colored c, so whatever the order the
    G^2 ban's reason is {v}.  A frame keeps the color it tried last.  Once
    its trail is undone, v's bans are those it was opened with, so its next
    color is the next 0 in ban after that color, which list.index finds;
    the always-0 slot v*K + K ends the scan.

    A dead end jumps back (FC-CBJ; Prosser, Comput. Intell. 9(3), 1993).
    When the frame at depth d runs out of colors, its conflict set is the
    depths in its vertex's ban reasons and in conf[d], where its failed
    subtrees left theirs; it pops every frame above h, the deepest of them,
    and adds the rest to conf[h], and an empty set ends the search.  Each
    rule constrains its reason alone, and twin order, reflection and the
    clique fix the symmetry-reduced problem, so no skipped branch holds a
    coloring.  A twin reason never matters alone: v's G^2 ban names v at
    its twin w unless an earlier twin's order ban or the reflection banned
    c there, and with it every color v's order ban would.  A yielded
    coloring puts all lower depths in conf[d], so enumeration backtracks
    one frame at a time."""
    n = g.n
    adj = g.adjacency
    near = () if graceful else g.square_adjacency
    twins = g.twin_classes if graceful and symmetric else [()] * n
    K = k + 1
    ban = [0] * (n * K + 1)  # slot v*K, and one past the last vertex, stay 0
    dom = [k] * n
    for v, colors in chain.from_iterable(_static_bans(g, k, graceful, symmetric).values()):
        for c in colors:
            if not ban[i := v * K + c]:
                ban[i] = 1
                dom[v] -= 1
    order = _tie_order(g, graceful)
    key = [0] * n
    live = [set() for _ in range(K)]
    for rank, v in enumerate(order):
        key[v] = rank  # minus n per wipeout: rank < n
        live[dom[v]].add(rank)
    col = [0] * n
    lb = [0] * n
    conf = [0] * n
    trail: list[int] = []

    def forbid(w: int, c: int, x: int, y: int) -> None:
        i = w * K + c
        if not ban[i]:
            ban[i] = lb[x] | lb[y]
            trail.append(i)
            kw = key[w]
            live[dom[w]].remove(kw)
            dom[w] -= 1
            live[dom[w]].add(kw)

    def assign(v: int, c: int, bit: int) -> None:
        col[v] = c
        lb[v] = bit
        if not graceful:
            for w in near[v]:
                if not col[w] and not ban[i := w * K + c]:
                    ban[i] = bit
                    trail.append(i)
                    kw = key[w]
                    live[dom[w]].remove(kw)
                    dom[w] -= 1
                    live[dom[w]].add(kw)
            return
        # c is banned at every uncolored w within distance two, on the walks
        # v - w and v - u - w below.  Labels ban colors too, counted when the
        # later of their participants is colored.  With v in the middle of
        # x - v - w, w may not take 2c - f(x); with v at the far end of
        # v - u - w, w may not take 2f(u) - c; and two labels
        # |b - c| = |b - f(a)| clash at w when b = (f(a) + c) / 2.
        seen = [x for x in adj[v] if col[x]]
        for w in adj[v]:
            if col[w]:
                continue
            forbid(w, c, v, v)
            for x in seen:
                t = 2 * c - col[x]
                if 0 < t < K:
                    forbid(w, t, v, x)
            for a in adj[w]:
                ca = col[a]
                if not ca:
                    forbid(a, c, v, v)
                elif a != v and not (ca + c) % 2:
                    forbid(w, (ca + c) // 2, v, a)
        for u in seen:
            t = 2 * col[u] - c
            for w in adj[u]:
                if not col[w]:
                    forbid(w, c, v, v)
                    if 0 < t < K:
                        forbid(w, t, v, u)
        for w in twins[v]:
            if not col[w]:
                for t in (range(1, c) if w > v else range(c + 1, K)):
                    forbid(w, t, v, v)

    def undo(mark: int) -> None:
        for i in trail[mark:]:
            ban[i] = 0
            w = i // K
            kw = key[w]
            live[dom[w]].remove(kw)
            dom[w] += 1
            live[dom[w]].add(kw)
        del trail[mark:]

    def branch():
        for bucket in live:
            if bucket:
                kv = min(bucket)
                bucket.remove(kv)
                v = order[kv % n]
                if bucket is live[0]:
                    key[v] -= n
                return [v, 0, len(trail)]
        return None

    root = branch()
    if root is None:
        yield tuple(col)
        return
    stack, d = [root], 0  # frames: [vertex, color last tried, trail mark]
    limit = budget.max_nodes
    while True:
        frame = stack[d]
        v, c, mark = frame
        if len(trail) > mark:
            undo(mark)
        base = v * K
        c = ban.index(0, base + c + 1) - base
        if c > k:
            cs = reduce(or_, ban[base + 1:base + K], conf[d])
            if cs < 2:
                return
            h = cs.bit_length() - 2
            while d > h:
                u = stack.pop()[0]
                col[u] = 0
                live[dom[u]].add(key[u])
                d -= 1
            conf[h] |= cs ^ (2 << h)
            continue
        if tally[0] == limit:
            raise UndecidedError(f"search budget of {tally[0]} nodes exhausted")
        tally[0] += 1
        frame[1] = c
        assign(v, c, 2 << d)
        frame = branch()
        if frame is None:
            conf[d] |= (2 << d) - 2
            yield tuple(col)
        else:
            d += 1
            conf[d] = 0
            stack.append(frame)


def _decide(g: Graph, k: int, budget: SearchBudget, graceful: bool) -> Decision:
    if k < 1:
        raise ValueError("k must be >= 1")
    tally = [0]
    try:
        sol = next(_colorings(g, k, budget, tally, graceful, True), None)
    except UndecidedError:
        return Decision("unknown", None, tally[0])
    if sol is None:
        return Decision("no", None, tally[0])
    f = VertexColoring(sol, k)
    ok, viol = (is_graceful_coloring if graceful else is_distance_two_coloring)(g, f)
    if not ok:
        raise InternalConsistencyError(f"solver emitted invalid witness: {viol}")
    return Decision("yes", f, tally[0])


def graceful_k_colorable(g: Graph, k: int,
                         budget: SearchBudget = SearchBudget()) -> Decision:
    """Exact decision: does g admit a graceful coloring with palette 1..k?"""
    return _decide(g, k, budget, True)


def distance_two_k_colorable(g: Graph, k: int,
                             budget: SearchBudget = SearchBudget()) -> Decision:
    """Exact decision: is g^2 properly k-colorable?"""
    return _decide(g, k, budget, False)


def enumerate_graceful_colorings(g: Graph, k: int,
                                 budget: SearchBudget = SearchBudget()) -> list[VertexColoring]:
    """ALL graceful k-colorings of g, no symmetry breaking.  Raises
    UndecidedError on budget exhaustion since a partial enumeration
    certifies nothing."""
    found = sorted(_colorings(g, k, budget, [0], True, False))
    return [VertexColoring(t, k) for t in found]


def graceful_k_colorable_bruteforce(g: Graph, k: int) -> Decision:
    """Independent oracle: try all k^n colorings through the verifier."""
    for combo in product(range(1, k + 1), repeat=g.n):
        f = VertexColoring(combo, k)
        if is_graceful_coloring(g, f)[0]:
            return Decision("yes", f, k ** g.n)
    return Decision("no", None, k ** g.n)


# ---------------------------------------------------------------------------
# Chromatic-number iterations

def _least_k(g: Graph, k: int, budget: SearchBudget, total: int, graceful: bool,
             ceiling: Callable[[int], bool]) -> OptimumResult:
    """The least k' >= k with a coloring, deciding k, k+1, ... in turn and
    adding each decision's nodes to total.  Each decision gets what is left of
    the budget, and the result is 'unknown' once total reaches the budget.  A
    'no' at a k where ceiling(k) holds contradicts a proven upper bound and is
    raised as a defect."""
    while total < budget.max_nodes:
        dec = _decide(g, k, SearchBudget(budget.max_nodes - total), graceful)
        total += dec.nodes
        if dec.status == "yes":
            return OptimumResult("ok", k, dec.coloring, total)
        if dec.status == "unknown":
            return OptimumResult("unknown", None, None, total)
        if ceiling(k):
            raise InternalConsistencyError(f"no coloring at k={k}, a proven upper bound")
        k += 1
    return OptimumResult("unknown", None, None, total)


def distance_two_chromatic_number(g: Graph,
                                  budget: SearchBudget = SearchBudget()) -> OptimumResult:
    """chi(G^2) by upward iteration from the size of a clique of G^2, the
    larger of a closed neighbourhood (max_v d(v) + 1) and Graph.square_clique,
    below which no coloring exists.  n colors always suffice."""
    if g.n == 0:
        return OptimumResult("ok", 0, None, 0)
    start = max(max(map(len, g.adjacency)) + 1, len(g.square_clique))
    return _least_k(g, start, budget, 0, False, lambda k: k >= g.n)


def graceful_chromatic_number(g: Graph,
                              budget: SearchBudget = SearchBudget()) -> OptimumResult:
    """chi_g(G), iterating k upward from the lower bound
    max(q, delta + ceil(q/2)), where q = chi(G^2) and delta is the minimum
    degree.  Proof: in a graceful k-coloring f, v needs d(v) >= delta
    distinct labels, all in 1..max(f(v)-1, k-f(v)), so f(v) lies in
    [1, k-delta] or [delta+1, k], a set of min(k, 2(k-delta)) colors; f is
    also a coloring of G^2, so q <= 2(k-delta).  A 'no' at the proven
    ceiling a(q) is a defect, never silently accepted; the ceiling is only
    consulted where a(n) is in reach (n <= MAX_N = 20), and the node budget
    bounds the loop everywhere.  The first refuted k computes a(q) if it is
    not memoised, which the node budget does not count: cold, a(20) takes a
    few seconds."""
    if g.n == 0:
        return OptimumResult("ok", 0, None, 0)
    lower = distance_two_chromatic_number(g, budget)
    if lower.status != "ok":
        return OptimumResult("unknown", None, None, lower.nodes)
    q = lower.value
    start = max(q, min(map(len, g.adjacency)) + (q + 1) // 2)
    return _least_k(g, start, budget, lower.nodes, True,
                    lambda k: q <= MAX_N and k >= a_of_n(q)[0])


# ---------------------------------------------------------------------------
# Bound machinery: lifting a distance-two coloring through an optimal
# progression-free set gives a graceful coloring.

def lift_distance_two(g: Graph, f: VertexColoring) -> VertexColoring:
    """Compose a distance-two q-coloring with the lexicographically first
    optimal AP-free q-set, read as a graceful coloring of K_q on {1..q}."""
    ok, viol = is_distance_two_coloring(g, f)
    if not ok:
        raise ValueError(f"input is not a distance-two coloring: {viol}")
    _, witness = a_of_n(f.k)
    lifted = VertexColoring(tuple(witness.elements[c - 1] for c in f.colors),
                            witness.span)
    ok, viol = is_graceful_coloring(g, lifted)
    if not ok:
        raise InternalConsistencyError(f"lifted coloring failed verification: {viol}")
    return lifted


def bounds(g: Graph, budget: SearchBudget = SearchBudget()) -> tuple[int, int]:
    """(chi(G^2), a(chi(G^2))) sandwich around chi_g(G).  The upper bound is
    additionally certified by lifting an optimal distance-two coloring."""
    lower = distance_two_chromatic_number(g, budget)
    if lower.status != "ok":
        raise UndecidedError("budget exhausted while computing chi(G^2)")
    if lower.value == 0:
        return 0, 0
    if lower.value > MAX_N:
        raise UndecidedError(f"chi(G^2)={lower.value}: a(n) is computed only up to n={MAX_N}")
    upper, _ = a_of_n(lower.value)
    lifted = lift_distance_two(g, lower.coloring)
    if lifted.k != upper:
        raise InternalConsistencyError(
            f"certified lift uses {lifted.k} colors, expected a({lower.value})={upper}")
    return lower.value, upper
