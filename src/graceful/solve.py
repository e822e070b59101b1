"""Exact backtracking solvers for graceful and distance-two colorability,
the chromatic-number iterations, and the span-sequence bound machinery.

All solvers are budgeted by search-tree node count (not wall clock) so
outcomes are machine independent.  'no' is only ever reported after a
complete, exhausted search; budget exhaustion yields 'unknown'.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .coloring import VertexColoring, is_distance_two_coloring, is_graceful_coloring
from .graph import Graph, square
from .sequences import MAX_N, a_of_n

DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError("budget must be >= 1")


class _Exhausted(Exception):
    pass


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
# Graceful k-colorability core

def _degree_domain(g: Graph, k: int, v: int) -> list[int]:
    # color c offers max(c-1, k-c) distinct difference labels; a vertex of
    # degree d needs d of them
    d = g.degree(v)
    return [c for c in range(1, k + 1) if max(c - 1, k - c) >= d]


def _graceful_feasible(g: Graph, col: list[int], v: int, c: int) -> bool:
    labels_at_v = set()
    for u in g.adjacency[v]:
        cu = col[u]
        if cu:
            if cu == c:
                return False
            lab = abs(c - cu)
            if lab in labels_at_v:
                return False
            labels_at_v.add(lab)
            for x in g.adjacency[u]:
                if x == v:
                    continue
                cx = col[x]
                if cx:
                    if cx == c:  # v,x share neighbor u
                        return False
                    if abs(cx - cu) == lab:  # label clash at u
                        return False
        else:
            for x in g.adjacency[u]:
                if x != v and col[x] == c:  # distance two through unassigned u
                    return False
    return True


def _graceful_search(g: Graph, k: int, budget: SearchBudget,
                     collect: list | None, first_cap: int | None) -> tuple[bool, int, list[int] | None]:
    """Shared engine.  If collect is None: stop at the first solution and
    return it.  Otherwise append every solution (as a color tuple) to
    collect and exhaust the space.

    first_cap, when set, restricts the root branching vertex to colors
    <= first_cap (reflection symmetry breaking; only sound for decisions).
    Returns (exhausted_or_found, nodes, solution)."""
    n = g.n
    domains = [_degree_domain(g, k, v) for v in range(n)]
    if any(not d for d in domains) and n > 0:
        return True, 0, None
    col = [0] * n
    nodes = 0
    found: list[int] | None = None

    def choose() -> tuple[int, list[int]] | None:
        best_v, best_fs = -1, None
        for v in range(n):
            if col[v]:
                continue
            fs = [c for c in domains[v] if _graceful_feasible(g, col, v, c)]
            if best_fs is None or (len(fs), -g.degree(v), v) < (len(best_fs), -g.degree(best_v), best_v):
                best_v, best_fs = v, fs
                if not fs:
                    break
        if best_fs is None:
            return None
        return best_v, best_fs

    def extend(depth: int) -> bool:
        nonlocal nodes, found
        pick = choose()
        if pick is None:
            if collect is not None:
                collect.append(tuple(col))
                return False
            found = list(col)
            return True
        v, fs = pick
        if depth == 0 and first_cap is not None:
            fs = [c for c in fs if c <= first_cap]
        for c in fs:
            nodes += 1
            if nodes > budget.max_nodes:
                raise _Exhausted
            col[v] = c
            if extend(depth + 1):
                return True
            col[v] = 0
        col[v] = 0
        return False

    try:
        extend(0)
    except _Exhausted:
        return False, nodes, None
    return True, nodes, found


def graceful_k_colorable(g: Graph, k: int,
                         budget: SearchBudget = SearchBudget()) -> Decision:
    """Exact decision: does g admit a graceful coloring with palette 1..k?"""
    if k < 1:
        raise ValueError("k must be >= 1")
    cap = (k + 1) // 2  # c -> k+1-c reflection symmetry at the root
    done, nodes, sol = _graceful_search(g, k, budget, None, cap)
    if sol is not None:
        f = VertexColoring(tuple(sol), k)
        ok, viol = is_graceful_coloring(g, f)
        if not ok:
            raise InternalConsistencyError(f"solver emitted invalid witness: {viol}")
        return Decision("yes", f, nodes)
    return Decision("no" if done else "unknown", None, nodes)


def enumerate_graceful_colorings(g: Graph, k: int,
                                 budget: SearchBudget = SearchBudget()) -> list[VertexColoring]:
    """ALL graceful k-colorings of g, no symmetry breaking.  Raises on
    budget exhaustion since a partial enumeration certifies nothing."""
    acc: list = []
    done, nodes, _ = _graceful_search(g, k, budget, acc, None)
    if not done:
        raise RuntimeError(f"enumeration budget exhausted after {nodes} nodes")
    return [VertexColoring(t, k) for t in sorted(acc)]


def graceful_k_colorable_bruteforce(g: Graph, k: int) -> Decision:
    """Independent oracle: try all k^n colorings through the verifier."""
    for combo in product(range(1, k + 1), repeat=g.n):
        f = VertexColoring(combo, k)
        if is_graceful_coloring(g, f)[0]:
            return Decision("yes", f, k ** g.n)
    return Decision("no", None, k ** g.n)


# ---------------------------------------------------------------------------
# Distance-two colorability (proper coloring of the square graph)

def _proper_k_colorable(h: Graph, k: int, budget: SearchBudget) -> tuple[str, list[int] | None, int]:
    n = h.n
    col = [0] * n
    nodes = 0

    def feasible(v: int) -> list[int]:
        used = {col[u] for u in h.adjacency[v] if col[u]}
        return [c for c in range(1, k + 1) if c not in used]

    def extend(max_used: int) -> bool:
        nonlocal nodes
        best_v, best_fs = -1, None
        for v in range(n):
            if col[v]:
                continue
            fs = feasible(v)
            if best_fs is None or (len(fs), -h.degree(v), v) < (len(best_fs), -h.degree(best_v), best_v):
                best_v, best_fs = v, fs
                if not fs:
                    break
        if best_fs is None:
            return True
        for c in best_fs:
            if c > max_used + 1:  # color classes are interchangeable
                break
            nodes += 1
            if nodes > budget.max_nodes:
                raise _Exhausted
            col[best_v] = c
            if extend(max(max_used, c)):
                return True
            col[best_v] = 0
        return False

    try:
        if extend(0):
            return "yes", list(col), nodes
        return "no", None, nodes
    except _Exhausted:
        return "unknown", None, nodes


def distance_two_k_colorable(g: Graph, k: int,
                             budget: SearchBudget = SearchBudget()) -> Decision:
    if k < 1:
        raise ValueError("k must be >= 1")
    status, sol, nodes = _proper_k_colorable(square(g), k, budget)
    if status == "yes":
        f = VertexColoring(tuple(sol), k)
        ok, viol = is_distance_two_coloring(g, f)
        if not ok:
            raise InternalConsistencyError(f"solver emitted invalid witness: {viol}")
        return Decision("yes", f, nodes)
    return Decision(status, None, nodes)


def distance_two_chromatic_number(g: Graph,
                                  budget: SearchBudget = SearchBudget()) -> OptimumResult:
    """chi(G^2) by upward iteration from the trivial lower bound
    max_v d(v) + 1 (a vertex and its neighbours are mutually constrained)."""
    if g.n == 0:
        return OptimumResult("ok", 0, None, 0)
    total = 0
    k = max((g.degree(v) for v in range(g.n)), default=0) + 1
    while k <= g.n:
        dec = distance_two_k_colorable(g, k, SearchBudget(max(1, budget.max_nodes - total)))
        total += dec.nodes
        if dec.status == "yes":
            return OptimumResult("ok", k, dec.coloring, total)
        if dec.status == "unknown":
            return OptimumResult("unknown", None, None, total)
        k += 1
    raise InternalConsistencyError("n colors always distance-two color an n-vertex graph")


def graceful_chromatic_number(g: Graph,
                              budget: SearchBudget = SearchBudget()) -> OptimumResult:
    """chi_g(G), iterating k upward from the lower bound chi(G^2).  A 'no'
    at the proven ceiling a(chi(G^2)) is a defect, never silently accepted;
    the ceiling is only consulted where a(n) is in reach (n <= MAX_N), and
    the node budget bounds the loop everywhere."""
    if g.n == 0:
        return OptimumResult("ok", 0, None, 0)
    lower = distance_two_chromatic_number(g, budget)
    if lower.status != "ok":
        return OptimumResult("unknown", None, None, lower.nodes)
    total = lower.nodes
    k = lower.value
    while True:
        dec = graceful_k_colorable(g, k, SearchBudget(max(1, budget.max_nodes - total)))
        total += dec.nodes
        if dec.status == "yes":
            return OptimumResult("ok", k, dec.coloring, total)
        if dec.status == "unknown":
            return OptimumResult("unknown", None, None, total)
        if lower.value <= MAX_N and k >= a_of_n(lower.value)[0]:
            raise InternalConsistencyError(
                f"no graceful coloring found up to the proven ceiling a({lower.value})={k}")
        k += 1


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
        raise RuntimeError("budget exhausted while computing chi(G^2)")
    if lower.value == 0:
        return 0, 0
    upper, _ = a_of_n(lower.value)
    lifted = lift_distance_two(g, lower.coloring)
    if lifted.k != upper:
        raise InternalConsistencyError(
            f"certified lift uses {lifted.k} colors, expected a({lower.value})={upper}")
    return lower.value, upper
