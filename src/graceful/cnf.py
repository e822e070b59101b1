"""CNF encoding of graceful k-colorability, DIMACS emission, solver-output
parsing, and a small complete DPLL solver for cross-checks.

Variable x_{v,c} (id v*k + c) means vertex v gets color c.  Clause families:

  a: at-least-one color per vertex                          n clauses
  b: at-most-one color per vertex (pairwise)                n * k(k-1)/2
  c: adjacent vertices differ, per color                    m * k
  d2: distance-two pairs differ, per color                  (m(G^2) - m(G)) * k
  d3: forbidden equal-difference triples on paths u-v-w     paths * T(k)

where paths = sum_v C(d(v),2) and T(k) counts ordered same-parity color
pairs (cu, cw), cu != cw; the middle color is then forced to (cu+cw)/2.
The cu == cw half of the path constraint is exactly family d2.

The DPLL below keeps one assignment with an undo trail, propagates unit
clauses through two watched literals per clause, and branches on the
smallest unassigned variable until none is left; it keeps no index of the
clauses a variable occurs in.  On these formulas that index would change
nothing.  After unit propagation without a conflict an unassigned x_{v,c}
still sits in v's family-a clause, and that clause is open: a true x_{v,c'}
would have set x_{v,c} false through family b, and were every other color
of v false the family-a clause would be a unit.  So the smallest unassigned
variable is the smallest unassigned variable of an open clause, and some
clause is open exactly while some variable is unassigned.  The same
argument leaves another x_{v,c'} unassigned, so the family-b clause
(-x_{v,c} v -x_{v,c'}) is open too and x_{v,c} occurs with both signs: no
literal is ever pure, and the DPLL has no pure-literal rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .coloring import VertexColoring, is_graceful_coloring
from .graph import Graph, square
from .solve import SearchBudget


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[tuple[int, ...]]
    graph: Graph | None = None
    k: int = 0
    family_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for cl in self.clauses:
            if any(lit == 0 for lit in cl):
                raise ValueError("zero literal in clause")
            if any(abs(lit) > self.num_vars for lit in cl):
                raise ValueError("literal exceeds num_vars")
            if any(-lit in cl for lit in cl):
                raise ValueError("clause contains a literal and its negation")


def predicted_clause_counts(g: Graph, k: int) -> dict[str, int]:
    """Closed-form clause counts per family; asserted against the encoder."""
    n, m = g.n, g.m
    paths = sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(n))
    odd = (k + 1) // 2
    even = k // 2
    t = odd * (odd - 1) + even * (even - 1)
    return {
        "a": n,
        "b": n * k * (k - 1) // 2,
        "c": m * k,
        "d2": (square(g).m - m) * k,
        "d3": paths * t,
    }


def encode_graceful(g: Graph, k: int) -> CnfFormula:
    """CNF satisfiable iff g has a graceful k-coloring."""
    if k < 1:
        raise ValueError("k must be >= 1")
    clauses: list[tuple[int, ...]] = []
    counts = {"a": 0, "b": 0, "c": 0, "d2": 0, "d3": 0}

    for v in range(g.n):
        clauses.append(tuple(v * k + c for c in range(1, k + 1)))
        counts["a"] += 1
    for v in range(g.n):
        for c1 in range(1, k + 1):
            for c2 in range(c1 + 1, k + 1):
                clauses.append((-(v * k + c1), -(v * k + c2)))
                counts["b"] += 1
    for u, v in g.edges():
        for c in range(1, k + 1):
            clauses.append((-(u * k + c), -(v * k + c)))
            counts["c"] += 1
    sq = square(g)
    originals = set(g.edges())
    for u, v in sq.edges():
        if (u, v) in originals:
            continue
        for c in range(1, k + 1):
            clauses.append((-(u * k + c), -(v * k + c)))
            counts["d2"] += 1
    # equal-difference triples on paths u - mid - w with distinct endpoint colors
    for mid in range(g.n):
        nbrs = sorted(g.adjacency[mid])
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                u, w = nbrs[i], nbrs[j]
                for cu in range(1, k + 1):
                    for cw in range(1, k + 1):
                        if cu == cw or (cu + cw) % 2:
                            continue
                        cv = (cu + cw) // 2
                        clauses.append((-(u * k + cu), -(mid * k + cv),
                                        -(w * k + cw)))
                        counts["d3"] += 1

    formula = CnfFormula(g.n * k, clauses, g, k, counts)
    if counts != predicted_clause_counts(g, k):
        raise AssertionError(
            f"clause-count mismatch: {counts} vs {predicted_clause_counts(g, k)}")
    return formula


def decode_model(formula: CnfFormula, model: Sequence[int]) -> VertexColoring:
    """Map a satisfying model back to a coloring; verified before return."""
    if formula.graph is None:
        raise ValueError("formula carries no graph to decode against")
    truth = {}
    for lit in model:
        truth[abs(lit)] = lit > 0
    g, k = formula.graph, formula.k
    chosen: dict[int, int] = {}
    for var in range(1, g.n * k + 1):
        if truth.get(var, False):
            v, c = divmod(var - 1, k)
            if v in chosen:
                raise ValueError(f"vertex {v} assigned colors {chosen[v]} and {c + 1}")
            chosen[v] = c + 1
    missing = [v for v in range(g.n) if v not in chosen]
    if missing:
        raise ValueError(f"no color for vertices {missing}")
    f = VertexColoring(tuple(chosen[v] for v in range(g.n)), k)
    ok, viol = is_graceful_coloring(g, f)
    if not ok:
        raise ValueError(f"decoded coloring fails verification ({viol}): encoder defect")
    return f


# ---------------------------------------------------------------------------
# DIMACS

def write_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for cl in formula.clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"


def parse_solver_output(text: str):
    """Parse SAT-competition style output: 's ...' verdict plus 'v' lines.

    Returns ('sat', model), ('unsat', None) or ('unknown', None)."""
    verdict = None
    model: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("s "):
            word = line[2:].strip().upper()
            if word == "SATISFIABLE":
                verdict = "sat"
            elif word == "UNSATISFIABLE":
                verdict = "unsat"
            elif word == "UNKNOWN":
                verdict = "unknown"
            else:
                raise ValueError(f"line {lineno}: unknown verdict {word!r}")
        elif line.startswith("v "):
            try:
                lits = [int(tok) for tok in line[2:].split()]
            except ValueError:
                raise ValueError(f"line {lineno}: bad literal in model line") from None
            model.extend(lit for lit in lits if lit != 0)
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if verdict is None:
        raise ValueError("no 's' verdict line found")
    return (verdict, model if verdict == "sat" else None)


# ---------------------------------------------------------------------------
# Internal DPLL

@dataclass(frozen=True)
class SatResult:
    status: str  # 'sat', 'unsat', 'unknown'
    model: tuple[int, ...] | None
    nodes: int


def internal_sat(formula: CnfFormula,
                 budget: SearchBudget = SearchBudget()) -> SatResult:
    """Complete DPLL with unit propagation over two watched literals.

    One assignment is kept; a branch is undone by popping the trail of set
    literals back to where its node began.  The first two positions of a
    clause of length >= 2 are its watches, and a clause is visited only when
    a watched literal turns false: the watch moves to a literal not yet
    false, or, if none is left, the clause is a unit or a conflict.  Clauses
    of length 1 seed the propagation at the root; an empty clause makes the
    formula unsat at once.  Watches sit on positions, so a literal repeated
    in a clause counts once per position.

    The search branches on the smallest unassigned variable, var before
    -var, and returns 'sat' once every variable is assigned; on an encoded
    formula that variable is the smallest one of an open clause (family a,
    see the module docstring).  A generic CNF is still decided completely,
    though a variable whose clauses are all satisfied costs nodes.  A node's
    unassigned variables are a subset of its parent's, so the scan starts
    past the parent's branch variable.  One node is counted per branch
    tried, and the search returns 'unknown' with budget.max_nodes nodes
    rather than try one more.  Unit propagation reaches the same fixpoint,
    or a conflict, in any order (a literal one order derives is true at the
    fixpoint of any other, which leaves no unit), so the order of the watch
    lists cannot change the search tree.  The search keeps its own stack of
    branches, so its depth is not bounded by the interpreter's recursion
    limit."""
    n = formula.num_vars
    if any(not cl for cl in formula.clauses):
        return SatResult("unsat", None, 0)
    # value[lit] is 1 if lit is true, -1 if false, 0 if open; with the list
    # 2n + 1 long, value[-v] sits at index 2n + 1 - v
    value = [0] * (2 * n + 1)
    watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
    trail: list[int] = []

    def assign(lit):
        value[lit] = 1
        value[-lit] = -1
        trail.append(lit)

    def propagate(head):
        """Visit the watchers of each literal falsified from trail[head] on;
        False on a conflict."""
        while head < len(trail):
            false = -trail[head]
            head += 1
            watching = watches[false]
            watches[false] = kept = []
            for i, c in enumerate(watching):
                if c[0] == false:
                    c[0], c[1] = c[1], false
                other = c[0]
                if value[other] == 1:
                    kept.append(c)
                    continue
                for j in range(2, len(c)):
                    lit = c[j]
                    if value[lit] != -1:
                        c[1], c[j] = lit, false
                        watches[lit].append(c)
                        break
                else:
                    kept.append(c)
                    if value[other] == -1:
                        kept.extend(watching[i + 1:])
                        return False
                    value[other] = 1  # assign(other), inlined on the hot path
                    value[-other] = -1
                    trail.append(other)
        return True

    ok = True
    for cl in formula.clauses:
        c = list(cl)
        if len(c) > 1:
            watches[c[0]].append(c)
            watches[c[1]].append(c)
        elif value[c[0]] == -1:
            ok = False
        elif not value[c[0]]:
            assign(c[0])
    ok = ok and propagate(0)

    nodes = 0
    start = 1
    todo = []  # (literal, trail length to undo to, first variable to scan)
    while True:
        if ok:
            for var in range(start, n + 1):
                if not value[var]:
                    break
            else:  # every variable is assigned, each value[v] is +-1
                return SatResult("sat", tuple(v * value[v] for v in range(1, n + 1)),
                                 nodes)
            todo.append((-var, len(trail), var + 1))
            todo.append((var, len(trail), var + 1))
        if not todo:
            return SatResult("unsat", None, nodes)
        if nodes == budget.max_nodes:
            return SatResult("unknown", None, nodes)
        lit, mark, start = todo.pop()
        nodes += 1
        for x in trail[mark:]:
            value[x] = value[-x] = 0
        del trail[mark:]
        assign(lit)
        ok = propagate(mark)
