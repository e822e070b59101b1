"""CNF encoding of graceful k-colorability, DIMACS emission, solver-output
parsing, and a small complete CDCL solver for cross-checks.

Variable x_{v,c} (id r(v)*k + c) means vertex v gets color c, where r(v) is
v's breadth-first rank from the root r (below), which decode_model
recomputes from the graph.  The solver decides the smallest unassigned
variable, so it colors g outward from r, each decision next to colored
vertices (a static breadth-first order; Cuthill & McKee, ACM 1969; Aloul,
Markov & Sakallah, GLSVLSI 2003).  Ids by vertex index took 2.4 times the
decisions on random cubic graphs.  Clause families:

  a: at-least-one color per vertex                          n clauses
  b: at-most-one color per vertex (pairwise)                n * k(k-1)/2
  c: adjacent vertices differ, per color                    m * k
  d2: distance-two pairs differ, per color                  (m(G^2) - m(G)) * k
  d3: forbidden equal-difference triples on paths u-v-w     paths * T(k)
  degree: -x_{v,c} where max(c-1, k-c) < d(v)               sum_v D(d(v))
  reflection: -x_{r,c} for c > ceil(k/2)                    floor(k/2) (0 if n = 0)
  twin: -x_{t_i,c} v -x_{t_j,c'} for i < j and c' < c       pairs * k(k-1)/2

where paths = sum_v C(d(v),2) and T(k) counts ordered same-parity color
pairs (cu, cw), cu != cw; the middle color is then forced to (cu+cw)/2.
The cu == cw half of the path constraint is exactly family d2.  D(d) =
min(k, max(0, 2d - k)) counts the colors k-d+1..d, and pairs = sum of
C(|t|, 2) over the twin classes t.

Families a to d3 state that the coloring is graceful.  The last three are
the rules the native search prunes with (see solve._colorings), given as
clauses so that the CDCL solver need not rediscover them by search:
  - degree and reflection: one unit clause per (v, c) of the graceful-mode
    bans of solve._static_bans, which the native search starts from and
    whose docstring states them and why they are sound.  Degree is implied
    by a to d3; reflection caps the root r, the lowest-index vertex of
    maximum degree, at ceil(k/2).
  - twin: each twin class t_1 < ... < t_m of Graph.twin_classes (vertices
    of degree >= 1 with the same N(v) or the same N[v]) is colored
    increasingly.  Permuting a twin class is an automorphism (lex-leader
    symmetry breaking; Crawford, Ginsberg, Luks & Roy, KR 1996).
By the argument there, the models are exactly the graceful k-colorings
with f(r) <= ceil(k/2) and every twin class increasing, and the formula is
satisfiable iff g has a graceful k-coloring.  A #SAT count of the formula counts that reduced
set, not every graceful coloring.

The solver below is conflict-driven clause learning (Zhang, Madigan,
Moskewicz & Malik, ICCAD 2001; Een & Sorensson, SAT 2003) without restarts,
saved phases or clause deletion, so it is deterministic and its one
parameter is the node budget.  Each decision sets the smallest unassigned
variable true and opens a level; unit propagation runs over per-literal
implication lists for the binary clauses (families b, c, d2 and twin,
most of an encoded formula) and two watched literals for the longer ones.
A conflict above level 0 is resolved back to its first unique implication
point; the clause learnt is asserting, so the search undoes at least one
level and sets the negated point true where the clause becomes a unit.  A
conflict at level 0 proves the formula unsat.  Levels rise by one per decision and fall
by at least one per conflict, so a search with d decisions meets at most
d + 1 conflicts: the node budget, counted in decisions, bounds the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Sequence

from .coloring import VertexColoring, is_graceful_coloring
from .graph import Graph
from .solve import SearchBudget, _reflection_root, _static_bans


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[tuple[int, ...]]
    graph: Graph | None = None
    k: int = 0
    family_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        lits = list(chain.from_iterable(self.clauses))
        if 0 in lits:
            raise ValueError("zero literal in clause")
        if lits and max(max(lits), -min(lits)) > self.num_vars:
            raise ValueError("literal exceeds num_vars")
        for cl in self.clauses:
            # a repeated literal shrinks both sets alike; x with -x only the first
            if len(set(map(abs, cl))) != len(set(cl)):
                raise ValueError("clause contains a literal and its negation")


def predicted_clause_counts(g: Graph, k: int) -> dict[str, int]:
    """Closed-form clause counts per family; asserted against the encoder."""
    degrees = [len(a) for a in g.adjacency]
    paths = sum(d * (d - 1) // 2 for d in degrees)
    odd = (k + 1) // 2
    even = k // 2
    pairs = k * (k - 1) // 2
    twin_pairs = sum(len(t) * (len(t) - 1) // 2 for v, t in enumerate(g.twin_classes)
                     if t and t[0] == v)
    return {
        "a": g.n,
        "b": g.n * pairs,
        "c": g.m * k,
        "d2": (sum(map(len, g.square_adjacency)) // 2 - g.m) * k,
        "d3": paths * (odd * (odd - 1) + even * (even - 1)),
        "degree": sum(min(k, max(0, 2 * d - k)) for d in degrees),
        "reflection": even if g.n else 0,
        "twin": twin_pairs * pairs,
    }


def _breadth_first(g: Graph) -> list[int]:
    """The vertices in breadth-first order from the reflection root,
    neighbours in increasing index, each further component from its
    lowest-index vertex."""
    order: list[int] = []
    seen = [False] * g.n
    head = 0
    for start in chain((_reflection_root(g),) if g.n else (), range(g.n)):
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        while head < len(order):
            for w in g.adjacency[order[head]]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            head += 1
    return order


def encode_graceful(g: Graph, k: int) -> CnfFormula:
    """CNF whose models are the graceful k-colorings of g with the root at
    most ceil(k/2) and every twin class increasing (see the module
    docstring), so satisfiable iff g has a graceful k-coloring."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n, adj, near = g.n, g.adjacency, g.square_adjacency
    colors = range(1, k + 1)
    base = [0] * n  # x_{v,c} has id base[v] + c
    for rank, v in enumerate(_breadth_first(g)):
        base[v] = rank * k
    # emit fills an empty formula, so its clauses, well formed by construction,
    # skip the checks CnfFormula runs on a caller's
    formula = CnfFormula(n * k, [], g, k)
    clauses, counts = formula.clauses, formula.family_counts

    def emit(family, new):
        start = len(clauses)
        clauses.extend(new)
        counts[family] = len(clauses) - start

    emit("a", (tuple(base[v] + c for c in colors) for v in range(n)))
    emit("b", ((-(base[v] + c1), -(base[v] + c2))
               for v in range(n) for c1, c2 in combinations(colors, 2)))
    emit("c", ((-(base[u] + c), -(base[v] + c)) for u, v in g.edges() for c in colors))
    emit("d2", ((-(base[u] + c), -(base[v] + c)) for u in range(n)
                for v in near[u] if u < v and v not in adj[u] for c in colors))
    # equal-difference triples on paths u - mid - w with distinct endpoint colors
    triples = [(cu, (cu + cw) // 2, cw) for cu in colors for cw in colors
               if cu != cw and not (cu + cw) % 2]
    emit("d3", ((-(base[u] + cu), -(base[mid] + cm), -(base[w] + cw))
                for mid in range(n) for u, w in combinations(adj[mid], 2)
                for cu, cm, cw in triples))
    for family, bans in _static_bans(g, k, True, True).items():
        emit(family, ((-(base[v] + c),) for v, colors in bans for c in colors))
    emit("twin", ((-(base[ti] + c), -(base[tj] + c2))
                  for v, t in enumerate(g.twin_classes) if t and t[0] == v
                  for ti, tj in combinations(t, 2)
                  for c in colors for c2 in range(1, c)))

    predicted = predicted_clause_counts(g, k)
    if counts != predicted:
        raise AssertionError(f"clause-count mismatch: {counts} vs {predicted}")
    return formula


def decode_model(formula: CnfFormula, model: Sequence[int]) -> VertexColoring:
    """Map a satisfying model back to a coloring; verified before return."""
    if formula.graph is None:
        raise ValueError("formula carries no graph to decode against")
    truth = {}
    for lit in model:
        truth[abs(lit)] = lit > 0
    g, k = formula.graph, formula.k
    order = _breadth_first(g)
    chosen: dict[int, int] = {}
    for var in range(1, g.n * k + 1):
        if truth.get(var, False):
            rank, c = divmod(var - 1, k)
            v = order[rank]
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
# Internal CDCL

@dataclass(frozen=True)
class SatResult:
    status: str  # 'sat', 'unsat', 'unknown'
    model: tuple[int, ...] | None
    nodes: int


def internal_sat(formula: CnfFormula,
                 budget: SearchBudget = SearchBudget()) -> SatResult:
    """Complete CDCL (see the module docstring) over one assignment.

    The trail lists the literals set, each with its decision level and its
    reason: the clause that implied it.  A binary clause (a v b) sits in
    two implication lists, b under a and a under b, read when the literal
    they sit under turns false.  A longer clause is watched on its first
    two positions and visited only when a watched literal turns false: the
    watch moves to a literal not yet false, or, if none is left, the clause
    is a unit or a conflict.  Watches sit on positions, so a literal
    repeated in a clause counts once per position.  Clauses of length 1
    are set at level 0; an empty clause makes the formula unsat at once.

    The search returns 'sat' once every variable is assigned, so a
    variable whose clauses are all satisfied still costs a decision.  The
    clause learnt from a conflict holds the negated first unique
    implication point and each literal of a lower level but 0 in the
    clauses resolved to reach it; the search jumps back to the highest of
    those levels.  One node is counted per decision, and the search
    returns 'unknown' with budget.max_nodes nodes rather than make one
    more.  The search keeps its own state, so its depth is not bounded by
    the interpreter's recursion limit."""
    n = formula.num_vars
    # value[lit] is 1 if lit is true, -1 if false, 0 if open; with the list
    # 2n + 1 long, value[-v] sits at index 2n + 1 - v.  level, reason and
    # seen are indexed the same way and read at the literal that is true.
    value = [0] * (2 * n + 1)
    level = [0] * (2 * n + 1)
    reason: list = [None] * (2 * n + 1)  # a clause, or a binary clause's other literal
    seen = [False] * (2 * n + 1)
    implied: list[list[int]] = [[] for _ in range(2 * n + 1)]
    watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
    trail: list[int] = []
    starts: list[int] = []  # trail position where each decision level begins

    def assign(lit, depth, why):
        value[lit] = 1
        value[-lit] = -1
        trail.append(lit)
        level[lit] = depth
        reason[lit] = why

    def propagate(head, depth):
        """Propagate each literal falsified from trail[head] on at level
        depth; the literals of a conflicting clause, all false, or None."""
        while head < len(trail):
            false = -trail[head]
            head += 1
            for other in implied[false]:
                v = value[other]
                if v == 1:
                    continue
                if v:
                    return (false, other)
                value[other] = 1  # assign(other, depth, false), inlined on the hot path
                value[-other] = -1
                trail.append(other)
                level[other] = depth
                reason[other] = false
            watching = watches[false]
            watches[false] = kept = []
            for i, c in enumerate(watching):
                other = c[0]
                if other == false:
                    other = c[1]
                    if value[other] == 1:
                        kept.append(c)
                        continue
                    c[0], c[1] = other, false
                elif value[other] == 1:
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
                        return c
                    value[other] = 1  # assign(other, depth, c), inlined
                    value[-other] = -1
                    trail.append(other)
                    level[other] = depth
                    reason[other] = c
        return None

    def analyze(conflict, depth):
        """The first-UIP clause learnt from a conflict at level depth, its
        asserting literal first and a literal of the highest lower level
        second."""
        learnt = [0]
        pending = 0  # literals of level depth seen and not yet resolved
        i = len(trail)
        lits = conflict
        while True:
            for q in lits:
                if not seen[-q] and level[-q]:
                    seen[-q] = True
                    if level[-q] == depth:
                        pending += 1
                    else:
                        learnt.append(q)
            i -= 1
            while not seen[trail[i]]:
                i -= 1
            p = trail[i]
            seen[p] = False
            pending -= 1
            if not pending:
                break
            r = reason[p]
            lits = (r,) if type(r) is int else r[1:]
        learnt[0] = -p
        for q in learnt[1:]:
            seen[-q] = False
        if len(learnt) > 2:
            top = max(range(1, len(learnt)), key=lambda j: level[-learnt[j]])
            learnt[1], learnt[top] = learnt[top], learnt[1]
        return learnt

    conflict = None
    for cl in formula.clauses:
        if len(cl) > 2:
            c = list(cl)
            watches[c[0]].append(c)
            watches[c[1]].append(c)
        elif len(cl) == 2:
            implied[cl[0]].append(cl[1])
            implied[cl[1]].append(cl[0])
        elif not cl:
            return SatResult("unsat", None, 0)
        elif value[cl[0]] == -1:
            conflict = cl
        elif not value[cl[0]]:
            assign(cl[0], 0, None)
    if conflict is None:
        conflict = propagate(0, 0)

    nodes = 0
    start = 1  # every variable below it is assigned
    while True:
        if conflict is not None:
            if not starts:
                return SatResult("unsat", None, nodes)
            learnt = analyze(conflict, len(starts))
            back = level[-learnt[1]] if len(learnt) > 1 else 0
            # the variables below the undone level's decision were assigned
            # before it, at level back or lower
            mark = starts[back]
            start = abs(trail[mark])
            for x in trail[mark:]:
                value[x] = value[-x] = 0
            del trail[mark:], starts[back:]
            lit = learnt[0]
            if len(learnt) == 2:
                implied[lit].append(learnt[1])
                implied[learnt[1]].append(lit)
            elif len(learnt) > 2:
                watches[lit].append(learnt)
                watches[learnt[1]].append(learnt)
            assign(lit, back, learnt[1] if len(learnt) == 2 else learnt)
            conflict = propagate(mark, back)
            continue
        for var in range(start, n + 1):
            if not value[var]:
                break
        else:  # every variable is assigned, each value[v] is +-1
            return SatResult("sat", tuple(v * value[v] for v in range(1, n + 1)), nodes)
        if nodes == budget.max_nodes:
            return SatResult("unknown", None, nodes)
        nodes += 1
        start = var + 1
        starts.append(len(trail))
        assign(var, len(starts), None)
        conflict = propagate(len(trail) - 1, len(starts))
