"""Hardness-reduction machinery: the leaf-attachment construction linking
graceful k-colorability to distance-two 4-colorability, and the
NAE-3SAT-E4 gadget reduction to graceful 4-colorability, with exhaustive
gadget certification.

Gadget notes.  The clause gadget is a triangle on anchors c_1, c_2, c_3
with every side subdivided four times and a pendant hung on each side
midpoint; each anchor carries one edge out of the gadget.  Anchors have
total degree 3, and with palette {1,2,3,4} a degree-3 vertex needs three
distinct difference labels, which only colors 1 and 4 provide.  The
variable gadget is a tree: four ports joined by two-step "inverter" chains
(two degree-3 vertices with a common degree-2 neighbour must receive
opposite colors from {1,4}; two inverters in series force equality).  Both
gadgets are certified by enumerating ALL graceful 4-colorings under free
boundary stubs, which over-approximates every possible embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable

from .coloring import VertexColoring, is_distance_two_coloring, is_graceful_coloring
from .graph import Graph, degeneracy
from .solve import (SearchBudget, UndecidedError, distance_two_k_colorable,
                    enumerate_graceful_colorings, graceful_k_colorable)


def _with_pendants(g: Graph, anchors) -> Graph:
    """g with a new vertex g.n + i hung as a pendant on anchors[i]."""
    edges = g.edges() + [(v, g.n + i) for i, v in enumerate(anchors)]
    return Graph.from_edges(g.n + len(anchors), edges)


# ---------------------------------------------------------------------------
# Construction 1: leaves turn graceful k-colorability into distance-two
# 4-colorability for cubic graphs.

def construction1(g: Graph, k: int) -> Graph:
    """Attach k-5 pendant leaves to every vertex of a 3-regular graph.

    Leaves of vertex v occupy indices n + v*(k-5) .. n + (v+1)*(k-5) - 1.
    For k = 5 the output is g itself."""
    if k < 5:
        raise ValueError("k must be >= 5")
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise ValueError("input must be 3-regular")
    return _with_pendants(g, [v for v in range(g.n) for _ in range(k - 5)])


def embed_palette(f: VertexColoring, k: int) -> VertexColoring:
    """Remap a 4-coloring on {1,2,3,4} to the extreme palette {1,2,k-1,k}."""
    if f.k != 4:
        raise ValueError("expected a 4-coloring")
    table = {1: 1, 2: 2, 3: k - 1, 4: k}
    return VertexColoring(tuple(table[c] for c in f.colors), k)


def leaf_extension_coloring(g: Graph, k: int, f4: VertexColoring) -> VertexColoring:
    """Extend a distance-two 4-coloring over {1,2,k-1,k} to a graceful
    k-coloring of construction1(g, k).

    The leaves of v take, in increasing order, the colors of {3..k-2} whose
    labels at v are new.  v's three neighbours carry the other three palette
    colors, so leaves of a vertex colored 2 get {4..k-2} (label 1 rules out
    3), colored k-1 get {3..k-3} (label 1 rules out k-2), and colored 1 or k
    get the lexicographically smallest admissible colors from {3..k-2}."""
    gk = construction1(g, k)
    allowed = {1, 2, k - 1, k}
    if any(c not in allowed for c in f4.colors):
        raise ValueError(f"palette must be a subset of {sorted(allowed)}")
    ok, viol = is_distance_two_coloring(g, f4)
    if not ok:
        raise ValueError(f"not a distance-two coloring: {viol}")
    extra = k - 5
    out = list(f4.colors)
    for v in range(g.n):
        fv = f4.colors[v]
        used_labels = {abs(fv - f4.colors[u]) for u in g.adjacency[v]}
        leaf_colors = []
        # {3..k-2} misses the palette, so only the labels at v can clash
        for c in range(3, k - 1):
            if len(leaf_colors) == extra:
                break
            if abs(fv - c) not in used_labels:
                used_labels.add(abs(fv - c))
                leaf_colors.append(c)
        if len(leaf_colors) < extra:
            raise AssertionError(f"no admissible leaf colors at vertex {v}")
        out.extend(leaf_colors)
    result = VertexColoring(tuple(out), k)
    ok, viol = is_graceful_coloring(gk, result)
    if not ok:
        raise AssertionError(f"leaf extension produced an invalid coloring: {viol}")
    return result


@dataclass(frozen=True)
class ConsistencyResult:
    status: str  # 'consistent', 'counterexample', 'unknown'
    details: dict = field(default_factory=dict)  # JSON-ready values only


def check_construction1_guarantee(g: Graph, k: int,
                                  budget: SearchBudget = SearchBudget()) -> ConsistencyResult:
    """Machine-check: construction1(g,k) graceful k-colorable iff g is
    distance-two 4-colorable, both sides exact."""
    gk = construction1(g, k)
    d2 = distance_two_k_colorable(g, 4, budget)
    if d2.status == "unknown":
        return ConsistencyResult("unknown")
    gr = graceful_k_colorable(gk, k, budget)
    if gr.status == "unknown":
        return ConsistencyResult("unknown")
    details = {"distance_two_4": d2.status, "graceful_k": gr.status}
    if d2.status != gr.status:
        for name, dec in (("d2_witness", d2), ("graceful_witness", gr)):
            details[name] = (list(dec.coloring.colors) if dec.coloring is not None
                             else None)
        return ConsistencyResult("counterexample", details)
    if d2.status == "yes":
        # the constructive direction must also go through explicitly
        lifted = leaf_extension_coloring(g, k, embed_palette(d2.coloring, k))
        details["extension_palette"] = lifted.k
    return ConsistencyResult("consistent", details)


# ---------------------------------------------------------------------------
# NAE formulas

@dataclass(frozen=True)
class NaeFormula:
    """Positive NAE-3SAT instance where every variable occurs in exactly
    four clauses.  Variables are 0-based; clauses are sorted 3-tuples."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    @staticmethod
    def make(num_vars: int, clauses) -> "NaeFormula":
        norm = []
        for cl in clauses:
            cl = tuple(sorted(cl))
            if len(cl) != 3 or len(set(cl)) != 3:
                raise ValueError(f"clause {cl} must have three distinct variables")
            if any(not 0 <= x < num_vars for x in cl):
                raise ValueError(f"clause {cl} has out-of-range variable")
            norm.append(cl)
        occur = [0] * num_vars
        for cl in norm:
            for x in cl:
                occur[x] += 1
        bad = [x for x in range(num_vars) if occur[x] != 4]
        if bad:
            raise ValueError(f"variables {bad} do not occur exactly four times")
        return NaeFormula(num_vars, tuple(norm))


def parse_nae(text: str) -> NaeFormula:
    """Text format: header 'p nae <num_vars> <num_clauses>', then one line
    per clause with three 1-based variable indices."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("c")]
    if not lines or not lines[0].startswith("p nae"):
        raise ValueError("missing 'p nae <vars> <clauses>' header")
    parts = lines[0].split()
    if len(parts) != 4:
        raise ValueError(f"bad header {lines[0]!r}")
    nv, nc = int(parts[2]), int(parts[3])
    if len(lines) - 1 != nc:
        raise ValueError(f"clause count mismatch: header {nc}, found {len(lines) - 1}")
    clauses = []
    for ln in lines[1:]:
        idx = [int(tok) for tok in ln.split()]
        if len(idx) != 3:
            raise ValueError(f"clause line {ln!r} must list three variables")
        if any(not 1 <= x <= nv for x in idx):
            raise ValueError(f"clause line {ln!r} has out-of-range variable")
        clauses.append(tuple(x - 1 for x in idx))
    return NaeFormula.make(nv, clauses)


def write_nae(phi: NaeFormula) -> str:
    lines = [f"p nae {phi.num_vars} {len(phi.clauses)}"]
    lines.extend(" ".join(str(x + 1) for x in cl) for cl in phi.clauses)
    return "\n".join(lines) + "\n"


def smallest_e4_instance() -> NaeFormula:
    """Three variables, the clause {x1,x2,x3} four times: the smallest
    instance satisfying the exactly-four occurrence rule."""
    return NaeFormula.make(3, [(0, 1, 2)] * 4)


_BRUTE_FORCE_MAX_VARS = 24


def brute_force_nae(phi: NaeFormula):
    """Exhaustive truth-table search.  Returns an assignment tuple or None."""
    if phi.num_vars > _BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute force limited to {_BRUTE_FORCE_MAX_VARS} variables")
    for bits in product((True, False), repeat=phi.num_vars):
        if all(any(bits[x] for x in cl) and not all(bits[x] for x in cl)
               for cl in phi.clauses):
            return bits
    return None


# ---------------------------------------------------------------------------
# Gadgets.  variable_gadget and clause_gadget build their template once and
# return the same spec on every call, so callers only read it.

@dataclass(frozen=True)
class BehaviorRow:
    name: str
    mode: str  # 'forall' or 'exists'
    predicate: Callable[[dict[str, int], dict[str, int]], bool]


@dataclass(frozen=True)
class GadgetSpec:
    graph: Graph
    ports: dict[str, int]  # port name -> vertex carrying one external edge
    behavior_table: tuple[BehaviorRow, ...]


@dataclass(frozen=True)
class RowResult:
    name: str
    mode: str
    ok: bool
    counterexample: tuple[int, ...] | None = None


@dataclass(frozen=True)
class CertificationReport:
    certified: bool
    rows: tuple[RowResult, ...]
    colorings_enumerated: int


@cache
def variable_gadget() -> GadgetSpec:
    """Tree gadget with four ports that must all receive the same color
    from {1,4} in every graceful 4-coloring.

    Structure: ports p1..p4 (indices 0..3) joined in a chain by inverter
    pairs p - w - z - w' - p' where each z (10..12) carries a pendant
    (13..15); end ports 0 and 3 carry pendants 16 and 17 so every port has
    total degree 3 with its external edge."""
    edges = [(0, 4), (4, 10), (10, 5), (5, 1),
             (1, 6), (6, 11), (11, 7), (7, 2),
             (2, 8), (8, 12), (12, 9), (9, 3),
             (10, 13), (11, 14), (12, 15),
             (0, 16), (3, 17)]
    g = Graph.from_edges(18, edges)
    ports = {"x_l": 0, "x_k": 1, "x_m": 2, "x_n": 3}

    def all_equal_14(pc, sc):
        vals = set(pc.values())
        return len(vals) == 1 and vals <= {1, 4}

    rows = [BehaviorRow("ports equal and in {1,4}", "forall", all_equal_14)]
    for val in (1, 4):
        rows.append(BehaviorRow(
            f"ports all {val} with opposite external colors", "exists",
            lambda pc, sc, val=val: (set(pc.values()) == {val}
                                     and set(sc.values()) == {5 - val})))
    return GadgetSpec(g, ports, tuple(rows))


@cache
def clause_gadget() -> GadgetSpec:
    """Subdivided triangle with pendant-carrying side midpoints; the three
    corner anchors are the ports.

    Indices: anchors c_1,c_2,c_3 = 0,1,2; side c_1->c_3 = 3..6, side
    c_3->c_2 = 7..10, side c_2->c_1 = 11..14; pendants 15,16,17 on the
    midpoints 5, 9 and 13."""
    edges = [(0, 3), (3, 4), (4, 5), (5, 6), (6, 2),
             (2, 7), (7, 8), (8, 9), (9, 10), (10, 1),
             (1, 11), (11, 12), (12, 13), (13, 14), (14, 0),
             (5, 15), (9, 16), (13, 17)]
    g = Graph.from_edges(18, edges)
    ports = {"c_1": 0, "c_2": 1, "c_3": 2}

    rows = [
        BehaviorRow("anchors in {1,4}", "forall",
                    lambda pc, sc: set(pc.values()) <= {1, 4}),
        BehaviorRow("anchors never all equal", "forall",
                    lambda pc, sc: len(set(pc.values())) > 1),
    ]
    patterns = [p for p in product((1, 4), repeat=3) if len(set(p)) > 1]
    for pat in patterns:
        rows.append(BehaviorRow(
            f"anchors {pat} with opposite external colors", "exists",
            lambda pc, sc, pat=pat: (
                (pc["c_1"], pc["c_2"], pc["c_3"]) == pat
                and all(sc[name] == 5 - pc[name] for name in pc))))
    return GadgetSpec(g, ports, tuple(rows))


def verify_gadget(spec: GadgetSpec,
                  budget: SearchBudget = SearchBudget()) -> CertificationReport:
    """Exhaustively enumerate graceful 4-colorings of the gadget with one
    free-colored stub neighbour per port, then check every behavior row.

    The free stub over-approximates any surrounding graph, so 'forall' rows
    certified here hold in every embedding."""
    names = sorted(spec.ports)
    aug = _with_pendants(spec.graph, [spec.ports[name] for name in names])
    colorings = enumerate_graceful_colorings(aug, 4, budget)
    stub = dict(zip(names, range(spec.graph.n, aug.n)))
    views = [({name: f[v] for name, v in spec.ports.items()},
              {name: f[stub[name]] for name in spec.ports}) for f in colorings]

    results = []
    for row in spec.behavior_table:
        if row.mode == "forall":
            # colorings are sorted: the first failure is lex-min
            bad = next((f.colors for f, view in zip(colorings, views)
                        if not row.predicate(*view)), None)
            results.append(RowResult(row.name, row.mode, bad is None, bad))
        elif row.mode == "exists":
            hit = any(row.predicate(*view) for view in views)
            results.append(RowResult(row.name, row.mode, hit, None))
        else:
            raise ValueError(f"unknown row mode {row.mode!r}")
    return CertificationReport(all(r.ok for r in results), tuple(results),
                               len(colorings))


# ---------------------------------------------------------------------------
# The full reduction

@dataclass(frozen=True)
class ReductionOutput:
    graph: Graph
    formula: NaeFormula
    provenance: dict[int, tuple[str, int, str]]  # vertex -> (kind, index, role)
    port_edges: tuple[tuple[int, int], ...]
    variable_ports: tuple[tuple[int, ...], ...]  # per variable, 4 port vertices


def nae_reduce(phi: NaeFormula) -> ReductionOutput:
    """Replace each variable by the variable gadget and each clause by the
    clause gadget, wiring ports along the variable-clause incidences."""
    vg = variable_gadget()
    cg = clause_gadget()

    edges: list[tuple[int, int]] = []
    provenance: dict[int, tuple[str, int, str]] = {}
    blocks = [("variable", j, vg) for j in range(phi.num_vars)]
    blocks += [("clause", i, cg) for i in range(len(phi.clauses))]
    offsets = []
    n = 0
    for kind, index, spec in blocks:
        offsets.append(n)
        edges.extend((n + a, n + b) for a, b in spec.graph.edges())
        roles = {v: name for name, v in spec.ports.items()}
        for v in range(spec.graph.n):
            provenance[n + v] = (kind, index, roles.get(v, f"internal_{v}"))
        n += spec.graph.n
    var_offsets, clause_offsets = offsets[:phi.num_vars], offsets[phi.num_vars:]

    port_order = [vg.ports[name] for name in ("x_l", "x_k", "x_m", "x_n")]
    anchor_order = [cg.ports[name] for name in ("c_1", "c_2", "c_3")]
    next_port = [0] * phi.num_vars
    port_edges = []
    for i, cl in enumerate(phi.clauses):
        for t, x in enumerate(cl):
            p = var_offsets[x] + port_order[next_port[x]]
            next_port[x] += 1
            a = clause_offsets[i] + anchor_order[t]
            port_edges.append((min(p, a), max(p, a)))
            edges.append((p, a))
    if any(c != 4 for c in next_port):
        raise AssertionError("E4 invariant broken while wiring ports")

    g = Graph.from_edges(n, edges)
    var_ports = tuple(tuple(var_offsets[j] + p for p in port_order)
                      for j in range(phi.num_vars))
    max_degree = max(map(len, g.adjacency), default=0)
    d, _ = degeneracy(g)
    if max_degree > 3 or d > 2:
        raise AssertionError(
            f"reduction output out of class: max degree {max_degree}, "
            f"degeneracy {d}")
    return ReductionOutput(g, phi, provenance, tuple(port_edges), var_ports)


def extract_assignment(out: ReductionOutput, f: VertexColoring) -> tuple[bool, ...]:
    """Read the truth assignment off a graceful 4-coloring: variable true
    iff its gadget ports are colored 1 (reflection swaps all values, which
    NAE-satisfaction tolerates)."""
    ok, viol = is_graceful_coloring(out.graph, f)
    if not ok:
        raise ValueError(f"not a graceful coloring: {viol}")
    return _read_assignment(out, f)


def _read_assignment(out: ReductionOutput, f: VertexColoring) -> tuple[bool, ...]:
    """extract_assignment on a coloring already verified graceful."""
    assignment = []
    for j, ports in enumerate(out.variable_ports):
        vals = {f[p] for p in ports}
        if len(vals) != 1 or not vals <= {1, 4}:
            raise AssertionError(
                f"variable {j} ports colored {sorted(vals)}: gadget defect")
        assignment.append(vals.pop() == 1)
    bits = tuple(assignment)
    for i, cl in enumerate(out.formula.clauses):
        vals = {bits[x] for x in cl}
        if len(vals) != 2:
            raise AssertionError(f"clause {i} not NAE-satisfied: gadget defect")
    return bits


def check_nae_reduction(phi: NaeFormula,
                        budget: SearchBudget = SearchBudget()) -> ConsistencyResult:
    """Compare brute-force NAE satisfiability against graceful
    4-colorability of the reduced graph; UndecidedError, before any work,
    beyond the brute-force limit."""
    if phi.num_vars > _BRUTE_FORCE_MAX_VARS:
        raise UndecidedError(f"{phi.num_vars} variables: the brute-force NAE check "
                             f"is limited to {_BRUTE_FORCE_MAX_VARS}")
    sat = brute_force_nae(phi)
    out = nae_reduce(phi)
    dec = graceful_k_colorable(out.graph, 4, budget)
    if dec.status == "unknown":
        return ConsistencyResult("unknown", {"nae_satisfiable": sat is not None,
                                             "nodes": dec.nodes})
    colorable = dec.status == "yes"
    details = {"nae_satisfiable": sat is not None, "graceful_4": dec.status,
               "nodes": dec.nodes}
    if colorable != (sat is not None):
        return ConsistencyResult("counterexample", details)
    if colorable:
        details["assignment"] = list(_read_assignment(out, dec.coloring))
    return ConsistencyResult("consistent", details)
