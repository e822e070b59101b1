"""The benchmark's workloads: seeded corpora of operations with known answers.

An operation is the work of one `graceful` CLI command, done in-process
through the public functions that command calls, and its result is the JSON
payload that command prints.  Every call into the library goes through
`Recorder.call` under the name `<module>.<function>`, which is how layers
are timed from outside.  Each operation also has a check against a known
answer, which runs outside the timed region, and some carry argument lists
for a cross-check through a real `python -m graceful.cli` process.

Why these workloads:
  nae-reduce      the paper's NP-hard regime: graceful 4-colorability of
                  252-vertex reduced NAE-3SAT-E4 instances, where the
                  solver's per-node selection rescan dominates.
  chromatic       many small chi_g / a(n) / bounds commands with a heavy
                  tail; both search engines, exhaustive 'no' proofs over k,
                  and the only workload where `sequences` carries weight.
  cnf-crosscheck  the cubic k=5 case on the CNF route: the DPLL solver
                  dominates, and the native solver must agree with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from graceful import cnf, reductions, sequences, solve
from graceful.coloring import VertexColoring, is_graceful_coloring
from graceful.graph import (Graph, SplitMix64, complete_graph, cubic_graph,
                            gnp_graph, parse_graph6, write_edge_list,
                            write_graph6)
from graceful.solve import SearchBudget

from naegen import nae_holds, nae_satisfiable, random_e4_formula
from spans import Recorder

# a(1)..a(14) of OEIS A065825, written out by hand as the known answers.
A065825 = (1, 2, 4, 5, 9, 11, 13, 14, 20, 24, 26, 30, 32, 36)

# Node budgets.  A budget-exhausted search costs budget x per-node time, so
# low budgets on the seeded graphs cap the heavy tail of search costs, which
# otherwise makes the figures of one seed differ widely from the next.  K_q
# gets enough budget to decide up to q = 7, the known answers of A065825.
NAE_BUDGET = 1_500
CHIG_BUDGET = 2_000
KQ_BUDGET = 50_000
CNF_BUDGET = 2_000

# Corpus sizes.  The median and p90 operation times are order statistics of
# the corpus, so the corpora are large (a few hundred operations where they
# are cheap) to keep them from moving with the seed, and weighted so that
# the median falls inside one dense band of costs rather than in the gap
# between two: in cnf-crosscheck most graphs run at k=5 only, since k=6 is
# an order of magnitude cheaper.  One pass over a corpus takes 25-35 s on a
# 2-core x86 VM, so a 35 s run makes one pass.
NAE_FORMULAS = 46
CHROM_CUBIC_N = tuple(range(20, 61, 4))
CHROM_CUBIC_PER_N = 24
CHROM_GNP_N = tuple(range(20, 41))
CHROM_GNP_PER_N = 2
CNF_CUBIC = {12: 48, 14: 48, 16: 26, 18: 16}  # n -> graphs, all at k=5
CNF_K6_EVERY = 5                                 # and every 5th also at k=6


class WrongVerdict(Exception):
    """A result contradicts its known answer."""


@dataclass
class Op:
    name: str
    run: Callable[[Recorder], tuple[dict, bool]]  # (CLI payload, decided)
    check: Callable[[dict], None]                 # raises WrongVerdict
    cli: list = field(default_factory=list)       # [(argv, payload -> expected subset)]
    cross_check: bool = False                     # also run `cli` through a subprocess


@dataclass
class Workload:
    ops: list[Op]
    files: dict[str, str]  # input file name -> text


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _witness(f: VertexColoring | None):
    return list(f.colors) if f is not None else None


def _verify(rec: Recorder, g: Graph, f: VertexColoring) -> None:
    ok, viol = rec.call("coloring.is_graceful_coloring", is_graceful_coloring, g, f)
    rec.add("coloring.witnesses_checked")
    if not ok:
        raise WrongVerdict(f"witness fails verification: {viol}")


def _searched(rec: Recorder, unknown: bool, nodes: int) -> None:
    rec.add("solve.nodes", nodes)
    rec.add("solve.unknown", int(unknown))


def _parse(rec: Recorder, path: str) -> Graph:
    return rec.call("graph.parse_graph6", parse_graph6, _read(path).strip())


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongVerdict(message)


def _chi2(g: Graph) -> int:
    res = solve.distance_two_chromatic_number(g)
    _require(res.status == "ok", "chi(G^2) undecided under the default budget")
    return res.value


def _same(p: dict) -> dict:
    return p


def _ap_free(xs) -> bool:
    s = set(xs)
    return not any((x + z) % 2 == 0 and (x + z) // 2 in s
                   for i, x in enumerate(xs) for z in xs[i + 1:])


# ---------------------------------------------------------------------------
# Operations, one per CLI command

def chig_op(name: str, path: str, g: Graph, budget: int, known: int | None = None) -> Op:
    """`graceful chig --budget B G`."""
    def run(rec):
        h = _parse(rec, path)
        res = rec.call("solve.graceful_chromatic_number",
                       solve.graceful_chromatic_number, h, SearchBudget(budget))
        _searched(rec, res.status != "ok", res.nodes)
        if res.coloring is not None:
            _verify(rec, h, res.coloring)
        return ({"answer": res.status, "value": res.value,
                 "witness": _witness(res.coloring), "nodes_searched": res.nodes},
                res.status == "ok")

    def check(p):
        if p["answer"] != "ok":
            return
        if known is not None:
            _require(p["value"] == known, f"{name}: chi_g {p['value']} != {known}")
        lo = _chi2(g)
        _require(lo <= p["value"] <= A065825[lo - 1],
                 f"{name}: chi_g {p['value']} outside [{lo}, a({lo})]")
    return Op(f"chig {name}", run, check,
              [(["chig", "--budget", str(budget), path], _same)])


def an_op(q: int) -> Op:
    """`graceful an q`."""
    def run(rec):
        value, wit = rec.call("sequences.a_of_n", sequences.a_of_n, q)
        rec.add("sequences.calls")
        return {"n": q, "a": value, "witness": list(wit.elements)}, True

    def check(p):
        w = p["witness"]
        _require(p["a"] == A065825[q - 1], f"a({q}) = {p['a']} != {A065825[q - 1]}")
        _require(len(w) == q and w == sorted(set(w)) and w[0] == 1 and w[-1] == p["a"]
                 and _ap_free(w), f"a({q}) witness {w} is not an optimal AP-free set")
    return Op(f"an {q}", run, check, [(["an", str(q)], _same)])


def bounds_op(name: str, path: str, g: Graph) -> Op:
    """`graceful bounds G`."""
    def run(rec):
        lo, hi = rec.call("solve.bounds", solve.bounds, _parse(rec, path))
        return {"lower": lo, "upper": hi}, True

    def check(p):
        lo = _chi2(g)
        _require((p["lower"], p["upper"]) == (lo, A065825[lo - 1]),
                 f"bounds {name}: {p} != ({lo}, a({lo}))")
    return Op(f"bounds {name}", run, check, [(["bounds", path], _same)])


def nae_op(name: str, path: str, phi: reductions.NaeFormula, budget: int) -> Op:
    """`graceful check nae --budget B phi`, with the truth table as known
    answer instead of the library's brute force."""
    satisfiable = nae_satisfiable(phi)

    def run(rec):
        f = rec.call("reductions.parse_nae", reductions.parse_nae, _read(path))
        out = rec.call("reductions.nae_reduce", reductions.nae_reduce, f)
        rec.add("reductions.vertices", out.graph.n)
        dec = rec.call("solve.graceful_k_colorable", solve.graceful_k_colorable,
                       out.graph, 4, SearchBudget(budget))
        _searched(rec, dec.status == "unknown", dec.nodes)
        assignment = None
        if dec.yes:
            _verify(rec, out.graph, dec.coloring)
            assignment = list(rec.call("reductions.extract_assignment",
                                       reductions.extract_assignment, out, dec.coloring))
        return ({"graceful_4": dec.status, "nodes": dec.nodes,
                 "assignment": assignment, "witness": _witness(dec.coloring)},
                dec.status != "unknown")

    def check(p):
        if p["graceful_4"] == "unknown":
            return
        _require((p["graceful_4"] == "yes") == satisfiable,
                 f"{name}: graceful_4 {p['graceful_4']} but NAE satisfiable={satisfiable}")
        if p["assignment"] is not None:
            _require(nae_holds(phi.clauses, p["assignment"]),
                     f"{name}: extracted assignment does not NAE-satisfy the formula")

    def cli_expect(p):
        if p["graceful_4"] == "unknown":
            return {"answer": "unknown", "nae_satisfiable": satisfiable, "nodes": p["nodes"]}
        return {"answer": "consistent", "nae_satisfiable": satisfiable,
                "graceful_4": p["graceful_4"], "nodes": p["nodes"]}
    return Op(f"check nae {name}", run, check,
              [(["check", "nae", "--budget", str(budget), path], cli_expect)])


def gadget_op(which: str) -> Op:
    """`graceful gadget verify which`: exhaustive enumeration of every
    graceful 4-coloring of the gadget."""
    make = getattr(reductions, f"{which}_gadget")

    def run(rec):
        spec = rec.call(f"reductions.{which}_gadget", make)
        report = rec.call("reductions.verify_gadget", reductions.verify_gadget, spec,
                          SearchBudget(solve.DEFAULT_BUDGET))
        rec.add("reductions.gadget_colorings", report.colorings_enumerated)
        rows = [{"name": r.name, "mode": r.mode, "ok": r.ok,
                 "counterexample": list(r.counterexample) if r.counterexample else None}
                for r in report.rows]
        return ({"gadget": which, "certified": report.certified,
                 "colorings_enumerated": report.colorings_enumerated, "rows": rows}, True)

    def check(p):
        _require(p["certified"], f"{which} gadget not certified")
    return Op(f"gadget verify {which}", run, check,
              [(["gadget", "verify", which], _same)])


def cross_op(name: str, path: str, k: int, budget: int, known: bool | None = None) -> Op:
    """`graceful solve --k K G` (encode, internal DPLL, decode) and
    `graceful decide --k K G` (native search); the verdicts must agree."""
    def run(rec):
        g = _parse(rec, path)
        formula = rec.call("cnf.encode_graceful", cnf.encode_graceful, g, k)
        rec.add("cnf.clauses", len(formula.clauses))
        sat = rec.call("cnf.internal_sat", cnf.internal_sat, formula, SearchBudget(budget))
        rec.add("cnf.sat_nodes", sat.nodes)
        rec.add("cnf.unknown", int(sat.status == "unknown"))
        if sat.status == "sat":
            f = rec.call("cnf.decode_model", cnf.decode_model, formula, sat.model)
            _verify(rec, g, f)
            via_cnf = {"answer": "yes", "k": k, "witness": list(f.colors),
                       "nodes_searched": sat.nodes}
        elif sat.status == "unsat":
            via_cnf = {"answer": "no", "k": k, "witness": None, "nodes_searched": sat.nodes}
        else:
            via_cnf = {"answer": "unknown", "k": k, "nodes_searched": sat.nodes}
        dec = rec.call("solve.graceful_k_colorable", solve.graceful_k_colorable,
                       g, k, SearchBudget(budget))
        _searched(rec, dec.status == "unknown", dec.nodes)
        if dec.yes:
            _verify(rec, g, dec.coloring)
        native = {"answer": dec.status, "k": k, "witness": _witness(dec.coloring),
                  "nodes_searched": dec.nodes}
        return ({"solve": via_cnf, "decide": native},
                "unknown" not in (via_cnf["answer"], dec.status))

    def check(p):
        a, b = p["solve"]["answer"], p["decide"]["answer"]
        if "unknown" in (a, b):
            return
        _require(a == b, f"{name} k={k}: DPLL says {a}, native solver says {b}")
        if known is not None:
            _require((a == "yes") == known, f"{name} k={k}: {a} contradicts a(q)")
    args = ["--k", str(k), "--budget", str(budget), path]
    return Op(f"solve+decide {name} k={k}", run, check,
              [(["solve"] + args, lambda p: p["solve"]),
               (["decide"] + args, lambda p: p["decide"])])


# ---------------------------------------------------------------------------
# Corpora

class _Corpus:
    """Collects generated inputs; `graph` generation is timed as set-up."""

    def __init__(self, seed: int, workdir: str, rec: Recorder):
        self.rng = SplitMix64(seed)
        self.workdir = workdir
        self.rec = rec
        self.files: dict[str, str] = {}

    def shuffled(self, ops: list[Op]) -> list[Op]:
        """The operations in a seeded random order, so that a slow spell of a
        shared machine falls on every kind and size of operation alike."""
        self.rng.shuffle(ops)
        return ops

    def seed(self) -> int:
        return self.rng.next_u64()

    def add(self, fname: str, text: str) -> str:
        self.files[fname] = text
        return f"{self.workdir}/{fname}"

    def graph(self, fname: str, fn, *args) -> tuple[str, Graph]:
        g = self.rec.call(f"graph.{fn.__name__}", fn, *args)
        return self.add(fname, self.rec.call("graph.write_graph6", write_graph6, g) + "\n"), g


def _nae_reduce(c: _Corpus) -> list[Op]:
    gadgets = [gadget_op("variable"), gadget_op("clause")]
    formulas = [("e4-3", reductions.smallest_e4_instance())]
    formulas += [(f"e4-6-{i}", random_e4_formula(6, c.seed())) for i in range(NAE_FORMULAS)]
    checks = [nae_op(name, c.add(f"{name}.nae", reductions.write_nae(phi)), phi, NAE_BUDGET)
              for name, phi in formulas]
    # reduced graphs exceed graph6's 62 vertices, so the CLI gets an edge list
    reduced = c.add("e4-3-reduced.txt",
                    write_edge_list(reductions.nae_reduce(formulas[0][1]).graph))
    checks[0].cli.append((["decide", "--k", "4", "--budget", str(NAE_BUDGET), reduced],
                          lambda p: {"answer": p["graceful_4"], "k": 4,
                                     "witness": p["witness"], "nodes_searched": p["nodes"]}))
    for op in (gadgets[1], checks[0]):
        op.cross_check = True
    return gadgets + checks


def _chromatic(c: _Corpus) -> list[Op]:
    cubic, gnp = [], []
    for n in CHROM_CUBIC_N:
        for i in range(CHROM_CUBIC_PER_N):
            name = f"cubic-n{n}-{i}"
            cubic.append((name, *c.graph(f"{name}.g6", cubic_graph, n, c.seed())))
    for n in CHROM_GNP_N:
        for i in range(CHROM_GNP_PER_N):
            name = f"gnp-n{n}-{i}"
            gnp.append((name, *c.graph(f"{name}.g6", gnp_graph, n, 3 / (n - 1), c.seed())))
    chig = [chig_op(name, path, g, CHIG_BUDGET) for name, path, g in cubic + gnp]
    complete = [chig_op(f"K{q}", *c.graph(f"K{q}.g6", complete_graph, q), KQ_BUDGET,
                        known=A065825[q - 1]) for q in range(5, 9)]
    an = [an_op(q) for q in range(9, 15)]
    # chi(G^2) of a cubic graph can take minutes to prove, and `bounds` has no
    # budget short of failing, so it runs on the G(n,p) graphs only
    bounds = [bounds_op(name, path, g) for name, path, g in gnp[::3]]
    for op in (chig[0], complete[0], an[3], bounds[0]):
        op.cross_check = True
    return c.shuffled(chig + complete + an + bounds)


def _cnf_crosscheck(c: _Corpus) -> list[Op]:
    ops = []
    for n, count in CNF_CUBIC.items():
        for i in range(count):
            name = f"cubic-n{n}-{i}"
            path, _ = c.graph(f"{name}.g6", cubic_graph, n, c.seed())
            ks = (5, 6) if i % CNF_K6_EVERY == 0 else (5,)
            ops += [cross_op(name, path, k, CNF_BUDGET) for k in ks]
    for q in (5, 6):
        path, _ = c.graph(f"K{q}.g6", complete_graph, q)
        a = A065825[q - 1]
        ops += [cross_op(f"K{q}", path, k, KQ_BUDGET, known=k >= a) for k in (a - 1, a)]
    for op in (ops[0], ops[-1]):
        op.cross_check = True
    return c.shuffled(ops)


CORPORA = {"nae-reduce": _nae_reduce, "chromatic": _chromatic,
            "cnf-crosscheck": _cnf_crosscheck}


def build(name: str, seed: int, workdir: str, rec: Recorder) -> Workload:
    """The corpus of workload `name` for `seed`, with input files to be
    written under workdir.  Deterministic in (name, seed)."""
    corpus = _Corpus(seed, workdir, rec)
    ops = CORPORA[name](corpus)
    return Workload(ops, corpus.files)
