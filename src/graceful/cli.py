"""Command-line entry point.

Results go to stdout as JSON (schema version 1); diagnostics go to stderr.
Exit codes: 0 for a decided answer, 2 when a search budget was exhausted
or the answer is otherwise undecided, 1 for input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from . import cnf, reductions, sequences, solve
from .coloring import VertexColoring, is_distance_two_coloring, is_graceful_coloring
from .graph import (GENERATORS, Graph, generate, parse_edge_list, parse_graph6,
                    write_graph6)

SCHEMA = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNKNOWN = 2

# wall-clock limit on `solve --external`; past it the answer is undecided
EXTERNAL_TIMEOUT_S = 600


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def read_graph(path: str) -> Graph:
    """Edge-list if the first line has two whitespace-separated fields,
    graph6 otherwise."""
    text = _read_text(path)
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    if len(first.split()) >= 2:
        return parse_edge_list(text)
    return parse_graph6(first)


def emit(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))


def _witness(coloring: VertexColoring | None):
    return list(coloring.colors) if coloring is not None else None


def _budget(args) -> solve.SearchBudget:
    return solve.SearchBudget(args.budget)


def cmd_an(args) -> int:
    if args.n > sequences.MAX_N:  # a valid n, only beyond the search's reach
        raise solve.UndecidedError(f"a(n) is computed only up to n={sequences.MAX_N}")
    value, witness = sequences.a_of_n(args.n)
    emit({"n": args.n, "a": value, "witness": list(witness.elements)})
    return EXIT_OK


def cmd_chromatic(args) -> int:
    number = (solve.graceful_chromatic_number if args.command == "chig"
              else solve.distance_two_chromatic_number)
    res = number(read_graph(args.graph), _budget(args))
    emit({"answer": res.status, "value": res.value,
          "witness": _witness(res.coloring), "nodes_searched": res.nodes})
    return EXIT_OK if res.status == "ok" else EXIT_UNKNOWN


def emit_decision(dec: solve.Decision, k: int) -> int:
    emit({"answer": dec.status, "k": k, "witness": _witness(dec.coloring),
          "nodes_searched": dec.nodes})
    return EXIT_OK if dec.status in ("yes", "no") else EXIT_UNKNOWN


def cmd_decide(args) -> int:
    g = read_graph(args.graph)
    fn = (solve.distance_two_k_colorable if args.distance_two
          else solve.graceful_k_colorable)
    return emit_decision(fn(g, args.k, _budget(args)), args.k)


def cmd_verify(args) -> int:
    g = read_graph(args.graph)
    colors = json.loads(_read_text(args.coloring))
    if not isinstance(colors, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in colors):
        raise ValueError("coloring file must be a JSON array of integers")
    f = VertexColoring(tuple(colors), max(colors, default=0))
    checker = (is_distance_two_coloring if args.check == "distance2"
               else is_graceful_coloring)
    ok, viol = checker(g, f)
    payload = {"answer": "valid" if ok else "invalid", "check": args.check}
    if viol is not None:
        payload["violation"] = {"kind": viol.kind, "u": viol.u, "v": viol.v,
                                "via": viol.via}
    emit(payload)
    return EXIT_OK


def cmd_bounds(args) -> int:
    g = read_graph(args.graph)
    lo, hi = solve.bounds(g, _budget(args))
    emit({"lower": lo, "upper": hi})
    return EXIT_OK


def cmd_gen(args) -> int:
    g = generate(args.kind, *args.params)
    emit({"graph6": write_graph6(g), "n": g.n, "m": g.m,
          "max_degree": max(map(len, g.adjacency), default=0)})
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.target == "construction1":
        g = read_graph(args.input)
        out = reductions.construction1(g, args.k)
        emit({"graph6": write_graph6(out), "n": out.n, "m": out.m,
              "k": args.k})
        return EXIT_OK
    phi = reductions.parse_nae(_read_text(args.input))
    out = reductions.nae_reduce(phi)
    payload = {
        "graph6": write_graph6(out.graph),
        "n": out.graph.n, "m": out.graph.m,
        "port_edges": [list(e) for e in out.port_edges],
        "provenance": {str(v): list(p) for v, p in sorted(out.provenance.items())},
    }
    if args.sidecar:
        with open(args.sidecar, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        payload = {k: v for k, v in payload.items() if k != "provenance"}
        payload["sidecar"] = args.sidecar
    emit(payload)
    return EXIT_OK


def cmd_gadget(args) -> int:
    spec = (reductions.variable_gadget() if args.which == "variable"
            else reductions.clause_gadget())
    report = reductions.verify_gadget(spec, _budget(args))
    emit({"gadget": args.which, "certified": report.certified,
          "colorings_enumerated": report.colorings_enumerated,
          "rows": [{"name": r.name, "mode": r.mode, "ok": r.ok,
                    "counterexample": list(r.counterexample) if r.counterexample else None}
                   for r in report.rows]})
    return EXIT_OK if report.certified else EXIT_INPUT


def cmd_check(args) -> int:
    if args.target == "nae":
        phi = reductions.parse_nae(_read_text(args.input))
        res = reductions.check_nae_reduction(phi, _budget(args))
    else:
        g = read_graph(args.input)
        res = reductions.check_construction1_guarantee(g, args.k, _budget(args))
    emit({"answer": res.status, **res.details})
    if res.status == "unknown":
        return EXIT_UNKNOWN
    return EXIT_OK if res.status == "consistent" else EXIT_INPUT


def cmd_encode(args) -> int:
    g = read_graph(args.graph)
    formula = cnf.encode_graceful(g, args.k)
    text = cnf.write_dimacs(formula)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        emit({"vars": formula.num_vars, "clauses": len(formula.clauses),
              "output": args.output})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_solve(args) -> int:
    g = read_graph(args.graph)
    formula = cnf.encode_graceful(g, args.k)
    if args.external:
        # the shell leads its own process group, so a timeout kills the
        # solver it started too, which would otherwise hold stdout open
        with subprocess.Popen(args.external, shell=True, start_new_session=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                stdout, _ = proc.communicate(cnf.write_dimacs(formula),
                                             timeout=EXTERNAL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:  # the whole group exited meanwhile
                    pass
                proc.communicate()
                raise solve.UndecidedError(
                    f"external solver timed out after {EXTERNAL_TIMEOUT_S} s") from None
        # SAT-competition exit codes: 10 with SATISFIABLE, 20 with
        # UNSATISFIABLE; any other nonzero code is a solver failure, and so
        # is output without a verdict or a model that is not a coloring
        code = proc.returncode
        try:
            status, model = cnf.parse_solver_output(stdout)
        except ValueError as exc:
            if code == 0:
                raise solve.UndecidedError(
                    f"external solver exited with code 0 but gave no verdict: {exc}") from None
            status = None
        if code != 0 and (code, status) not in ((10, "sat"), (20, "unsat")):
            raise solve.UndecidedError(f"external solver exited with code {code}")
        nodes = 0
    else:
        res = cnf.internal_sat(formula, _budget(args))
        status, model, nodes = res.status, res.model, res.nodes
    coloring = None
    if status == "sat":
        try:
            coloring = cnf.decode_model(formula, model)
        except ValueError as exc:
            if not args.external:
                raise
            raise solve.UndecidedError(f"external solver exited with code {code} but its "
                                       f"model is not a coloring: {exc}") from None
    answer = {"sat": "yes", "unsat": "no"}.get(status, "unknown")
    return emit_decision(solve.Decision(answer, coloring, nodes), args.k)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here means undecided."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="graceful")
    sub = top.add_subparsers(dest="command", required=True)
    inputs = {"graph": "graph file (graph6 or edge list), or -",
              "input": "graph or NAE formula file, or -"}

    def common(p, graph="graph", budget=True):
        if budget:
            p.add_argument("--budget", type=int, default=solve.DEFAULT_BUDGET,
                           help="search-node budget")
        if graph:
            p.add_argument(graph, help=inputs[graph])

    p = sub.add_parser("an", help="minimum span a(n) of an AP-free n-set")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_an)

    p = sub.add_parser("chig", help="graceful chromatic number")
    common(p)
    p.set_defaults(fn=cmd_chromatic)

    p = sub.add_parser("chi2", help="distance-two chromatic number")
    common(p)
    p.set_defaults(fn=cmd_chromatic)

    p = sub.add_parser("decide", help="graceful k-colorability decision")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--distance-two", action="store_true",
                   help="decide distance-two k-colorability instead")
    common(p)
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("verify", help="verify a coloring file against a graph")
    p.add_argument("--coloring", required=True,
                   help="JSON array of colors indexed by vertex")
    p.add_argument("--check", choices=("graceful", "distance2"), default="graceful")
    common(p, budget=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bounds", help="chi(G^2) <= chi_g(G) <= a(chi(G^2))")
    common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("gen", help="generate a named graph, print graph6")
    p.add_argument("kind", choices=tuple(GENERATORS))
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("reduce", help="run a reduction")
    p.add_argument("target", choices=("construction1", "nae"))
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--sidecar", help="write provenance JSON to this path")
    common(p, graph="input", budget=False)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("gadget", help="certify a reduction gadget")
    p.add_argument("action", choices=("verify",))
    p.add_argument("which", choices=("variable", "clause"))
    common(p, graph=None)
    p.set_defaults(fn=cmd_gadget)

    p = sub.add_parser("check", help="machine-check a reduction guarantee")
    p.add_argument("target", choices=("nae", "construction1"))
    p.add_argument("--k", type=int, default=5)
    common(p, graph="input")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("encode", help="emit DIMACS CNF for graceful k-coloring")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--output")
    common(p, budget=False)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("solve", help="decide via the CNF route")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--external", help="external SAT solver command (reads DIMACS on stdin)")
    common(p)
    p.set_defaults(fn=cmd_solve)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except solve.UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
