"""Benchmark of the `graceful` toolkit: one closed-loop client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's corpus from the seed (set-up), writes its input files,
then runs whole passes over the corpus, one operation at a time, as many as
end within S seconds (at least one; a corpus is sized for about one pass).
Every operation starts with the a(n) memo empty, as a fresh `graceful` CLI
process does.  Every verdict is checked against a known answer outside the
timed region, every later pass must repeat the first pass's results
exactly, and a few operations are repeated through a real
`python -m graceful.cli` process whose JSON must match.  A wrong verdict
exits 1.

The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics (spans around the benchmark's calls into
each module) with --trace 1.  Layer times and counts are per pass of the
corpus; set-up and the CLI cross-checks happen once per run.  A report of
the run, with everything measured, goes to bench/.work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 5
CLI_TIMEOUT_S = 120
TAIL_BEYOND = 10  # the tail percentile keeps at least this many operations beyond it
TAIL_MAX_PCT = 90  # and is at most p90: higher order statistics move with the seed
NODE_REPORTING = ("solve.graceful_k_colorable", "solve.graceful_chromatic_number")


def import_library():
    """Import `graceful` from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import graceful
    if Path(graceful.__file__).resolve().parent != SRC / "graceful":
        raise ImportError(f"graceful imported from {graceful.__file__}, not {SRC}")


def cold_start(sequences) -> None:
    """Empty the library's a(n) memo, as a fresh CLI process has it."""
    cache = getattr(sequences, "_cache", None)
    for table in (vars(cache).values() if cache is not None else ()):
        if isinstance(table, dict):
            table.clear()
    for obj in vars(sequences).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def percentile(xs, p: float) -> float:
    xs = sorted(xs)
    pos = p / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup(workload: str, seed: int, workdir: Path, rec):
    import workloads
    wl = workloads.build(workload, seed, str(workdir), rec)
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, text in wl.files.items():
        (workdir / fname).write_text(text)
    return wl


def time_setups(workload: str, seed: int) -> float:
    """Median wall time from spawning a fresh interpreter to the corpus
    written: interpreter start, `import graceful`, generation, writing."""
    samples = []
    for i in range(SETUP_REPEATS):
        workdir = WORK / f"setup-{workload}-s{seed}-p{os.getpid()}-{i}"
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, __file__, "--workload", workload,
                                 "--seed", str(seed), "--setup-only", str(workdir)])
        # Popen.wait(timeout) polls in steps of up to 50 ms; a blocking wait
        # with a kill timer keeps the measurement exact
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        code = proc.wait()
        samples.append(time.perf_counter() - start)
        timer.cancel()
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
        shutil.rmtree(workdir)
    return statistics.median(samples)


def run_passes(wl, rec, seconds: float, sequences, WrongVerdict):
    """Whole passes, as many as end within `seconds` (at least one);
    returns per-op times, the first pass's outcomes and the tallies."""
    times = [[] for _ in wl.ops]
    first = [None] * len(wl.ops)
    tally = Counter()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(wl.ops):
            cold_start(sequences)
            t0 = rec.begin_op(i)
            failure, payload, decided = None, None, False
            try:
                payload, decided = op.run(rec)
            except WrongVerdict:
                raise
            except Exception as exc:  # a library failure is counted, never hidden
                failure = type(exc).__name__
            times[i].append(rec.end_op(f"bench.{op.name.split()[0]}", t0))
            tally["attempted"] += 1
            tally["decided"] += decided
            if failure:
                tally["failed"] += 1
                tally[f"failed.{failure}"] += 1
            outcome = (failure, payload, dict(rec.counts))
            if first[i] is None:
                first[i] = outcome
            elif outcome != first[i]:
                raise WrongVerdict(f"{op.name}: result differs from the first pass")
        tally["passes"] += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    return times, first, tally


def cross_check_cli(wl, first, rec, WrongVerdict) -> list:
    """Repeat the marked operations through `python -m graceful.cli`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    invoke = partial(subprocess.run, capture_output=True, text=True,
                     timeout=CLI_TIMEOUT_S, env=env)
    done = []
    for op, (failure, payload, _) in zip(wl.ops, first):
        if not op.cross_check or failure:
            continue
        for argv, expect in op.cli:
            proc = rec.call(f"cli.{argv[0]}", invoke,
                            [sys.executable, "-m", "graceful.cli", *argv])
            want = expect(payload)
            got = json.loads(proc.stdout) if proc.returncode in (0, 2) else {}
            code = 2 if want.get("answer") == "unknown" else 0
            diff = sorted(k for k, v in want.items() if got.get(k) != v)
            if proc.returncode != code or diff:
                raise WrongVerdict(f"graceful {' '.join(argv[:3])}: exit {proc.returncode}, "
                                   f"differs from in-process result in {diff}: {proc.stderr}")
            done.append(" ".join(argv))
    return done


def end_to_end(times, tally, n_ops, setup_s):
    per_op = [statistics.median(ts) for ts in times]
    tail_pct = min(TAIL_MAX_PCT, math.floor(100 * (n_ops - TAIL_BEYOND) / n_ops))
    total = sum(map(sum, times))
    metrics = {
        "ops_per_s": (tally["attempted"] / total, "1/s"),
        "op_p50_s": (percentile(per_op, 50), "s"),
        "op_tail_s": (percentile(per_op, tail_pct), "s"),
        "decided_share": (tally["decided"] / tally["attempted"], "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    return metrics, tail_pct


def per_layer(rec, counts, tally, n_ops, tail_pct, ops_per_s):
    from spans import layer_times
    lt = layer_times(rec.spans)
    passes = tally["passes"]

    def secs(key, scope=None):
        t = lt.get(key, {"in_op": 0.0, "outside": 0.0})
        if scope is None:
            return t["in_op"] / passes + t["outside"]
        return t[scope] / passes if scope == "in_op" else t[scope]

    def rate(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("graph", "sequences", "coloring", "solve", "cnf", "reductions"):
        m[f"{layer}.busy_s"] = (secs(f"{layer}.busy"), "s")
        m[f"{layer}.self_s"] = (secs(f"{layer}.self"), "s")
    node_s = sum(secs(name) for name in NODE_REPORTING)
    m.update({
        "graph.gen_s": (secs("graph.busy", "outside"), "s"),
        "graph.parse_s": (secs("graph.parse_graph6", "in_op"), "s"),
        "solve.nodes": (counts["solve.nodes"], "count"),
        "solve.nodes_per_s": (rate(counts["solve.nodes"], node_s), "1/s"),
        "solve.unknown": (counts["solve.unknown"], "count"),
        "cnf.encode_s": (secs("cnf.encode_graceful"), "s"),
        "cnf.clauses": (counts["cnf.clauses"], "count"),
        "cnf.sat_s": (secs("cnf.internal_sat"), "s"),
        "cnf.sat_nodes": (counts["cnf.sat_nodes"], "count"),
        "cnf.sat_nodes_per_s": (rate(counts["cnf.sat_nodes"], secs("cnf.internal_sat")), "1/s"),
        "cnf.unknown": (counts["cnf.unknown"], "count"),
        "sequences.calls": (counts["sequences.calls"], "count"),
        "reductions.vertices": (counts["reductions.vertices"], "count"),
        "reductions.gadget_colorings": (counts["reductions.gadget_colorings"], "count"),
        "coloring.witnesses_checked": (counts["coloring.witnesses_checked"], "count"),
        "cli.invoke_s": (secs("cli.busy", "outside"), "s"),
        "cli.self_s": (secs("cli.self", "outside"), "s"),
        "cli.invocations": (counts["cli.invocations"], "count"),
        "bench.self_s": (secs("bench.self", "in_op"), "s"),
        "bench.traced_ops_per_s": (ops_per_s, "1/s"),
        "failed_share": (tally["failed"] / tally["attempted"], "share"),
        "decided_ops": (counts["decided"], "count"),
        "op_samples": (n_ops, "count"),
        "op_tail_pct": (tail_pct, "%"),
        "passes": (passes, "count"),
    })
    return m


def line_counts() -> dict[str, int]:
    return {p.name: len(p.read_text().splitlines())
            for p in sorted((SRC / "graceful").glob("*.py"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("nae-reduce", "chromatic", "cnf-crosscheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        import_library()
        from graceful import sequences
    except ImportError as exc:
        print(f"error: cannot import graceful from {SRC}: {exc}", file=sys.stderr)
        return 1
    from spans import Recorder
    from workloads import WrongVerdict
    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only), Recorder(False))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    traced = bool(args.trace)
    setup_s = None if traced else time_setups(args.workload, args.seed)
    rec = Recorder(traced)
    workdir = WORK / f"inputs-{tag}-p{os.getpid()}"
    wl = setup(args.workload, args.seed, workdir, rec)
    tally = Counter()
    try:
        times, first, tally = run_passes(wl, rec, args.seconds, sequences, WrongVerdict)
        for op, (failure, payload, _) in zip(wl.ops, first):
            if failure is None:
                op.check(payload)
        cli_done = cross_check_cli(wl, first, rec, WrongVerdict)
    except WrongVerdict as exc:
        print(f"error: wrong verdict: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, tally["attempted"]),
                          "failed": tally["failed"], "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = Counter()
    for failure, payload, op_counts in first:
        counts.update(op_counts)
    counts["decided"] = tally["decided"] // tally["passes"]
    counts["cli.invocations"] = len(cli_done)
    n_ops = len(wl.ops)
    metrics, tail_pct = end_to_end(times, tally, n_ops, setup_s)
    if traced:
        metrics = per_layer(rec, counts, tally, n_ops, tail_pct, metrics["ops_per_s"][0])
        rec.dump(WORK / f"spans-{tag}.jsonl")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "metrics": metrics, "exact_counts": dict(counts),
        "tally": dict(tally), "cli_cross_checks": cli_done, "src_lines": line_counts(),
        "ops": [{"name": op.name, "median_s": statistics.median(ts), "failure": f}
                for op, ts, (f, _, _) in zip(wl.ops, times, first)],
    }
    (WORK / f"report-{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    listed = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics {missing} not measured", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": tally["attempted"], "failed": tally["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
