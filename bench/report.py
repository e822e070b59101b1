"""Run every workload untraced and then traced, each in a fresh process, and
print every metric by name with its unit, the tracing overhead, failures by
exception class, and whether the exact counts repeat between the two runs.

    python3 bench/report.py [--seed N] [--seconds S]

S defaults to run_seconds of BENCHMARK.json.

Exits 1 if a run fails or the exact counts differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("nae-reduce", "chromatic", "cnf-crosscheck")
RUN_TIMEOUT_S = 300


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace} failed with exit {proc.returncode}:\n{proc.stderr}")
    report = BENCH / ".work" / f"report-{workload}-s{seed}-t{trace}.json"
    return json.loads(report.read_text())


def show(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    lines = None
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        tally = plain["tally"]
        print(f"== {workload}: seed {args.seed}, {tally['attempted']} operations "
              f"in {tally['passes']} passes, one closed-loop client")
        print("end to end (untraced run)")
        show(plain["metrics"])
        layer = traced["metrics"]
        print(f"  op_tail_s is p{layer['op_tail_pct'][0]} over "
              f"{layer['op_samples'][0]} operations (median time of each)")
        failures = {k: v for k, v in tally.items() if k.startswith("failed.")}
        print(f"  failures by class: {failures or 'none'}")
        print("per layer (traced run; seconds and counts per pass)")
        show(layer)
        overhead = 1 - layer["bench.traced_ops_per_s"][0] / plain["metrics"]["ops_per_s"][0]
        print(f"  tracing overhead: traced ops_per_s is {overhead:.1%} below untraced "
              "(the runs differ by machine noise too)")
        same = plain["exact_counts"] == traced["exact_counts"]
        print(f"  exact counts repeat across the two runs: {'yes' if same else 'NO'}")
        if not same:
            status = 1
        lines = plain["src_lines"]
    print("== src/graceful line counts (information only)")
    for name, count in lines.items():
        print(f"  {name:<16} {count}")
    return status


if __name__ == "__main__":
    sys.exit(main())
