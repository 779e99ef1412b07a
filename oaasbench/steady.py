#!/usr/bin/env python3
"""Steadiness and determinism checks for the OaaS benchmark.

Run from the repository root:

    python3 oaasbench/steady.py --workload json_batch --runs 10
    python3 oaasbench/steady.py --workload iot_twin --determinism

The first form runs the workload N times, each with another seed, and
prints each end-to-end metric's median and quartiles; it flags every
metric whose quartile spread, as a share of the median, exceeds the
bound in BENCHMARK.json, and a failed share that differs between runs. The second form checks that the counts (allocations, DB
writes, commits, retries, faults) repeat exactly for one seed and that
allocations change for another.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts that must repeat exactly for one seed: (metric, --trace value
# that reports it). The first must also move with the seed; the others
# may be constant by construction (one commit per operation, or no
# retries outside cluster_chaos).
EXACT_COUNTS = [
    ("allocs_per_op", 0),
    ("db_writes_per_1k_updates", 0),
    ("metrics.commits_per_op", 1),
    ("retry.retries_per_op", 1),
    ("chaos.faults_per_op", 1),
]


def run(workload, seed, seconds, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"incorrect outputs: {' '.join(cmd)}\n{proc.stderr[-2000:]}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def steadiness(args):
    runs = [
        run(args.workload, args.seed + i, args.seconds, 0) for i in range(args.runs)
    ]
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, "
          f"failed shares {sorted(shares)}")
    flagged = []
    print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, s = spread(values)
        flag = ""
        if s > bound:
            flag = "  EXCEEDS BOUND"
            flagged.append(name)
        elif s > bound / 3:
            flag = "  above a third of its bound"
        print(f"  {name:<26} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {s:>8.4f} {bound:>6}{flag}")
    if len(shares) != 1:
        flagged.append("failed share")
    return flagged


def determinism(args):
    flagged = []
    for trace in (0, 1):
        names = [n for n, t in EXACT_COUNTS if t == trace]
        a = run(args.workload, args.seed, args.seconds, trace)["metrics"]
        b = run(args.workload, args.seed, args.seconds, trace)["metrics"]
        c = run(args.workload, args.seed + 1, args.seconds, trace)["metrics"]
        for n in names:
            same = a[n]["value"] == b[n]["value"]
            moved = a[n]["value"] != c[n]["value"]
            must_move = n == EXACT_COUNTS[0][0]
            print(f"  {n:<26} seed {args.seed}: {a[n]['value']} / {b[n]['value']}"
                  f"  seed {args.seed + 1}: {c[n]['value']}"
                  f"  {'repeats' if same else 'DIFFERS'}"
                  f"{'' if moved or not must_move else ', UNCHANGED BY THE SEED'}")
            if not same or (must_move and not moved):
                flagged.append(n)
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--determinism", action="store_true",
                    help="check that the counts repeat exactly for one seed")
    args = ap.parse_args()
    flagged = determinism(args) if args.determinism else steadiness(args)
    if flagged:
        sys.exit(f"flagged: {', '.join(flagged)}")


if __name__ == "__main__":
    main()
