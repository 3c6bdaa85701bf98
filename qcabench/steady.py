#!/usr/bin/env python3
"""Steadiness check for the qcabench benchmark.

Runs each workload several times, each with its own seed, and prints per
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread ``(q3 - q1) / median`` against the metric's bound in
BENCHMARK.json. Every run's failed operations are counted too.

Run from the repository root:

    python3 qcabench/steady.py                      # 10 runs per workload
    python3 qcabench/steady.py --runs 5 --workload adapt-sched
    python3 qcabench/steady.py --runs 3 --first-seed 1000 --trace

``--trace`` makes traced runs instead and prints the per-layer medians.
Exit status 1 when a run was not correct, when the share of failed
operations differs between runs of a workload (a failure that depends on
the seed), or (untraced) when a spread exceeds its bound. A share that is
the same in every run is a known fault exercised on purpose (see
README.md) and is only reported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--trace", action="store_true")
    opts = p.parse_args()
    command = bench["command"]
    declared = bench["per_layer"] if opts.trace else bench["end_to_end"]
    ok = True
    for workload in opts.workload or names:
        results = []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            r = run_once(command, workload, seed, opts.seconds, opts.trace)
            results.append(r)
            share = r["failed"] / r["attempted"]
            print(f"{workload} seed={seed} correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} ({share:.4%})", flush=True)
            ok &= r["correct"]
        shares = {(r["failed"], r["attempted"]) for r in results}
        shares = {f / a for f, a in shares}
        if len(shares) > 1:
            print(f"{workload}: the failed share differs between runs: {sorted(shares)}")
            ok = False
        print(f"\n{workload}: {opts.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':30s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if len(values) < 2:
                print(f"  {m['name']:30s} {values[0]:14.6g} {m['unit']}")
                continue
            med, q1, q3, s = spread(values)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if s <= bound / 3:
                    verdict = "ok"
                elif s <= bound:
                    verdict = "within bound"
                else:
                    verdict = "OVER BOUND"
                    ok = False
            bound_text = f"{bound:6.2f}" if bound is not None else "      "
            print(f"  {m['name']:30s} {med:14.6g} {q1:14.6g} {q3:14.6g} {s:8.3f} {bound_text} {verdict}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
