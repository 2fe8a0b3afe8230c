#!/usr/bin/env python3
"""Steadiness check for the e2ebench benchmark.

Runs each workload of BENCHMARK.json several times, each run with its own
seed, and prints every metric's median, quartiles and spread (the distance
between the first and third quartile as a share of the median) next to the
metric's bound. A spread under a third of the bound is "steady"; under the
bound, "within"; otherwise "NOISY".

Run from the repository root:

    python3 e2ebench/steadiness.py                      # 10 seeds, every workload
    python3 e2ebench/steadiness.py --runs 5 --workloads serve-mixed
    python3 e2ebench/steadiness.py --save a.json        # keep the raw results
    python3 e2ebench/steadiness.py --compare a.json     # medians vs an earlier set

Exits 1 when a run fails, prints a wrong result or misses a declared
metric, when a spread exceeds its bound, or (with --compare) when a median
is worse than the earlier set's by more than the bound. Exits 2 on a
workload that BENCHMARK.json does not declare.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"incorrect result (failed={result.get('failed')})")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"missing metric {metric['name']}")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']} unit {got['unit']} != {metric['unit']}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return result, problems


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--save", help="write the raw results to this JSON file")
    parser.add_argument("--compare", help="earlier --save file to compare medians with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        unknown = set(args.workloads.split(",")) - set(names)
        if unknown:
            parser.error(f"unknown workloads {sorted(unknown)}; BENCHMARK.json has {names}")
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}

    ok = True
    raw = {}
    for workload in names:
        runs = []
        for i in range(args.runs):
            result, problems = run_once(spec, workload, args.seed_base + i, args.trace)
            for p in problems:
                print(f"{workload} seed {args.seed_base + i}: {p}")
                ok = False
            runs.append(result["metrics"])
        raw[workload] = runs
        print(f"\n== {workload}: {args.runs} runs, seeds {args.seed_base}..{args.seed_base + args.runs - 1}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            values = [r[m["name"]]["value"] for r in runs if m["name"] in r]
            if len(values) < 2:
                continue
            median, q1, q3, spread = summarize(values)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if spread < bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within"
                else:
                    verdict, ok = "NOISY", False
                before = earlier.get(workload)
                if before:
                    old = statistics.median(r[m["name"]]["value"] for r in before)
                    worse = (median - old) / old if m["better"] == "lower" else (old - median) / old
                    verdict += f"  vs earlier {worse:+.1%}"
                    if worse > bound:
                        verdict += " WORSE"
                        ok = False
            print(f"{m['name']:34} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.1%} "
                  f"{'' if bound is None else bound:>6}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
