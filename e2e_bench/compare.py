#!/usr/bin/env python3
"""Steadiness tool for the end-to-end benchmark.

Collect a set of runs (one run.py call per workload and seed):

    python3 e2e_bench/compare.py collect --out runs_a --seeds 1-10
    python3 e2e_bench/compare.py collect --out runs_b --seeds 11-20 \\
        --workloads table1_sum,ingest_1w2r --trace 0

Report one set, or compare two sets of runs of the same code:

    python3 e2e_bench/compare.py report runs_a [runs_b]

For every (workload, metric) the report prints each set's median and
quartiles (statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) /
median. It flags an end-to-end metric whose spread exceeds its bound from
BENCHMARK.json ("SPREAD"), or a third of it ("wide": the margin the
benchmark aims for), and any metric whose runs split into two separated
clusters ("BISTABLE", e.g. a batch-fusion share jumping between runs). With
two sets it says whether the second median is within the bound of the first
in the metric's worse direction ("agree" / "WORSE"). Exit status 1 when any
end-to-end metric spreads past its bound or disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-layer metrics have no bound; a relative gap this large between two
# clusters of runs is reported as bistable.
LAYER_TOLERANCE = 0.10


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        metrics.setdefault(m["name"], m)
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec, _ = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    failed = False
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, check=False)
            wall = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                failed = True
                continue
            result = json.loads(lines[-1])
            notes = next((json.loads(l[len("notes "):]) for l in lines
                          if l.startswith("notes ")), {})
            record = {"workload": workload, "seed": seed,
                      "trace": args.trace == "1", "wall_s": wall,
                      "notes": notes, "result": result}
            name = f"{workload}-seed{seed}-trace{args.trace}.json"
            with open(os.path.join(args.out, name), "w") as f:
                json.dump(record, f)
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  f"correct={result['correct']}", file=sys.stderr)
            failed |= not result["correct"]
    return 1 if failed else 0


def load_runs(directory):
    """{(workload, trace): [result, ...]} from a collect directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            record = json.load(f)
        key = (record["workload"], record["trace"])
        runs.setdefault(key, []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def bistable(values, tolerance):
    """Two clusters of at least two runs each, separated by a gap wider
    than both clusters and than `tolerance` of the median's magnitude."""
    s = sorted(values)
    if len(s) < 4:
        return False
    gap, cut = max((s[i + 1] - s[i], i + 1) for i in range(len(s) - 1))
    low, high = s[:cut], s[cut:]
    if len(low) < 2 or len(high) < 2:
        return False
    scale = max(abs(statistics.median(s)), abs(s[-1]), 1e-12)
    return (gap > tolerance * scale and gap > low[-1] - low[0]
            and gap > high[-1] - high[0])


def worse_by(first, second, better):
    """Relative change from `first` to `second` in the worse direction."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def report(args):
    _, metrics = load_benchmark()
    sets = [load_runs(d) for d in args.dirs]
    problems = 0
    for key in sorted(sets[0]):
        workload, trace = key
        runs = [s.get(key, []) for s in sets]
        print(f"\n{workload} (trace={int(trace)}): "
              + ", ".join(f"{len(r)} runs" for r in runs))
        walls = [r["wall_s"] for r in runs[0]]
        print(f"  wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for i, rs in enumerate(runs):
            steal = [r.get("notes", {}).get("steal_frac", 0) for r in rs]
            print(f"  set {i + 1} steal (host CPU taken by other guests): "
                  f"median {statistics.median(steal):.1%}, "
                  f"max {max(steal):.1%}")
        if any(not r["result"]["correct"] or r["result"]["failed"]
               for rs in runs for r in rs):
            print("  INCORRECT or FAILED runs present")
            problems += 1
        names = list(runs[0][0]["result"]["metrics"])
        for name in names:
            spec = metrics.get(name, {})
            bound = spec.get("bound")
            cells, flags = [], []
            medians = []
            for rs in runs:
                values = [r["result"]["metrics"][name]["value"] for r in rs]
                q1, median, q3 = quartiles(values)
                medians.append(median)
                sp = spread(values)
                cells.append(f"{median:12.6g} [{q1:.6g}, {q3:.6g}] "
                             f"spread {sp:7.2%}")
                if bound is not None:
                    if sp > bound:
                        flags.append("SPREAD")
                        problems += 1
                    elif sp > bound / 3:
                        flags.append("wide")
                if bistable(values, bound if bound else LAYER_TOLERANCE):
                    flags.append("BISTABLE")
            if len(runs) == 2 and bound is not None:
                w = worse_by(medians[0], medians[1], spec["better"])
                if w > bound:
                    flags.append(f"WORSE {w:+.2%}")
                    problems += 1
                else:
                    flags.append(f"agree {w:+.2%}")
            bound_text = f"bound {bound:.0%}" if bound is not None else ""
            print(f"  {name:28s} " + " | ".join(cells)
                  + f"  {bound_text} {' '.join(flags)}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    c.add_argument("--workloads", help="comma list (default: all)")
    c.add_argument("--trace", default="0", choices=("0", "1"))
    c.add_argument("--seconds", type=int,
                   help="window length (default: BENCHMARK.json run_seconds)")
    r = sub.add_parser("report", help="summarize one set or compare two")
    r.add_argument("dirs", nargs="+", metavar="DIR")
    args = parser.parse_args()
    if args.command == "report" and len(args.dirs) > 2:
        parser.error("report takes one or two directories")
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
