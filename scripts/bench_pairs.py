#!/usr/bin/env python3
"""Benchmark a parent checkout against this working tree in alternating pairs.

    python3 scripts/bench_pairs.py --parent ../parent --workload calibration \
        --seed 3 --pairs 10 --seconds 20 --out BENCH_N.json

Each pair runs ``perfbench/run.py --trace 0`` once in the parent checkout and
once in this working tree, one after the other; the parent goes first in
even pairs (0, 2, ...) and second in odd ones, so a slow phase of a shared
machine does not always land on the same side. Several workloads may be
named; each gets its own pairs. The output holds, per workload and side, the
median, first and third quartile (numpy linear percentiles) and the runs of
each end-to-end metric, the failed and attempted checks summed over the
runs, and per metric the number of pairs in which this tree read lower and
a verdict (``verdict``) against the metric's bound in BENCHMARK.json.
A run that reports nothing stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
METRICS = ("run_s", "setup_s", "peak_rss_mb")


def run_once(checkout: Path, args, workload: str) -> dict:
    """The last stdout line of one perfbench run, as a dict."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--scale", args.scale],
        capture_output=True, text=True, timeout=args.seconds + 200,
    )
    try:  # a run whose checks failed exits 1 but still reports
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}\n{proc.stdout}{proc.stderr}") from None


def value(result: dict, name: str) -> float:
    """One metric of one run; run_s, missing when every unit raised, reads as infinity."""
    return result["metrics"].get(name, {}).get("value", math.inf)


def verdict(parent: list, change: list, bound: float) -> str:
    """The claim verdict of one lower-is-better metric from its paired runs.

    ``gain``: the change reads lower in at least 9 of 10 pairs (ties count
    for neither side) and the medians differ by more than the parent's
    interquartile range. ``regression``: the change's median exceeds the
    parent's by more than ``bound`` of it. ``unresolved``: the parent's
    interquartile range exceeds ``bound`` of its median and not every change
    run reads lower than every parent run. ``no change`` otherwise.
    """
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    change_median = np.median(change)
    lower = sum(c < p for p, c in zip(parent, change))
    if lower >= 0.9 * len(parent) and median - change_median > q3 - q1:
        return "gain"
    if change_median > (1 + bound) * median:
        return "regression"
    if q3 - q1 > bound * median and not max(change) < min(parent):
        return "unresolved"
    return "no change"


def summarize(results: list) -> dict:
    side = {}
    for name in METRICS:
        runs = [round(value(r, name), 4) for r in results]
        q1, median, q3 = (round(float(v), 4) for v in np.percentile(runs, [25, 50, 75]))
        side[name] = {"median": median, "q1": q1, "q3": q3, "runs": runs}
    side["failed"] = sum(r["failed"] for r in results)
    side["attempted"] = sum(r["attempted"] for r in results)
    return side


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="full", help="full, or tiny for a smoke test")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = {}
    for workload in args.workload:
        results = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                try:
                    results[side].append(run_once(checkouts[side], args, workload))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
            print(f"{workload} pair {pair}: "
                  + "  ".join(f"{side} run_s={value(results[side][-1], 'run_s'):.4f}" for side in SIDES), flush=True)
        entry = {"pairs": args.pairs, **{side: summarize(results[side]) for side in SIDES}}
        runs = {side: {name: [value(r, name) for r in results[side]] for name in METRICS} for side in SIDES}
        entry["change_lower"] = {
            name: sum(c < p for p, c in zip(runs["parent"][name], runs["change"][name])) for name in METRICS
        }
        entry["verdict"] = {name: verdict(runs["parent"][name], runs["change"][name], bounds[name]) for name in METRICS}
        workloads[workload] = entry

    report = {
        "change": args.change,
        "method": f"perfbench/run.py --trace 0 --seconds {args.seconds:g}, alternating parent/change pairs, "
                  "the first side alternating from pair to pair (parent first in even pairs); "
                  "quartiles are numpy linear percentiles over the runs",
        "seconds": args.seconds,
        "seed": [args.seed],
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": np.__version__},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
