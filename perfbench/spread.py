"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload headline --seeds 1 2 3 4 5

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; it is the
figure to hold below each end-to-end metric's bound in BENCHMARK.json.
Runs are sequential, so they never compete with each other for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(benchmark["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=200,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: failed\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        if name in bounds:
            print(f"{name}: median {median:.6g}  spread {spread:.4f}  bound {bounds[name]}")
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "metrics": summary}, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
