"""mzweak benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; ``src/`` is put on the
path, nothing needs installing. The workload runs in a fresh worker process
with BLAS/OpenMP pinned to one thread. ``setup_s`` comes from fresh
interpreters that import mzweak and build the workload's ExperimentConfig.

``--trace 0`` prints the end-to-end metrics (setup_s, run_s, peak_rss_mb),
``--trace 1`` the per-layer metrics of a traced run. Each call also prints
failed_frac and writes a result file, with the machine and environment,
under ``perfbench/out/``. The last line of stdout is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine(seed: int, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "versions": versions,
        "thread_env": THREAD_ENV,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="headline, calibration or sweep")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", help="full, or tiny for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "mzweak" / "__init__.py").is_file():
        print(f"error: no mzweak sources under {SRC}", file=sys.stderr)
        return 2

    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--scale", args.scale, "--out", str(OUT)],
        env=child_env(), capture_output=True, text=True, timeout=TIME_LIMIT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = report["setup"]
    setup_s = statistics.median(a + b for a, b in setup)

    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and attempted > 0 and bool(report["run_s"])
    if args.trace:
        values = dict(report.get("per_layer", {}))
        values["cli.import_s"] = statistics.median(a for a, _ in setup)
        values["config.from_dict_s"] = statistics.median(b for _, b in setup)
        units = {n: layer_unit(n) for n in values}
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": report["peak_rss_mb"]}
        if report["run_s"]:  # empty when every unit raised
            values["run_s"] = statistics.median(report["run_s"])
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "machine": machine(args.seed, report["versions"]),
        "config": report["config"],
        "run_s_samples": report["run_s"],
        "traced_run_s_samples": report["traced_run_s"],
        "setup_samples": setup,
        "failed_frac": failed / max(attempted, 1),
        "failures": report["failures"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )

    for failure in report["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(report['run_s'])} traced_units={len(report['traced_run_s'])}")
    print(f"  failed_frac = {result['failed_frac']!r}  ({failed} of {attempted} checks)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
