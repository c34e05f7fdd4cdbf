"""One workload in one fresh process: time its units, check their outputs.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and ``src/`` on
the path. Untraced, it repeats the unit until ``--seconds`` have passed. With
``--trace 1`` it alternates untraced and traced units over the same time, so
the tracing overhead is the difference of the two medians.

Set-up is timed in fresh interpreters started from here, spread evenly over
the same time window: the speed of a shared machine drifts over tens of
seconds, and probes taken in one burst would all land in one phase of it.
The last line on stdout is a JSON report for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import layers
import mzweak
from tracer import Tracer
from workloads import SCALES, WORKLOADS

# Timed set-up starts per run; one more start before them warms the
# byte-code and file caches and is not counted.
SETUP_STARTS = {"full": 7, "tiny": 1}

PROBE = r"""
import json, sys, time
t0 = time.perf_counter()
import mzweak, mzweak.cli
t1 = time.perf_counter()
from mzweak.config import ExperimentConfig
ExperimentConfig.from_dict(json.loads(sys.argv[1]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "from_dict_s": t2 - t1, "file": mzweak.__file__}))
"""


def setup_probe(config: dict) -> tuple:
    """(import_s, from_dict_s) of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(config)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(probe["file"]).resolve() != Path(mzweak.__file__).resolve():
        raise RuntimeError(f"set-up imported {probe['file']}, the worker {mzweak.__file__}")
    return probe["import_s"], probe["from_dict_s"]


def run_unit(workload, traced):
    """Run and check one unit; returns (seconds, digest, checks, layer metrics, tracer)."""
    tracer = None
    if traced:
        tracer = Tracer()
        layers.install(tracer)
    gc.collect()  # every unit starts from the same collector state
    try:
        t0 = perf_counter()
        if tracer is None:
            handle = workload.run()
        else:
            with tracer.span("bench.unit"):
                handle = workload.run()
        seconds = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    digest, checks = workload.check(handle)
    return seconds, digest, checks, layers.metrics(tracer) if tracer else None, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=SCALES, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    failures = []
    samples = {False: [], True: []}
    setup = []
    per_layer = []
    first_digest = None
    last_tracer = None
    n_setup = SETUP_STARTS[args.scale]
    modes = (False, True) if args.trace else (False,)
    with tempfile.TemporaryDirectory(dir=args.out) as tmp:
        workload = WORKLOADS[args.workload](args.seed, args.scale, Path(tmp))
        setup_probe(workload.config)
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            units_done = bool(samples[modes[-1]]) and elapsed >= args.seconds
            if len(setup) < n_setup and (units_done or elapsed >= len(setup) * args.seconds / n_setup):
                setup.append(setup_probe(workload.config))
                continue
            if units_done or (failed and not samples[modes[-1]]):
                break
            for traced in modes:
                try:
                    seconds, digest, checks, metrics, tracer = run_unit(workload, traced)
                except Exception:
                    attempted += 1
                    failed += 1
                    failures.append(traceback.format_exc(limit=3))
                    break
                samples[traced].append(seconds)
                if first_digest is None:
                    first_digest = digest
                checks.append(("outputs byte-identical to the first unit", digest == first_digest))
                if metrics is not None:
                    if per_layer:
                        same = all(metrics[k] == per_layer[0][k] for k in layers.COUNT_METRICS)
                        checks.append(("traced counts identical to the first traced unit", same))
                    per_layer.append(metrics)
                    last_tracer = tracer
                attempted += len(checks)
                bad = [name for name, ok in checks if not ok]
                failed += len(bad)
                failures += bad

    if last_tracer is not None:
        spans_path = args.out / f"{args.workload}-seed{args.seed}.spans.json"
        spans_path.write_text(json.dumps(last_tracer.records()), encoding="utf-8")

    report = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "run_s": samples[False],
        "traced_run_s": samples[True],
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config": workload.config,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mzweak": mzweak.__version__,
        },
    }
    if per_layer:
        # counts repeat exactly (checked above); times vary, so take medians
        report["per_layer"] = {
            name: statistics.median(m[name] for m in per_layer) if name.endswith("_s") else value
            for name, value in per_layer[0].items()
        }
        report["per_layer"]["trace.overhead_s"] = (
            statistics.median(samples[True]) - statistics.median(samples[False])
        )
        report["per_layer"]["trace.spans"] = len(last_tracer.names)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
