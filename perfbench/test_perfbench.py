"""Self-test of the benchmark: every workload at tiny size, traced and not.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracer import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
REPEATED_COUNTS = ("rng.streams", "detection.scan_cells", "analysis.fit_calls", "pointer.pairs")


def bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = bench(workload, 0)
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    for result in (first, second):
        assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert result["correct"] and result["failed"] == 0
    for name in REPEATED_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if workload == "sweep":
        assert first["metrics"]["rng.streams"]["value"] == 0


def test_self_time_excludes_children():
    mod = types.ModuleType("fake")
    mod.inner = lambda: sum(range(10_000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    tracer = Tracer()
    tracer.wrap(mod, "inner", "fake.inner")
    tracer.wrap(mod, "outer", "other.outer", lambda c, a, k, r: c.update(outer=len(r)))
    mod.outer()
    tracer.restore()
    totals = tracer.totals()
    outer, inner = totals["other.outer"], totals["fake.inner"]
    assert (outer["calls"], inner["calls"], tracer.counts["outer"]) == (1, 3, 3)
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)
    assert inner["entry_calls"] == 3 and inner["self_s"] == pytest.approx(inner["total_s"])
    assert mod.inner.__name__ == "<lambda>" and not hasattr(mod.inner, "__wrapped__")
