"""The end-to-end scripts and ``python -m mzweak``, run as a user runs them, in a fresh interpreter."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )


def run_script(name, out, tmp_path):
    return run_python([str(ROOT / "scripts" / name), str(out)], tmp_path)


def test_python_m_mzweak(tmp_path):
    # ``python -m mzweak`` is the one entry point through the package root
    out = tmp_path / "runs"
    proc = run_python(["-m", "mzweak", "--quiet", "--out", str(out), "weakvalue"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (out / "weakvalues.json").is_file()


def test_run_headline_script(tmp_path):
    out = tmp_path / "headline"
    proc = run_script("run_headline.py", out, tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = {p.name for p in out.iterdir()}
    scans = {f"scan_theta{t}_{axis}.csv" for t in (0, 45, 90) for axis in "xy"}
    assert names == scans | {"centers.csv", "weak_values.csv", "summary.json"}
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["results"]) == {"x", "y"}
    for axis in "xy":
        assert f"  {axis}: w = " in proc.stdout


def test_weak_to_strong_script(tmp_path):
    out = tmp_path / "transition"
    proc = run_script("weak_to_strong.py", out, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out.iterdir()} == {"weak_to_strong.csv", "destructive_profile.csv"}
    with open(out / "weak_to_strong.csv", encoding="utf-8") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    assert len(rows) == 13
    weak = rows[0]
    assert abs(weak["g_over_sigma"] - 0.02) < 1e-12
    for axis in "xy":
        first = weak[f"first_order_{axis}_um"]
        assert abs(weak[f"centroid_{axis}_um"] - first) <= 0.01 * abs(first)
    # arm A blocked: opposite-sign branches at +/-g, an exact null at u = 0 in an even profile
    with open(out / "destructive_profile.csv", encoding="utf-8") as fh:
        profile = [(float(row["position_um"]), float(row["intensity"])) for row in csv.DictReader(fh)]
    assert len(profile) == 801
    u, intensity = zip(*profile)
    assert u[400] == 0.0 and intensity[400] < 1e-25
    assert u == tuple(-v for v in reversed(u))
    assert all(abs(a - b) <= 1e-20 for a, b in zip(intensity, reversed(intensity)))


def test_bench_pairs_script(tmp_path):
    # one tiny pair, this checkout against itself, in the BENCH_*.json layout
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", str(ROOT), "--workload", "sweep",
         "--seed", "1", "--pairs", "1", "--seconds", "0.1", "--scale", "tiny", "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    entry = report["workloads"]["sweep"]
    assert entry["pairs"] == 1
    for side in ("parent", "change"):
        assert entry[side]["failed"] == 0 and entry[side]["attempted"] > 0
        for name in ("setup_s", "run_s", "peak_rss_mb"):
            m = entry[side][name]
            assert len(m["runs"]) == 1 and m["q1"] == m["median"] == m["q3"] == m["runs"][0]
    assert set(entry["change_lower"]) == {"setup_s", "run_s", "peak_rss_mb"}
    assert set(entry["verdict"]) == {"setup_s", "run_s", "peak_rss_mb"}
    assert set(entry["verdict"].values()) <= {"gain", "regression", "unresolved", "no change"}


def bench_pairs_module():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # median 1.0, IQR 0.035


@pytest.mark.parametrize("change, bound, expected", [
    ([v - 0.1 for v in PARENT], 0.25, "gain"),
    # lower in 8 of 10 pairs only
    ([v - 0.1 for v in PARENT[:8]] + [v + 0.01 for v in PARENT[8:]], 0.25, "no change"),
    # lower in every pair, but by less than the parent's IQR
    ([v - 0.01 for v in PARENT], 0.25, "no change"),
    # a tie counts for neither side
    ([v - 0.1 for v in PARENT[:9]] + PARENT[9:], 0.25, "gain"),
    ([v * 1.3 for v in PARENT], 0.25, "regression"),
    ([v * 1.2 for v in PARENT], 0.25, "no change"),
    # the parent's spread is wider than the bound: only a clean split resolves it
    ([v + 0.01 for v in PARENT], 0.02, "unresolved"),
    ([0.966] * 10, 0.02, "no change"),
])
def test_bench_pairs_verdict(change, bound, expected):
    assert bench_pairs_module().verdict(PARENT, change, bound) == expected
