"""The benchmark's workloads, driven through mzweak's public API only.

A workload is built from a seed and a scale. Its ``run`` does one complete
unit of work and is what the benchmark times; its ``check`` then verifies
that unit's outputs, untimed, and returns a digest of them together with the
outcome of each correctness check. Every unit of one run repeats the same
inputs, so every unit, traced or not, must give the same digest.

Why these three:
- ``headline`` is the paper's chain as users run it (``simulate`` then
  ``analyze``). Most of it is bootstrap RNG construction and the batched
  profile fit.
- ``calibration`` is the acquisition and systematics path. It draws from
  many per-cell RNG streams and makes hundreds of single-profile fits, but
  it calls no bootstrap. It writes files as well as reading them.
- ``sweep`` covers dense theta x g x sigma grids of state calculus, pointer
  moments and rate profiles. It has no RNG and no fit, so it is the workload
  on which changes to those two layers must show no effect.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from mzweak import analysis, cli, detection, pointer, quantum
from mzweak.config import ExperimentConfig

SCALES = ("full", "tiny")


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _state(theta, g_x, g_y, sigma):
    """Post-selected pointer state: path coupler on arm A, diagonal on arm B."""
    couplers = [pointer.CouplerSpec("spatial", "A", g_y), pointer.CouplerSpec("diagonal", "B", g_x)]
    return pointer.evolve_and_postselect(
        quantum.pre_state(), couplers, quantum.post_state(theta), sigma=sigma
    )


class Headline:
    """``mzweak simulate`` then ``mzweak analyze`` in a fresh directory.

    At full scale this is the default config exactly as a user runs it."""

    TINY = {"scan": {"repeats": 4}, "analysis": {"n_bootstrap": 200}, "drift": {"n_profiles": 20}}

    def __init__(self, seed, scale, workdir):
        self.workdir = workdir
        raw = {} if scale == "full" else self.TINY
        self.config = dict(raw, seed=seed)
        self.argv = ["--seed", str(seed), "--quiet"]
        if scale != "full":
            path = workdir / "headline_config.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            self.argv += ["--config", str(path)]
        self.n_bootstrap = ExperimentConfig.from_dict(self.config).analysis["n_bootstrap"]

    def run(self):
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        argv = self.argv + ["--out", str(out)]
        codes = (cli.main(argv + ["simulate"]), cli.main(argv + ["analyze"]))
        return out, codes

    def check(self, handle):
        out, codes = handle
        try:
            checks = [("simulate exits 0", codes[0] == 0), ("analyze exits 0", codes[1] == 0)]
            if codes != (0, 0):
                return _digest_files(out.iterdir()), checks
            summary = analysis.load_summary(out / "summary.json")
            checks.append(("summary.json loads", True))
            values = []
            for axis, res in sorted(summary["results"].items()):
                err = math.sqrt(res["stat_sigma"] ** 2 + res["sys_band"] ** 2)
                checks.append((f"{axis}: |w - 1| <= 3 sigma", abs(res["weak_value_mean"] - 1.0) <= 3.0 * err))
                checks.append((f"{axis}: n_samples >= 0.99 n_bootstrap", res["n_samples"] >= 0.99 * self.n_bootstrap))
                values += [res["weak_value_mean"], res["stat_sigma"], res["sys_band"]]
            values += _csv_numbers(out / "centers.csv", (0, 2, 3))
            values += _csv_numbers(out / "weak_values.csv", (1, 2))
            checks.append(("every output value finite", bool(np.all(np.isfinite(values)))))
            return _digest_files(out.iterdir()), checks
        finally:
            shutil.rmtree(out)


def _csv_numbers(path, columns):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [float(row.split(",")[c]) for row in fh for c in columns]


class Calibration:
    """Many-repeat scans with a CSV round trip, long drift runs with the
    systematic band on both axes, and the heralded-source g2."""

    FULL = {"scan": {"repeats": 48, "reference_repeats": 48},
            "drift": {"n_profiles": 250}, "source": {"n_windows": 2_000_000}}
    TINY = {"scan": {"repeats": 2, "reference_repeats": 2},
            "drift": {"n_profiles": 12}, "source": {"n_windows": 100_000}}

    def __init__(self, seed, scale, workdir):
        self.workdir = workdir
        self.config = dict(self.FULL if scale == "full" else self.TINY, seed=seed)

    def run(self):
        cfg = ExperimentConfig.from_dict(self.config)
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        states = {t: _state(t, cfg.g_x, cfg.g_y, cfg.sigma) for t in cfg.theta_list}
        round_trips = []
        for theta, state in states.items():
            scan = cfg.scan_config(theta)
            for axis in ("x", "y"):
                record = detection.simulate_scan(state, scan, axis, cfg.scan_drift_model(axis), cfg.seed)
                path = out / f"scan_theta{theta:g}_{axis}.csv"
                record.save_csv(path)
                round_trips.append((record, detection.ScanRecord.load_csv(path)))
        bands = {}
        for axis in ("x", "y"):
            scale = pointer.centroid_exact(states[90.0], axis) - pointer.centroid_exact(states[45.0], axis)
            drift = detection.simulate_drift_run(
                cfg.drift_scan_config(), cfg.drift_model(axis), cfg.drift["n_profiles"], cfg.seed,
                axis=axis, sigma=cfg.sigma,
            )
            bands[axis] = analysis.systematic_band(drift, scale)
        counts = detection.simulate_heralded_counts(cfg.source_model(), cfg.seed)
        return out, round_trips, bands, counts, detection.g2_statistic(counts)

    def check(self, handle):
        out, round_trips, bands, counts, g2 = handle
        try:
            checks = []
            for saved, loaded in round_trips:
                same = (
                    loaded.theta == saved.theta
                    and loaded.axis == saved.axis
                    and loaded.seed == saved.seed
                    and np.array_equal(loaded.positions, saved.positions)
                    and np.array_equal(loaded.counts, saved.counts)
                )
                checks.append((f"csv round trip theta={saved.theta:g} {saved.axis}", same))
            for axis, band in sorted(bands.items()):
                checks.append((f"{axis}: sys band finite and > 0", math.isfinite(band) and band > 0))
            checks.append(("g2 in [0, 1)", 0.0 <= g2 < 1.0))
            h = hashlib.sha256(_digest_files(out.iterdir()).encode())
            h.update(repr((sorted(bands.items()), counts, g2)).encode())
            return h.hexdigest(), checks
        finally:
            shutil.rmtree(out)


class Sweep:
    """Dense theta x g x sigma grid: state calculus, evolution, both exact
    centroids, an 801-point marginal and the fiber rate profile per point.

    The grid is drawn from the seed. It always holds the 45 and 90 degree
    references and keeps theta in [-10, 60] degrees, well clear of the
    orthogonal post-selection at 67.5 degrees."""

    FULL = (14, 12, 5)
    TINY = (2, 2, 2)
    GRID = np.linspace(-3000.0, 3000.0, 801)

    def __init__(self, seed, scale, workdir):
        n_theta, n_g, n_sigma = self.FULL if scale == "full" else self.TINY
        gen = np.random.default_rng(seed)
        self.thetas = np.concatenate([[45.0, 90.0], gen.uniform(-10.0, 60.0, n_theta)])
        self.gs = np.exp(gen.uniform(0.0, math.log(475.0), n_g))
        self.sigmas = gen.uniform(300.0, 600.0, n_sigma)
        self.config = {"seed": seed}
        self.x_b = quantum.observable("diagonal", "B")
        self.y_a = quantum.observable("spatial", "A")

    def run(self):
        scan = ExperimentConfig.from_dict(self.config).scan_config(0.0)
        rows, intensities = [], []
        for theta in self.thetas:
            for g in self.gs:
                for sigma in self.sigmas:
                    pp = quantum.pair(theta)
                    w_x = quantum.weak_value(self.x_b, pp)
                    w_y = quantum.weak_value(self.y_a, pp)
                    p_a = quantum.abl_conditional(self.y_a, 1.0, pp)
                    _, cond = quantum.joint_disturbing_distribution(pp)
                    state = _state(theta, g, g, sigma)
                    c_x = pointer.centroid_exact(state, "x")
                    c_y = pointer.centroid_exact(state, "y")
                    intensities.append(pointer.marginal_intensity(state, "x", self.GRID))
                    rate = detection.expected_rate(state, "x", scan.positions, scan)
                    rows.append((theta, g, sigma, w_x, w_y, p_a, cond.probability("A"), c_x, c_y, rate.sum()))
        return rows, intensities

    def check(self, handle):
        rows, intensities = handle
        checks = []
        for theta, g, sigma, w_x, w_y, *_, c_x, c_y, _ in rows:
            if theta == 45.0:
                checks.append(("weak value 0 at 45 deg", abs(w_x) <= 1e-12 and abs(w_y) <= 1e-12))
            if theta == 90.0:
                checks.append(("weak value 1 at 90 deg", abs(w_x - 1) <= 1e-12 and abs(w_y - 1) <= 1e-12))
            if g / sigma <= 0.05:
                for c, w in ((c_x, w_x), (c_y, w_y)):
                    first = pointer.first_order_shift(w, g)
                    # 1e-9 g absorbs the rounding of a zero shift
                    checks.append(("centroid within 1% of first order", abs(c - first) <= 0.01 * abs(first) + 1e-9 * g))
        table = np.array([[float(np.real(v)) for v in row] for row in rows])
        stacked = np.stack(intensities)
        checks.append(("every output value finite", bool(np.all(np.isfinite(table)) and np.all(np.isfinite(stacked)))))
        h = hashlib.sha256(table.tobytes())
        h.update(stacked.tobytes())
        return h.hexdigest(), checks


WORKLOADS = {"headline": Headline, "calibration": Calibration, "sweep": Sweep}
