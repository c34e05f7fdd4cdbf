"""Which mzweak attributes the traced run wraps, and the per-layer metrics.

Every wrapped name is an attribute that some caller resolves at call time:
``analysis.bootstrap_centers`` resolves ``rng.stream`` through the ``rng``
module, ``analysis.systematic_band`` resolves ``fit_gaussian`` through the
``analysis`` module globals, and ``detection`` resolves its own imported
``windowed_intensity``. Wrapping the attribute therefore sees the calls the
program makes, not only the benchmark's own.
"""

from __future__ import annotations

import inspect
import os
from collections import Counter

from mzweak import analysis, detection, pointer, quantum, rng

QUANTUM_FUNCTIONS = (
    "pre_state",
    "post_state",
    "pair",
    "observable",
    "weak_value",
    "abl_conditional",
    "joint_disturbing_distribution",
)
MOMENT_SPANS = ("pointer.centroid_exact", "pointer.marginal_intensity", "pointer.windowed_intensity")
EXPORT_FILES = ("centers.csv", "weak_values.csv", "summary.json")

# Exact counts: two traced runs of the same seed must agree on every one.
COUNT_METRICS = (
    "rng.streams",
    "analysis.bootstrap_draws",
    "analysis.fit_calls",
    "analysis.fit_iters_max",
    "analysis.export_bytes",
    "detection.scan_cells",
    "detection.drift_profiles",
    "detection.g2_windows",
    "detection.csv_bytes",
    "quantum.calls",
    "pointer.evolve_calls",
    "pointer.moment_calls",
    "pointer.pairs",
)


def label_pairs(state) -> int:
    """Label-matched branch pairs a moment sum over ``state`` visits."""
    return sum(n * n for n in Counter(b.label for b in state.branches).values())


def _bound_arg(func, args, kwargs, name):
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_bootstrap(counts, args, kwargs, result):
    n = _bound_arg(analysis.bootstrap_centers, args, kwargs, "n_bootstrap")
    counts["analysis.bootstrap_draws"] += n
    counts["analysis.fits_attempted"] += n
    counts["analysis.fits_converged"] += result.centers.size


def _count_fit(counts, args, kwargs, result):
    counts["analysis.fits_attempted"] += 1
    counts["analysis.fits_converged"] += int(result.converged)
    counts["analysis.fit_iters"] += result.n_iterations
    counts["analysis.fit_iters_max"] = max(counts["analysis.fit_iters_max"], result.n_iterations)


def _count_export(counts, args, kwargs, result):
    out_dir = _bound_arg(analysis.export_results, args, kwargs, "out_dir")
    counts["analysis.export_bytes"] += sum(os.path.getsize(os.path.join(out_dir, f)) for f in EXPORT_FILES)


def _count_scan(counts, args, kwargs, result):
    counts["detection.scan_cells"] += result.counts.size


def _count_drift(counts, args, kwargs, result):
    counts["detection.drift_profiles"] += len(result)


def _count_g2(counts, args, kwargs, result):
    source = _bound_arg(detection.simulate_heralded_counts, args, kwargs, "source")
    counts["detection.g2_windows"] += source.n_windows


def _count_csv(counts, args, kwargs, result):
    counts["detection.csv_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _count_pairs(counts, args, kwargs, result):
    counts["pointer.pairs"] += label_pairs(args[0] if args else kwargs["state"])


def install(tracer) -> None:
    """Wrap every traced attribute; ``tracer.restore()`` undoes it."""
    tracer.wrap(rng, "stream", "rng.stream")
    for name in QUANTUM_FUNCTIONS:
        tracer.wrap(quantum, name, f"quantum.{name}")
    tracer.wrap(pointer, "evolve_and_postselect", "pointer.evolve_and_postselect")
    tracer.wrap(pointer, "centroid_exact", "pointer.centroid_exact", _count_pairs)
    tracer.wrap(pointer, "marginal_intensity", "pointer.marginal_intensity", _count_pairs)
    tracer.wrap(pointer, "windowed_intensity", "pointer.windowed_intensity", _count_pairs)
    tracer.wrap(detection, "windowed_intensity", "pointer.windowed_intensity", _count_pairs)
    tracer.wrap(detection, "expected_rate", "detection.expected_rate")
    tracer.wrap(detection, "simulate_scan", "detection.simulate_scan", _count_scan)
    tracer.wrap(detection, "simulate_drift_run", "detection.simulate_drift_run", _count_drift)
    tracer.wrap(detection, "simulate_heralded_counts", "detection.simulate_heralded_counts", _count_g2)
    tracer.wrap(detection, "g2_statistic", "detection.g2_statistic")
    tracer.wrap(detection.ScanRecord, "save_csv", "detection.save_csv", _count_csv)
    tracer.wrap(detection.ScanRecord, "load_csv", "detection.load_csv")
    tracer.wrap(analysis, "bootstrap_centers", "analysis.bootstrap_centers", _count_bootstrap)
    tracer.wrap(analysis, "fit_gaussian", "analysis.fit_gaussian", _count_fit)
    tracer.wrap(analysis, "systematic_band", "analysis.systematic_band")
    tracer.wrap(analysis, "export_results", "analysis.export_results", _count_export)


def metrics(tracer) -> dict:
    """Per-layer values of one traced unit, by metric name."""
    t = tracer.totals()  # a name that never ran reads as zeros
    c = tracer.counts

    def calls(name):
        return t[name]["calls"]

    def total(*names):
        return sum(t[n]["total_s"] for n in names)

    quantum_entries = [row for name, row in t.items() if name.startswith("quantum.")]
    fit_calls = calls("analysis.fit_gaussian")
    attempted = c["analysis.fits_attempted"]
    return {
        "rng.streams": calls("rng.stream"),
        "rng.stream_s": total("rng.stream"),
        "analysis.bootstrap_draws": c["analysis.bootstrap_draws"],
        "analysis.bootstrap_s": total("analysis.bootstrap_centers"),
        "analysis.bootstrap_self_s": t["analysis.bootstrap_centers"]["self_s"],
        "analysis.fit_converged_ratio": c["analysis.fits_converged"] / attempted if attempted else 0.0,
        "analysis.fit_calls": fit_calls,
        "analysis.fit_s": total("analysis.fit_gaussian"),
        "analysis.fit_iters_mean": c["analysis.fit_iters"] / fit_calls if fit_calls else 0.0,
        "analysis.fit_iters_max": c["analysis.fit_iters_max"],
        "analysis.band_s": total("analysis.systematic_band"),
        "analysis.export_s": total("analysis.export_results"),
        "analysis.export_bytes": c["analysis.export_bytes"],
        "detection.scan_cells": c["detection.scan_cells"],
        "detection.simulate_scan_s": total("detection.simulate_scan"),
        "detection.expected_rate_s": total("detection.expected_rate"),
        "detection.drift_profiles": c["detection.drift_profiles"],
        "detection.drift_run_s": total("detection.simulate_drift_run"),
        "detection.g2_windows": c["detection.g2_windows"],
        "detection.g2_s": total("detection.simulate_heralded_counts", "detection.g2_statistic"),
        "detection.csv_write_s": total("detection.save_csv"),
        "detection.csv_read_s": total("detection.load_csv"),
        "detection.csv_bytes": c["detection.csv_bytes"],
        "quantum.calls": sum(row["entry_calls"] for row in quantum_entries),
        "quantum.busy_s": sum(row["entry_s"] for row in quantum_entries),
        "pointer.evolve_calls": calls("pointer.evolve_and_postselect"),
        "pointer.evolve_s": total("pointer.evolve_and_postselect"),
        "pointer.moment_calls": sum(calls(n) for n in MOMENT_SPANS),
        "pointer.moment_s": total(*MOMENT_SPANS),
        "pointer.pairs": c["pointer.pairs"],
    }
