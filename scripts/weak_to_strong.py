#!/usr/bin/env python3
"""Trace the breakdown of the first-order pointer shift as coupling grows.

For g/sigma from 0.02 to 1.2 compares the exact post-selected centroid with
the first-order prediction g * Re(w) on both axes and writes the table to
weak_to_strong.csv. Also exports the blocked-arm destructive interference
profile for plotting.
"""

import sys
from pathlib import Path

import numpy as np

from mzweak import pointer as ptr
from mzweak.cli import build_state
from mzweak.config import DEFAULTS, ExperimentConfig

SIGMA = DEFAULTS["sigma"]
OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out_transition")
OUT.mkdir(parents=True, exist_ok=True)

ratios = np.geomspace(0.02, 1.2, 13)
rows = []
print(f"{'g/sigma':>8} {'g_um':>8} {'x_exact':>9} {'x_lin':>9} {'y_exact':>9} {'y_lin':>9}")
for r in ratios:
    g = float(r * SIGMA)
    state = build_state(ExperimentConfig.from_dict({"g_x": g, "g_y": g}), 0.0)
    cx = ptr.centroid_exact(state, "x")
    cy = ptr.centroid_exact(state, "y")
    lin = ptr.first_order_shift(1.0, g)  # both weak values are 1 at theta=0
    rows.append((r, g, cx, lin, cy, lin))
    print(f"{r:8.3f} {g:8.1f} {cx:9.2f} {lin:9.2f} {cy:9.2f} {lin:9.2f}")

with open(OUT / "weak_to_strong.csv", "w", encoding="utf-8") as fh:
    fh.write("g_over_sigma,g_um,centroid_x_um,first_order_x_um,centroid_y_um,first_order_y_um\n")
    for row in rows:
        fh.write(",".join(repr(float(v)) for v in row) + "\n")

# blocked-arm destructive pattern: opposite-sign branches at +/-g
state = build_state(ExperimentConfig.from_dict({"blocked_arm": "A", "g_x": 50.0}), 0.0)
grid = np.linspace(-2000.0, 2000.0, 801)
ptr.write_profile_csv(OUT / "destructive_profile.csv", grid, ptr.marginal_intensity(state, "x", grid))
print(f"\nwrote {OUT}/weak_to_strong.csv and {OUT}/destructive_profile.csv")
