"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criteria cover the analytic weak values, conditional probabilities,
the disturbing joint measurement, the qubit pointer, weak-regime pointer
shifts, the end-to-end pipeline, systematic-band calibration, g2 behavior,
the weak-to-strong transition and byte-level determinism.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.linalg import expm

from mzweak import analysis as ana
from mzweak import detection as det
from mzweak import pointer as ptr
from mzweak import quantum as qm
from mzweak.cli import main
from mzweak.config import ExperimentConfig
from mzweak.rng import ABL_MC, stream

import oracles

SIGMA = 475.0

# criterion 10's small config: every command finishes in well under a second
SMALL_CONFIG = {
    "scan": {"n_points": 21, "step": 150.0, "repeats": 4,
             "reference_repeats": 2, "mean_rate": 400.0},
    "drift": {"n_profiles": 10, "mean_rate": 2000.0},
    "analysis": {"n_bootstrap": 150},
    "source": {"n_windows": 100_000},
    "seed": 5,
}


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def paper_state(theta=0.0, g=50.0, sigma=SIGMA):
    couplers = [ptr.CouplerSpec("spatial", "A", g), ptr.CouplerSpec("diagonal", "B", g)]
    return ptr.evolve_and_postselect(
        qm.pre_state(), couplers, qm.post_state(theta), sigma=sigma
    )


def test_criterion_1_analytic_weak_values():
    pp = qm.pair(0.0)
    values = {
        "Y_A": qm.weak_value(qm.observable("spatial", "A"), pp),
        "Y_B": qm.weak_value(qm.observable("spatial", "B"), pp),
        "X_B": qm.weak_value(qm.observable("diagonal", "B"), pp),
        "X_A": qm.weak_value(qm.observable("diagonal", "A"), pp),
    }
    assert abs(values["Y_A"] - 1.0) < 1e-12
    assert abs(values["Y_B"]) < 1e-12
    assert abs(values["X_B"] - 1.0) < 1e-12
    assert abs(values["X_A"]) < 1e-12
    _report(1, "weak values (Y_A, Y_B, X_A, X_B) = (1, 0, 0, 1) within 1e-12")


def test_criterion_2_abl_conditionals_and_monte_carlo():
    pp = qm.pair(0.0)
    y_a = qm.observable("spatial", "A")
    y_b = qm.observable("spatial", "B")
    x_b = qm.observable("diagonal", "B")
    assert abs(qm.abl_conditional(y_a, 1.0, pp) - 1.0) < 1e-12
    assert abs(qm.abl_conditional(y_b, 1.0, pp)) < 1e-12
    assert abs(qm.abl_conditional(x_b, +1.0, pp) - 0.25) < 1e-12
    assert abs(qm.abl_conditional(x_b, -1.0, pp) - 0.25) < 1e-12

    n = 100_000
    for op, lams in ((y_a, (1.0, 0.0)), (y_b, (1.0,)), (x_b, (1.0, -1.0))):
        joint, ref = qm.sample_measure_postselect(op, pp, n, stream(20260809, ABL_MC))
        for lam in lams:
            estimate = joint[lam] / ref
            exact = qm.abl_conditional(op, lam, pp)
            if joint[lam] > 0:
                sigma = estimate * np.sqrt(
                    (1 - joint[lam] / n) / joint[lam] + (1 - ref / n) / ref
                )
            else:
                sigma = 4.0 / ref
            assert abs(estimate - exact) <= 4.0 * sigma, (lam, estimate, exact)
    _report(2, "conditionals (1, 0, 1/4, 1/4) exact and matched by MC at 1e5 trials")


def test_criterion_3_joint_disturbing_distribution():
    uncond, cond = qm.joint_disturbing_distribution(qm.pair(0.0))
    up = dict(uncond.outcomes)
    assert abs(up["A"] - 0.5) < 1e-12
    assert abs(up["B+"] - 0.25) < 1e-12
    assert abs(up["B-"] - 0.25) < 1e-12

    # branch-amplitude oracle, built independently
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    phi = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    b_up = np.kron([0, 1], [1, 1]) / np.sqrt(2)
    b_dn = np.kron([0, 1], [1, -1]) / np.sqrt(2)
    amp_a = np.vdot(phi, np.diag([1, 1, 0, 0]) @ psi)
    amp_p = np.vdot(phi, b_up) * np.vdot(b_up, psi)
    amp_m = np.vdot(phi, b_dn) * np.vdot(b_dn, psi)
    weights = np.abs([amp_a, amp_p, amp_m]) ** 2
    oracle = weights / weights.sum()

    cp = dict(cond.outcomes)
    assert abs(cp["A"] - oracle[0]) < 1e-12
    assert abs(cp["B+"] - oracle[1]) < 1e-12
    assert abs(cp["B-"] - oracle[2]) < 1e-12
    _report(3, "joint outcomes {1/2, 1/4, 1/4} and conditional {2/3, 1/6, 1/6}")


def test_criterion_4_qubit_pointer():
    pp = qm.pair(0.0)
    for g in np.linspace(0.0, 3.0, 31):
        if abs(g - np.pi / 2) < 0.05:
            continue
        assert qm.qubit_pointer_excitation("A", g, pp) < 1e-12

    sigma2 = np.array([[0, -1j], [1j, 0]])
    u8 = expm(-1j * (np.pi / 4) * np.kron(np.asarray(qm.observable("diagonal", "B")), sigma2))
    evolved = u8 @ np.kron(np.asarray(pp.pre), [1.0, 0.0])
    phi = np.asarray(pp.post)
    amp0 = np.vdot(np.kron(phi, [1.0, 0.0]), evolved)
    amp1 = np.vdot(np.kron(phi, [0.0, 1.0]), evolved)
    oracle = abs(amp1) ** 2 / (abs(amp0) ** 2 + abs(amp1) ** 2)
    value = qm.qubit_pointer_excitation("B", np.pi / 4, pp)
    assert abs(value - oracle) < 1e-12
    assert abs(value - 1.0 / 3.0) < 1e-12
    _report(4, "qubit pointer: 0 on arm A for all g, 1/3 on arm B at g = pi/4")


def test_criterion_5_weak_limit_pointer_shift():
    state = paper_state()
    cx = ptr.centroid_exact(state, "x")
    cy = ptr.centroid_exact(state, "y")
    assert abs(cx - 50.0) / 50.0 < 0.02
    assert abs(cy - 50.0) / 50.0 < 0.02

    for op, centroid in (("diagonal", cx), ("spatial", cy)):
        arm = "B" if op == "diagonal" else "A"
        wv = qm.weak_value(qm.observable(op, arm), qm.pair(0.0))
        assert abs(ptr.first_order_shift(wv, 50.0) - centroid) < 1.0

    u = np.linspace(-6000, 6000, 48001)
    for axis, closed in (("x", cx), ("y", cy)):
        i = ptr.marginal_intensity(state, axis, u)
        quad = trapezoid(u * i, u) / trapezoid(i, u)
        assert abs(closed - quad) < 0.01
    _report(5, f"centroids ({cx:.2f}, {cy:.2f}) um within 2% of 50, "
               "first order within 1 um, quadrature within 0.01 um")


def test_criterion_6_end_to_end_pipeline(tmp_path):
    out = tmp_path / "run"
    assert main(["--quiet", "--out", str(out), "simulate"]) == 0
    assert main(["--quiet", "--out", str(out), "analyze"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for axis in ("x", "y"):
        entry = summary["results"][axis]
        mean = entry["weak_value_mean"]
        sigma = entry["stat_sigma"]
        assert 0.03 <= sigma <= 0.3, (axis, sigma)
        assert abs(mean - 1.0) <= 2.0 * sigma, (axis, mean, sigma)
    _report(
        6,
        "pipeline means ("
        + ", ".join(
            f"{summary['results'][ax]['weak_value_mean']:.3f}+/-{summary['results'][ax]['stat_sigma']:.3f}"
            for ax in ("x", "y")
        )
        + ") within 2 sigma of 1",
    )


def test_criterion_7_systematic_band_calibration():
    config = ExperimentConfig.from_dict({})
    cfg = config.drift_scan_config()
    targets = {"x": 0.070, "y": 0.095}
    scales = {"x": 49.724, "y": 49.862}  # exact centroids of the unit reference
    bands = {}
    for axis, target in targets.items():
        drift = config.drift_model(axis)
        values = []
        for s in range(8):
            records = det.simulate_drift_run(
                cfg, drift, config.drift["n_profiles"], seed=9000 + s, axis=axis
            )
            values.append(ana.systematic_band(records, scales[axis]))
        bands[axis] = float(np.mean(values))
        assert abs(bands[axis] - target) <= 0.30 * target, (axis, bands[axis], target)
    _report(
        7,
        f"drift walk (steps {config.drift['step_sigma_x']}, {config.drift['step_sigma_y']} um) "
        f"gives bands x={bands['x']:.3f} (target 0.070), y={bands['y']:.3f} (target 0.095)",
    )


def test_criterion_8_g2_properties():
    ideal = det.SourceModel(
        pair_rate=0.1, multi_pair_prob=0.0, heralding_efficiency=1.0, n_windows=200_000
    )
    counts = det.simulate_heralded_counts(ideal, seed=81)
    assert det.g2_statistic(counts) == 0.0

    poisson = det.SourceModel(
        pair_rate=0.2, multi_pair_prob=None, heralding_efficiency=0.6, n_windows=10_000_000
    )
    counts_p = det.simulate_heralded_counts(poisson, seed=82)
    g2_p = det.g2_statistic(counts_p)
    assert abs(g2_p - 1.0) <= 3.0 * det.g2_counting_sigma(counts_p)

    low = det.SourceModel(n_windows=4_000_000)  # calibrated low-multi-pair preset
    counts_l = det.simulate_heralded_counts(low, seed=83)
    g2_l = det.g2_statistic(counts_l)
    assert g2_l <= 0.05
    assert abs(g2_l - 0.038) <= 0.5 * 0.038
    _report(8, f"g2: ideal 0 exactly, Poissonian {g2_p:.3f} ~ 1, low multi-pair {g2_l:.4f}")


def test_criterion_9_weak_to_strong_transition():
    ratios = (0.05, 0.1, 0.2, 0.5, 1.0)
    for axis in ("x", "y"):
        errors = []
        for r in ratios:
            g = r * SIGMA
            state = paper_state(g=g)
            errors.append(abs(ptr.centroid_exact(state, axis) / g - 1.0))
        assert all(b > a for a, b in zip(errors, errors[1:])), (axis, errors)
        assert errors[0] < 0.005, (axis, errors[0])
    _report(9, "|centroid/g - 1| monotone in g/sigma and < 0.5% at g/sigma = 0.05")


def _small_config_commands(tmp_path, tag):
    """The argument lists of every command on SMALL_CONFIG, writing to ``tmp_path / tag``."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    argv = ["--quiet", "--config", str(cfg), "--out", str(tmp_path / tag)]
    sweep = ["sweep", "--parameter", "g", "--start", "10", "--stop", "200", "--num", "5"]
    return [argv + ["simulate"], argv + ["analyze"], argv + ["g2"], argv + ["weakvalue"], argv + sweep]


def _outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _run_small_config(tmp_path, tag):
    """Run every command on SMALL_CONFIG; return {file name: bytes}."""
    for argv in _small_config_commands(tmp_path, tag):
        assert main(argv) == 0, argv
    return _outputs(tmp_path / tag)


# Runs CLI argument lists in one interpreter; prints its exp class and the exit codes
_LIBM_CHILD = """
import json, sys
import oracles
from mzweak.cli import main
print(oracles.exp_class())
print([main(argv) for argv in json.loads(sys.argv[1])])
"""


def run_libm_class(commands):
    """Run CLI argument lists in a child process under ``oracles.LIBM_DISPATCH``;
    check that the child is in the libm exp class and that every command exits 0."""
    path = [str(Path(ana.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **oracles.LIBM_DISPATCH)
    proc = subprocess.run([sys.executable, "-c", _LIBM_CHILD, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"libm\n{[0] * len(commands)}\n"


def test_criterion_10_byte_determinism(tmp_path):
    outputs = [_run_small_config(tmp_path, tag) for tag in ("a", "b")]
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    _report(10, f"{len(outputs[0])} output files byte-identical across reruns")


# SHA-256 of every SMALL_CONFIG output, pinned with numpy 2.4. A change to the
# random draw layout, to the fitter's arithmetic or to serialization moves
# these on purpose: re-pin them in the same change. The files outside the fit
# hold one digest in every numpy exp class; the fit's files carry the last bit
# of np.exp, so FIT_DIGESTS holds one set per class (``oracles.exp_class``).
GOLDEN_DIGESTS = {
    "g2.json": "ebc188ba052cc8fe773160a3514d36334b346f7905b7d3102fafec33140cac66",
    "scan_theta0_x.csv": "17c3c1e65495993a2074f0daa5dddf81a445075b4f45c4b537ede7124cca698b",
    "scan_theta0_y.csv": "266356962c2203addb1b1afd0d3d2bf880d38aa348754901be1930a1edd8eb3c",
    "scan_theta45_x.csv": "996ae213a05b95fbad717b85f249d1001454e85eb8be933a5e75d22d2fcb7436",
    "scan_theta45_y.csv": "8ba0c8b327c16d602b31d01708d276d3ebda1babec25fee8ca8af76070b7bf93",
    "scan_theta90_x.csv": "f55543fe3f88fb7c206eb6afa76166b4f4d319e4610819c6106840bc17d0babe",
    "scan_theta90_y.csv": "a8c7d5fc0ca22746be93a31e7838373f399489fa9c24430c22d5c0cbaade89eb",
    "sweep_g.csv": "24787fc338148b9238f77ab9f6a962f2ba25cc82a5a725f51d3d0aa2cecd0c69",
    "weakvalues.json": "dc617348c9db2d5dfb3fb80117f3e9c3e0f1ea283b2956500a1c7534b37ddacb",
}
FIT_DIGESTS = {
    "avx512": {
        "centers.csv": "0be75341f85f3b279f3311df3db61003ec4f1143a8c9eab4f992b3e7628de4af",
        "summary.json": "a38c245897f9a3e5c9ece2905b268166fe1e171dbe5140697f46ef49061cd22e",
        "weak_values.csv": "30e5b577a1021d7a76595e4cddaec09e1bbb59a9ecf1c48c8a9585413cc0bb5e",
    },
    "libm": {
        "centers.csv": "7946c6cd36255a771094751f8c99375cd2ad9f7cf7193ef9e310b0bf8e8d490a",
        "summary.json": "8a6c9a79636c6b18afe5559a7b8c03ef3cce99d6ef560f3bbe033b90e6aafc0a",
        "weak_values.csv": "780a39c81f9732ce0516e60a4dd50766b97e735b52c426c9e1ea7aee9b93e38f",
    },
}


def _moved(outputs, exp_class):
    """The output files whose digests differ from the pins of ``exp_class``."""
    expected = dict(GOLDEN_DIGESTS, **FIT_DIGESTS[exp_class])
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests.keys() == expected.keys()
    return sorted(name for name in digests if digests[name] != expected[name])


def test_golden_digests(tmp_path):
    exp_class = oracles.exp_class()
    moved = _moved(_run_small_config(tmp_path, "out"), exp_class)
    assert not moved, f"output bytes changed in the {exp_class} exp class: {moved}"


def _rows(data, column):
    """A results CSV as (the other columns of each row, the float ``column``)."""
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return [{k: v for k, v in row.items() if k != column} for row in rows], np.array([float(r[column]) for r in rows])


def test_golden_digests_libm_class_and_cross_class_values(tmp_path):
    # an AVX-512 host reaches the libm class in a child process: that class's
    # digests hold there, and its fit outputs agree with this host's by value
    if oracles.exp_class() != "avx512":
        pytest.skip("the libm class is emulated from an AVX-512 host only")
    host = _run_small_config(tmp_path, "avx512")
    run_libm_class(_small_config_commands(tmp_path, "libm"))
    libm = _outputs(tmp_path / "libm")
    moved = _moved(libm, "libm")
    assert not moved, f"output bytes changed in the libm exp class: {moved}"
    for name, column, tol in (("centers.csv", "center_um", 1e-4), ("weak_values.csv", "weak_value", 1e-6)):
        (keys, a), (libm_keys, b) = _rows(host[name], column), _rows(libm[name], column)
        assert keys == libm_keys, name
        np.testing.assert_allclose(b, a, rtol=0, atol=tol, err_msg=name)
    summary, libm_summary = json.loads(host["summary.json"]), json.loads(libm["summary.json"])
    for axis, result in summary.pop("results").items():
        assert libm_summary["results"].pop(axis) == pytest.approx(result, rel=0, abs=1e-6)
    assert libm_summary.pop("results") == {} and libm_summary == summary
