"""Strict config parsing and the command-line front end."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mzweak
from mzweak import pointer as ptr
from mzweak import quantum as qm
from mzweak.cli import MAX_SWEEP_POINTS, build_pair, build_state, main
from mzweak.config import DEFAULTS, MAX_BOOTSTRAP, MAX_RECORD_CELLS, REFERENCES, ExperimentConfig, read_json, scan_filename
from mzweak.detection import ScanConfig, SourceModel
from mzweak.errors import ConfigError, OrthogonalPostSelection

import oracles
from test_acceptance import SMALL_CONFIG, run_libm_class

SMALL = {
    "scan": {"n_points": 31, "step": 100.0, "repeats": 6,
             "reference_repeats": 2, "mean_rate": 600.0},
    "drift": {"n_profiles": 12, "mean_rate": 4000.0},
    "analysis": {"n_bootstrap": 250},
    "seed": 77,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = dict(SMALL)
    if overrides:
        doc = overrides
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------------ config


def test_empty_config_reproduces_defaults():
    config = ExperimentConfig.from_dict({})
    assert config.theta_list == (0.0, 45.0, 90.0)
    assert config.g_x == 50.0 and config.g_y == 50.0
    assert config.sigma == 475.0
    assert config.scan["repeats"] == 16
    assert config.scan["reference_repeats"] == 3
    assert config.scan["n_points"] == 61
    assert config.analysis["n_bootstrap"] == 10_000
    assert config.scan_config(0.0).repeats == 16
    assert config.scan_config(45.0).repeats == 3


def test_unknown_keys_rejected_with_key_name():
    with pytest.raises(ConfigError, match="gx"):
        ExperimentConfig.from_dict({"gx": 50.0})
    with pytest.raises(ConfigError, match="scan.stepsize"):
        ExperimentConfig.from_dict({"scan": {"stepsize": 10.0}})


def test_wrong_types_rejected():
    with pytest.raises(ConfigError, match="sigma"):
        ExperimentConfig.from_dict({"sigma": "wide"})
    with pytest.raises(ConfigError, match="theta_list"):
        ExperimentConfig.from_dict({"theta_list": 0.0})
    with pytest.raises(ConfigError, match="scan.n_points"):
        ExperimentConfig.from_dict({"scan": {"n_points": 10.5}})
    with pytest.raises(ConfigError, match="drift.apply_to_scans"):
        ExperimentConfig.from_dict({"drift": {"apply_to_scans": "yes"}})


def test_out_of_range_rejected():
    with pytest.raises(ConfigError, match="scan.step"):
        ExperimentConfig.from_dict({"scan": {"step": -50.0}})
    with pytest.raises(ConfigError, match="source.split_ratio"):
        ExperimentConfig.from_dict({"source": {"split_ratio": 1.5}})
    with pytest.raises(ConfigError, match="blocked_arm"):
        ExperimentConfig.from_dict({"blocked_arm": "C"})


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict({"seed": -3})
    assert ExperimentConfig.from_dict({"seed": 0}).seed == 0


@pytest.mark.parametrize(
    "doc,key",
    [
        ({"theta_list": [0.0, float("nan")]}, "theta_list"),
        ({"target_theta": float("inf")}, "target_theta"),
        ({"arm_phase": float("-inf")}, "arm_phase"),
        ({"scan": {"start": float("nan")}}, "scan.start"),
        ({"drift": {"initial_offset": float("inf")}}, "drift.initial_offset"),
    ],
)
def test_non_finite_numbers_rejected(doc, key):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict(doc)


def test_config_file_nan_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"theta_list": [0.0, NaN]}')
    with pytest.raises(ConfigError, match="theta_list"):
        ExperimentConfig.from_dict(read_json(path))


def test_config_file_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.from_dict(read_json(bad))
    bad.write_text('{"seed": ' + "1" * 5000 + "}")  # beyond Python's int conversion limit
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.from_dict(read_json(bad))
    bad.write_bytes(b'{"output_dir": "\xff"}')
    with pytest.raises(ConfigError, match="cannot read config"):
        ExperimentConfig.from_dict(read_json(bad))


def test_defaults_document_complete():
    # every DEFAULTS key round-trips through a full parse
    config = ExperimentConfig.from_dict(json.loads(json.dumps(DEFAULTS)))
    assert config.seed == DEFAULTS["seed"]
    # the scan and source defaults are the model defaults, kept once
    assert config.scan_config(0.0) == ScanConfig()
    assert config.source_model() == SourceModel()


# JSON values of every type, including 0, negatives, NaN, huge numbers, and
# integers where floats are expected
_JSON_VALUES = st.one_of(
    st.sampled_from([None, True, "none"]),
    st.integers(-3, 70),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 2.0),
    st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0, 50.0, 1e18, 1e19, 1e307]),
)


def _section_values(name):
    return st.dictionaries(st.sampled_from(sorted(DEFAULTS[name])), _JSON_VALUES, max_size=2)


@settings(max_examples=200)
@given(_section_values("scan"), _section_values("drift"), _section_values("source"))
def test_config_that_loads_builds_every_model(scan, drift, source):
    try:
        config = ExperimentConfig.from_dict({"scan": scan, "drift": drift, "source": source})
    except ConfigError:
        return
    for theta in (0.0, 45.0, 90.0):
        config.scan_config(theta)
    config.drift_scan_config()
    for axis in ("x", "y"):
        config.drift_model(axis)
        config.scan_drift_model(axis)
    config.source_model()


# ---------------------------------------------------------------- settings

# One changed value per config setting, and the command whose output it
# changes. A setting that changes no output is one to delete, so a new
# setting without a row here fails test_setting_table_covers_every_key.
SETTING_CHANGES = {
    "theta_list": ([0.0, 30.0], "weakvalue"),
    "target_theta": (45.0, "simulate"),
    "g_x": (60.0, "simulate"),
    "g_y": (60.0, "simulate"),
    "sigma": (375.0, "simulate"),
    "arm_phase": (0.6, "weakvalue"),
    "blocked_arm": ("B", "weakvalue"),
    "scan.start": (-1000.0, "simulate"),
    "scan.step": (140.0, "simulate"),
    "scan.n_points": (19, "simulate"),
    "scan.repeats": (3, "simulate"),
    "scan.fiber_core": (80.0, "simulate"),
    "scan.mean_rate": (500.0, "simulate"),
    "scan.reference_repeats": (3, "simulate"),
    "drift.step_sigma_x": (3.0, "analyze"),
    "drift.step_sigma_y": (3.0, "analyze"),
    "drift.initial_offset": (20.0, "simulate"),
    "drift.n_profiles": (11, "analyze"),
    "drift.mean_rate": (3000.0, "analyze"),
    "drift.apply_to_scans": (True, "simulate"),
    "source.pair_rate": (0.08, "g2"),
    "source.multi_pair_prob": (None, "g2"),
    "source.heralding_efficiency": (0.5, "g2"),
    "source.split_ratio": (0.4, "g2"),
    "source.n_windows": (90_000, "g2"),
    "analysis.n_bootstrap": (140, "analyze"),
    "seed": (6, "simulate"),
}


def test_setting_table_covers_every_key():
    keys = set()
    for name, value in DEFAULTS.items():
        keys |= {f"{name}.{key}" for key in value} if isinstance(value, dict) else {name}
    # output_dir is a path: it moves the outputs, it does not change them
    assert set(SETTING_CHANGES) == keys - {"output_dir"}


@pytest.fixture(scope="module")
def run_small(tmp_path_factory):
    """run(command, doc) -> {file name: bytes} of one command run in-process
    on a config document. analyze reads scans simulated from SMALL_CONFIG;
    the config echo in g2.json is left out, since an echo is not a result."""
    root = tmp_path_factory.mktemp("settings")
    runs = itertools.count()

    def run(command, doc):
        out = root / f"run{next(runs)}"
        cfg = out.with_suffix(".json")
        cfg.write_text(json.dumps(doc))
        if command == "analyze":
            shutil.copytree(scans, out)
        assert main(["--quiet", "--config", str(cfg), "--out", str(out), command]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if "g2.json" in files:
            payload = json.loads(files["g2.json"])
            del payload["source"]
            files["g2.json"] = json.dumps(payload).encode()
        return files

    scans = root / "run0"
    run("simulate", SMALL_CONFIG)
    return run


@pytest.mark.parametrize("key", sorted(SETTING_CHANGES))
def test_every_setting_changes_an_output(run_small, key):
    value, command = SETTING_CHANGES[key]
    section, _, name = key.rpartition(".")
    changed = dict(SMALL_CONFIG)
    if section:
        changed[section] = changed.get(section, {}) | {name: value}
    else:
        changed[name] = value
    assert run_small(command, changed) != run_small(command, SMALL_CONFIG)


_SMALL_RUNS = st.fixed_dictionaries({
    "target_theta": st.sampled_from([0.0, 45.0, 90.0, 67.5]),
    "g_x": st.sampled_from([50.0, 400.0, 0.0]),
    "scan": st.fixed_dictionaries({
        "n_points": st.integers(5, 21),
        "step": st.sampled_from([150.0, 100.0, 1.0, 1e19]),
        "repeats": st.integers(2, 4),
        "reference_repeats": st.integers(2, 4),
        "mean_rate": st.sampled_from([400.0, 1000.0, 3.0, 0.0]),
    }),
    "drift": st.fixed_dictionaries({
        "n_profiles": st.integers(10, 12),
        "step_sigma_x": st.sampled_from([0.0, 1.02, 500.0]),
        "mean_rate": st.sampled_from([2000.0, 500.0, 0.0]),
        "apply_to_scans": st.booleans(),
    }),
    "source": st.fixed_dictionaries({
        "pair_rate": st.sampled_from([0.05, 0.9, 0.0]),
        "multi_pair_prob": st.sampled_from([7e-4, None, 0.0]),
        "n_windows": st.integers(1, 100_000),
    }),
    "analysis": st.fixed_dictionaries({"n_bootstrap": st.integers(1, 200)}),
    "seed": st.integers(0, 2**32),
})


@given(_SMALL_RUNS)
def test_commands_on_small_configs_exit_with_one_line(doc):
    # whatever a small config holds, each command ends in an exit code, and a
    # failure is one stderr line: no exception gets past main
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        for command in ("simulate", "analyze", "g2"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["--quiet", "--config", str(cfg), "--out", str(Path(tmp) / "out"), command])
            text = err.getvalue()
            assert rc in (0, 2, 3, 4)
            assert (text == "") if rc == 0 else (text.count("\n") == 1 and text.endswith("\n"))


# 1 GiB of address space: far below what a record or bootstrap over its bound would take
_RLIMIT_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from mzweak.cli import main
commands = sys.argv[3:] or ("simulate", "analyze", "g2")
print([main(["--quiet", "--config", sys.argv[1], "--out", sys.argv[2], c]) for c in commands])
"""


@pytest.mark.parametrize(
    "doc",
    [{"scan": {"repeats": 1e12}}, {"scan": {"reference_repeats": 1e12}},
     {"drift": {"n_profiles": 1e11}}, {"analysis": {"n_bootstrap": 1e12}}],
    ids=["scan.repeats", "scan.reference_repeats", "drift.n_profiles", "analysis.n_bootstrap"],
)
def test_bounds_hold_in_a_small_address_space(tmp_path, doc):
    # each bound is checked at load, so a child process held to 1 GiB exits 2
    env = dict(os.environ, PYTHONPATH=str(Path(mzweak.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _RLIMIT_CHILD, write_config(tmp_path, doc), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[2, 2, 2]\n"
    assert proc.stderr.count("\n") == 3


def test_damaged_repeat_idx_exits_3_in_a_small_address_space(tmp_path):
    # one scan row edited to repeat_idx 10^12 names a 61 x 10^12 cell grid;
    # analyze refuses the file as missing cells before sizing anything from it
    config, out = write_config(tmp_path), tmp_path / "out"
    assert main(["--quiet", "--config", config, "--out", str(out), "simulate"]) == 0
    scan = out / scan_filename(0.0, "x")
    *rows, last = scan.read_text().splitlines(keepends=True)
    fields = last.split(",")
    fields[3] = "1000000000000"
    scan.write_text("".join(rows) + ",".join(fields))
    env = dict(os.environ, PYTHONPATH=str(Path(mzweak.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _RLIMIT_CHILD, config, str(out), "analyze"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[3]\n"
    assert proc.stderr.count("\n") == 1 and "missing (position, repeat) cells" in proc.stderr


# --------------------------------------------------------------------- cli


# weakvalue's report on the default config: Y_A,w and X_B,w are 1 at theta = 0,
# with P(Y_A=1|post) = 1: each property is found in one arm
WEAKVALUE_TABLE = """\
   theta       Y_A^w       Y_B^w       X_A^w       X_B^w    P(Y_A=1)    P(Y_B=1)   P(X_B=+1)   P(X_B=-1)
       0    1.000000    0.000000    0.000000    1.000000    1.000000    0.000000    0.250000    0.250000
      45    0.000000    1.000000    1.000000    0.000000    0.000000    1.000000    0.250000    0.250000
      90    1.000000   -0.000000   -0.000000    1.000000    1.000000    0.000000    0.250000    0.250000
"""


def test_cli_weakvalue_table(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "weakvalue"])
    assert rc == 0
    assert capsys.readouterr().out == WEAKVALUE_TABLE
    data = json.loads((tmp_path / "weakvalues.json").read_text())
    rows = {row["theta_deg"]: row for row in data["rows"]}
    assert rows[0.0]["weak_values"]["Y_A"]["re"] == pytest.approx(1.0, abs=1e-12)
    assert rows[0.0]["weak_values"]["X_B"]["re"] == pytest.approx(1.0, abs=1e-12)
    assert rows[45.0]["weak_values"]["Y_A"]["re"] == pytest.approx(0.0, abs=1e-12)
    assert rows[0.0]["conditionals"]["P(X_B=+1|post)"] == pytest.approx(0.25, abs=1e-12)


def test_cli_weakvalue_orthogonal_theta_is_undefined_row(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "--theta", "67.5", "weakvalue"])
    assert rc == 0
    assert "undefined (orthogonal post-selection)" in capsys.readouterr().out
    data = json.loads((tmp_path / "weakvalues.json").read_text())
    assert data["rows"][0]["undefined"] == "orthogonal post-selection"


def test_cli_weakvalue_reads_the_configured_arm_phase(tmp_path):
    # the pre-selected state carries the arm phase: X_B,w = e^(i phase) at theta = 0
    cfg = write_config(tmp_path, {"arm_phase": 0.6})
    assert main(["--quiet", "--config", cfg, "--out", str(tmp_path), "--theta", "0", "weakvalue"]) == 0
    row = json.loads((tmp_path / "weakvalues.json").read_text())["rows"][0]
    assert abs(row["weak_values"]["X_B"]["re"] - np.cos(0.6)) < 1e-12
    assert abs(row["weak_values"]["X_B"]["im"] - np.sin(0.6)) < 1e-12
    assert abs(row["weak_values"]["Y_A"]["re"] - 1.0) < 1e-12


def test_cli_weakvalue_blocked_arm_a_is_orthogonal_at_zero(tmp_path, capsys):
    # with arm A blocked only |B,V> is left, orthogonal to the theta = 0 post-selection
    cfg = write_config(tmp_path, {"blocked_arm": "A"})
    assert main(["--config", cfg, "--out", str(tmp_path), "--theta", "0", "weakvalue"]) == 0
    assert "undefined (orthogonal post-selection)" in capsys.readouterr().out
    data = json.loads((tmp_path / "weakvalues.json").read_text())
    assert data["rows"][0]["undefined"] == "orthogonal post-selection"


def test_cli_empty_post_selection_is_one_error_in_every_command(tmp_path, capsys):
    # with arm A blocked and no x coupling, nothing survives the theta = 0
    # post-selection: simulate (rates) and sweep (centroids) refuse it alike
    cfg = write_config(tmp_path, {"blocked_arm": "A", "g_x": 0, "theta_list": [0]})
    sweep = ["sweep", "--parameter", "sigma", "--start", "400", "--stop", "500", "--num", "3"]
    lines = []
    for command in (["simulate"], sweep):
        assert main(["--quiet", "--config", cfg, "--out", str(tmp_path / "out"), *command]) == 4
        lines.append(capsys.readouterr().err)
    assert lines == ["numerical failure: no branches survive post-selection\n"] * 2


def test_record_plan_names_the_scan_files_of_each_command():
    # simulate writes the plan of theta_list; analyze reads that of (target,
    # zero reference, unit reference), an angle that is both once
    def plan(config, thetas):
        return [(scan.theta, scan.repeats, axis, name) for scan, axis, name in config.scans(thetas)]

    six = [(theta, repeats, axis, f"scan_theta{theta:g}_{axis}.csv")
           for theta, repeats in ((0.0, 16), (45.0, 3), (90.0, 3)) for axis in ("x", "y")]
    config = ExperimentConfig.from_dict({})
    assert plan(config, config.theta_list) == six
    assert plan(config, (config.target_theta, *REFERENCES)) == six
    config = ExperimentConfig.from_dict({"target_theta": 45.0})
    assert plan(config, (config.target_theta, *REFERENCES)) == [
        (45.0, 16, "x", "scan_theta45_x.csv"), (45.0, 16, "y", "scan_theta45_y.csv"),
        (90.0, 3, "x", "scan_theta90_x.csv"), (90.0, 3, "y", "scan_theta90_y.csv"),
    ]


def test_cli_simulate_writes_six_files(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["--quiet", "--config", cfg, "--out", str(out), "simulate"])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    expected = sorted(
        scan_filename(t, ax) for t in (0.0, 45.0, 90.0) for ax in ("x", "y")
    )
    assert names == expected


@pytest.mark.parametrize("thetas", [[123456.7, 123457.0, 45.0, 90.0], [10.0001, 10.00012, 45.0, 90.0]])
def test_cli_angles_that_share_a_g_tag_get_their_own_files(tmp_path, thetas):
    # %g keeps 6 significant digits, so each pair once wrote one file twice
    from mzweak.detection import ScanRecord

    cfg = write_config(tmp_path, dict(SMALL, theta_list=thetas, target_theta=thetas[0]))
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    assert len(list(out.iterdir())) == 2 * len(thetas)
    for theta in thetas:
        rec = ScanRecord.load_csv(out / scan_filename(theta, "x"))
        assert rec.theta == theta
        assert rec.repeats == (SMALL["scan"]["repeats"] if theta == thetas[0] else SMALL["scan"]["reference_repeats"])
    assert main(["--quiet", "--config", cfg, "--out", str(out), "analyze"]) == 0


def test_cli_negative_zero_angle_is_zero(tmp_path):
    # -0.0 and 0.0 are one angle: one scan file name, the same output bytes
    outputs = {}
    for theta in (-0.0, 0.0):
        run = tmp_path / repr(theta)
        run.mkdir()
        cfg = write_config(run, dict(SMALL, target_theta=theta))
        for command in ("simulate", "analyze"):
            assert main(["--quiet", "--config", cfg, "--out", str(run / "out"), command]) == 0
        outputs[theta] = {p.name: p.read_bytes() for p in (run / "out").iterdir()}
    assert outputs[-0.0] == outputs[0.0]
    out = tmp_path / "flag"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "--theta", "-0", "simulate"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [scan_filename(0.0, ax) for ax in ("x", "y")]


def test_cli_nearby_angles_draw_their_own_counts(tmp_path):
    # 45.0004 and 45 deg round to one millidegree; each angle still draws
    # its counts from streams of its own
    from mzweak.detection import ScanRecord

    thetas = [45.0004, 45.0, 90.0]
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, theta_list=thetas, target_theta=thetas[0]))
    out = tmp_path / "run"
    for command in ("simulate", "analyze"):
        assert main(["--quiet", "--config", cfg, "--out", str(out), command]) == 0
    for axis in ("x", "y"):
        near, at = (ScanRecord.load_csv(out / scan_filename(theta, axis)).counts for theta in thetas[:2])
        assert not np.array_equal(near[:, : at.shape[1]], at), axis


def test_cli_runs_at_the_largest_seed_and_a_huge_angle(tmp_path):
    # a seed line of 2**63 - 1 reads back as int64; 2 * 1e308 deg would overflow
    cfg = write_config(tmp_path, SMALL_CONFIG)
    for command in ("simulate", "analyze"):
        assert main(["--quiet", "--config", cfg, "--out", str(tmp_path / "seed"), "--seed", str(2**63 - 1), command]) == 0
    for command in ("weakvalue", "simulate"):
        assert main(["--quiet", "--config", cfg, "--out", str(tmp_path / "theta"), "--theta", "1e308", command]) == 0
    assert sorted(p.name for p in (tmp_path / "theta").iterdir()) == [
        scan_filename(1e308, "x"), scan_filename(1e308, "y"), "weakvalues.json"
    ]


def test_cli_simulate_zero_rate_all_zero(tmp_path):
    doc = dict(SMALL)
    doc["scan"] = dict(SMALL["scan"], mean_rate=0.0)
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    rc = main(["--quiet", "--config", str(cfg), "--out", str(out), "simulate"])
    assert rc == 0
    from mzweak.detection import ScanRecord

    rec = ScanRecord.load_csv(out / scan_filename(0.0, "x"))
    assert np.all(rec.counts == 0)


def test_cli_analyze_missing_reference(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["--quiet", "--config", cfg, "--out", str(out), "simulate"])
    assert rc == 0
    (out / scan_filename(90.0, "x")).unlink()
    rc = main(["--quiet", "--config", cfg, "--out", str(out), "analyze"])
    assert rc == 3


def _cut_at_2000_bytes(data):
    return data[:2000]


def _cut_at_row_boundary(data):
    return data[: data.rindex(b"\n", 0, 2000) + 1]


def _keep_three_positions(data):
    # a well-formed file (seed line, header, 3 positions x 6 repeats), too short for the profile fit
    return b"".join(data.splitlines(keepends=True)[: 2 + 3 * 6])


@pytest.mark.parametrize("cut", [_cut_at_2000_bytes, _cut_at_row_boundary, _keep_three_positions])
def test_cli_analyze_damaged_scan_is_unreadable_input(tmp_path, capsys, cut):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    path = out / scan_filename(0.0, "x")
    path.write_bytes(cut(path.read_bytes()))
    capsys.readouterr()
    rc = main(["--quiet", "--config", cfg, "--out", str(out), "analyze"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"unreadable input: {path}") and err.count("\n") == 1


def test_cli_analyze_coinciding_references_is_numerical_failure(tmp_path, capsys):
    # a 1e19 um step leaves the whole beam on one position: every fitted center
    # is the same, so the reference scale is exactly 0
    cfg = write_config(tmp_path, dict(SMALL, scan=dict(SMALL["scan"], step=1e19)))
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    capsys.readouterr()
    assert main(["--quiet", "--config", cfg, "--out", str(out), "analyze"]) == 4
    assert capsys.readouterr().err.startswith("numerical failure: |<X1 - X0>| = 0 um")


def test_cli_analyze_narrow_scan_is_numerical_failure_without_warnings(tmp_path, capsys):
    # a 60 um scan of a 475 um beam is nearly flat: many bootstrap fits wander
    # off the grid, where a step overflows; those rows end unconverged, and
    # any RuntimeWarning would fail this test
    cfg = write_config(tmp_path, {"scan": {"step": 1}})
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    capsys.readouterr()
    assert main(["--quiet", "--config", cfg, "--out", str(out), "analyze"]) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure: \d+/10000 bootstrap fits failed to converge \(> 1%\)\n", err)


def test_cli_analyze_mislabeled_scan_is_unreadable_input(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    path = out / scan_filename(90.0, "y")
    path.write_text(path.read_text().replace(",y,", ",x,"))
    capsys.readouterr()
    assert main(["--quiet", "--config", cfg, "--out", str(out), "analyze"]) == 3
    err = capsys.readouterr().err
    assert err == f"unreadable input: {path}: holds theta 90.0 deg on axis 'x', not theta 90.0 deg on axis 'y'\n"


def test_cli_analyze_scans_of_another_seed_are_unreadable_input(tmp_path, capsys):
    # a seed-5 run whose 90 degree scans were re-simulated under seed 9
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "--seed", "5", "simulate"]) == 0
    assert main(["--quiet", "--config", cfg, "--out", str(out), "--seed", "9", "--theta", "90", "simulate"]) == 0
    capsys.readouterr()
    assert main(["--quiet", "--config", cfg, "--out", str(out), "--seed", "5", "analyze"]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"unreadable input: {out / scan_filename(90.0, 'x')}: seed 9, but {out / scan_filename(0.0, 'x')}: "
        "seed 5; the scans must come from one run\n"
    )
    assert not (out / "summary.json").exists()


def test_cli_analyze_scans_on_another_grid_are_unreadable_input(tmp_path, capsys):
    # 45 degree scans on a 140 um grid against a target on a 150 um grid
    doc = dict(SMALL, scan=dict(SMALL["scan"], step=150.0))
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    other = write_config(tmp_path, dict(doc, scan=dict(doc["scan"], step=140.0)), name="other.json")
    assert main(["--quiet", "--config", other, "--out", str(out), "--theta", "45", "simulate"]) == 0
    capsys.readouterr()
    assert main(["--quiet", "--config", cfg, "--out", str(out), "analyze"]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"unreadable input: {out / scan_filename(45.0, 'x')}: 31 positions from -2100.0 to 2100.0 um, "
        f"but {out / scan_filename(0.0, 'x')}: 31 positions from -2250.0 to 2250.0 um; the scans must share one grid\n"
    )
    assert not (out / "summary.json").exists()


def test_cli_analyze_unopenable_scan_is_unreadable_input(tmp_path, capsys):
    # a directory where a scan file should be: it exists, but cannot be read
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    path = out / scan_filename(0.0, "x")
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    assert main(["--quiet", "--config", cfg, "--out", str(out), "analyze"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("unreadable input: ") and str(path) in err and err.count("\n") == 1
    assert not (out / "summary.json").exists()


# SHA-256 of analyze's files on SMALL_CONFIG with target_theta 45 (numpy 2.4), where the
# target is also the zero reference; one set per numpy exp class (``oracles.exp_class``)
_TARGET_45_DIGESTS = {
    "avx512": {
        "centers.csv": "b3459bb321ef353a3a13361086d1e54e54f7704517f2e46bed34b77f9aa6a1af",
        "weak_values.csv": "b1fc18d35ac56c8b7480fa0656eaa49faac1f27b1ed8ad639f1ebda6c188a83f",
        "summary.json": "a8a2ba99a8b63d4ff547a2dbff89b67964b39be5862ae55c79823924e35b1586",
    },
    "libm": {
        "centers.csv": "b8490915ecfc9abcb8b23792887056c854ee33d6b3d5b12a10ca4e7c6768c1b8",
        "weak_values.csv": "b1fc18d35ac56c8b7480fa0656eaa49faac1f27b1ed8ad639f1ebda6c188a83f",
        "summary.json": "1216c96102745f4228fd764df599140e005ea1e8cbe26ff4a1587f5e52d8fc2d",
    },
}


def _target_45_digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in _TARGET_45_DIGESTS["libm"]}


def test_cli_analyze_bootstraps_each_angle_once(tmp_path, monkeypatch):
    # target 45 is also a reference: its two files are bootstrapped once, not twice
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, target_theta=45.0))
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    calls = []
    bootstrap = mzweak.analysis.bootstrap_centers

    def counted(record, *args):
        calls.append((record.theta, record.axis))
        return bootstrap(record, *args)

    monkeypatch.setattr(mzweak.analysis, "bootstrap_centers", counted)
    assert main(["--quiet", "--config", cfg, "--out", str(out), "analyze"]) == 0
    assert calls == [(45.0, "x"), (45.0, "y"), (90.0, "x"), (90.0, "y")]
    assert _target_45_digests(out) == _TARGET_45_DIGESTS[oracles.exp_class()]


def test_cli_analyze_target_45_digests_libm_class(tmp_path):
    # an AVX-512 host checks the libm class's set in a child process
    if oracles.exp_class() != "avx512":
        pytest.skip("the libm class is emulated from an AVX-512 host only")
    argv = ["--quiet", "--config", write_config(tmp_path, dict(SMALL_CONFIG, target_theta=45.0)),
            "--out", str(tmp_path / "run")]
    run_libm_class([argv + ["simulate"], argv + ["analyze"]])
    assert _target_45_digests(tmp_path / "run") == _TARGET_45_DIGESTS["libm"]


@pytest.mark.parametrize("command", [
    ["weakvalue"], ["simulate"], ["g2"], ["sweep", "--parameter", "g", "--start", "1", "--stop", "2"],
])
def test_cli_output_under_a_file_is_config_error(tmp_path, capsys, command):
    # the output directory would sit under a regular file: one line, exit 2
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert main(["--quiet", "--out", str(out), "--theta", "0", *command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output_dir: ") and str(out) in err and err.count("\n") == 1


def test_cli_analyze_unwritable_summary_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    (out / "summary.json").mkdir()
    capsys.readouterr()
    assert main(["--quiet", "--config", cfg, "--out", str(out), "analyze"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output_dir: ") and str(out / "summary.json") in err
    assert err.count("\n") == 1


def test_cli_n_bootstrap_bound_is_checked_before_any_allocation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"analysis": {"n_bootstrap": 1e12}})
    tracemalloc.start()
    try:
        assert main(["--quiet", "--config", cfg, "--out", str(tmp_path / "run"), "analyze"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert capsys.readouterr().err == f"config error: analysis.n_bootstrap: must be <= {MAX_BOOTSTRAP}\n"
    assert ExperimentConfig.from_dict({"analysis": {"n_bootstrap": MAX_BOOTSTRAP}}).analysis["n_bootstrap"] == MAX_BOOTSTRAP


def test_cli_simulate_then_analyze(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    assert main(["--quiet", "--config", cfg, "--out", str(out), "analyze"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert set(summary["results"]) == {"x", "y"}
    for axis in ("x", "y"):
        entry = summary["results"][axis]
        assert np.isfinite(entry["weak_value_mean"])
        assert entry["stat_sigma"] > 0
        assert entry["sys_band"] >= 0
        assert entry["n_samples"] > 200
    assert (out / "centers.csv").exists()
    assert (out / "weak_values.csv").exists()


def test_cli_analyze_reports_the_summary(tmp_path, capsys):
    # without --quiet, analyze prints one line per axis from summary.json
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["--quiet", "--config", cfg, "--out", str(out), "simulate"]) == 0
    capsys.readouterr()
    assert main(["--config", cfg, "--out", str(out), "analyze"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads((out / "summary.json").read_text())
    assert [line for line in lines if "weak value = " in line] == [
        f"{axis}: weak value = {r['weak_value_mean']:.3f} +/- {r['stat_sigma']:.3f} (stat), "
        f"+/- {r['sys_band']:.3f} (sys), n = {r['n_samples']}"
        for axis, r in summary["results"].items()
    ]
    assert lines[-1] == f"wrote {out / 'summary.json'}"


def test_cli_g2_output(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "g2"])
    assert rc == 0
    assert "g2 =" in capsys.readouterr().out
    payload = json.loads((tmp_path / "g2.json").read_text())
    assert payload["counts"]["triple"] <= payload["counts"]["c1"]
    assert 0.0 <= payload["g2"] <= 0.1
    assert payload["counting_sigma"] > 0


def test_cli_g2_zero_rate_is_numerical_failure(tmp_path):
    doc = {"source": {"pair_rate": 0.0, "multi_pair_prob": 0.0, "n_windows": 1000}}
    cfg = tmp_path / "dark.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["--quiet", "--config", str(cfg), "--out", str(tmp_path), "g2"])
    assert rc == 4


def test_cli_sweep_theta_follows_analytic_weak_value(tmp_path):
    rc = main(
        ["--quiet", "--out", str(tmp_path), "sweep",
         "--parameter", "theta", "--start", "0", "--stop", "90", "--num", "7"]
    )
    assert rc == 0
    rows = (tmp_path / "sweep_theta.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        theta, wv, centroid, first = (float(v) for v in row.split(","))
        t = np.deg2rad(2 * theta)
        denom = np.cos(t) + np.sin(t)
        if abs(denom) < 1e-9:
            assert np.isnan(wv)
        else:
            assert wv == pytest.approx(np.cos(t) / denom, abs=1e-12)


def test_cli_sweep_theta_orthogonal_point_keeps_its_centroid(tmp_path):
    # at 67.5 deg the post-selection is orthogonal: the weak value and the
    # first-order shift are undefined, the exact pointer centroid is not
    assert main(["--quiet", "--out", str(tmp_path), "sweep",
                 "--parameter", "theta", "--start", "60", "--stop", "75", "--num", "3"]) == 0
    row = (tmp_path / "sweep_theta.csv").read_text().splitlines()[2]
    theta, wv, centroid, first = row.split(",")
    assert (theta, wv, first) == ("67.5", "nan", "nan")
    assert np.isfinite(float(centroid))


def test_cli_sweep_theta_reparses_bit_exactly(tmp_path):
    # each column re-parses to the bits of the value it was computed as,
    # the orthogonal point's nan included
    assert main(["--quiet", "--out", str(tmp_path), "sweep",
                 "--parameter", "theta", "--start", "-22.5", "--stop", "67.5", "--num", "5"]) == 0
    rows = (tmp_path / "sweep_theta.csv").read_text().splitlines()[1:]
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    x_b = qm.observable("diagonal", "B")
    expected = []
    for theta in np.linspace(-22.5, 67.5, 5).tolist():
        config = ExperimentConfig.from_dict({"target_theta": theta})
        try:
            wv = qm.weak_value(x_b, build_pair(config, theta))
            wv_re, first = wv.real, ptr.first_order_shift(wv, config.g_x)
        except OrthogonalPostSelection:
            wv_re = first = float("nan")
        expected.append([theta, wv_re, ptr.centroid_exact(build_state(config, theta), "x"), first])
    assert np.isnan(parsed[-1, 1])
    assert np.array_equal(parsed.view(np.uint64), np.array(expected).view(np.uint64))


def test_cli_sweep_theta_first_order_reads_the_configured_arm_phase(tmp_path):
    # the weak value and the centroid of a point come from one pair: at
    # theta = 0 the first-order shift is g Re(e^(0.6 i)) = 41.267 um, next to
    # the exact centroid 41.039 um
    cfg = write_config(tmp_path, {"arm_phase": 0.6})
    assert main(["--quiet", "--config", cfg, "--out", str(tmp_path), "sweep",
                 "--parameter", "theta", "--start", "0", "--stop", "90", "--num", "7"]) == 0
    row = (tmp_path / "sweep_theta.csv").read_text().splitlines()[1]
    theta, wv, centroid, first = (float(v) for v in row.split(","))
    assert theta == 0.0
    assert abs(wv - np.cos(0.6)) < 1e-12
    assert abs(first - 50.0 * np.cos(0.6)) < 1e-9
    assert abs(centroid - first) <= 0.01 * first


def test_cli_sweep_g_shows_weak_to_strong_transition(tmp_path):
    rc = main(
        ["--quiet", "--out", str(tmp_path), "sweep",
         "--parameter", "g", "--start", "10", "--stop", "475", "--num", "5"]
    )
    assert rc == 0
    rows = (tmp_path / "sweep_g.csv").read_text().strip().splitlines()[1:]
    gaps = []
    for row in rows:
        g, _, centroid, first = (float(v) for v in row.split(","))
        gaps.append(abs(centroid - first) / g)
    assert gaps[0] < 0.005  # weak limit: columns agree
    assert gaps[-1] > 0.2  # strong coupling: columns diverge
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_cli_sweep_invalid_range_is_config_error(tmp_path):
    rc = main(
        ["--quiet", "--out", str(tmp_path), "sweep",
         "--parameter", "g", "--start", "100", "--stop", "10", "--num", "5"]
    )
    assert rc == 2


@pytest.mark.parametrize("num", ["1", str(MAX_SWEEP_POINTS + 1), "1000000000000000"])
def test_cli_sweep_point_count_is_bounded(tmp_path, capsys, num):
    # the count is checked before the points are built, so none is allocated
    out = tmp_path / "out"
    rc = main(["--quiet", "--out", str(out), "sweep",
               "--parameter", "g", "--start", "1", "--stop", "2", "--num", num])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"config error: sweep range: need stop > start and 2 to {MAX_SWEEP_POINTS} points\n"
    assert not out.exists()


def test_cli_sweep_keeps_no_config_per_point(tmp_path):
    # each point's config is checked, run and dropped before the next: a
    # config kept per point (~1.5 kB each) would take 500 points over the bound
    tracemalloc.start()
    try:
        rc = main(["--quiet", "--out", str(tmp_path), "sweep",
                   "--parameter", "g", "--start", "1", "--stop", "400", "--num", "500"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len((tmp_path / "sweep_g.csv").read_text().splitlines()) == 501
    assert peak < 400_000


@pytest.mark.parametrize(
    "parameter,start,stop,key",
    [
        ("g", "-5", "10", "g_x"),
        ("sigma", "0", "10", "sigma"),
        ("sigma", "1e-200", "1e-199", "sigma"),
        ("g", "1", "1e200", "g_x"),
    ],
)
def test_cli_sweep_values_pass_the_config_checks(tmp_path, capsys, parameter, start, stop, key):
    # each swept value replaces its config key(s) and is checked like a file value
    out = tmp_path / "out"
    rc = main(["--quiet", "--out", str(out), "sweep",
               "--parameter", parameter, "--start", start, "--stop", stop])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: sweep {parameter} = ") and f": {key}: " in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"unknown_key": 1}))
    rc = main(["--quiet", "--config", str(cfg), "--out", str(tmp_path), "weakvalue"])
    assert rc == 2


@pytest.mark.parametrize(
    "doc,flags,key",
    [
        (None, ["--seed", "-1"], "seed"),
        (None, ["--theta", "nan"], "theta_list"),
        ({"seed": -3}, [], "seed"),
        ({"theta_list": [0.0, float("nan")]}, [], "theta_list"),
        ({"seed": 5}, ["--seed", "-2"], "seed"),
        ({"source": {"pair_rate": 0.001}}, [], "source.pair_rate"),
        ({"scan": {"n_points": 4}}, [], "scan.n_points"),
        ({"scan": {"dwell": 0}}, [], "scan.dwell"),
        ({"source": {"window": -1}}, [], "source.window"),
        ({"drift": {"step_sigma_y": -1}}, [], "drift.step_sigma_y"),
        ({"drift": {"mean_rate": -1}}, [], "drift.mean_rate"),
        ({"scan": {"reference_repeats": 0}}, [], "scan.reference_repeats"),
        ({"scan": {"step": 1e307}}, [], "scan.step"),
        ({"scan": {"mean_rate": 1e19}}, [], "scan.mean_rate"),
        ({"source": {"n_windows": 1e20}}, [], "source.n_windows"),
        # a seed past int64, which a scan file's seed line could not read back
        (None, ["--seed", "9223372036854775808"], "seed"),
        ({"seed": 1e22}, [], "seed"),
        ({"seed": 2**63}, [], "seed"),
        ({"drift": {"step_sigma_x": 1e308}}, [], "drift.step_sigma_x"),
        # lengths whose squares would overflow
        ({"drift": {"initial_offset": 1e308}, "scan": {"start": -1e308, "step": 1e304}}, [], "scan.start"),
        ({"drift": {"initial_offset": 1e308}}, [], "drift.initial_offset"),
        ({"scan": {"start": -1e160, "step": 1e156}}, [], "scan.start"),
        ({"scan": {"fiber_core": 1e31}}, [], "scan.fiber_core"),
        ({"sigma": 1e200}, [], "sigma"),
        ({"g_x": 1e200}, [], "g_x"),
        # the bootstrap needs two repeats per position
        ({"scan": {"reference_repeats": 1}}, [], "scan.reference_repeats"),
        ({"scan": {"repeats": 1}}, [], "scan.repeats"),
        # a beam so narrow that sigma^2 underflows or (length / sigma)^2 overflows
        ({"sigma": 1e-200}, [], "sigma"),
        ({"sigma": 1e-160}, [], "sigma"),
        ({"analysis": {"n_bootstrap": 1e12}}, [], "analysis.n_bootstrap"),
        # records over MAX_RECORD_CELLS count cells, caught before any is allocated
        ({"scan": {"repeats": 1e12}}, [], "scan.repeats"),
        ({"scan": {"reference_repeats": 1e12}}, [], "scan.reference_repeats"),
        ({"drift": {"n_profiles": 1e11}}, [], "drift.n_profiles"),
        # one bootstrap draw has no spread: a zero statistical error bar
        ({"analysis": {"n_bootstrap": 1}, "drift": {"n_profiles": 10}}, [], "analysis.n_bootstrap"),
        ({"source": {"multi_pair_prob": 2, "pair_rate": 4}}, [], "source.multi_pair_prob: must be in [0, 1]"),
        # a section or the document that is not an object
        ({"scan": 5}, [], "scan: expected an object, got int"),
        ([1], [], "config root: expected an object, got list"),
        # one angle is one scan: a repeat, also as -0.0, would write its files twice
        ({"theta_list": [0.0, 0.0, 45.0, 90.0]}, [], "theta_list: repeats an angle"),
        ({"theta_list": [-0.0, 0.0, 45.0, 90.0]}, [], "theta_list: repeats an angle"),
    ],
)
def test_cli_bad_numbers_are_config_errors(tmp_path, capsys, doc, flags, key):
    # file values and command-line overrides go through one validation, at
    # load: every command stops on it before writing anything
    out = tmp_path / "out"
    config = [] if doc is None else ["--config", write_config(tmp_path, doc)]
    for command in ("simulate", "analyze", "g2"):
        assert main(["--quiet", *config, "--out", str(out), *flags, command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("section,key", [("scan", "repeats"), ("scan", "reference_repeats"), ("drift", "n_profiles")])
def test_record_cell_bound_is_inclusive(section, key):
    # 61 positions: 16 393 repeats are 999 973 cells, 16 394 are 1 000 034
    at_bound = MAX_RECORD_CELLS // 61
    assert getattr(ExperimentConfig.from_dict({section: {key: at_bound}}), section)[key] == at_bound
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: {at_bound + 1} x 61 positions = "):
        ExperimentConfig.from_dict({section: {key: at_bound + 1}})
    # the bound is on the product: fewer positions take more repeats
    doc = {"scan": {"n_points": 31, "step": 100.0}}
    doc[section] = doc.get(section, {}) | {key: at_bound + 1}
    assert ExperimentConfig.from_dict(doc)


def test_cli_override_replaces_bad_file_seed(tmp_path):
    cfg = write_config(tmp_path, dict(SMALL, seed=-3))
    assert main(["--quiet", "--config", cfg, "--out", str(tmp_path), "--seed", "4",
                 "--theta", "0", "weakvalue"]) == 0


def test_cli_out_replaces_a_bad_file_output_dir(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL, output_dir=5))
    assert main(["--quiet", "--config", cfg, "weakvalue"]) == 2
    assert capsys.readouterr().err == "config error: output_dir: expected a string, got int\n"
    assert main(["--quiet", "--config", cfg, "--out", str(tmp_path), "weakvalue"]) == 0


def test_cli_seed_override_changes_counts(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--quiet", "--config", cfg, "--out", str(out_a), "--theta", "0",
                 "simulate"]) == 0
    assert main(["--quiet", "--config", cfg, "--out", str(out_b), "--theta", "0",
                 "--seed", "78", "simulate"]) == 0
    a = (out_a / scan_filename(0.0, "x")).read_text()
    b = (out_b / scan_filename(0.0, "x")).read_text()
    assert a != b


def test_import_loads_no_scipy():
    # scipy, hypothesis, pytest and the test oracles are test dependencies
    # only; a fresh interpreter must load none of them. The package root
    # holds only __version__, so importing it alone loads no submodule.
    code = (
        "import sys, mzweak; print(mzweak.__version__, sorted(m for m in sys.modules if m.startswith('mzweak.')));"
        " import mzweak.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'oracles', 'hypothesis', 'pytest', '_pytest')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mzweak.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.splitlines() == ["0.1.0 []", "[]"]
