"""Counting layer: scan statistics, drift runs, heralded g2."""

import csv
import dataclasses
import math
import os
import subprocess
import struct
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mzweak import detection as det
from mzweak import pointer as ptr
from mzweak import quantum as qm
from mzweak import rng as rngmod
from mzweak.errors import VanishingPostSelection, ZeroDenominator
from mzweak.rng import stream

import oracles

SIGMA = 475.0
ROOT = Path(__file__).resolve().parents[1]


def paper_state(theta=0.0, g=50.0, sigma=SIGMA):
    couplers = [ptr.CouplerSpec("spatial", "A", g), ptr.CouplerSpec("diagonal", "B", g)]
    return ptr.evolve_and_postselect(
        qm.pre_state(), couplers, qm.post_state(theta), sigma=sigma
    )


def single_gaussian():
    return det.single_beam_state(SIGMA)


# ------------------------------------------------------------ expected rate


def test_expected_rate_peak_is_mean_rate():
    cfg = det.ScanConfig(mean_rate=1234.0)
    assert det.expected_rate(single_gaussian(), "x", 0.0, cfg) == pytest.approx(1234.0)


def test_expected_rate_far_tail_negligible():
    cfg = det.ScanConfig(mean_rate=1000.0, n_points=241, step=25.0)
    rate = det.expected_rate(single_gaussian(), "x", 5.0 * SIGMA, cfg)
    assert rate < 1e-4 * 1000.0


def test_expected_rate_grid_sum_matches_analytic_flux():
    # sum_i F(p_i) * step ~= core * integral I(u) du = core * total_norm
    cfg = det.ScanConfig(mean_rate=1000.0)
    state = single_gaussian()
    flux = ptr.windowed_intensity(state, "x", cfg.positions, cfg.fiber_core)
    grid_sum = float(np.sum(flux) * cfg.step)
    analytic = cfg.fiber_core * oracles.total_norm(state)
    assert abs(grid_sum - analytic) / analytic < 0.01


def test_expected_rate_rows_match_per_offset_calls():
    # one (repeats, n_points) call replaces one grid call per drift offset;
    # the second set's 80 x 61 windows plus the grid span three blocks of
    # windowed_intensity
    cfg = det.ScanConfig(mean_rate=1000.0)
    for offsets in (np.array([-37.5, 0.0, 12.25, 410.0]), np.linspace(-1000.0, 1000.0, 80) + 0.375):
        rows = det.expected_rate(paper_state(), "x", cfg.positions - offsets[:, None], cfg)
        assert rows.shape == (offsets.size, cfg.n_points)
        for row, off in zip(rows, offsets):
            assert np.array_equal(row, det.expected_rate(paper_state(), "x", cfg.positions - off, cfg))


def test_windowed_intensity_rows_match_per_row_calls_across_blocks():
    # a 2-D call larger than one block gives each row the bits of its own call
    cfg = det.ScanConfig()
    centers = cfg.positions - np.linspace(-800.0, 800.0, 3 * ptr._BLOCK_CENTERS // cfg.n_points)[:, None]
    assert centers.size > 2 * ptr._BLOCK_CENTERS
    for state in (paper_state(30.0, g=300.0), single_gaussian()):
        flux = ptr.windowed_intensity(state, "y", centers, cfg.fiber_core)
        assert flux.shape == centers.shape
        for row, c in zip(flux, centers):
            assert np.array_equal(row, ptr.windowed_intensity(state, "y", c, cfg.fiber_core))


def two_call_expected_rate(state, axis, position, cfg):
    """expected_rate with the peak from its own windowed_intensity call."""
    flux = ptr.windowed_intensity(state, axis, position, cfg.fiber_core)
    peak = float(np.max(ptr.windowed_intensity(state, axis, cfg.positions, cfg.fiber_core)))
    return cfg.mean_rate * flux / peak


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize(
    "cfg", [det.ScanConfig(mean_rate=1000.0), det.ScanConfig(step=25.0, n_points=41, fiber_core=62.5)]
)
def test_expected_rate_equals_two_call_form(axis, cfg):
    # one windowed_intensity call on [grid, positions] gives the same bits
    offsets = np.array([-37.5, 0.0, 12.25, 410.0])
    for state in (paper_state(), paper_state(30.0, g=300.0), single_gaussian()):
        for position in (cfg.positions, cfg.positions[::-1] + 3.0, cfg.positions - offsets[:, None]):
            np.testing.assert_array_equal(
                det.expected_rate(state, axis, position, cfg),
                two_call_expected_rate(state, axis, position, cfg),
            )


def test_expected_rate_propagates_empty_state():
    empty = ptr.BranchState((), SIGMA)
    with pytest.raises(VanishingPostSelection, match="no branches survive post-selection"):
        det.expected_rate(empty, "x", 0.0, det.ScanConfig())


# ------------------------------------------------------------------- scans


def test_scan_zero_rate_gives_all_zero_counts():
    cfg = det.ScanConfig(mean_rate=0.0, repeats=3)
    rec = det.simulate_scan(single_gaussian(), cfg, "x", det.DriftModel(), seed=1)
    assert rec.counts.shape == (61, 3)
    assert np.all(rec.counts == 0)


def test_scan_counts_track_expected_rate():
    cfg = det.ScanConfig(mean_rate=1e5, repeats=50, n_points=21, step=150.0)
    rec = det.simulate_scan(paper_state(), cfg, "y", det.DriftModel(), seed=7)
    rates = np.asarray(det.expected_rate(paper_state(), "y", cfg.positions, cfg))
    means = rec.counts.mean(axis=1)
    z = (means - rates) / np.sqrt(rates / cfg.repeats)
    assert np.all(np.abs(z) < 3.0)


def test_scan_poisson_variance_matches_mean():
    cfg = det.ScanConfig(mean_rate=500.0, repeats=10_000, n_points=5, step=400.0)
    rec = det.simulate_scan(single_gaussian(), cfg, "x", det.DriftModel(), seed=11)
    mean = rec.counts.mean(axis=1)
    var = rec.counts.var(axis=1)
    # sample variance of Poisson has variance ~ (2 lam^2 + lam) / R
    sigma_var = np.sqrt((2 * mean**2 + mean) / cfg.repeats)
    assert np.all(np.abs(var - mean) < 4.0 * sigma_var)


def test_scan_bit_determinism():
    cfg = det.ScanConfig(mean_rate=800.0, repeats=4)
    a = det.simulate_scan(paper_state(), cfg, "x", det.DriftModel(), seed=3)
    b = det.simulate_scan(paper_state(), cfg, "x", det.DriftModel(), seed=3)
    assert np.array_equal(a.counts, b.counts)
    c = det.simulate_scan(paper_state(), cfg, "x", det.DriftModel(), seed=4)
    assert not np.array_equal(a.counts, c.counts)


def test_scan_repeats_are_prefix_stable():
    # repeat-major draws: the first 3 repeats do not depend on the total
    walk = det.DriftModel(step_sigma=5.0)
    short, long = (
        det.simulate_scan(paper_state(), det.ScanConfig(repeats=r, theta=0.0), "y", walk, seed=9)
        for r in (3, 16)
    )
    assert np.array_equal(short.counts, long.counts[:, :3])


@pytest.mark.parametrize(
    "drift", [det.DriftModel(), det.DriftModel(initial_offset=-37.5), det.DriftModel(step_sigma=3.0)]
)
def test_scan_rates_equal_per_repeat_expected_rate(drift):
    # one expected_rate call per distinct drift offset, its rows gathered:
    # the rates and the counts equal those of one call per repeat, bit for bit
    cfg = det.ScanConfig(mean_rate=1500.0, repeats=12, theta=10.0)
    state = paper_state(10.0)
    keys = (*rngmod.theta_key(10.0), rngmod.AXIS_KEY["y"])
    offsets = drift.offsets(12, stream(8, rngmod.SCAN_DRIFT, *keys))
    rates = np.stack([det.expected_rate(state, "y", cfg.positions - off, cfg) for off in offsets])
    assert det._drifted_rates(state, "y", cfg, offsets).tobytes() == rates.tobytes()
    counts = stream(8, rngmod.SCAN_COUNTS, *keys).poisson(rates)
    rec = det.simulate_scan(state, cfg, "y", drift, seed=8)
    assert rec.counts.tobytes() == counts.T.tobytes()


def test_scan_csv_roundtrip(tmp_path):
    cfg = det.ScanConfig(mean_rate=900.0, repeats=3, theta=45.0)
    rec = det.simulate_scan(paper_state(45.0), cfg, "y", det.DriftModel(), seed=5)
    path = tmp_path / "scan.csv"
    rec.save_csv(path)
    back = det.ScanRecord.load_csv(path)
    assert back.theta == rec.theta
    assert back.axis == rec.axis
    assert back.seed == rec.seed
    assert np.array_equal(back.positions, rec.positions)
    assert np.array_equal(back.counts, rec.counts)


def test_scan_csv_lines_end_in_lf_and_old_crlf_files_load(tmp_path):
    cfg = det.ScanConfig(mean_rate=900.0, repeats=3, theta=45.0)
    rec = det.simulate_scan(paper_state(45.0), cfg, "y", det.DriftModel(), seed=5)
    path = tmp_path / "scan.csv"
    rec.save_csv(path)
    # the rows as csv.writer wrote them before, CRLF-terminated
    old = tmp_path / "crlf.csv"
    with open(old, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# seed={rec.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["theta_deg", "axis", "position_um", "repeat_idx", "counts"])
        for i, u in enumerate(rec.positions):
            for r in range(rec.repeats):
                writer.writerow([repr(float(rec.theta)), rec.axis, repr(float(u)), r, int(rec.counts[i, r])])
    assert b"\r\n" in old.read_bytes()
    assert path.read_bytes() == old.read_bytes().replace(b"\r\n", b"\n")
    back = det.ScanRecord.load_csv(old)
    assert (back.theta, back.axis, back.seed) == (rec.theta, rec.axis, rec.seed)
    assert np.array_equal(back.positions, rec.positions)
    assert np.array_equal(back.counts, rec.counts)


def _saved_scan_lines(tmp_path):
    cfg = det.ScanConfig(mean_rate=900.0, repeats=3)
    rec = det.simulate_scan(paper_state(), cfg, "x", det.DriftModel(), seed=5)
    path = tmp_path / "scan.csv"
    rec.save_csv(path)
    return path, path.read_text().splitlines(keepends=True)


def test_scan_csv_truncated_file_rejected(tmp_path):
    path, lines = _saved_scan_lines(tmp_path)
    path.write_text("".join(lines[:100]))
    with pytest.raises(ValueError, match="missing"):
        det.ScanRecord.load_csv(path)


@pytest.mark.parametrize(
    "last_line,message",
    [
        ("0.0,x,1500.0,2", r"line 185: expected 5 fields, got 4"),  # cut mid-row
        ("0.0,x,1500.0,2,17,3\r\n", r"line 185: expected 5 fields, got 6"),
        ("0.0,x,1500.0,2,1e3\r\n", r"line 185: counts '1e3' is not a finite int"),
        ("0.0,x,abc,2,17\r\n", r"line 185: position_um 'abc' is not a finite float"),
        ("0.0,x,nan,2,17\r\n", r"line 185: position_um 'nan' is not a finite float"),
    ],
)
def test_scan_csv_malformed_row_names_file_and_line(tmp_path, last_line, message):
    path, lines = _saved_scan_lines(tmp_path)
    assert len(lines) == 185  # seed line, header, 61 x 3 cells
    path.write_text("".join(lines[:-1]) + last_line, newline="")
    with pytest.raises(ValueError, match=f"scan.csv, {message}"):
        det.ScanRecord.load_csv(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("theta_deg,axis,position_um,repeat_idx,counts\n", r"scan.csv: empty scan file"),
        ("a,b,c,d,e\n0.0,x,1500.0,2,17\n", r"scan.csv, line 1: the header must name theta_deg, axis, "),
    ],
    ids=["header-only", "unknown-columns"],
)
def test_scan_csv_without_rows_or_columns_rejected(tmp_path, text, message):
    path = tmp_path / "scan.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        det.ScanRecord.load_csv(path)


_LAST_ROW = "0.0,x,1500.0,2,17\n"


_LOADED_SPELLINGS = [
    ('0.0,x,1500.0,2," 17"\n', 17),
    ("0.0,x,1500.0,2, 17\n", 17),
    ("0.0,x,1500.0,2,+17\n", 17),
    ("0.0,x,1500.0,2,1_7\n", 17),
    ('0.0,x,1500.0,2,"17"\n', 17),
    ('"0.0",x,1500.0,2,17\n', 17),
    ("0.0,x,1_500.0,2,17\n", 17),
    ("0.0,x,1500.0,2,١٧\n", 17),  # Arabic-Indic digits
    ("0.0,x,1500.0,2,-0\n", 0),
    ("0.0,x,1500.0,2,17\r\n", 17),
    ("0.0,x,1500.0,2,17", 17),  # no final newline
    # spellings numpy's tokenizer reads differently from Python's int() and float()
    ("0.0,x,1500.0,2,3_0\n", 30),
    ("0.0,x,1500.0,2,٣\n", 3),  # an Arabic-Indic digit
    ("0,x,1500.0,2,17\n", 17),  # theta spelled 0 here, 0.0 on every other row
]


@pytest.mark.parametrize("last_row,count", _LOADED_SPELLINGS)
def test_scan_csv_field_spellings_load_as_before(tmp_path, last_row, count):
    # every spelling Python's float() and int() take loads; the file's other
    # rows keep the record otherwise equal to the saved one
    path, lines = _saved_scan_lines(tmp_path)
    saved = det.ScanRecord.load_csv(path)
    path.write_text("".join(lines[:-1]) + last_row, encoding="utf-8", newline="")
    back = det.ScanRecord.load_csv(path)
    counts = saved.counts.copy()
    counts[-1, -1] = count
    assert (back.theta, back.axis, back.seed) == (0.0, "x", saved.seed)
    assert type(back.theta) is float and type(back.axis) is str and type(back.seed) is int
    assert back.positions.tobytes() == saved.positions.tobytes()
    assert back.counts.dtype == np.int64 and np.array_equal(back.counts, counts)


def test_scan_csv_reordered_header_loads_as_before(tmp_path):
    path, lines = _saved_scan_lines(tmp_path)
    saved = det.ScanRecord.load_csv(path)
    order = [4, 2, 0, 3, 1]
    rows = [line.rstrip("\n").split(",") for line in lines[1:]]
    path.write_text(lines[0] + "".join(",".join(row[i] for i in order) + "\n" for row in rows))
    back = det.ScanRecord.load_csv(path)
    assert (back.theta, back.axis, back.seed) == (saved.theta, saved.axis, saved.seed)
    assert type(back.axis) is str
    assert back.positions.tobytes() == saved.positions.tobytes()
    assert np.array_equal(back.counts, saved.counts)


def test_scan_csv_axis_quoted_on_every_row_loads_unquoted(tmp_path):
    # a quoted axis on every row is read as csv.reader reads it, not kept
    # with its quotes because the rows agree with each other
    path, lines = _saved_scan_lines(tmp_path)
    saved = det.ScanRecord.load_csv(path)
    path.write_text("".join(lines[:2]) + "".join(line.replace(",x,", ',"x",') for line in lines[2:]))
    back = det.ScanRecord.load_csv(path)
    assert (back.theta, back.axis, back.seed) == (saved.theta, "x", saved.seed)
    assert np.array_equal(back.counts, saved.counts)


@pytest.mark.parametrize("seed", [5, None])
def test_scan_csv_bulk_split_equals_row_reader(tmp_path, seed):
    # a file save_csv writes takes the bulk split, and the csv.reader path
    # (the reference) reads the same values from it
    cfg = det.ScanConfig(mean_rate=900.0, repeats=4, theta=-12.5)
    rec = det.simulate_scan(paper_state(-12.5), cfg, "y", det.DriftModel(), seed=5)
    path = tmp_path / "scan.csv"
    dataclasses.replace(rec, seed=seed).save_csv(path)
    bulk, rows = det._split_scan_columns(path), det._read_scan_rows(path)
    assert bulk is not None
    assert bulk[1:4] == rows[:3] == (seed, -12.5, "y")
    for a, b in zip(bulk[4:], rows[3:]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


_REJECTED_SPELLINGS = [
    ("0.0,x,1500.0,2,17.0\n", r"scan.csv, line 185: counts '17.0' is not a finite int"),
    ("0.0,x,1500.0,2,17,\n", r"scan.csv, line 185: expected 5 fields, got 6"),
    ("0.0,x ,1500.0,2,17\n", r"scan.csv: mixed theta/axis values"),
    ("0.0,x,1500.0,2,0x10\n", r"scan.csv, line 185: counts '0x10' is not a finite int"),
    (_LAST_ROW + "\n", r"scan.csv, line 186: expected 5 fields, got 0"),  # a trailing blank line
    ("#c\n", r"scan.csv, line 185: expected 5 fields, got 1"),  # not a comment
    ("0.0,x,1500.0,2," + "0" * 131072 + "17\n", r"scan.csv: not a scan CSV \(field larger than field limit"),
    # rows numpy's tokenizer skips or reads without complaint
    ("\n" + _LAST_ROW, r"scan.csv, line 185: expected 5 fields, got 0"),  # a blank line mid-file
    ("#c\n" + _LAST_ROW, r"scan.csv, line 185: expected 5 fields, got 1"),  # a comment line mid-file
    ("0.0,x,1500.0,2,17,3\n", r"scan.csv, line 185: expected 5 fields, got 6"),
    ("0.0,x,1500.0,2\n", r"scan.csv, line 185: expected 5 fields, got 4"),
    ("0.0,x,1500.0,2,9223372036854775808\n", r"scan.csv: counts column does not fit int64"),
    ("0.0,x,nan,2,17\n", r"scan.csv, line 185: position_um 'nan' is not a finite float"),
    ("inf,x,1500.0,2,17\n", r"scan.csv, line 185: theta_deg 'inf' is not a finite float"),
]


@pytest.mark.parametrize("last_row,message", _REJECTED_SPELLINGS)
def test_scan_csv_field_spellings_rejected_as_before(tmp_path, last_row, message):
    path, lines = _saved_scan_lines(tmp_path)
    path.write_text("".join(lines[:-1]) + last_row, encoding="utf-8", newline="")
    with pytest.raises(ValueError, match=message):
        det.ScanRecord.load_csv(path)


def _load_outcome(path):
    """What load_csv makes of a file: the record's fields and array bytes, or the error text."""
    try:
        rec = det.ScanRecord.load_csv(path)
    except ValueError as exc:
        return str(exc)
    arrays = [(a.dtype, a.shape, a.tobytes()) for a in (rec.positions, rec.counts)]
    return type(rec.theta), rec.theta, type(rec.axis), rec.axis, rec.seed, arrays


@pytest.mark.parametrize("last_row", [row for row, _ in _LOADED_SPELLINGS + _REJECTED_SPELLINGS])
def test_scan_csv_bulk_read_matches_row_reader(tmp_path, monkeypatch, last_row):
    # whatever numpy's tokenizer makes of a spelling, load_csv gives what
    # the csv.reader path alone gives: the same arrays or the same error text
    path, lines = _saved_scan_lines(tmp_path)
    path.write_text("".join(lines[:-1]) + last_row, encoding="utf-8", newline="")
    bulk = _load_outcome(path)
    monkeypatch.setattr(det, "_split_scan_columns", lambda path: None)
    assert _load_outcome(path) == bulk


def _no_row_read(path):
    raise AssertionError(f"{path} took the row read")


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("theta", [0.0, -12.5, 1e-05, 123456.7])
@pytest.mark.parametrize("start", [None, -4321.25])
@pytest.mark.parametrize("repeats", [2, 50])
def test_save_csv_files_take_the_bulk_read(tmp_path, monkeypatch, seed, theta, start, repeats):
    # falling back to the row read is a speed loss only, so nothing else
    # notices it: every file save_csv writes is read at once, bit for bit
    positions = det.ScanConfig(start=start, step=12.5, n_points=11).positions
    counts = np.random.default_rng(repeats).integers(2**31, 2**40, size=(11, repeats))
    counts[::3] = 0
    saved = det.ScanRecord(theta, "y", positions, counts, seed)
    path = tmp_path / "scan.csv"
    saved.save_csv(path)
    monkeypatch.setattr(det, "_read_scan_rows", _no_row_read)
    back = det.ScanRecord.load_csv(path)
    assert (type(back.theta), back.theta, back.axis, back.seed) == (float, theta, "y", seed)
    for a, b in ((back.positions, saved.positions), (back.counts, saved.counts)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("repeat", [10**12, 2**63 - 1])
def test_scan_csv_huge_repeat_idx_is_missing_cells(tmp_path, repeat):
    # one row edited to a huge repeat_idx names a grid of 61 x (repeat + 1)
    # cells: the file is refused as missing cells before anything is sized
    # from it, and no cell id overflows int64
    path, lines = _saved_scan_lines(tmp_path)
    row = f"0.0,x,1500.0,{repeat},17\n"
    path.write_text("".join(lines[:-1]) + row)
    with pytest.raises(ValueError, match=rf"scan.csv: {61 * (repeat + 1) - 183} missing \(position, repeat\) cells"):
        det.ScanRecord.load_csv(path)
    # a duplicate cell is still named first
    path.write_text("".join(lines + [lines[-1], row]))
    with pytest.raises(ValueError, match=r"scan.csv: duplicate cell \(position 1500.0, repeat 2\)"):
        det.ScanRecord.load_csv(path)


_LOAD_AT_BOUND = """
import resource, sys
from mzweak import detection as det
if sys.argv[2] == "write":
    cfg = det.ScanConfig(repeats=16393)
    det.simulate_scan(det.single_beam_state(), cfg, "x", det.DriftModel(), seed=3).save_csv(sys.argv[1])
else:
    rec = det.ScanRecord.load_csv(sys.argv[1])
    assert rec.counts.shape == (61, 16393)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_scan_csv_load_at_cell_bound_stays_small(tmp_path):
    # a scan at config.MAX_RECORD_CELLS (16 393 repeats x 61 positions, a
    # 22 MB file) loads in a fresh process under 300 MB peak RSS; splitting
    # its text into 5 x 10^6 Python strings peaked near 480 MB
    path = tmp_path / "bound.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for step in ("write", "load"):
        proc = subprocess.run(
            [sys.executable, "-c", _LOAD_AT_BOUND, str(path), step], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 300  # ru_maxrss is in KiB on Linux


def test_scan_csv_undecodable_file_rejected(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_bytes(b"\xff\xfe\x00 not text")
    with pytest.raises(ValueError, match="scan.csv: not a scan CSV"):
        det.ScanRecord.load_csv(path)


def test_scan_csv_duplicate_cell_rejected(tmp_path):
    path, lines = _saved_scan_lines(tmp_path)
    path.write_text("".join(lines + [lines[-1]]))
    with pytest.raises(ValueError, match="duplicate"):
        det.ScanRecord.load_csv(path)


def test_scan_csv_negative_repeat_rejected(tmp_path):
    # "-1" would otherwise index the last repeat and fill a missing cell
    path, lines = _saved_scan_lines(tmp_path)
    head, last = lines[:-1], lines[-1].split(",")
    last[3] = "-1"
    path.write_text("".join(head + [",".join(last)]))
    with pytest.raises(ValueError, match="repeat_idx"):
        det.ScanRecord.load_csv(path)


@pytest.mark.parametrize("column,value", [(0, "45.0"), (1, "y")])
def test_scan_csv_mixed_theta_or_axis_rejected(tmp_path, column, value):
    path, lines = _saved_scan_lines(tmp_path)
    last = lines[-1].split(",")
    last[column] = value
    path.write_text("".join(lines[:-1] + [",".join(last)]))
    with pytest.raises(ValueError, match="mixed"):
        det.ScanRecord.load_csv(path)


def _swap_blocks_10_and_11(blocks):
    blocks[10], blocks[11] = blocks[11], blocks[10]


def _move_position_20_by_10um(blocks):
    for k, line in enumerate(blocks[20]):
        fields = line.split(",")
        fields[2] = repr(float(fields[2]) + 10.0)
        blocks[20][k] = ",".join(fields)


@pytest.mark.parametrize("edit", [_swap_blocks_10_and_11, _move_position_20_by_10um])
def test_scan_csv_bad_grid_rejected(tmp_path, edit):
    # an unsorted or uneven grid would reach the fitter, whose width floor
    # is 1e-3 * min(diff(positions))
    path, lines = _saved_scan_lines(tmp_path)
    head, body = lines[:2], lines[2:]
    blocks = [body[i:i + 3] for i in range(0, len(body), 3)]  # 3 repeats per position
    edit(blocks)
    path.write_text("".join(head + [line for block in blocks for line in block]))
    with pytest.raises(ValueError, match="evenly spaced"):
        det.ScanRecord.load_csv(path)


@pytest.mark.parametrize(
    "theta,axis", [(0.0, "x,y"), (0.0, "x\n"), (0.0, '"x'), (0.0, "z"), (np.nan, "x"), (np.inf, "x"), (-np.inf, "x")]
)
def test_scan_record_needs_the_stream_keys_of_a_scan(theta, axis):
    # at construction, not at load: such a record once saved a file its own
    # load_csv refused ("x,y", "x\n", '"x', a non-finite angle), or loaded one the bootstrap could not key ("z")
    with pytest.raises(ValueError, match="^axis must be one of x, y, got " if theta == 0.0 else "^theta must be finite"):
        det.ScanRecord(theta, axis, [0.0, 1.0, 2.0, 3.0, 4.0], np.ones((5, 2), dtype=int))


def test_scan_csv_of_another_axis_rejected(tmp_path):
    path, lines = _saved_scan_lines(tmp_path)
    path.write_text("".join(lines[:2] + [line.replace("0.0,x,", "0.0,z,", 1) for line in lines[2:]]))
    with pytest.raises(ValueError, match="scan.csv: axis must be one of x, y, got 'z'"):
        det.ScanRecord.load_csv(path)


def test_scan_record_validation():
    with pytest.raises(ValueError):
        det.ScanRecord(0.0, "x", np.arange(3.0), np.array([[1], [2]]))
    with pytest.raises(ValueError):
        det.ScanRecord(0.0, "x", np.arange(2.0), np.array([[1], [-2]]))


@pytest.mark.parametrize("counts", [[[1.7], [2], [3]], [[1], [np.nan], [3]], [[1], [2], [np.inf]]])
def test_scan_record_rejects_non_integral_counts(counts):
    with pytest.raises(ValueError, match="counts"):
        det.ScanRecord(0.0, "x", [0.0, 1.0, 2.0], counts)


def test_scan_record_keeps_whole_float_counts():
    record = det.ScanRecord(0.0, "x", [0.0, 1.0, 2.0], [[1.0], [2.0], [3.0]])
    assert record.counts.dtype == np.int64
    assert record.counts[:, 0].tolist() == [1, 2, 3]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scan_record_rejects_non_finite_positions(bad):
    with pytest.raises(ValueError, match="positions"):
        det.ScanRecord(0.0, "x", [0.0, bad, 2.0], [[1], [2], [3]])


def test_scan_record_copies_caller_arrays():
    pos = np.arange(3.0)
    cnt = np.array([[1], [2], [3]], dtype=np.int64)
    record = det.ScanRecord(0.0, "x", pos, cnt)
    assert pos.flags.writeable and cnt.flags.writeable
    assert not (record.positions.flags.writeable or record.counts.flags.writeable)
    pos[0] = 99.0
    cnt[0, 0] = 99
    assert record.positions[0] == 0.0 and record.counts[0, 0] == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["start", "step", "fiber_core", "mean_rate", "theta", "n_points", "repeats"])
def test_scan_config_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        det.ScanConfig(**{field: bad})


@pytest.mark.parametrize(
    "model,field,bad",
    [(det.ScanConfig, "n_points", 60.5), (det.ScanConfig, "repeats", 2.5), (det.SourceModel, "n_windows", 1e5 + 0.5)],
)
def test_count_fields_reject_fractions(model, field, bad):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        model(**{field: bad})


def test_scan_config_stores_whole_counts_as_int():
    cfg = det.ScanConfig(n_points=61.0, repeats=np.int64(2))
    assert type(cfg.n_points) is int and type(cfg.repeats) is int
    rec = det.simulate_scan(det.single_beam_state(SIGMA), cfg, "x", det.DriftModel(), seed=1)
    assert rec.counts.shape == (61, 2)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        det.ScanConfig(step=0.0)
    with pytest.raises(ValueError):
        det.ScanConfig(n_points=2)
    with pytest.raises(ValueError):
        det.ScanConfig(repeats=0)
    with pytest.raises(ValueError):
        det.ScanConfig(fiber_core=-1.0)
    with pytest.raises(ValueError, match="n_points must be >= 5"):
        det.ScanConfig(n_points=4)  # fewer points than the profile fit needs
    with pytest.raises(ValueError, match="mean_rate must be in"):
        det.ScanConfig(mean_rate=1e19)  # beyond numpy's Poisson sampler
    for grid in ({"step": 1e307}, {"start": 1e20, "step": 1.0}):  # overflows, or repeats positions
        with pytest.raises(ValueError, match="step must be at least"):
            det.ScanConfig(**grid)


def test_theta_key_is_the_two_words_of_the_angles_float_bits():
    # adjacent floats have their own keys; -0.0 is 0.0, as one scan file name
    assert rngmod.theta_key(45.0) == (0x40468000, 0)
    assert rngmod.theta_key(10.0) != rngmod.theta_key(np.nextafter(10.0, 11.0))
    assert rngmod.theta_key(-0.0) == rngmod.theta_key(0.0) == (0, 0)
    for theta in (-1e308, -45.0, 5e-324, 45.0004, 1e308):
        hi, lo = rngmod.theta_key(theta)
        assert 0 <= hi < 2**32 and 0 <= lo < 2**32
        assert struct.unpack("<d", struct.pack("<Q", hi << 32 | lo)) == (theta,)


def test_scan_default_grid_spans_3mm_centered():
    cfg = det.ScanConfig()
    assert cfg.positions[0] == -1500.0
    assert cfg.positions[-1] == 1500.0
    assert len(cfg.positions) == 61


# -------------------------------------------------------------- drift runs


def test_drift_model_validation_and_offsets():
    with pytest.raises(ValueError):
        det.DriftModel(step_sigma=-1.0)
    with pytest.raises(ValueError, match=r"step_sigma must be in \[0, 1e\+288\] um: a walk"):
        det.DriftModel(step_sigma=1e289)
    widest = det.DriftModel(step_sigma=1e288, initial_offset=-1e300)
    assert np.all(np.isfinite(widest.offsets(10_000, stream(0, 97))))
    none = det.DriftModel()
    assert np.all(none.offsets(5, stream(0, 99)) == 0.0)
    walk = det.DriftModel(step_sigma=2.0, initial_offset=3.0)
    offs = walk.offsets(1000, stream(0, 98))
    assert abs(np.mean(np.diff(offs))) < 0.5  # zero-mean steps
    assert np.std(np.diff(offs)) == pytest.approx(2.0, rel=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["step_sigma", "initial_offset"])
def test_drift_model_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        det.DriftModel(**{field: bad})


def test_drift_none_centers_have_statistical_scatter_only():
    from mzweak.analysis import fit_gaussian

    cfg = det.ScanConfig(mean_rate=20000.0, repeats=1)
    recs = det.simulate_drift_run(cfg, det.DriftModel(), 30, seed=21)
    centers = [fit_gaussian(r.positions, r.counts[:, 0]).center for r in recs]
    assert np.std(centers) < 1.5  # the ~0.7 um Poisson fit floor only


def test_drift_random_walk_variance_grows_with_profile_index():
    from mzweak.analysis import fit_gaussian

    cfg = det.ScanConfig(mean_rate=20000.0, repeats=1)
    walk = det.DriftModel(step_sigma=2.0)
    early, late = [], []
    for seed in range(10):
        recs = det.simulate_drift_run(cfg, walk, 60, seed=1000 + seed)
        centers = np.array([fit_gaussian(r.positions, r.counts[:, 0]).center for r in recs])
        early.append(centers[5])
        late.append(centers[55])
    # Var(delta_p) = p * step^2: tenfold index, tenfold variance
    assert np.var(late) > 3.0 * np.var(early)


def test_drift_run_profiles_are_prefix_stable():
    # profile-major draws: the first 20 profiles do not depend on the total
    cfg = det.ScanConfig(mean_rate=2000.0, repeats=1)
    walk = det.DriftModel(step_sigma=2.0)
    short = det.simulate_drift_run(cfg, walk, 20, seed=4, axis="y")
    long = det.simulate_drift_run(cfg, walk, 100, seed=4, axis="y")
    assert len(long) == 100
    for a, b in zip(short, long[:20]):
        assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(long[0].counts, long[1].counts)


def test_drift_run_holds_few_bytes_per_count_cell():
    # windowed_intensity integrates one block of windows at a time: the run's
    # peak is its rate, count and record arrays; the edge tables and erf
    # values of every window at once would take ~120 bytes per cell
    cfg = det.ScanConfig(repeats=1)
    walk = det.DriftModel(step_sigma=2.0)
    tracemalloc.start()
    try:
        records = det.simulate_drift_run(cfg, walk, 4000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 4000
    assert peak <= 40 * 4000 * cfg.n_points


def test_drift_run_records_are_frozen_single_repeat_records():
    # each profile equals the record built from its own row of the run's
    # draw, and no array it holds, nor any array under it, is writable
    cfg = det.ScanConfig(mean_rate=2000.0, repeats=1, theta=10.0)
    walk = det.DriftModel(step_sigma=2.0)
    records = det.simulate_drift_run(cfg, walk, 30, seed=4, axis="y")
    akey = rngmod.AXIS_KEY["y"]
    offsets = walk.offsets(30, stream(4, rngmod.DRIFT_WALK, akey))
    rates = det.expected_rate(det.single_beam_state(), "y", cfg.positions - offsets[:, None], cfg)
    rows = stream(4, rngmod.DRIFT_RUN, akey).poisson(rates)
    assert len(records) == 30
    for record, row in zip(records, rows):
        expected = det.ScanRecord(cfg.theta, "y", cfg.positions, row[:, None], 4)
        assert type(record) is det.ScanRecord
        assert (record.theta, record.axis, record.seed) == (expected.theta, expected.axis, expected.seed)
        for name in ("positions", "counts"):
            got, want = getattr(record, name), getattr(expected, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            array = got
            while array is not None:
                assert isinstance(array, np.ndarray) and not array.flags.writeable
                array = array.base
        with pytest.raises(ValueError):
            record.counts[0, 0] = 1


def test_strong_regime_scan_frequencies_match_joint_distribution():
    # strong coupling: branches separate; sample photon positions from the
    # branch mixture (cross terms ~ exp(-50) are negligible) and classify
    g = 20.0 * SIGMA
    state = ptr.evolve(
        qm.pre_state(),
        [ptr.CouplerSpec("spatial", "A", g), ptr.CouplerSpec("diagonal", "B", g)],
        sigma=SIGMA,
    )
    weights = np.array([abs(b.coeff) ** 2 for b in state.branches])
    assert abs(weights.sum() - 1.0) < 1e-12
    rng = stream(123, 77)
    n = 100_000
    which = rng.choice(len(weights), size=n, p=weights)
    xs = np.array([state.branches[k].dx for k in which]) + rng.normal(0, SIGMA, n)
    ys = np.array([state.branches[k].dy for k in which]) + rng.normal(0, SIGMA, n)
    freq_a = np.count_nonzero(ys > g / 2) / n
    freq_bp = np.count_nonzero((ys <= g / 2) & (xs > g / 2)) / n
    freq_bm = np.count_nonzero((ys <= g / 2) & (xs < -g / 2)) / n
    uncond, _ = qm.joint_disturbing_distribution(qm.pair(0.0))
    for label, freq in (("A", freq_a), ("B+", freq_bp), ("B-", freq_bm)):
        p = uncond.probability(label)
        assert abs(freq - p) < 4.0 * np.sqrt(p * (1 - p) / n)


# --------------------------------------------------------------------- g2


def test_g2_statistic_arithmetic():
    assert det.g2_statistic(det.G2Counts(10**6, 10**3, 10**3, 1)) == pytest.approx(1.0)
    assert det.g2_statistic(det.G2Counts(10**6, 10**3, 10**3, 0)) == 0.0
    with pytest.raises(ZeroDenominator):
        det.g2_statistic(det.G2Counts(10**6, 0, 10**3, 0))
    with pytest.raises(ZeroDenominator):
        det.g2_counting_sigma(det.G2Counts(0, 0, 0, 0))


def test_g2_counts_validation():
    with pytest.raises(ValueError):
        det.G2Counts(100, 10, 10, 11)
    with pytest.raises(ValueError):
        det.G2Counts(-1, 0, 0, 0)


def test_source_model_validation():
    with pytest.raises(ValueError):
        det.SourceModel(pair_rate=-0.1)
    with pytest.raises(ValueError):
        det.SourceModel(heralding_efficiency=1.5)
    with pytest.raises(ValueError):
        det.SourceModel(pair_rate=0.01, multi_pair_prob=0.4)  # mean unreachable
    with pytest.raises(ValueError, match="pair_rate must be in"):
        det.SourceModel(pair_rate=1e19, multi_pair_prob=None)
    with pytest.raises(ValueError, match="n_windows must be in"):
        det.SourceModel(n_windows=2**63)
    with pytest.raises(ValueError, match="n_windows must be in"):
        det.SourceModel(n_windows=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["pair_rate", "n_windows"])
def test_source_model_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        det.SourceModel(**{field: bad})


def test_ideal_heralded_source_g2_zero():
    source = det.SourceModel(
        pair_rate=0.1, multi_pair_prob=0.0, heralding_efficiency=1.0, n_windows=200_000
    )
    counts = det.simulate_heralded_counts(source, seed=17)
    assert counts.triple == 0
    assert det.g2_statistic(counts) == 0.0


def test_poissonian_source_g2_near_one():
    source = det.SourceModel(
        pair_rate=0.2, multi_pair_prob=None, heralding_efficiency=0.6, n_windows=2_000_000
    )
    counts = det.simulate_heralded_counts(source, seed=23)
    g2 = det.g2_statistic(counts)
    assert abs(g2 - 1.0) < 3.0 * det.g2_counting_sigma(counts)


def test_g2_monotone_in_multi_pair_probability():
    grid = [0.0, 5e-4, 1e-3, 2e-3, 4e-3]
    means = []
    for p2 in grid:
        vals = []
        for s in range(10):
            source = det.SourceModel(
                pair_rate=0.05, multi_pair_prob=p2, heralding_efficiency=0.6,
                n_windows=300_000,
            )
            counts = det.simulate_heralded_counts(source, seed=500 + s)
            vals.append(det.g2_statistic(counts))
        means.append(np.mean(vals))
    assert all(b >= a for a, b in zip(means, means[1:]))


def test_g2_simulation_determinism():
    source = det.SourceModel(n_windows=300_000)
    a = det.simulate_heralded_counts(source, seed=9)
    b = det.simulate_heralded_counts(source, seed=9)
    assert a == b
    c = det.simulate_heralded_counts(source, seed=10)
    assert a != c


def _window_by_window_counts(source, seed):
    """The earlier event simulator, kept as an oracle: every window draws its
    pair number, herald and split, in chunks of 10^6 windows."""
    n_ref = c1 = c2 = triple = 0
    remaining = source.n_windows
    chunk_idx = 0
    eta = source.heralding_efficiency
    q = source.split_ratio
    while remaining > 0:
        m = min(remaining, 1_000_000)
        gen = stream(seed, rngmod.G2, chunk_idx)
        if source.multi_pair_prob is None:
            n = gen.poisson(source.pair_rate, size=m)
            herald = gen.random(m) < -np.expm1(-eta * source.pair_rate)
        else:
            p2 = source.multi_pair_prob
            p1 = source.pair_rate - 2.0 * p2
            u = gen.random(m)
            n = np.where(u < p2, 2, np.where(u < p2 + p1, 1, 0)).astype(np.int64)
            herald = gen.random(m) < (1.0 - (1.0 - eta) ** n)
        k1 = gen.binomial(n, q)
        s1 = k1 >= 1
        s2 = (n - k1) >= 1
        n_ref += int(np.count_nonzero(herald))
        c1 += int(np.count_nonzero(herald & s1))
        c2 += int(np.count_nonzero(herald & s2))
        triple += int(np.count_nonzero(herald & s1 & s2))
        remaining -= m
        chunk_idx += 1
    return det.G2Counts(n_ref, c1, c2, triple)


def _tally_probabilities(source):
    """Per-window probability of each tally (n_reference, c1, c2, triple),
    summed over the pair number n and the split k1 ~ Bin(n, q)."""
    eta, q, lam = source.heralding_efficiency, source.split_ratio, source.pair_rate
    if source.multi_pair_prob is None:
        # Poisson photon number; the herald is an independent tap
        herald = 1.0 - math.exp(-eta * lam)
        pairs = [(math.exp(-lam) * lam**n / math.factorial(n), herald) for n in range(60)]
    else:
        p2 = source.multi_pair_prob
        p1 = lam - 2.0 * p2
        pairs = [(1.0 - p1 - p2, 0.0), (p1, eta), (p2, 1.0 - (1.0 - eta) ** 2)]
    tally = np.zeros(4)
    for n, (p_n, herald) in enumerate(pairs):
        for k1 in range(n + 1):
            p = p_n * herald * math.comb(n, k1) * q**k1 * (1.0 - q) ** (n - k1)
            tally += p * np.array([1, k1 >= 1, n - k1 >= 1, k1 >= 1 and n - k1 >= 1])
    return tally


G2_SOURCES = {
    "pair-default": det.SourceModel(n_windows=2000),
    "coherent": det.SourceModel(pair_rate=0.2, multi_pair_prob=None, n_windows=2000),
    "pair-lossy": det.SourceModel(
        pair_rate=0.3, multi_pair_prob=0.1, heralding_efficiency=0.3, split_ratio=0.3, n_windows=2000
    ),
}


@pytest.mark.parametrize("name", sorted(G2_SOURCES))
def test_g2_draw_matches_window_by_window_simulation(name):
    # the multinomial draw (4000 seeds) and the window loop (800 seeds) both
    # follow the enumerated law: every tally's mean is within 4 SE of N p and
    # its variance within 25 % of N p (1 - p)
    source = G2_SOURCES[name]
    n = source.n_windows
    p = _tally_probabilities(source)
    variance = n * p * (1.0 - p)
    for simulate, n_seeds in ((det.simulate_heralded_counts, 4000), (_window_by_window_counts, 800)):
        tallies = np.array([dataclasses.astuple(simulate(source, seed)) for seed in range(n_seeds)], dtype=float)
        assert np.all(np.abs(tallies.mean(axis=0) - n * p) <= 4.0 * np.sqrt(variance / n_seeds))
        assert np.all(np.abs(tallies.var(axis=0, ddof=1) / variance - 1.0) <= 0.25)


@pytest.mark.parametrize("n_windows", [10**15, 2**63 - 1])
def test_g2_cost_does_not_grow_with_windows(n_windows):
    source = det.SourceModel(n_windows=n_windows)
    start = time.perf_counter()
    counts = det.simulate_heralded_counts(source, seed=4)
    assert time.perf_counter() - start < 1.0
    p_ref, p1, p2, p12 = _tally_probabilities(source)
    assert det.g2_statistic(counts) == pytest.approx(p_ref * p12 / (p1 * p2), rel=1e-4)
