"""Config-driven command line for simulation, analysis and verification runs.

Commands:
    weakvalue   analytic weak values and conditional probabilities per angle
    simulate    pointer evolution + counting statistics -> scan CSV files
    analyze     bootstrap + weak-value estimation + systematic band -> results
    g2          heralded-source tallies (one multinomial draw) -> g2 with counting error
    sweep       parameter sweep (theta | g | sigma) -> transition table CSV

Every command is a pure function of (config, seed): re-running with the same
inputs produces byte-identical output files. Exit codes: 0 success, 2 config
error or an output that cannot be written, 3 missing or unreadable input, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import detection as det
from . import pointer as ptr
from . import quantum as qm
from .config import REFERENCES, ExperimentConfig, read_json
from .errors import (
    ConfigError,
    MissingReference,
    OrthogonalPostSelection,
    SimulationError,
    UnreadableInput,
)
from .rng import AXIS_KEY

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


def build_couplers(config: ExperimentConfig):
    return [
        ptr.CouplerSpec("spatial", "A", config.g_y),
        ptr.CouplerSpec("diagonal", "B", config.g_x),
    ]


def build_pair(config: ExperimentConfig, theta: float) -> qm.PrePostPair:
    """The configured pre-selected state (arm phase, blocked arm) and the
    post-selection at one angle: the one pair the weak values and the
    pointer states of a config both read."""
    return qm.PrePostPair(qm.pre_state(config.arm_phase, config.blocked_arm), qm.post_state(theta))


def build_state(config: ExperimentConfig, theta: float):
    """Post-selected pointer state for one post-selection angle."""
    pp = build_pair(config, theta)
    return ptr.evolve_and_postselect(pp.pre, build_couplers(config), pp.post, sigma=config.sigma)


def _say(quiet: bool, text: str) -> None:
    if not quiet:
        print(text)


# The report's observables, name -> (kind, arm), and its conditionals,
# name -> (observable, eigenvalue), in the order they print
_OBSERVABLES = {"Y_A": ("spatial", "A"), "Y_B": ("spatial", "B"), "X_A": ("diagonal", "A"), "X_B": ("diagonal", "B")}
_CONDITIONALS = {"P(Y_A=1|post)": ("Y_A", 1.0), "P(Y_B=1|post)": ("Y_B", 1.0),
                 "P(X_B=+1|post)": ("X_B", 1.0), "P(X_B=-1|post)": ("X_B", -1.0)}


def cmd_weakvalue(config: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    """Analytic weak values and conditional outcome probabilities per angle,
    of the configured pair (``build_pair``)."""
    ops = {name: qm.observable(*spec) for name, spec in _OBSERVABLES.items()}
    labels = [f"{name}^w" for name in ops] + [name.replace("|post", "") for name in _CONDITIONALS]
    _say(quiet, "  ".join([f"{'theta':>8}"] + [f"{label:>10}" for label in labels]))
    rows = []
    for theta in config.theta_list:
        pp = build_pair(config, theta)
        try:
            values = {name: qm.weak_value(op, pp) for name, op in ops.items()}
            conditionals = {name: qm.abl_conditional(ops[obs], ev, pp) for name, (obs, ev) in _CONDITIONALS.items()}
        except OrthogonalPostSelection:
            rows.append({"theta_deg": theta, "undefined": "orthogonal post-selection"})
            _say(quiet, f"{theta:>8g}  undefined (orthogonal post-selection)")
            continue
        weak_values = {name: {"re": wv.real, "im": wv.imag} for name, wv in values.items()}
        rows.append({"theta_deg": theta, "weak_values": weak_values, "conditionals": conditionals})
        numbers = [wv.real for wv in values.values()] + list(conditionals.values())
        _say(quiet, "  ".join([f"{theta:>8g}"] + [f"{x:>10.6f}" for x in numbers]))
    ana.write_json(out_dir / "weakvalues.json", {"schema_version": 1, "rows": rows})
    return EXIT_OK


def cmd_simulate(config: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    """Simulate the scan records of the plan of ``theta_list``, in its order;
    each angle's pointer state is built once, for both axes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    state_of = {}
    for scan, axis, name in config.scans(config.theta_list):
        if scan.theta not in state_of:  # one angle's state at a time: holding them all raised the peak RSS
            state_of = {scan.theta: build_state(config, scan.theta)}
        record = det.simulate_scan(state_of[scan.theta], scan, axis, config.scan_drift_model(axis), config.seed)
        record.save_csv(out_dir / name)
        _say(quiet, f"wrote {out_dir / name} ({scan.repeats} repeats)")
    return EXIT_OK


def _grid_text(positions) -> str:
    return f"{positions.size} positions from {float(positions[0])!r} to {float(positions[-1])!r} um"


def _bootstrap_file(config: ExperimentConfig, path: Path, theta: float, axis: str, first):
    """(first, bootstrap distribution) of one scan file, where ``first`` is
    the (path, positions, seed) of the first file read (None before it). A
    file that cannot be opened or is damaged, one whose rows name another
    angle or axis than its file name, one from another run than the first
    file (another position grid or seed), or one with too few positions or
    repeats to bootstrap, is unreadable input."""
    if not path.exists():
        raise MissingReference(f"missing scan file: {path}")
    try:
        record = det.ScanRecord.load_csv(path)
    except (OSError, ValueError) as exc:  # both name the path
        raise UnreadableInput(str(exc)) from None
    if (record.theta, record.axis) != (theta, axis):
        raise UnreadableInput(
            f"{path}: holds theta {record.theta!r} deg on axis {record.axis!r}, not theta {theta!r} deg on axis {axis!r}"
        )
    first_path, positions, seed = first = first or (path, record.positions, record.seed)
    if record.seed != seed:
        raise UnreadableInput(f"{path}: seed {record.seed}, but {first_path}: seed {seed}; the scans must come from one run")
    if not np.array_equal(record.positions, positions):
        raise UnreadableInput(
            f"{path}: {_grid_text(record.positions)}, but {first_path}: {_grid_text(positions)}; the scans must share one grid"
        )
    try:
        return first, ana.bootstrap_centers(record, config.analysis["n_bootstrap"], config.seed)
    except ValueError as exc:
        raise UnreadableInput(f"{path}: {exc}") from None


def cmd_analyze(config: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    """Bootstrap centers, weak-value estimates and systematic bands. The scan
    records of the plan of the target and reference angles must come from one
    run; each is checked against the first as it loads, and bootstrapped
    before the next one is read."""
    thetas = (config.target_theta, *REFERENCES)
    dists = {}
    first = None
    for scan, axis, name in config.scans(thetas):
        first, dists[(scan.theta, axis)] = _bootstrap_file(config, out_dir / name, scan.theta, axis, first)

    draws = {}
    for axis in AXIS_KEY:
        idx, values, scale = ana.weak_value_draws(*(dists[(theta, axis)] for theta in thetas))
        drift_records = det.simulate_drift_run(
            config.drift_scan_config(),
            config.drift_model(axis),
            config.drift["n_profiles"],
            config.seed,
            axis=axis,
            sigma=config.sigma,
        )
        draws[axis] = idx, values, ana.systematic_band(drift_records, abs(scale))

    n_boot = config.analysis["n_bootstrap"]
    summary = ana.export_results(out_dir, list(dists.values()), draws, config.seed, n_boot, config.target_theta)
    for axis in AXIS_KEY:
        res = summary["results"][axis]
        _say(
            quiet,
            f"{axis}: weak value = {res['weak_value_mean']:.3f} +/- {res['stat_sigma']:.3f} (stat), "
            f"+/- {res['sys_band']:.3f} (sys), n = {res['n_samples']}",
        )
    _say(quiet, f"wrote {out_dir / 'summary.json'}")
    return EXIT_OK


def cmd_g2(config: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    """Heralded-source simulation and the g2 statistic."""
    source = config.source_model()
    counts = det.simulate_heralded_counts(source, config.seed)
    value = det.g2_statistic(counts)
    sigma = det.g2_counting_sigma(counts)
    _say(
        quiet,
        f"g2 = {value:.4f} +/- {sigma:.4f} "
        f"(N(R)={counts.n_reference}, C1={counts.c1}, C2={counts.c2}, triples={counts.triple})",
    )
    payload = {
        "schema_version": 1,
        "seed": config.seed,
        "g2": value,
        "counting_sigma": sigma,
        "counts": dataclasses.asdict(counts),
        "source": dict(config.source),
    }
    ana.write_json(out_dir / "g2.json", payload)
    return EXIT_OK


# The config keys each sweep parameter replaces
_SWEPT_KEYS = {"theta": ("target_theta",), "g": ("g_x", "g_y"), "sigma": ("sigma",)}
# Most sweep points: each costs about 0.2-0.35 ms, so a full sweep runs for about 20-35 s
MAX_SWEEP_POINTS = 100_000


def cmd_sweep(raw: dict, out_dir: Path, quiet: bool, args) -> int:
    """Sweep theta, g (both couplers) or sigma; report the x-axis pointer.

    Each point is the loaded document ``raw`` with the swept keys set to the
    value, checked like a config file and run before the next one, so a
    value no config may hold is a config error and no file is written.
    Columns: parameter value, analytic weak value (diagonal polarization on
    arm B), exact x centroid, first-order shift g * Re(w); the weak value and
    the centroid both read the point's pair (``build_pair``). Undefined weak
    values (orthogonal post-selection) are written as nan.
    """
    if args.stop <= args.start or not 2 <= args.num <= MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep range: need stop > start and 2 to {MAX_SWEEP_POINTS} points")
    x_b = qm.observable(*_OBSERVABLES["X_B"])
    values = np.linspace(args.start, args.stop, args.num)
    columns = np.empty((3, args.num))  # weak value, centroid, first-order shift
    for i, v in enumerate(values.tolist()):
        try:
            point = ExperimentConfig.from_dict(raw | dict.fromkeys(_SWEPT_KEYS[args.parameter], v))
        except ConfigError as exc:
            raise ConfigError(f"sweep {args.parameter} = {v!r}: {exc}") from None
        pp = build_pair(point, point.target_theta)
        try:
            wv = qm.weak_value(x_b, pp)
            wv_re, first = wv.real, ptr.first_order_shift(wv, point.g_x)
        except OrthogonalPostSelection:
            wv_re = first = float("nan")
        columns[:, i] = wv_re, ptr.centroid_exact(build_state(point, point.target_theta), "x"), first

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"sweep_{args.parameter}.csv"
    header = f"{args.parameter},weak_value,centroid_um,first_order_um"
    ana.write_csv(path, header, ("", values, *columns))
    _say(quiet, f"wrote {path} ({args.num} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzweak",
        description="Joint weak-measurement interferometer simulator",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config path (defaults reproduce the headline run)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=str, default=None, help="override the config output directory")
    parser.add_argument("--theta", type=float, default=None, help="restrict theta_list to one angle")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout reporting")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("weakvalue", help="analytic weak values per angle")
    sub.add_parser("simulate", help="simulate scan records")
    sub.add_parser("analyze", help="bootstrap scans into weak values")
    sub.add_parser("g2", help="heralded-source g2 simulation")
    sweep = sub.add_parser("sweep", help="parameter sweep table")
    sweep.add_argument("--parameter", choices=("theta", "g", "sigma"), required=True)
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--num", type=int, default=7)
    return parser


def _load_config(args):
    """(document, config): the config file (or the defaults) with the
    command-line overrides merged in, and that document validated."""
    raw = {} if args.config is None else read_json(args.config)
    overrides = {
        "seed": args.seed,
        "output_dir": args.out,
        "theta_list": None if args.theta is None else [args.theta],
    }
    if isinstance(raw, dict):
        raw = raw | {key: value for key, value in overrides.items() if value is not None}
    return raw, ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw, config = _load_config(args)
        out_dir = Path(config.output_dir)
        if args.command == "sweep":
            return cmd_sweep(raw, out_dir, args.quiet, args)
        command = {"weakvalue": cmd_weakvalue, "simulate": cmd_simulate, "analyze": cmd_analyze, "g2": cmd_g2}[args.command]
        return command(config, out_dir, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingReference as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except UnreadableInput as exc:
        print(f"unreadable input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except SimulationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # the inputs raise their own errors above, so this is an output
        print(f"config error: output_dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
