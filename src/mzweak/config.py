"""Strict JSON experiment configuration.

An empty document ``{}`` reproduces the headline scenario: theta in
{0, 45, 90} deg, 50 um couplings on both axes, sigma = 475 um, 61 positions
in 50 um steps, 16 repeats at the target angle and 3 at the references,
10^4 bootstrap draws, plus the calibrated drift walk for the systematic
band. Unknown keys, wrong types and out-of-range values are startup errors
naming the offending key.

This module checks what only the JSON document shows: its shape, unknown
keys, number types, finiteness, whole counts, and the ranges of the keys no
model owns. Every other ``scan``, ``drift`` and ``source`` value is
range-checked by the model it builds (``ScanConfig``, ``DriftModel``,
``SourceModel``): ``from_dict`` builds each model a command asks for and
reports a failure under its JSON key. The ``scan`` and ``source`` defaults
are the model field defaults.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .detection import DriftModel, ScanConfig, SourceModel
from .errors import ConfigError
from .pointer import DEFAULT_SIGMA_UM
from .rng import AXIS_KEY, theta_key

# Drift-walk steps calibrated so the default pipeline reproduces systematic
# bands of about +/-0.070 (x) and +/-0.095 (y) in weak-value units over the
# default 100-profile drift run (see tests/test_acceptance.py).
CALIBRATED_STEP_SIGMA_X = 1.02
CALIBRATED_STEP_SIGMA_Y = 1.21

# Bound (um) on the sum of the lengths on the beam path: far above any optics,
# and small enough that every square the pointer and the profile fit form stays finite.
MAX_LENGTH_UM = 1e30
# Narrowest beam (um), the reciprocal of MAX_LENGTH_UM: sigma^2 stays a normal
# float, and every (length / sigma)^2 the pointer forms stays finite.
MIN_SIGMA_UM = 1e-30


def _field_defaults(model, *skip) -> dict:
    return {f.name: f.default for f in fields(model) if f.name not in skip}


DEFAULTS = {
    "theta_list": [0.0, 45.0, 90.0],
    "target_theta": 0.0,
    "g_x": 50.0,
    "g_y": 50.0,
    "sigma": DEFAULT_SIGMA_UM,
    "arm_phase": 0.0,
    "blocked_arm": None,
    "scan": _field_defaults(ScanConfig, "theta") | {"reference_repeats": 3},
    "drift": {
        "step_sigma_x": CALIBRATED_STEP_SIGMA_X,
        "step_sigma_y": CALIBRATED_STEP_SIGMA_Y,
        "initial_offset": 0.0,
        "n_profiles": 100,
        "mean_rate": 20000.0,
        "apply_to_scans": False,
    },
    "source": _field_defaults(SourceModel),
    "analysis": {
        "n_bootstrap": 10_000,
    },
    "seed": 20260809,
    "output_dir": "runs",
}

# Section values that may be null: a centered grid, the coherent source.
_NULLABLE = ("scan.start", "source.multi_pair_prob")
# Lower bounds of the keys that no model owns, and of the scan repeats the
# bootstrap resamples (ScanConfig allows 1, for the drift-run scans).
_MINIMUM = {"g_x": 0.0, "g_y": 0.0, "sigma": MIN_SIGMA_UM, "seed": 0,
            "scan.repeats": 2, "scan.reference_repeats": 2, "drift.n_profiles": 10, "analysis.n_bootstrap": 2}
# Most bootstrap draws: analyze keeps O(n_bootstrap) numbers per record
# (README: time and memory at this bound)
MAX_BOOTSTRAP = 1_000_000
_MAXIMUM = {"analysis.n_bootstrap": MAX_BOOTSTRAP}
# Most count cells in one record: repeats (or drift profiles) x n_points.
# simulate and analyze hold a few arrays of this size; the rate model's
# window integrals hold one block of windows at a time (README: time and
# memory at this bound)
MAX_RECORD_CELLS = 1_000_000


def _type_name(v):
    return type(v).__name__


def _require(cond, key, message):
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _check_number(value, key, *, minimum=None, maximum=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {_type_name(value)}")
    # NaN, the infinities and JSON integers beyond the float range
    _require(abs(value) <= sys.float_info.max, key, f"expected a finite number, got {value!r}")
    if integer and not float(value).is_integer():
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if minimum is not None:
        _require(value >= minimum, key, f"must be >= {minimum}")
    if maximum is not None:
        _require(value <= maximum, key, f"must be <= {maximum}")
    return int(value) if integer else float(value)


def _check_angle(value, key):
    """A finite angle that has a stream key (``rng.theta_key``); -0.0 enters
    as 0.0, so one angle has one scan file name."""
    theta = _check_number(value, key) + 0.0
    _build(lambda: theta_key(theta), "", theta=key)
    return theta


def _section(raw: dict, name: str) -> dict:
    """One section merged over its defaults. Each number is checked and stored
    as the type of its default (int for counts, float otherwise); the ranges
    of model fields are left to the model."""
    given = raw.get(name)
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"{name}: expected an object, got {_type_name(given)}")
    unknown = set(given) - set(DEFAULTS[name])
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
    section = DEFAULTS[name] | given
    for key, default in DEFAULTS[name].items():
        value, path = section[key], f"{name}.{key}"
        if isinstance(default, bool):
            _require(isinstance(value, bool), path, "expected true or false")
        elif not (value is None and path in _NULLABLE):
            section[key] = _check_number(
                value, path, minimum=_MINIMUM.get(path), maximum=_MAXIMUM.get(path), integer=isinstance(default, int)
            )
    return section


def _build(build, section: str, **renamed):
    """Call ``build`` to construct a model. Its ValueError, whose message
    starts with the name of a model field, becomes a ConfigError that starts
    with the JSON key: ``section.field``, or ``renamed[field]``."""
    try:
        build()
    except ValueError as exc:
        field, _, message = str(exc).partition(" ")
        raise ConfigError(f"{renamed.get(field, f'{section}.{field}')}: {message}") from None


def _check_cells(config) -> None:
    """Each record, a target or reference scan or the drift run (one profile
    per repeat), has at most MAX_RECORD_CELLS count cells; a larger one names
    its repeats key."""
    n_points = config.scan["n_points"]
    for key in ("scan.repeats", "scan.reference_repeats", "drift.n_profiles"):
        section, field = key.split(".")
        count = getattr(config, section)[field]
        cells = count * n_points
        _require(cells <= MAX_RECORD_CELLS, key, f"{count} x {n_points} positions = {cells} count cells, over {MAX_RECORD_CELLS}")


def _check_lengths(config) -> None:
    """The lengths on the beam path (um) add up to at most MAX_LENGTH_UM; a
    larger sum names the key of its largest term. The drift walk's bound is
    14 step_sigma per step, more than numpy's normal sampler ever draws."""
    scan, drift = config.scan, config.drift
    grid = config.scan_config(config.target_theta).positions
    axis = max(AXIS_KEY, key=lambda a: drift[f"step_sigma_{a}"])
    steps = max(scan["repeats"], scan["reference_repeats"], drift["n_profiles"])
    lengths = {
        "sigma": config.sigma,
        "g_x": config.g_x,
        "g_y": config.g_y,
        "scan.fiber_core": scan["fiber_core"],
        "scan.step" if scan["start"] is None else "scan.start": float(max(abs(grid[0]), abs(grid[-1]))),
        "drift.initial_offset": abs(drift["initial_offset"]),
        f"drift.step_sigma_{axis}": 14.0 * steps * drift[f"step_sigma_{axis}"],
    }
    total = sum(lengths.values())
    key = max(lengths, key=lengths.get)
    _require(total <= MAX_LENGTH_UM, key, f"the lengths on the beam path sum to {total:g} um, over {MAX_LENGTH_UM:g}")


# The post-selection angles of weak value 0 and 1, whose pointer shifts scale analyze's weak values
REFERENCES = (45.0, 90.0)


def scan_filename(theta: float, axis: str) -> str:
    """The scan file of one angle and axis. The angle reads as %g (0, 45,
    -12.5) when that reads back as the same float, else as its repr, so that
    no two angles share a file name."""
    tag = f"{theta:g}"
    return f"scan_theta{tag if float(tag) == theta else repr(theta)}_{axis}.csv"


def read_json(path):
    """The parsed JSON document of a config file, not yet validated."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer literal longer than Python converts
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted experiment description."""

    theta_list: tuple
    target_theta: float
    g_x: float
    g_y: float
    sigma: float
    arm_phase: float
    blocked_arm: str | None
    scan: dict
    drift: dict
    source: dict
    analysis: dict
    seed: int
    output_dir: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config root: expected an object, got {_type_name(raw)}")
        unknown = set(raw) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown key")

        thetas = raw.get("theta_list", DEFAULTS["theta_list"])
        if not isinstance(thetas, list) or not thetas:
            raise ConfigError("theta_list: expected a non-empty list of angles")
        theta_list = tuple(_check_angle(t, "theta_list[]") for t in thetas)
        _require(len(set(theta_list)) == len(theta_list), "theta_list", "repeats an angle; each angle is one scan")

        target_theta = _check_angle(raw.get("target_theta", DEFAULTS["target_theta"]), "target_theta")
        top = {}  # checked in the order of DEFAULTS, so that the first bad key is the one reported
        for key in ("g_x", "g_y", "sigma", "arm_phase", "blocked_arm", "seed"):
            value = raw.get(key, DEFAULTS[key])
            if key == "blocked_arm":
                _require(value in (None, "A", "B"), key, f"expected null, 'A' or 'B', got {value!r}")
            else:
                value = _check_number(value, key, minimum=_MINIMUM.get(key), integer=isinstance(DEFAULTS[key], int))
            top[key] = value
        output_dir = raw.get("output_dir", DEFAULTS["output_dir"])
        if not isinstance(output_dir, str):
            raise ConfigError(f"output_dir: expected a string, got {_type_name(output_dir)}")

        config = cls(
            theta_list=theta_list,
            target_theta=target_theta,
            **top,
            scan=_section(raw, "scan"),
            drift=_section(raw, "drift"),
            source=_section(raw, "source"),
            analysis=_section(raw, "analysis"),
            output_dir=output_dir,
        )
        _build(lambda: config.scan_config(target_theta), "scan")
        _build(config.drift_scan_config, "scan", mean_rate="drift.mean_rate")
        for axis in AXIS_KEY:
            _build(lambda: config.drift_model(axis), "drift", step_sigma=f"drift.step_sigma_{axis}")
        _build(config.source_model, "source")
        _check_cells(config)
        _check_lengths(config)
        return config

    def scan_config(self, theta: float) -> ScanConfig:
        """ScanConfig for one post-selection angle (target vs reference repeats)."""
        scan = dict(self.scan, theta=theta)
        reference_repeats = scan.pop("reference_repeats")
        if theta != self.target_theta:
            scan["repeats"] = reference_repeats
        return ScanConfig(**scan)

    def scans(self, thetas) -> list:
        """The record plan of the angles ``thetas``: one (ScanConfig, axis,
        file name) per distinct angle and axis, in the order of ``thetas``
        and x before y. ``simulate`` writes the plan of ``theta_list``;
        ``analyze`` reads that of ``(target_theta, *REFERENCES)``, an angle
        both target and reference once."""
        return [
            (self.scan_config(theta), axis, scan_filename(theta, axis)) for theta in dict.fromkeys(thetas) for axis in AXIS_KEY
        ]

    def scan_drift_model(self, axis: str) -> DriftModel:
        """Drift applied to ordinary scans (none unless configured)."""
        if not self.drift["apply_to_scans"]:
            return DriftModel(initial_offset=self.drift["initial_offset"])
        return self.drift_model(axis)

    def drift_model(self, axis: str) -> DriftModel:
        """Drift model of the calibration run on one axis."""
        return DriftModel(step_sigma=self.drift[f"step_sigma_{axis}"], initial_offset=self.drift["initial_offset"])

    def drift_scan_config(self) -> ScanConfig:
        """Scan geometry of the drift run (single repeat, boosted rate)."""
        return replace(self.scan_config(self.target_theta), repeats=1, mean_rate=self.drift["mean_rate"])

    def source_model(self) -> SourceModel:
        return SourceModel(**self.source)
