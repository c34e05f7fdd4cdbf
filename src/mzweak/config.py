"""Strict JSON experiment configuration.

An empty document ``{}`` reproduces the headline scenario: theta in
{0, 45, 90} deg, 50 um couplings on both axes, sigma = 475 um, 61 positions
in 50 um steps, 16 repeats at the target angle and 3 at the references,
10^4 bootstrap draws, plus the calibrated drift walk for the systematic
band. Unknown keys, wrong types and out-of-range values are startup errors
naming the offending key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .detection import DriftModel, ScanConfig, SourceModel
from .errors import ConfigError

# Drift-walk steps calibrated so the default pipeline reproduces systematic
# bands of about +/-0.070 (x) and +/-0.095 (y) in weak-value units over the
# default 100-profile drift run (see tests/test_acceptance.py).
CALIBRATED_STEP_SIGMA_X = 1.02
CALIBRATED_STEP_SIGMA_Y = 1.21

DEFAULTS = {
    "theta_list": [0.0, 45.0, 90.0],
    "target_theta": 0.0,
    "g_x": 50.0,
    "g_y": 50.0,
    "sigma": 475.0,
    "arm_phase": 0.0,
    "blocked_arm": None,
    "scan": {
        "start": None,
        "step": 50.0,
        "n_points": 61,
        "repeats": 16,
        "reference_repeats": 3,
        "fiber_core": 50.0,
        "mean_rate": 1000.0,
        "dwell": 1.0,
    },
    "drift": {
        "kind": "random-walk",
        "step_sigma_x": CALIBRATED_STEP_SIGMA_X,
        "step_sigma_y": CALIBRATED_STEP_SIGMA_Y,
        "initial_offset": 0.0,
        "n_profiles": 100,
        "mean_rate": 20000.0,
        "apply_to_scans": False,
    },
    "source": {
        "pair_rate": 0.05,
        "multi_pair_prob": 0.0007,
        "heralding_efficiency": 0.6,
        "split_ratio": 0.5,
        "n_windows": 1_000_000,
        "window": 312.5e-12,
    },
    "analysis": {
        "n_bootstrap": 10_000,
    },
    "seed": 20260809,
    "output_dir": "runs",
}


def _type_name(v):
    return type(v).__name__


def _require(cond, key, message):
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _check_number(value, key, *, minimum=None, maximum=None, integer=False, exclusive_min=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {_type_name(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    if integer and not float(value).is_integer():
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if minimum is not None:
        if exclusive_min:
            _require(value > minimum, key, f"must be > {minimum}")
        else:
            _require(value >= minimum, key, f"must be >= {minimum}")
    if maximum is not None:
        _require(value <= maximum, key, f"must be <= {maximum}")
    return int(value) if integer else float(value)


def _merge_section(defaults: dict, given, key: str) -> dict:
    if given is None:
        return dict(defaults)
    if not isinstance(given, dict):
        raise ConfigError(f"{key}: expected an object, got {_type_name(given)}")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"{key}.{sorted(unknown)[0]}: unknown key")
    merged = dict(defaults)
    merged.update(given)
    return merged


def read_json(path):
    """The parsed JSON document of a config file, not yet validated."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc


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
        theta_list = tuple(_check_number(t, "theta_list[]") for t in thetas)

        target_theta = _check_number(raw.get("target_theta", DEFAULTS["target_theta"]), "target_theta")
        g_x = _check_number(raw.get("g_x", DEFAULTS["g_x"]), "g_x", minimum=0.0)
        g_y = _check_number(raw.get("g_y", DEFAULTS["g_y"]), "g_y", minimum=0.0)
        sigma = _check_number(raw.get("sigma", DEFAULTS["sigma"]), "sigma", minimum=0.0, exclusive_min=True)
        arm_phase = _check_number(raw.get("arm_phase", DEFAULTS["arm_phase"]), "arm_phase")
        blocked = raw.get("blocked_arm", DEFAULTS["blocked_arm"])
        if blocked is not None and blocked not in ("A", "B"):
            raise ConfigError(f"blocked_arm: expected null, 'A' or 'B', got {blocked!r}")

        scan = _merge_section(DEFAULTS["scan"], raw.get("scan"), "scan")
        if scan["start"] is not None:
            scan["start"] = _check_number(scan["start"], "scan.start")
        scan["step"] = _check_number(scan["step"], "scan.step", minimum=0.0, exclusive_min=True)
        scan["n_points"] = _check_number(scan["n_points"], "scan.n_points", minimum=3, integer=True)
        scan["repeats"] = _check_number(scan["repeats"], "scan.repeats", minimum=1, integer=True)
        scan["reference_repeats"] = _check_number(
            scan["reference_repeats"], "scan.reference_repeats", minimum=1, integer=True
        )
        scan["fiber_core"] = _check_number(scan["fiber_core"], "scan.fiber_core", minimum=0.0, exclusive_min=True)
        scan["mean_rate"] = _check_number(scan["mean_rate"], "scan.mean_rate", minimum=0.0)
        scan["dwell"] = _check_number(scan["dwell"], "scan.dwell", minimum=0.0, exclusive_min=True)

        drift = _merge_section(DEFAULTS["drift"], raw.get("drift"), "drift")
        if drift["kind"] not in ("none", "random-walk"):
            raise ConfigError(f"drift.kind: expected 'none' or 'random-walk', got {drift['kind']!r}")
        drift["step_sigma_x"] = _check_number(drift["step_sigma_x"], "drift.step_sigma_x", minimum=0.0)
        drift["step_sigma_y"] = _check_number(drift["step_sigma_y"], "drift.step_sigma_y", minimum=0.0)
        drift["initial_offset"] = _check_number(drift["initial_offset"], "drift.initial_offset")
        drift["n_profiles"] = _check_number(drift["n_profiles"], "drift.n_profiles", minimum=10, integer=True)
        drift["mean_rate"] = _check_number(drift["mean_rate"], "drift.mean_rate", minimum=0.0)
        if not isinstance(drift["apply_to_scans"], bool):
            raise ConfigError("drift.apply_to_scans: expected true or false")

        source = _merge_section(DEFAULTS["source"], raw.get("source"), "source")
        source["pair_rate"] = _check_number(source["pair_rate"], "source.pair_rate", minimum=0.0)
        if source["multi_pair_prob"] is not None:
            source["multi_pair_prob"] = _check_number(
                source["multi_pair_prob"], "source.multi_pair_prob", minimum=0.0, maximum=1.0
            )
        source["heralding_efficiency"] = _check_number(
            source["heralding_efficiency"], "source.heralding_efficiency", minimum=0.0, maximum=1.0
        )
        source["split_ratio"] = _check_number(source["split_ratio"], "source.split_ratio", minimum=0.0, maximum=1.0)
        source["n_windows"] = _check_number(source["n_windows"], "source.n_windows", minimum=1, integer=True)
        source["window"] = _check_number(source["window"], "source.window", minimum=0.0, exclusive_min=True)

        analysis = _merge_section(DEFAULTS["analysis"], raw.get("analysis"), "analysis")
        analysis["n_bootstrap"] = _check_number(
            analysis["n_bootstrap"], "analysis.n_bootstrap", minimum=1, integer=True
        )

        seed = _check_number(raw.get("seed", DEFAULTS["seed"]), "seed", minimum=0, integer=True)
        output_dir = raw.get("output_dir", DEFAULTS["output_dir"])
        if not isinstance(output_dir, str):
            raise ConfigError(f"output_dir: expected a string, got {_type_name(output_dir)}")

        return cls(
            theta_list=theta_list,
            target_theta=target_theta,
            g_x=g_x,
            g_y=g_y,
            sigma=sigma,
            arm_phase=arm_phase,
            blocked_arm=blocked,
            scan=scan,
            drift=drift,
            source=source,
            analysis=analysis,
            seed=seed,
            output_dir=output_dir,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))

    def scan_config(self, theta: float) -> ScanConfig:
        """ScanConfig for one post-selection angle (target vs reference repeats)."""
        repeats = self.scan["repeats"] if theta == self.target_theta else self.scan["reference_repeats"]
        return ScanConfig(
            start=self.scan["start"],
            step=self.scan["step"],
            n_points=self.scan["n_points"],
            repeats=repeats,
            theta=theta,
            fiber_core=self.scan["fiber_core"],
            mean_rate=self.scan["mean_rate"],
            dwell=self.scan["dwell"],
        )

    def scan_drift_model(self, axis: str) -> DriftModel:
        """Drift applied to ordinary scans (none unless configured)."""
        if not self.drift["apply_to_scans"] or self.drift["kind"] == "none":
            return DriftModel(kind="none", initial_offset=self.drift["initial_offset"])
        return self.drift_model(axis)

    def drift_model(self, axis: str) -> DriftModel:
        """Drift model of the calibration run on one axis."""
        step = self.drift["step_sigma_x"] if axis == "x" else self.drift["step_sigma_y"]
        return DriftModel(
            kind=self.drift["kind"],
            step_sigma=step,
            initial_offset=self.drift["initial_offset"],
        )

    def drift_scan_config(self) -> ScanConfig:
        """Scan geometry of the drift run (single repeat, boosted rate)."""
        return ScanConfig(
            start=self.scan["start"],
            step=self.scan["step"],
            n_points=self.scan["n_points"],
            repeats=1,
            theta=self.target_theta,
            fiber_core=self.scan["fiber_core"],
            mean_rate=self.drift["mean_rate"],
            dwell=self.scan["dwell"],
        )

    def source_model(self) -> SourceModel:
        return SourceModel(
            pair_rate=self.source["pair_rate"],
            multi_pair_prob=self.source["multi_pair_prob"],
            heralding_efficiency=self.source["heralding_efficiency"],
            split_ratio=self.source["split_ratio"],
            n_windows=self.source["n_windows"],
            window=self.source["window"],
        )
