"""Monte Carlo photon-counting layer: fiber scans, beam drift, heralded g2.

Count model: each (position, repeat) cell of a scan draws an independent
Poisson count whose mean is the fiber-core-integrated marginal intensity,
normalized so the grid peak of the undrifted profile yields
``ScanConfig.mean_rate`` counts per dwell. Each record draws its whole
count array from one RNG stream (see :mod:`mzweak.rng`), repeat- or
profile-major, so a record does not depend on the other records, and its
first k repeats or profiles do not depend on the total.

The heralded-source event model runs per coincidence window: a number of
photon pairs is emitted, the reference detector clicks with the heralding
efficiency per idler, and each signal photon routes through the 50:50
splitter to one of the two scan fibers. Scan counts, by contrast, are plain
Poisson aggregates (long-dwell regime); sub-Poissonian timing structure only
matters for the g2 estimate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import ZeroDenominator
from .pointer import BranchState, Branch, DEFAULT_SIGMA_UM, windowed_intensity


def _require_finite(obj, *names) -> None:
    """Raise ValueError naming the first field that is neither None nor finite."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ScanConfig:
    """Geometry and statistics of one fiber scan.

    Defaults follow the production protocol: 61 positions in 50 um steps
    (3 mm span), 50 um fiber core, 16 repeats for the target angle.
    ``start=None`` centers the grid on 0. ``mean_rate`` is counts per dwell
    at the profile peak; ``dwell`` (seconds) is retained as metadata.
    """

    start: float | None = None
    step: float = 50.0
    n_points: int = 61
    repeats: int = 16
    theta: float = 0.0
    fiber_core: float = 50.0
    mean_rate: float = 1000.0
    dwell: float = 1.0

    def __post_init__(self):
        _require_finite(self, "start", "step", "fiber_core", "mean_rate")
        if not self.step > 0:
            raise ValueError("step must be > 0")
        if self.n_points < 3:
            raise ValueError("n_points must be >= 3")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.fiber_core > 0:
            raise ValueError("fiber_core must be > 0")
        if self.mean_rate < 0:
            raise ValueError("mean_rate must be >= 0")
        if self.start is None:
            object.__setattr__(self, "start", -0.5 * self.step * (self.n_points - 1))

    @property
    def positions(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n_points)


@dataclass(frozen=True)
class ScanRecord:
    """Raw coincidence counts of one scan: counts[position, repeat]."""

    theta: float
    axis: str
    positions: np.ndarray
    counts: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        pos = np.array(self.positions, dtype=float)
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        cnt = np.asarray(self.counts)
        if cnt.dtype.kind not in "iu":
            as_float = cnt.astype(float)
            if not np.all(np.isfinite(as_float) & (as_float == np.floor(as_float))):
                raise ValueError("counts must be whole numbers")
        cnt = cnt.astype(np.int64)
        if cnt.ndim != 2 or cnt.shape[0] != pos.shape[0]:
            raise ValueError("counts must be (n_points, repeats)")
        if np.any(cnt < 0):
            raise ValueError("counts must be non-negative")
        pos.setflags(write=False)
        cnt.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "counts", cnt)

    @property
    def repeats(self) -> int:
        return self.counts.shape[1]

    def save_csv(self, path) -> None:
        """Columns: theta_deg, axis, position_um, repeat_idx, counts."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if self.seed is not None:
                fh.write(f"# seed={int(self.seed)}\n")
            writer = csv.writer(fh)
            writer.writerow(["theta_deg", "axis", "position_um", "repeat_idx", "counts"])
            for i, u in enumerate(self.positions):
                for r in range(self.repeats):
                    writer.writerow(
                        [repr(float(self.theta)), self.axis, repr(float(u)), r,
                         int(self.counts[i, r])]
                    )

    @classmethod
    def load_csv(cls, path) -> "ScanRecord":
        """Read a file written by ``save_csv`` (one row per line).

        Any damage raises ValueError naming the file, and the line for a
        malformed row: a short or long row, a non-numeric or non-finite
        field, mixed theta/axis, an uneven grid, a missing or duplicate cell.
        """
        seed = None
        with open(path, "r", encoding="utf-8", newline="") as fh:
            try:
                first = fh.readline()
                if first.startswith("# seed="):
                    seed = int(_parse_column(path, 1, "seed", [first.strip().split("=", 1)[1]], np.int64)[0])
                else:
                    fh.seek(0)
                reader = csv.reader(fh)
                header = next(reader, None)
                rows = list(reader)
            except (csv.Error, UnicodeDecodeError) as exc:
                raise ValueError(f"{path}: not a scan CSV ({exc})") from None
        if not rows:
            raise ValueError(f"{path}: empty scan file")
        line0 = 2 if seed is None else 3  # the file line of rows[0]
        if sorted(header) != sorted(_SCAN_COLUMNS):
            raise ValueError(f"{path}, line {line0 - 1}: the header must name {', '.join(_SCAN_COLUMNS)}")
        widths = list(map(len, rows))
        if widths.count(len(header)) < len(rows):
            bad = next(i for i, w in enumerate(widths) if w != len(header))
            raise ValueError(f"{path}, line {line0 + bad}: expected {len(header)} fields, got {widths[bad]}")
        fields = dict(zip(header, zip(*rows)))
        theta = _parse_column(path, line0, "theta_deg", fields["theta_deg"], float)
        u = _parse_column(path, line0, "position_um", fields["position_um"], float)
        rep = _parse_column(path, line0, "repeat_idx", fields["repeat_idx"], np.int64)
        n = _parse_column(path, line0, "counts", fields["counts"], np.int64)
        axis = fields["axis"][0]
        if np.any(theta != theta[0]) or fields["axis"].count(axis) < len(rows):
            raise ValueError(f"{path}: mixed theta/axis values")
        if rep.min() < 0:
            raise ValueError(f"{path}: negative repeat_idx")
        positions, first_seen, pos_idx = np.unique(u, return_index=True, return_inverse=True)
        steps = np.diff(u[np.sort(first_seen)])  # the grid in file order
        if steps.size and (steps.min() <= 0 or np.ptp(steps) > 1e-9 * steps.mean()):
            raise ValueError(f"{path}: positions are not strictly increasing and evenly spaced")
        counts = np.zeros((positions.size, 1 + int(rep.max())), dtype=np.int64)
        cell = pos_idx * counts.shape[1] + rep
        cells, per_cell = np.unique(cell, return_counts=True)
        if per_cell.max() > 1:
            i, r = divmod(int(cells[np.argmax(per_cell)]), counts.shape[1])
            raise ValueError(f"{path}: duplicate cell (position {float(positions[i])!r}, repeat {r})")
        if cells.size < counts.size:
            raise ValueError(f"{path}: {counts.size - cells.size} missing (position, repeat) cells")
        counts.flat[cell] = n
        return cls(float(theta[0]), axis, positions, counts, seed)


_SCAN_COLUMNS = ("theta_deg", "axis", "position_um", "repeat_idx", "counts")


def _parse_column(path, line0: int, name: str, texts, dtype) -> np.ndarray:
    """A column of CSV fields as a float or int64 array; a field that is not
    a finite number raises ValueError naming its file line."""
    try:
        values = np.array(texts, dtype=dtype)
        if np.all(np.isfinite(values)):
            return values
    except (ValueError, OverflowError):
        pass
    parse = float if dtype is float else int
    for i, text in enumerate(texts):
        try:
            ok = math.isfinite(parse(text))
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{path}, line {line0 + i}: {name} {text!r} is not a finite {parse.__name__}")
    raise ValueError(f"{path}: {name} column does not fit {np.dtype(dtype).name}")


@dataclass(frozen=True)
class DriftModel:
    """Slow beam-center drift: none, or a Gaussian random walk per profile."""

    kind: str = "none"
    step_sigma: float = 0.0
    initial_offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "random-walk"):
            raise ValueError(f"kind must be 'none' or 'random-walk', got {self.kind!r}")
        _require_finite(self, "step_sigma", "initial_offset")
        if self.step_sigma < 0:
            raise ValueError("step_sigma must be >= 0")

    def offsets(self, n: int, rng) -> np.ndarray:
        """Beam-center offset before each of n profiles (um)."""
        if self.kind == "none" or self.step_sigma == 0.0:
            return np.full(n, self.initial_offset)
        steps = rng.normal(0.0, self.step_sigma, size=n)
        return self.initial_offset + np.cumsum(steps)


def expected_rate(state: BranchState, axis: str, position, config: ScanConfig):
    """Mean counts per dwell at a fiber position.

    Integrates the marginal intensity over the fiber core and scales so the
    peak grid position of the undrifted profile yields ``mean_rate``. The
    grid and the requested positions go through one ``windowed_intensity``
    call, so windows they share are integrated once.
    """
    pos = np.asarray(position, dtype=float)
    n = config.n_points
    both = windowed_intensity(state, axis, np.concatenate([config.positions, pos.ravel()]), config.fiber_core)
    peak = float(np.max(both[:n]))
    flux = both[n:].reshape(pos.shape)
    if peak <= 0.0:
        return np.zeros_like(flux) if pos.ndim else 0.0
    scaled = config.mean_rate * flux / peak
    return scaled if pos.ndim else float(scaled)


def simulate_scan(state: BranchState, config: ScanConfig, axis: str, drift: DriftModel, seed: int) -> ScanRecord:
    """Poisson scan record, one drift offset per repeat, one stream drawn repeat-major."""
    tkey = rngmod.theta_key(config.theta)
    akey = rngmod.AXIS_KEY[axis]
    walk = rngmod.stream(seed, rngmod.SCAN_DRIFT, tkey, akey)
    offsets = drift.offsets(config.repeats, walk)
    rates = expected_rate(state, axis, config.positions - offsets[:, None], config)
    counts = rngmod.stream(seed, rngmod.SCAN_COUNTS, tkey, akey).poisson(rates)
    return ScanRecord(config.theta, axis, config.positions, counts.T, seed)


def single_beam_state(sigma: float = DEFAULT_SIGMA_UM) -> BranchState:
    """A plain Gaussian beam (one arm open, no couplers): the drift-run probe."""
    return BranchState((Branch(1.0 + 0.0j, None, 0.0, 0.0),), sigma, 0.0, True)


def simulate_drift_run(
    config: ScanConfig,
    drift: DriftModel,
    n_profiles: int,
    seed: int,
    *,
    axis: str = "x",
    sigma: float = DEFAULT_SIGMA_UM,
) -> list:
    """Single-repeat scans of a single-arm beam with accumulating drift, drawn profile-major."""
    state = single_beam_state(sigma)
    akey = rngmod.AXIS_KEY[axis]
    walk = rngmod.stream(seed, rngmod.DRIFT_WALK, akey)
    offsets = drift.offsets(n_profiles, walk)
    rates = expected_rate(state, axis, config.positions - offsets[:, None], config)
    counts = rngmod.stream(seed, rngmod.DRIFT_RUN, akey).poisson(rates)
    return [ScanRecord(config.theta, axis, config.positions, row[:, None], seed) for row in counts]


@dataclass(frozen=True)
class SourceModel:
    """Heralded pair source feeding the 50:50 split to the two scan fibers.

    In the pair model (``multi_pair_prob`` a number) the pair count per
    window is 0, 1 or 2 with P(2) = multi_pair_prob and mean ``pair_rate``;
    the reference detector clicks per idler with the heralding efficiency,
    so the herald is pair-correlated and the heralded g2 is suppressed.

    ``multi_pair_prob=None`` selects the coherent (Poissonian) comparison
    source: the signal photon number is Poisson with mean ``pair_rate`` and
    the reference clicks independently of the signal (an uncorrelated tap of
    the same scaled intensity), which makes the heralded g2 exactly 1 in the
    limit of infinite windows.

    ``window`` (seconds) is metadata: the 312.5 ps coincidence window.
    """

    pair_rate: float = 0.05
    multi_pair_prob: float | None = 7e-4
    heralding_efficiency: float = 0.6
    split_ratio: float = 0.5
    n_windows: int = 1_000_000
    window: float = 312.5e-12

    def __post_init__(self):
        _require_finite(self, "pair_rate")
        if self.pair_rate < 0:
            raise ValueError("pair_rate must be >= 0")
        if not 0 <= self.heralding_efficiency <= 1:
            raise ValueError("heralding_efficiency must be in [0, 1]")
        if not 0 <= self.split_ratio <= 1:
            raise ValueError("split_ratio must be in [0, 1]")
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if self.multi_pair_prob is not None:
            p2 = self.multi_pair_prob
            p1 = self.pair_rate - 2.0 * p2
            if not 0 <= p2 <= 1:
                raise ValueError("multi_pair_prob must be in [0, 1]")
            if p1 < 0 or p1 + p2 > 1:
                raise ValueError("pair_rate and multi_pair_prob give no valid pair distribution")


@dataclass(frozen=True)
class G2Counts:
    """Heralded coincidence tallies: reference singles, heralded singles at
    each split output, and triple coincidences."""

    n_reference: int
    c1: int
    c2: int
    triple: int

    def __post_init__(self):
        for name in ("n_reference", "c1", "c2", "triple"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.triple > min(self.c1, self.c2):
            raise ValueError("triple coincidences cannot exceed either singles channel")


_G2_CHUNK = 1_000_000


def simulate_heralded_counts(source: SourceModel, seed: int) -> G2Counts:
    """Window-by-window event simulation of the heralded source."""
    n_ref = c1 = c2 = triple = 0
    remaining = source.n_windows
    chunk_idx = 0
    eta = source.heralding_efficiency
    q = source.split_ratio
    while remaining > 0:
        m = min(remaining, _G2_CHUNK)
        gen = rngmod.stream(seed, rngmod.G2, chunk_idx)
        if source.multi_pair_prob is None:
            # coherent light: reference tap independent of the signal field
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
    return G2Counts(n_ref, c1, c2, triple)


def g2_statistic(counts: G2Counts) -> float:
    """Heralded cross-correlation N(R) C(S1,S2|R) / (C(S1|R) C(S2|R))."""
    if counts.c1 == 0 or counts.c2 == 0 or counts.n_reference == 0:
        raise ZeroDenominator("need n_reference > 0 and both singles channels > 0")
    return counts.n_reference * counts.triple / (counts.c1 * counts.c2)


def g2_counting_sigma(counts: G2Counts) -> float:
    """Poisson-propagated standard error of the g2 estimate.

    With zero triples, returns the one-triple scale N(R)/(C1 C2) as the
    resolution of the estimator.
    """
    if counts.c1 == 0 or counts.c2 == 0 or counts.n_reference == 0:
        raise ZeroDenominator("need n_reference > 0 and both singles channels > 0")
    scale = counts.n_reference / (counts.c1 * counts.c2)
    if counts.triple == 0:
        return scale
    g2 = g2_statistic(counts)
    rel = np.sqrt(
        1.0 / counts.triple + 1.0 / counts.c1 + 1.0 / counts.c2 + 1.0 / counts.n_reference
    )
    return float(g2 * rel)
