"""Monte Carlo photon-counting layer: fiber scans, beam drift, heralded g2.

Count model: each (position, repeat) cell of a scan draws an independent
Poisson count whose mean is the fiber-core-integrated marginal intensity,
normalized so the grid peak of the undrifted profile yields
``ScanConfig.mean_rate`` counts per position per repeat. Each record draws
its whole count array from one RNG stream (see :mod:`mzweak.rng`), repeat-
or profile-major, so a record does not depend on the other records, and its
first k repeats or profiles do not depend on the total.

The heralded-source event model is per coincidence window: a number of
photon pairs is emitted, the reference detector clicks with the heralding
efficiency per idler, and each signal photon routes through the 50:50
splitter to one of the two scan fibers. The windows are independent and the
g2 estimate reads only four tallies, so the windows are not simulated one by
one: the tallies come from one multinomial draw over the five outcomes of a
window. Scan counts, by contrast, are plain Poisson aggregates (long-dwell
regime); sub-Poissonian timing structure only matters for the g2 estimate.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import ZeroDenominator
from .pointer import BranchState, Branch, DEFAULT_SIGMA_UM, windowed_intensity


def _require_finite(obj, *names, integer=False) -> None:
    """Raise ValueError naming the first field that is neither None nor finite;
    with ``integer``, also one that is not a whole number, and store each as int."""
    for name in names:
        value = getattr(obj, name)
        if value is None:
            continue
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if integer:
            if not float(value).is_integer():
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(obj, name, int(value))


# Largest mean count drawn: numpy's Poisson sampler takes means up to about 9.2e18.
_MAX_POISSON_MEAN = 1e18
# Most g2 windows: numpy's multinomial takes an int64 number of trials.
_MAX_WINDOWS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ScanConfig:
    """Geometry and statistics of one fiber scan.

    Defaults follow the production protocol: 61 positions in 50 um steps
    (3 mm span), 50 um fiber core, 16 repeats for the target angle.
    ``start=None`` centers the grid on 0. ``mean_rate`` is the mean count
    of one position in one repeat at the profile peak.
    """

    start: float | None = None
    step: float = 50.0
    n_points: int = 61
    repeats: int = 16
    theta: float = 0.0
    fiber_core: float = 50.0
    mean_rate: float = 1000.0

    def __post_init__(self):
        _require_finite(self, "start", "step", "theta", "fiber_core", "mean_rate")
        _require_finite(self, "n_points", "repeats", integer=True)
        if not self.step > 0:
            raise ValueError("step must be > 0")
        if self.n_points < 5:
            raise ValueError("n_points must be >= 5, one more than the 4 parameters of the profile fit")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.fiber_core > 0:
            raise ValueError("fiber_core must be > 0")
        if not 0 <= self.mean_rate <= _MAX_POISSON_MEAN:
            raise ValueError(f"mean_rate must be in [0, {_MAX_POISSON_MEAN:g}]")
        if self.start is None:
            object.__setattr__(self, "start", -0.5 * self.step * (self.n_points - 1))
        # float64 rounding of the positions then stays < 1.3e-10 step, below the 1e-9 step load_csv allows
        if not 1e-5 * max(abs(self.start), abs(self.start + self.step * (self.n_points - 1))) <= self.step:
            raise ValueError("step must be at least 1e-5 of the largest |position|, for a finite, evenly spaced grid")

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
        # a record has the stream keys of its scan, so save_csv writes what load_csv reads back
        rngmod.theta_key(self.theta)
        if self.axis not in rngmod.AXIS_KEY:
            raise ValueError(f"axis must be one of {', '.join(rngmod.AXIS_KEY)}, got {self.axis!r}")
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

    def repeat_records(self) -> list:
        """One single-repeat record per repeat, in repeat order.

        Each holds a read-only (n_points, 1) view of this record's counts and
        shares its positions. The columns of a checked record need no check
        of their own, so ``__post_init__`` does not run again."""
        records = []
        for column in self.counts.T[:, :, None]:
            record = object.__new__(type(self))
            record.__dict__.update(vars(self), counts=column)
            records.append(record)
        return records

    def save_csv(self, path) -> None:
        """Columns: theta_deg, axis, position_um, repeat_idx, counts; LF line ends."""
        with open(path, "wb") as fh:
            fh.writelines(self._csv_chunks())

    def _csv_chunks(self):
        """The bytes ``save_csv`` writes, the one definition of the format: the
        header, then the rows in chunks of whole positions, about 2**16 cells each."""
        seed = "" if self.seed is None else f"# seed={int(self.seed)}\n"
        yield (seed + ",".join(_SCAN_COLUMNS) + "\n").encode()
        # one %-template per position, its repr prefix once before each
        # "repeat,%d" cell; one formatting pass per chunk fills in its counts.
        # Chunks keep a 10^6-cell record from holding its whole text and an int per cell.
        head = f"{float(self.theta)!r},{self.axis},".replace("%", "%%")
        cells = [""] + [f"{r},%d\n" for r in range(self.repeats)]
        step = 1 + 2**16 // (1 + self.repeats)  # positions per chunk
        for i in range(0, self.positions.size, step):
            rows = (f"{head}{u!r},".join(cells) for u in self.positions[i : i + step].tolist())
            yield "".join(rows).encode() % tuple(self.counts[i : i + step].ravel().tolist())

    @classmethod
    def load_csv(cls, path) -> "ScanRecord":
        """Read a scan CSV, one row per line.

        Any damage raises ValueError naming the file, and the line for a
        malformed row: a short or long row, a non-numeric or non-finite
        field, mixed theta/axis, an angle without a stream key
        (``rng.theta_key``), an uneven grid, a missing or duplicate cell.

        One rule admits a file to the bulk read (theta and axis from the
        first row, one ``np.loadtxt`` call over the numeric columns): the
        record it makes must be what ``save_csv`` writes back byte for byte.
        Any other file (CRLF, quoted, reordered or respelled fields, shuffled
        rows, damage) is read row by row with ``csv.reader``, which names the
        bad line; both reads load the same values.
        """
        bulk = _split_scan_columns(path)
        if bulk is not None:
            try:
                record, rest = cls._from_columns(path, *bulk[1:]), io.BytesIO(bulk[0])
                if all(rest.read(len(chunk)) == chunk for chunk in record._csv_chunks()) and not rest.read():
                    return record
            except ValueError:  # the row read names the damage
                pass
        return cls._from_columns(path, *_read_scan_rows(path))

    @classmethod
    def _from_columns(cls, path, seed, theta, axis, u, rep, n) -> "ScanRecord":
        """The record of a scan CSV's columns, one entry per row."""
        if rep.min() < 0:
            raise ValueError(f"{path}: negative repeat_idx")
        positions, first_seen, pos_idx = np.unique(u, return_index=True, return_inverse=True)
        steps = np.diff(u[np.sort(first_seen)])  # the grid in file order
        if steps.size and (steps.min() <= 0 or np.ptp(steps) > 1e-9 * steps.mean()):
            raise ValueError(f"{path}: positions are not strictly increasing and evenly spaced")
        # Python ints: a damaged repeat_idx overflows neither, and sizes nothing
        width = 1 + int(rep.max())
        grid, reps = positions.size * width, range(width)
        if grid > rep.size:  # cells are missing; number the repeats by rank, so no cell id overflows int64
            reps, rep = np.unique(rep, return_inverse=True)
        cell = pos_idx * len(reps) + rep
        cells, per_cell = np.unique(cell, return_counts=True)
        if per_cell.max() > 1:
            i, r = divmod(int(cells[np.argmax(per_cell)]), len(reps))
            raise ValueError(f"{path}: duplicate cell (position {float(positions[i])!r}, repeat {int(reps[r])})")
        if cells.size < grid:
            raise ValueError(f"{path}: {grid - cells.size} missing (position, repeat) cells")
        counts = np.zeros((positions.size, width), dtype=np.int64)
        counts.flat[cell] = n
        try:
            return cls(theta, axis, positions, counts, seed)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


_SCAN_COLUMNS = ("theta_deg", "axis", "position_um", "repeat_idx", "counts")
# position_um, repeat_idx and counts of one row, as the bulk read parses them
_NUMERIC_ROW = np.dtype([("u", np.float64), ("rep", np.int64), ("n", np.int64)])


def _parse_seed(path, first_line: str) -> int:
    return int(_parse_column(path, 1, "seed", [first_line.strip().split("=", 1)[1]], np.int64)[0])


def _split_scan_columns(path):
    """(file bytes, seed, theta, axis, position_um, repeat_idx, counts) of a
    scan CSV parsed at once, or None where that fails: theta and axis as
    ``csv.reader`` reads the first row, one ``np.loadtxt`` call for the three
    numeric columns. ``load_csv`` checks the result against the file bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = io.BytesIO(raw)
    try:
        first = lines.readline()  # the seed line or the header
        seed = _parse_seed(path, first.decode()) if first.startswith(b"# seed=") else None
        if seed is not None:
            lines.readline()  # the header
        start = lines.tell()
        # as csv.reader reads them, so that a quoted axis never renders back with its quotes
        theta, axis = next(csv.reader([lines.readline().decode()]))[:2]
        theta = float(theta)  # here, so that a "#" first line fails before np.loadtxt skips it as a comment
        lines.seek(start)
        table = np.loadtxt(lines, dtype=_NUMERIC_ROW, delimiter=",", usecols=(2, 3, 4), ndmin=1, encoding="utf-8")
        return raw, seed, theta, axis, table["u"], table["rep"], table["n"]
    except (ValueError, csv.Error):
        return None


def _read_scan_rows(path):
    """(seed, theta, axis, position_um, repeat_idx, counts) of a scan CSV read
    row by row with ``csv.reader``; any malformed row raises ValueError
    naming its line."""
    seed = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            first = fh.readline()
            if first.startswith("# seed="):
                seed = _parse_seed(path, first)
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
    return seed, float(theta[0]), axis, u, rep, n


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


# Largest drift step: a walk of at most 2**60 steps (the most float64 values
# an array holds), each under 14 sigma (numpy's normal sampler never draws
# more), then stays below 1.7e307 um, inside the float64 range.
_MAX_STEP_SIGMA = 1e288


@dataclass(frozen=True)
class DriftModel:
    """Slow beam-center drift: a Gaussian random walk of one step per
    profile from ``initial_offset``; ``step_sigma=0`` is no drift."""

    step_sigma: float = 0.0
    initial_offset: float = 0.0

    def __post_init__(self):
        _require_finite(self, "step_sigma", "initial_offset")
        if not 0 <= self.step_sigma <= _MAX_STEP_SIGMA:
            raise ValueError(
                f"step_sigma must be in [0, {_MAX_STEP_SIGMA:g}] um: a walk of at most 2**60 steps, "
                "each under 14 sigma, then stays below 1.7e307 um, inside the float64 range"
            )

    def offsets(self, n: int, rng) -> np.ndarray:
        """Beam-center offset before each of n profiles (um); a zero step stays at ``initial_offset``."""
        return self.initial_offset + np.cumsum(rng.normal(0.0, self.step_sigma, size=n))


def expected_rate(state: BranchState, axis: str, position, config: ScanConfig) -> np.ndarray:
    """Mean count of one repeat at each fiber position, an array of the
    positions' shape (0-d for a single position).

    Integrates the marginal intensity over the fiber core and scales so the
    peak grid position of the undrifted profile yields ``mean_rate``. The
    grid and the requested positions go through one ``windowed_intensity``
    call, which integrates them a block at a time: windows they share within
    a block are integrated once.
    """
    pos = np.asarray(position, dtype=float)
    n = config.n_points
    both = windowed_intensity(state, axis, np.concatenate([config.positions, pos.ravel()]), config.fiber_core)
    peak = float(np.max(both[:n]))
    rates = np.zeros(pos.size) if peak <= 0.0 else config.mean_rate * both[n:] / peak
    return rates.reshape(pos.shape)


def _drifted_rates(state: BranchState, axis: str, config: ScanConfig, offsets) -> np.ndarray:
    """Rate rows of the grid shifted by each offset, (len(offsets), n_points).

    ``expected_rate`` runs once per distinct offset and the rows are gathered:
    a center's windowed value does not depend on the other centers of the
    call, so each row is the one a per-offset call gives, bit for bit. The
    dedup pays where repeats share an offset (no drift on the scans: one
    rate row instead of one per repeat, ~0.45 s less of a 16 393-repeat
    ``simulate``); where every offset is distinct (a drift run), it costs
    ~3 B per count cell and no measurable time."""
    distinct, row = np.unique(offsets, return_inverse=True)
    return expected_rate(state, axis, config.positions - distinct[:, None], config)[row]


def _draw_record(state, axis, config, drift, repeats, seed, walk_path, count_path) -> ScanRecord:
    """One record of ``repeats`` repeats: a drift walk from the stream at ``walk_path``, a rate
    row per offset, and every count drawn repeat-major from the stream at ``count_path``."""
    walk = rngmod.stream(seed, *walk_path)
    rates = _drifted_rates(state, axis, config, drift.offsets(repeats, walk))
    counts = rngmod.stream(seed, *count_path).poisson(rates)
    return ScanRecord(config.theta, axis, config.positions, counts.T, seed)


def simulate_scan(state: BranchState, config: ScanConfig, axis: str, drift: DriftModel, seed: int) -> ScanRecord:
    """Poisson scan record, one drift offset per repeat, one stream drawn repeat-major."""
    keys = (rngmod.theta_key(config.theta), rngmod.AXIS_KEY[axis])
    walk_path, count_path = (rngmod.SCAN_DRIFT, *keys), (rngmod.SCAN_COUNTS, *keys)
    return _draw_record(state, axis, config, drift, config.repeats, seed, walk_path, count_path)


def single_beam_state(sigma: float = DEFAULT_SIGMA_UM) -> BranchState:
    """A plain Gaussian beam (one arm open, no couplers): the drift-run probe."""
    return BranchState((Branch(1.0 + 0.0j, None, 0.0, 0.0),), sigma)


def simulate_drift_run(
    config: ScanConfig,
    drift: DriftModel,
    n_profiles: int,
    seed: int,
    *,
    axis: str = "x",
    sigma: float = DEFAULT_SIGMA_UM,
) -> list:
    """Single-repeat scans of a single-arm beam with accumulating drift, drawn
    profile-major: the repeats of one checked record, as ``repeat_records``
    hands them out."""
    akey = rngmod.AXIS_KEY[axis]
    walk_path, count_path = (rngmod.DRIFT_WALK, akey), (rngmod.DRIFT_RUN, akey)
    return _draw_record(single_beam_state(sigma), axis, config, drift, n_profiles, seed, walk_path, count_path).repeat_records()


@dataclass(frozen=True)
class SourceModel:
    """Heralded pair source feeding the 50:50 split to the two scan fibers.

    ``pair_rate`` is pairs per coincidence window (312.5 ps in the
    experiment), and ``n_windows`` windows are drawn. In the pair model
    (``multi_pair_prob`` a number) the pair count per window is 0, 1 or 2
    with P(2) = multi_pair_prob and mean ``pair_rate``; the reference
    detector clicks per idler with the heralding efficiency, so the herald
    is pair-correlated and the heralded g2 is suppressed.

    ``multi_pair_prob=None`` selects the coherent (Poissonian) comparison
    source: the signal photon number is Poisson with mean ``pair_rate`` and
    the reference clicks independently of the signal (an uncorrelated tap of
    the same scaled intensity), which makes the heralded g2 exactly 1 in the
    limit of infinite windows.
    """

    pair_rate: float = 0.05
    multi_pair_prob: float | None = 7e-4
    heralding_efficiency: float = 0.6
    split_ratio: float = 0.5
    n_windows: int = 1_000_000

    def __post_init__(self):
        _require_finite(self, "pair_rate")
        _require_finite(self, "n_windows", integer=True)
        if not 0 <= self.pair_rate <= _MAX_POISSON_MEAN:
            raise ValueError(f"pair_rate must be in [0, {_MAX_POISSON_MEAN:g}]")
        if not 0 <= self.heralding_efficiency <= 1:
            raise ValueError("heralding_efficiency must be in [0, 1]")
        if not 0 <= self.split_ratio <= 1:
            raise ValueError("split_ratio must be in [0, 1]")
        if not 1 <= self.n_windows <= _MAX_WINDOWS:
            raise ValueError(f"n_windows must be in [1, {_MAX_WINDOWS}], the int64 range of the multinomial draw")
        if self.multi_pair_prob is not None:
            p2 = self.multi_pair_prob
            p1 = self.pair_rate - 2.0 * p2
            if not 0 <= p2 <= 1:
                raise ValueError("multi_pair_prob must be in [0, 1]")
            if p1 < 0 or p1 + p2 > 1:
                raise ValueError(
                    f"pair_rate must be in [2 * multi_pair_prob, 1 + multi_pair_prob] = [{2 * p2:g}, {1 + p2:g}]"
                )


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


def simulate_heralded_counts(source: SourceModel, seed: int) -> G2Counts:
    """The four g2 tallies of ``source.n_windows`` independent windows, drawn
    from their exact law in one multinomial draw from one stream.

    Each window ends in one of five outcomes: herald with no signal click,
    with S1 only, with S2 only, with both, or no herald. Each of the first
    four probabilities is a sum of products of non-negative factors, never a
    difference, so it stays accurate when tiny:

    - pair model: n pairs with P(1) = p1, P(2) = p2; the herald fires with
      1 - (1 - eta)^n (eta for n = 1, eta (2 - eta) for n = 2), and the n
      signal photons split binomially, k1 ~ Bin(n, q), so S1 clicks when
      k1 >= 1 and S2 when n - k1 >= 1;
    - coherent model: the herald is independent of the signal, and Poisson
      thinning makes the S1 and S2 photon numbers independent Poisson(q
      lambda) and Poisson((1 - q) lambda), so P(S1) = 1 - exp(-q lambda).

    Cost and memory do not depend on ``n_windows``.
    """
    eta = source.heralding_efficiency
    q = source.split_ratio
    if source.multi_pair_prob is None:
        lam = source.pair_rate
        herald = -math.expm1(-eta * lam)
        s1, s2 = -math.expm1(-q * lam), -math.expm1(-(1.0 - q) * lam)
        no1, no2 = math.exp(-q * lam), math.exp(-(1.0 - q) * lam)
        outcomes = [herald * no1 * no2, herald * s1 * no2, herald * no1 * s2, herald * s1 * s2]
    else:
        p2 = source.multi_pair_prob
        h1 = (source.pair_rate - 2.0 * p2) * eta  # one pair, heralded
        h2 = p2 * eta * (2.0 - eta)  # two pairs, heralded
        outcomes = [0.0, h1 * q + h2 * q * q, h1 * (1.0 - q) + h2 * (1.0 - q) ** 2, h2 * 2.0 * q * (1.0 - q)]
    # numpy assigns the last outcome, no herald, the remaining probability
    draw = rngmod.stream(seed, rngmod.G2).multinomial(source.n_windows, outcomes + [0.0])
    dark, only1, only2, both = (int(k) for k in draw[:4])
    return G2Counts(dark + only1 + only2 + both, only1 + both, only2 + both, both)


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
    g2 = g2_statistic(counts)  # raises ZeroDenominator on an empty denominator
    if counts.triple == 0:
        return counts.n_reference / (counts.c1 * counts.c2)
    rel = np.sqrt(
        1.0 / counts.triple + 1.0 / counts.c1 + 1.0 / counts.c2 + 1.0 / counts.n_reference
    )
    return float(g2 * rel)
