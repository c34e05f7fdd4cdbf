"""From raw scan counts to weak values with error bars.

Pipeline: fit Gaussian profiles (moment-form variable projection, Golub &
Pereyra 1973: each trial center and width is evaluated once, into the row
sums its Gauss-Newton step needs, and a closed-form cost small enough to
lose digits to cancellation is recomputed from the explicit residual),
bootstrap the profile centers by drawing one repeat per position (the
16^61 construction, 10^4 draws by default; the draws are made and fitted
one chunk at a time, and each fit starts one linearized Gauss-Newton step
away from the fit of the repeat-mean profile, or from its own moments when
that fit is unconverged or off the grid), scale the target centers against
the 45 deg (zero) and 90 deg (unit) reference distributions,

    w_i = (X_i - X0_i) / <X1 - X0>,

with the expectation in the denominator so a near-zero scale draw cannot
produce spurious weak values, and estimate the systematic band as the drift
of fitted centers over a long single-arm run divided by the same scale.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .errors import DegenerateProfile, NonConvergence, ZeroScale

RESULTS_SCHEMA_VERSION = 1

_FTOL = 1e-10
_GTOL = 1e-8
_MAX_ITER = 200
_CHUNK_ROWS = 1024
_EXPORT_ROWS = 1 << 16  # results-CSV rows formatted at a time; above the default 10^4 draws
_MAX_DROPPED = 0.01  # share of bootstrap fits that may fail before the distribution is rejected


@dataclass(frozen=True)
class FitResult:
    """Parameters of A exp(-(u-center)^2 / (2 width^2)) + offset. A returned fit has converged."""

    center: float
    width: float
    amplitude: float
    offset: float
    residual_norm: float
    converged: bool
    n_iterations: int


@dataclass(frozen=True)
class CenterDistribution:
    """Bootstrap distribution of fitted profile centers for one (theta, axis);
    ``draw_idx`` names each center's draw, increasing (default 0, 1, ...)."""

    centers: np.ndarray
    theta: float
    axis: str
    draw_idx: np.ndarray | None = None

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        arr = np.array(self.centers, dtype=float)
        if arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValueError("centers must be non-empty and finite")
        idx = np.arange(arr.size) if self.draw_idx is None else np.array(self.draw_idx, dtype=np.int64)
        if idx.shape != arr.shape or np.any(np.diff(idx) <= 0):
            raise ValueError("draw_idx must have one strictly increasing entry per center")
        arr.setflags(write=False)
        idx.setflags(write=False)
        object.__setattr__(self, "centers", arr)
        object.__setattr__(self, "draw_idx", idx)


@dataclass(frozen=True)
class WeakValueEstimate:
    """Weak value with statistical 1 sigma and systematic band (+/-)."""

    mean: float
    stat_sigma: float
    sys_band: float
    n_samples: int

    def __post_init__(self):
        if self.stat_sigma < 0 or self.sys_band < 0:
            raise ValueError("stat_sigma and sys_band must be >= 0")


_dot = functools.partial(np.einsum, "ij,ij->i")  # row-wise dot products
_rowsum = functools.partial(np.einsum, "ij->i")
_matvec = functools.partial(np.einsum, "ij,j->i")

# a closed-form cost below this fraction of ||yc||^2 is recomputed from the
# explicit residual: its cancellation error ~eps ||yc||^2 / cost stays ~2e-12
_GUARD = 1e-4


def _evaluate(u, mu, s, yc, ycn, work):
    """Everything a Gauss-Newton step needs at (mu, s), per row of the centred
    profiles yc: (A, sum e, projected gradient g_mu, g_s, projected Gram
    G_mm, G_ss, G_ms, least-squares cost), as one (8, rows) array.

    With e = exp(-z^2/2), z = (u - mu) / s, the amplitude is
    A = <e, yc> / see, see = ||e - <e>||^2 (inf when e is constant, so A
    reads 0). The Jacobian columns of (mu, s) are (A/s) e z and (A/s) e z^2;
    projected off span{e, 1}, their Gram matrix is (A/s)^2 G and the
    gradient (A/s) g, with G_ab = <a, b> - sum a sum b / n - c_a c_b / see,
    c_a = <a, e - <e>> and g_a = <a, yc> - A c_a. The cost
    ||yc||^2 - A <e, yc> falls back to the explicit residual below
    _GUARD ||yc||^2, where its cancellation would reach _FTOL. z, e, e z and
    e z^2 are written into the first rows of the four ``work`` arrays."""
    n = u.size
    z, e, ez, ez2 = work[:, : mu.size]
    np.divide(np.subtract(u, mu[:, None], out=z), s[:, None], out=z)
    np.exp(np.multiply(np.multiply(z, z, out=e), -0.5, out=e), out=e)
    np.multiply(e, z, out=ez)
    np.multiply(ez, z, out=ez2)
    se, s1, s2 = _rowsum(e), _rowsum(ez), _rowsum(ez2)
    q2 = _dot(ez, ez)  # <ez, ez> = <e, ez^2>
    see = _dot(e, e) - se * se / n
    see = np.where(see > 0, see, np.inf)
    ey = _dot(e, yc)
    amp = ey / see
    c1 = _dot(e, ez) - se * s1 / n
    c2 = q2 - se * s2 / n
    cost = ycn - amp * ey
    low = np.flatnonzero(cost < _GUARD * ycn)
    if low.size:
        r = yc[low] - amp[low, None] * (e[low] - (se[low] / n)[:, None])
        cost[low] = _dot(r, r)
    return np.stack([
        amp,
        se,
        _dot(ez, yc) - amp * c1,
        _dot(ez2, yc) - amp * c2,
        q2 - s1 * s1 / n - c1 * c1 / see,
        _dot(ez2, ez2) - s2 * s2 / n - c2 * c2 / see,
        _dot(ez, ez2) - s1 * s2 / n - c1 * c2 / see,
        cost,
    ])


def _lm_gaussian_batch(u, profiles, start=None):
    """Moment-form variable projection (Golub & Pereyra 1973) for a batch of
    profiles A exp(-z^2/2) + b, z = (u - mu) / s: A and b are solved in closed
    form for each (mu, s), and damped Gauss-Newton steps move (mu, s) alone.
    Each trial (mu, s) is evaluated once, by _evaluate: one exp and the row
    sums of e = exp(-z^2/2), e z and e z^2 against each other and the
    centred profile. An accepted trial carries those sums, so the next step
    recomputes nothing. Rows are fitted in chunks of _CHUNK_ROWS, each on
    its own arrays, to keep them in cache.

    ``start`` is None (each row starts from its moments above the row
    minimum: centroid and rms width) or a (mu, s) pair of per-row arrays.

    Returns (params (B,4) = (A, mu, |s|, b), residual_norm (B,), converged (B,),
    n_iter (B,)). Rows without shape information (flat profiles), and rows
    whose steps find no finite lower cost, come back unconverged; fewer than
    5 positions raise ValueError.
    """
    u = np.asarray(u, dtype=float)
    y = np.atleast_2d(np.asarray(profiles, dtype=float))
    if u.size < 5:
        raise ValueError("need at least 5 points")
    nbatch = y.shape[0]
    params = np.empty((nbatch, 4))
    resnorm = np.empty(nbatch)
    converged = np.zeros(nbatch, dtype=bool)
    n_iter = np.zeros(nbatch, dtype=int)
    for lo in range(0, nbatch, _CHUNK_ROWS):
        sl = slice(lo, lo + _CHUNK_ROWS)
        chunk_start = None if start is None else (start[0][sl], start[1][sl])
        params[sl], resnorm[sl], converged[sl], n_iter[sl] = _fit_chunk(u, y[sl], chunk_start)
    return params, resnorm, converged, n_iter


def _fit_chunk(u, y, start=None):
    """_lm_gaussian_batch on one chunk of rows. Every (rows, n) array an
    iteration writes lives in buffers made once per chunk: a fresh array of
    that size costs page faults that can take longer than the arithmetic."""
    n = u.size
    step = float(np.min(np.diff(u)))
    s_floor = 1e-3 * step
    work = np.empty((4,) + y.shape)
    ybar = y.mean(axis=1)
    yc = y - ybar[:, None]
    ycn = _dot(yc, yc)
    if start is None:  # the moments above the row minimum: centroid and rms width
        w = y - y.min(axis=1)[:, None]
        sw = w.sum(axis=1)
        safe = np.where(sw > 0, sw, 1.0)
        mu = (w @ u) / safe
        var = (w * (u[None, :] - mu[:, None]) ** 2).sum(axis=1) / safe
        s = np.sqrt(np.maximum(var, (0.5 * step) ** 2))
    else:
        mu, s = (np.array(a, dtype=float) for a in start)
    yi = np.empty_like(yc)  # the centred profiles of the rows under evaluation
    lam = np.full(y.shape[0], 1e-3)
    converged = np.zeros(y.shape[0], dtype=bool)
    n_iter = np.zeros(y.shape[0], dtype=int)
    # Far from the grid's support a step or a trial can overflow or divide
    # by zero. Those results are not used: a row keeps only points whose
    # every number is finite, so such a trial is a rejected step, and a row
    # that never finds a finite lower cost ends unconverged.
    with np.errstate(all="ignore"):
        state = _evaluate(u, mu, s, yc, ycn, work)
        live = (ycn > 0) & np.isfinite(state).all(axis=0)  # shape information, and a finite start
        for _ in range(_MAX_ITER):
            idx = np.flatnonzero(live & ~converged)
            if idx.size == 0:
                break
            amp, _, g_mu, g_s, h_mm, h_ss, h_ms, ci = state[:, idx]
            f = amp / s[idx]
            gsmall = np.maximum(np.abs(f * g_mu), np.abs(f * g_s)) < _GTOL
            converged[idx[gsmall]] = True
            stepped = ~gsmall
            idx, f, g_mu, g_s, h_mm, h_ss, h_ms, ci = (a[stepped] for a in (idx, f, g_mu, g_s, h_mm, h_ss, h_ms, ci))
            li = lam[idx]
            # damped normal equations (H + lam diag H) delta = grad with
            # H = (A/s)^2 G and grad = (A/s) g: delta = (G + lam diag G)^-1 g / (A/s)
            h_mm = h_mm * (1.0 + li)
            h_ss = h_ss * (1.0 + li)
            fdet = f * (h_mm * h_ss - h_ms * h_ms)
            mu_t = mu[idx] + (h_ss * g_mu - h_ms * g_s) / fdet
            s_t = s[idx] + (h_mm * g_s - h_ms * g_mu) / fdet
            s_t = np.copysign(np.maximum(np.abs(s_t), s_floor), s_t)
            rows = yc if idx.size == y.shape[0] else np.take(yc, idx, axis=0, out=yi[: idx.size])
            trial = _evaluate(u, mu_t, s_t, rows, ycn[idx], work)
            cost_t = trial[7]

            better = (cost_t < ci) & np.isfinite(trial).all(axis=0)
            done = better & ((ci - cost_t) / np.maximum(cost_t, 1e-300) < _FTOL)
            # a rejected step that leaves the cost unchanged within _FTOL has
            # stalled at the minimum: the fit is done, not failed
            done |= ~better & (np.abs(cost_t - ci) <= _FTOL * ci)
            acc = idx[better]
            mu[acc], s[acc], state[:, acc] = mu_t[better], s_t[better], trial[:, better]
            lam[idx] = np.where(better, np.maximum(li / 3.0, 1e-12), np.minimum(li * 2.0, 1e12))
            converged[idx] |= done
            n_iter[idx] += 1

        amp, se = state[0], state[1]
        params = np.stack([amp, mu, np.abs(s), ybar - amp * se / n], axis=1)
        return params, np.sqrt(state[7]), converged, n_iter


# No command fits through it; it stays while perfbench's traced run wraps it (ROADMAP item 1)
def fit_gaussian(positions, counts) -> FitResult:
    """Least-squares Gaussian-plus-offset fit of a single profile.

    Raises DegenerateProfile for flat input and NonConvergence when the fit
    has not converged within _MAX_ITER steps.
    """
    y = np.asarray(counts, dtype=float)
    if np.all(y == y[0]):
        raise DegenerateProfile("all counts equal")
    params, resnorm, converged, n_iter = _lm_gaussian_batch(positions, y[None, :])
    if not converged[0]:
        raise NonConvergence(f"no convergence within {_MAX_ITER} iterations")
    amp, mu, s, b = params[0]
    return FitResult(
        center=float(mu),
        width=float(s),
        amplitude=float(amp),
        offset=float(b),
        residual_norm=float(resnorm[0]),
        converged=bool(converged[0]),
        n_iterations=int(n_iter[0]),
    )


def _linearized_start(u, profile):
    """Starts for the fits of profiles near ``profile``: a function of a
    (rows, n) batch y that returns per-row (mu, s), or None for the moment start.

    Fits ``profile`` from its moments. If that fit converged with its center
    on the grid and its width in [step, span], the start of row y is one
    fixed-Jacobian Gauss-Newton step from the fit f0,
    (mu, s) = (mu0, s0) + P (y - f0), P the center and width rows of
    (J^T J)^-1 J^T at f0, kept inside that same box. Otherwise every row
    starts from its moments.
    """
    params, _, converged, _ = _fit_chunk(u, profile[None, :])
    amp, mu0, s0, b = params[0]
    lo, hi = u[0], u[-1]
    step = float(np.min(np.diff(u)))
    if not (converged[0] and lo <= mu0 <= hi and step <= s0 <= hi - lo):
        return lambda y: None
    z = (u - mu0) / s0
    e = np.exp(-0.5 * z * z)
    jac = np.stack([e, amp / s0 * e * z, amp / s0 * e * z * z, np.ones_like(u)], axis=1)
    p_mu, p_s = np.linalg.pinv(jac)[1:3]
    f0 = amp * e + b
    mu_base, s_base = mu0 - p_mu @ f0, s0 - p_s @ f0
    return lambda y: (np.clip(mu_base + _matvec(y, p_mu), lo, hi), np.clip(s_base + _matvec(y, p_s), step, hi - lo))


def bootstrap_centers(record, n_bootstrap: int = 10_000, seed: int = 0) -> CenterDistribution:
    """Bootstrap the profile center by resampling one repeat per position.

    Each draw builds a profile by picking, independently per position, one of
    the available repeat readings (uniformly), and fits it. The draws are
    made and fitted one chunk of _CHUNK_ROWS at a time, so memory grows with
    n_bootstrap, not n_bootstrap x positions; each fit starts one linearized
    Gauss-Newton step away from the fit of the repeat-mean profile
    (_linearized_start). Draws that fail to converge are dropped; more than
    ``_MAX_DROPPED`` dropped raises NonConvergence. A record with fewer than
    2 repeats raises ValueError: its draws would all be one profile, with a
    zero spread.
    """
    counts = record.counts
    n_points, repeats = counts.shape
    tkey = rngmod.theta_key(record.theta)
    akey = rngmod.AXIS_KEY[record.axis]
    if repeats < 2:
        raise ValueError(f"the bootstrap needs at least 2 repeats per position, got {repeats}")

    table = counts.astype(float)
    start = _linearized_start(record.positions, table.mean(axis=1))
    # draw-major: the first k draws are the same for any n_bootstrap >= k,
    # and drawing them chunk by chunk continues one stream
    gen = rngmod.stream(seed, rngmod.BOOTSTRAP, tkey, akey)
    rows = np.arange(n_points)
    centers = np.empty(n_bootstrap)
    converged = np.empty(n_bootstrap, dtype=bool)
    for lo in range(0, n_bootstrap, _CHUNK_ROWS):
        sl = slice(lo, min(lo + _CHUNK_ROWS, n_bootstrap))
        profiles = table[rows, gen.integers(0, repeats, size=(sl.stop - lo, n_points))]
        params, _, converged[sl], _ = _lm_gaussian_batch(record.positions, profiles, start=start(profiles))
        centers[sl] = params[:, 1]
    dropped = int(np.count_nonzero(~converged))
    if dropped > _MAX_DROPPED * n_bootstrap:
        raise NonConvergence(
            f"{dropped}/{n_bootstrap} bootstrap fits failed to converge (> {_MAX_DROPPED:.0%})"
        )
    return CenterDistribution(centers[converged], record.theta, record.axis, np.flatnonzero(converged))


def weak_value_draws(target: CenterDistribution, ref0: CenterDistribution, ref1: CenterDistribution):
    """Paired weak-value draws (X - X0) / <X1 - X0>.

    Draws pair on the bootstrap draws all three distributions kept, and the
    scale is the mean displacement between the unit and zero references on
    those same draws. Returns (draw_idx, draws, scale in um); |scale| < 1 um
    raises ZeroScale.
    """
    dists = (target, ref0, ref1)
    idx = functools.reduce(functools.partial(np.intersect1d, assume_unique=True), [d.draw_idx for d in dists])
    if idx.size == 0:
        raise ValueError("the center distributions share no bootstrap draw")
    x, x0, x1 = (d.centers[np.isin(d.draw_idx, idx, assume_unique=True)] for d in dists)
    scale = float(np.mean(x1 - x0))
    if abs(scale) < 1.0:
        raise ZeroScale(f"|<X1 - X0>| = {abs(scale):.3g} um < 1 um")
    return idx, (x - x0) / scale, scale


def weak_value_estimate(draws: np.ndarray, sys_band: float = 0.0) -> WeakValueEstimate:
    """Mean and statistical sigma of paired weak-value draws."""
    return WeakValueEstimate(
        mean=float(np.mean(draws)),
        stat_sigma=float(np.std(draws)),
        sys_band=float(sys_band),
        n_samples=int(draws.size),
    )


def systematic_band(drift_records, scale: float) -> float:
    """Spread of fitted beam centers over a drift run, in weak-value units.

    ``drift_records`` are single-repeat scans on one grid, one per profile,
    as ``simulate_drift_run`` returns them. Fits the profiles in one batch
    and returns std(centers) / scale; a flat profile raises DegenerateProfile,
    an unconverged fit NonConvergence.
    """
    if len(drift_records) < 10:
        raise ValueError("need at least 10 drift profiles")
    if not scale > 0:
        raise ValueError("scale must be > 0")
    if any(rec.repeats != 1 for rec in drift_records):
        raise ValueError("drift records must be single-repeat scans, one per profile")
    u = drift_records[0].positions
    if any(rec.positions is not u and not np.array_equal(rec.positions, u) for rec in drift_records):
        raise ValueError("drift records must share one position grid")
    profiles = np.concatenate([rec.counts.T for rec in drift_records], dtype=float)
    if np.any(np.all(profiles == profiles[:, :1], axis=1)):
        raise DegenerateProfile("flat drift-run profile")
    params, _, converged, _ = _lm_gaussian_batch(u, profiles)
    if not converged.all():
        raise NonConvergence(f"{np.count_nonzero(~converged)} drift-profile fits did not converge")
    return float(np.std(params[:, 1]) / scale)


def export_results(
    out_dir,
    estimates: dict,
    distributions: list,
    weak_draws: dict,
    seed: int,
    n_bootstrap: int,
    target_theta: float = 0.0,
) -> dict:
    """Write the results dataset: center draws, weak-value draws, JSON summary.

    ``estimates`` maps axis -> WeakValueEstimate; ``weak_draws`` maps axis ->
    (draw_idx, draws) of ``weak_value_draws``. Floats are
    serialized with repr so a re-parse reproduces them bit-exactly. Returns the summary dict.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_csv(out / "centers.csv", "theta_deg,axis,draw_idx,center_um",
              *((f"{float(d.theta)!r},{d.axis},", d.draw_idx, d.centers) for d in distributions))
    write_csv(out / "weak_values.csv", "axis,draw_idx,weak_value",
              *((f"{axis},", idx, draws) for axis, (idx, draws) in sorted(weak_draws.items())))

    summary = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "seed": int(seed),
        "n_bootstrap": int(n_bootstrap),
        "target_theta_deg": float(target_theta),
        "results": {
            axis: {
                "weak_value_mean": est.mean,
                "stat_sigma": est.stat_sigma,
                "sys_band": est.sys_band,
                "n_samples": est.n_samples,
            }
            for axis, est in sorted(estimates.items())
        },
    }
    write_json(out / "summary.json", summary)
    return summary


def write_csv(path, header: str, *blocks) -> None:
    """Write a results CSV (centers.csv, weak_values.csv, sweep_*.csv,
    profiles): the header line, then per block (prefix, column, ...) of
    array columns one row per entry, the prefix and the str(.tolist())
    values joined by commas (a float as its repr, which re-parses
    bit-exactly), LF line ends, _EXPORT_ROWS rows at a time. A block whose
    columns differ in length raises ValueError before the file is opened."""
    for prefix, *columns in blocks:
        if len({len(c) for c in columns}) != 1:
            raise ValueError(f"{path}: block {prefix!r} has columns of lengths {[len(c) for c in columns]}, not of one length")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for prefix, *columns in blocks:
            for lo in range(0, len(columns[0]), _EXPORT_ROWS):
                values = (map(str, c[lo : lo + _EXPORT_ROWS].tolist()) for c in columns)
                fh.writelines((prefix, f"\n{prefix}".join(map(",".join, zip(*values))), "\n"))


def write_json(path, payload) -> None:
    """Write a JSON results file (summary.json, g2.json, weakvalues.json):
    two-space indent, sorted keys, a final newline. Missing parent
    directories are made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_summary(path) -> dict:
    """Read a results summary, rejecting a document that is not an object
    and unknown schema versions."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    version = data.get("schema_version")
    if version != RESULTS_SCHEMA_VERSION:
        raise ValueError(f"unsupported results schema version: {version!r}")
    return data
