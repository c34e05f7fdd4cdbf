"""From raw scan counts to weak values with error bars.

Pipeline: fit Gaussian profiles (variable projection, Golub & Pereyra 1973),
bootstrap the profile centers by drawing one repeat per position (the 16^61
construction, 10^4 draws by default), scale the target centers against the
45 deg (zero) and 90 deg (unit) reference distributions,

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


@dataclass(frozen=True)
class FitResult:
    """Converged parameters of A exp(-(u-center)^2 / (2 width^2)) + offset."""

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


def _centred(v):
    return v - v.mean(axis=1)[:, None]


def _basis(e):
    """Centred basis e - <e> per row and its squared norm (inf if e is constant, so coefficients read 0)."""
    ec = _centred(e)
    see = _dot(ec, ec)
    return ec, np.where(see > 0, see, np.inf)


def _split(v, ec, see):
    """Coefficient of the centred rows v on ec, and the rest of v, orthogonal to span{e, 1}."""
    coef = _dot(ec, v) / see
    return coef, v - coef[:, None] * ec


def _lm_gaussian_batch(u, profiles, max_iter=_MAX_ITER, ftol=_FTOL, gtol=_GTOL):
    """Variable projection (Golub & Pereyra 1973) for a batch of profiles
    A exp(-z^2/2) + b, z = (u - mu) / s: A and b are solved in closed form
    for each (mu, s), and damped Gauss-Newton steps move (mu, s) alone. Rows
    iterate in chunks of _CHUNK_ROWS to keep the working arrays in cache.

    Returns (params (B,4) = (A, mu, |s|, b), residual_norm (B,), converged (B,),
    n_iter (B,)). Rows without shape information (flat profiles) come back
    unconverged; fewer than 5 positions raise ValueError.
    """
    u = np.asarray(u, dtype=float)
    y = np.atleast_2d(np.asarray(profiles, dtype=float))
    if u.size < 5:
        raise ValueError("need at least 5 points")
    nbatch = y.shape[0]
    # start from the moments above the row minimum: centroid and rms width
    w = y - y.min(axis=1)[:, None]
    sw = w.sum(axis=1)
    informative = sw > 0
    safe = np.where(informative, sw, 1.0)
    mu = (w @ u) / safe
    var = (w * (u[None, :] - mu[:, None]) ** 2).sum(axis=1) / safe
    step = float(np.min(np.diff(u)))
    s = np.sqrt(np.maximum(var, (0.5 * step) ** 2))
    s_floor = 1e-3 * step
    yc = _centred(y)
    e = np.exp(-0.5 * ((u - mu[:, None]) / s[:, None]) ** 2)
    lam = np.full(nbatch, 1e-3)
    converged = np.zeros(nbatch, dtype=bool)
    n_iter = np.zeros(nbatch, dtype=int)

    for lo in range(0, nbatch, _CHUNK_ROWS):
        for _ in range(max_iter):
            idx = lo + np.flatnonzero((informative & ~converged)[lo:lo + _CHUNK_ROWS])
            if idx.size == 0:
                break
            yi, ei, mi, si, li = yc[idx], e[idx], mu[idx], s[idx], lam[idx]
            ec, see = _basis(ei)
            amp, r = _split(yi, ec, see)
            ci = _dot(r, r)
            # Jacobian columns A e z / s (mu) and A e z^2 / s (s), projected
            # off span{e, 1}: amplitude and offset follow (mu, s)
            z = (u - mi[:, None]) / si[:, None]
            g_mu = (amp / si)[:, None] * ei * z
            p_mu, p_s = _split(_centred(g_mu), ec, see)[1], _split(_centred(g_mu * z), ec, see)[1]
            grad_mu, grad_s = _dot(p_mu, r), _dot(p_s, r)
            gsmall = np.maximum(np.abs(grad_mu), np.abs(grad_s)) < gtol

            # damped 2x2 normal equations (H + lam diag H + 1e-12) delta = grad
            h_mm = _dot(p_mu, p_mu) * (1.0 + li) + 1e-12
            h_ss = _dot(p_s, p_s) * (1.0 + li) + 1e-12
            h_ms = _dot(p_mu, p_s)
            det = h_mm * h_ss - h_ms * h_ms
            mu_t = mi + (h_ss * grad_mu - h_ms * grad_s) / det
            s_t = si + (h_mm * grad_s - h_ms * grad_mu) / det
            s_t = np.copysign(np.maximum(np.abs(s_t), s_floor), s_t)
            e_t = np.exp(-0.5 * ((u - mu_t[:, None]) / s_t[:, None]) ** 2)
            r_t = _split(yi, *_basis(e_t))[1]
            cost_t = _dot(r_t, r_t)

            stepped = ~gsmall
            better = stepped & (cost_t < ci)
            done = gsmall | better & ((ci - cost_t) / np.maximum(cost_t, 1e-300) < ftol)
            # a rejected step that leaves the cost unchanged within ftol has
            # stalled at the minimum: the fit is done, not failed
            done |= stepped & ~better & (np.abs(cost_t - ci) <= ftol * ci)
            acc = idx[better]
            e[acc], mu[acc], s[acc] = e_t[better], mu_t[better], s_t[better]
            lam[idx] = np.where(better, np.maximum(li / 3.0, 1e-12), np.minimum(li * 2.0, 1e12))
            converged[idx] |= done
            n_iter[idx] += stepped

    amp, r = _split(yc, *_basis(e))
    params = np.stack([amp, mu, np.abs(s), y.mean(axis=1) - amp * e.mean(axis=1)], axis=1)
    return params, np.sqrt(_dot(r, r)), converged, n_iter


def fit_gaussian(positions, counts, max_iter: int = _MAX_ITER, raise_on_failure: bool = True) -> FitResult:
    """Least-squares Gaussian-plus-offset fit of a single profile.

    Raises DegenerateProfile for flat input and, unless
    ``raise_on_failure=False``, NonConvergence after the iteration budget.
    """
    y = np.asarray(counts, dtype=float)
    if np.all(y == y[0]):
        raise DegenerateProfile("all counts equal")
    params, resnorm, converged, n_iter = _lm_gaussian_batch(positions, y[None, :], max_iter=max_iter)
    if not converged[0] and raise_on_failure:
        raise NonConvergence(f"no convergence within {max_iter} iterations")
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


def bootstrap_centers(record, n_bootstrap: int = 10_000, seed: int = 0, max_dropped: float = 0.01) -> CenterDistribution:
    """Bootstrap the profile center by resampling one repeat per position.

    Each draw builds a profile by picking, independently per position, one of
    the available repeat readings (uniformly), and fits it. Draws that fail
    to converge are dropped; more than ``max_dropped`` dropped raises.
    """
    counts = record.counts
    n_points, repeats = counts.shape
    tkey = rngmod.theta_key(record.theta)
    akey = rngmod.AXIS_KEY[record.axis]

    if repeats == 1:
        # only one possible profile: fit once, every draw is identical
        fit = fit_gaussian(record.positions, counts[:, 0])
        centers = np.full(n_bootstrap, fit.center)
        return CenterDistribution(centers, record.theta, record.axis)

    # draw-major: the first k draws are the same for any n_bootstrap >= k
    gen = rngmod.stream(seed, rngmod.BOOTSTRAP, tkey, akey)
    rows = np.arange(n_points)
    profiles = counts.astype(float)[rows, gen.integers(0, repeats, size=(n_bootstrap, n_points))]

    params, _, converged, _ = _lm_gaussian_batch(record.positions, profiles)
    dropped = int(np.count_nonzero(~converged))
    if dropped > max_dropped * n_bootstrap:
        raise NonConvergence(
            f"{dropped}/{n_bootstrap} bootstrap fits failed to converge (> {max_dropped:.0%})"
        )
    return CenterDistribution(params[converged, 1], record.theta, record.axis, np.flatnonzero(converged))


def _paired_centers(*dists):
    """Sorted draw indices kept by every distribution, and each one's centers on them."""
    idx = functools.reduce(functools.partial(np.intersect1d, assume_unique=True), [d.draw_idx for d in dists])
    if idx.size == 0:
        raise ValueError("the center distributions share no bootstrap draw")
    return idx, [d.centers[np.isin(d.draw_idx, idx, assume_unique=True)] for d in dists]


def weak_value_draws(target: CenterDistribution, ref0: CenterDistribution, ref1: CenterDistribution) -> np.ndarray:
    """Paired weak-value draws (X - X0) / <X1 - X0>.

    Draws pair on the bootstrap draws all three distributions kept; the scale
    is the mean displacement between the unit and zero references on them.
    """
    _, (x, x0, x1) = _paired_centers(target, ref0, ref1)
    scale = float(np.mean(x1 - x0))
    if abs(scale) < 1.0:
        raise ZeroScale(f"|<X1 - X0>| = {abs(scale):.3g} um < 1 um")
    return (x - x0) / scale


def weak_value_estimate(
    target: CenterDistribution,
    ref0: CenterDistribution,
    ref1: CenterDistribution,
    sys_band: float = 0.0,
) -> WeakValueEstimate:
    """Mean and statistical sigma of the paired weak-value draws."""
    draws = weak_value_draws(target, ref0, ref1)
    return WeakValueEstimate(
        mean=float(np.mean(draws)),
        stat_sigma=float(np.std(draws)),
        sys_band=float(sys_band),
        n_samples=int(draws.size),
    )


def reference_scale(ref0: CenterDistribution, ref1: CenterDistribution) -> float:
    """Mean pointer displacement between the unit and zero references (um), paired by draw."""
    _, (x0, x1) = _paired_centers(ref0, ref1)
    return float(np.mean(x1 - x0))


def systematic_band(drift_records, scale: float) -> float:
    """Spread of fitted beam centers over a drift run, in weak-value units.

    Fits the per-record mean profiles in one batch and returns std(centers) / scale;
    a flat mean profile raises DegenerateProfile, an unconverged fit NonConvergence.
    """
    if len(drift_records) < 10:
        raise ValueError("need at least 10 drift profiles")
    if not scale > 0:
        raise ValueError("scale must be > 0")
    u = drift_records[0].positions
    if any(not np.array_equal(rec.positions, u) for rec in drift_records):
        raise ValueError("drift records must share one position grid")
    profiles = np.stack([rec.counts.mean(axis=1) for rec in drift_records])
    if np.any(np.all(profiles == profiles[:, :1], axis=1)):
        raise DegenerateProfile("flat drift-run mean profile")
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

    ``estimates`` maps axis -> WeakValueEstimate; ``weak_draws`` maps axis -> draws
    paired on the draw indices that axis's ``distributions`` share. Floats are
    serialized with repr so a re-parse reproduces them bit-exactly. Returns the summary dict.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "centers.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("theta_deg,axis,draw_idx,center_um\n")
        for dist in distributions:
            head = f"{float(dist.theta)!r},{dist.axis},"
            rows = zip(dist.draw_idx.tolist(), dist.centers.tolist())
            fh.write("".join(f"{head}{i},{c!r}\n" for i, c in rows))

    with open(out / "weak_values.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("axis,draw_idx,weak_value\n")
        for axis in sorted(weak_draws):
            idx = _paired_centers(*(d for d in distributions if d.axis == axis))[0]
            rows = zip(idx.tolist(), np.asarray(weak_draws[axis], dtype=float).tolist(), strict=True)
            fh.write("".join(f"{axis},{i},{w!r}\n" for i, w in rows))

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
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def load_summary(path) -> dict:
    """Read a results summary, rejecting unknown schema versions."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    version = data.get("schema_version")
    if version != RESULTS_SCHEMA_VERSION:
        raise ValueError(f"unsupported results schema version: {version!r}")
    return data
