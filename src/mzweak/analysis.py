"""From raw scan counts to weak values with error bars.

Pipeline: fit Gaussian profiles (damped least squares), bootstrap the
profile centers by drawing one repeat per position (the 16^61 construction,
10^4 draws by default), scale the target centers against the 45 deg (zero)
and 90 deg (unit) reference distributions,

    w_i = (X_i - X0_i) / <X1 - X0>,

with the expectation in the denominator so a near-zero scale draw cannot
produce spurious weak values, and estimate the systematic band as the drift
of fitted centers over a long single-arm run divided by the same scale.
"""

from __future__ import annotations

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
    """Bootstrap distribution of fitted profile centers for one (theta, axis)."""

    centers: np.ndarray
    theta: float
    axis: str

    def __post_init__(self):
        arr = np.asarray(self.centers, dtype=float)
        if arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValueError("centers must be non-empty and finite")
        arr.setflags(write=False)
        object.__setattr__(self, "centers", arr)


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


def _model_and_jacobian(u, params):
    """Residual model pieces for a batch: params (B, 4) = (A, mu, s, b)."""
    amp = params[:, 0:1]
    mu = params[:, 1:2]
    s = params[:, 2:3]
    b = params[:, 3:4]
    z = (u[None, :] - mu) / s
    e = np.exp(-0.5 * z * z)
    model = amp * e + b
    jac = np.empty(params.shape[:1] + u.shape + (4,))
    jac[:, :, 0] = e
    jac[:, :, 1] = amp * e * z / s
    jac[:, :, 2] = amp * e * z * z / s
    jac[:, :, 3] = 1.0
    return model, jac


def _moment_init(u, profiles):
    """Start values from profile moments: centroid, rms width, min offset."""
    b0 = profiles.min(axis=1)
    w = profiles - b0[:, None]
    sw = w.sum(axis=1)
    informative = sw > 0
    safe = np.where(sw > 0, sw, 1.0)
    mu0 = (w @ u) / safe
    var0 = (w * (u[None, :] - mu0[:, None]) ** 2).sum(axis=1) / safe
    step = float(np.min(np.diff(u))) if u.size > 1 else 1.0
    s0 = np.sqrt(np.maximum(var0, (0.5 * step) ** 2))
    a0 = np.maximum(profiles.max(axis=1) - b0, 1.0)
    params = np.stack([a0, mu0, s0, b0], axis=1)
    return params, informative, step


def _lm_gaussian_batch(u, profiles, max_iter=_MAX_ITER, ftol=_FTOL, gtol=_GTOL):
    """Damped (Levenberg-style) least squares for a batch of profiles.

    Returns (params (B,4), residual_norm (B,), converged (B,), n_iter (B,)).
    Rows without shape information (flat profiles) come back unconverged.
    """
    u = np.asarray(u, dtype=float)
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    nbatch = profiles.shape[0]
    params, informative, step = _moment_init(u, profiles)
    s_floor = 1e-3 * step

    lam = np.full(nbatch, 1e-3)
    model, _ = _model_and_jacobian(u, params)
    cost = ((profiles - model) ** 2).sum(axis=1)
    converged = np.zeros(nbatch, dtype=bool)
    n_iter = np.zeros(nbatch, dtype=int)
    active = informative.copy()

    eye = np.eye(4)
    for _ in range(max_iter):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        p_act = params[idx]
        model, jac = _model_and_jacobian(u, p_act)
        resid = profiles[idx] - model
        grad = np.einsum("bnq,bn->bq", jac, resid)

        gsmall = np.max(np.abs(grad), axis=1) < gtol
        if gsmall.any():
            hit = idx[gsmall]
            converged[hit] = True
            active[hit] = False
            keep = ~gsmall
            if not keep.any():
                continue
            idx = idx[keep]
            p_act, jac, resid, grad = p_act[keep], jac[keep], resid[keep], grad[keep]

        hess = np.einsum("bnq,bnp->bqp", jac, jac)
        diag = np.einsum("bqq->bq", hess)
        damped = hess + lam[idx, None, None] * (diag[:, :, None] * eye[None, :, :])
        damped = damped + 1e-12 * eye[None, :, :]
        try:
            delta = np.linalg.solve(damped, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            delta = np.stack(
                [np.linalg.lstsq(damped[b], grad[b], rcond=None)[0] for b in range(len(idx))]
            )
        trial = p_act + delta
        trial[:, 2] = np.sign(trial[:, 2]) * np.maximum(np.abs(trial[:, 2]), s_floor)
        model_new, _ = _model_and_jacobian(u, trial)
        cost_new = ((profiles[idx] - model_new) ** 2).sum(axis=1)
        better = cost_new < cost[idx]

        accepted = idx[better]
        params[accepted] = trial[better]
        rel_drop = (cost[accepted] - cost_new[better]) / np.maximum(cost_new[better], 1e-300)
        lam[accepted] = np.maximum(lam[accepted] / 3.0, 1e-12)
        cost[accepted] = cost_new[better]
        done = accepted[rel_drop < ftol]
        converged[done] = True
        active[done] = False

        # a rejected step that leaves the cost unchanged within ftol has
        # stalled at the minimum: the fit is done, not failed
        rejected = idx[~better]
        stalled = rejected[np.abs(cost_new[~better] - cost[rejected]) <= ftol * cost[rejected]]
        converged[stalled] = True
        active[stalled] = False
        lam[rejected] = np.minimum(lam[rejected] * 2.0, 1e12)
        n_iter[idx] += 1

    params[:, 2] = np.abs(params[:, 2])
    return params, np.sqrt(cost), converged, n_iter


def fit_gaussian(positions, counts, max_iter: int = _MAX_ITER, raise_on_failure: bool = True) -> FitResult:
    """Least-squares Gaussian-plus-offset fit of a single profile.

    Raises DegenerateProfile for flat input and, unless
    ``raise_on_failure=False``, NonConvergence after the iteration budget.
    """
    u = np.asarray(positions, dtype=float)
    y = np.asarray(counts, dtype=float)
    if u.size < 5:
        raise ValueError("need at least 5 points")
    if np.all(y == y[0]):
        raise DegenerateProfile("all counts equal")
    params, resnorm, converged, n_iter = _lm_gaussian_batch(u, y[None, :], max_iter=max_iter)
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

    profiles = np.empty((n_bootstrap, n_points))
    rows = np.arange(n_points)
    for b in range(n_bootstrap):
        gen = rngmod.stream(seed, rngmod.BOOTSTRAP, tkey, akey, b)
        choice = gen.integers(0, repeats, size=n_points)
        profiles[b] = counts[rows, choice]

    params, _, converged, _ = _lm_gaussian_batch(record.positions, profiles)
    dropped = int(np.count_nonzero(~converged))
    if dropped > max_dropped * n_bootstrap:
        raise NonConvergence(
            f"{dropped}/{n_bootstrap} bootstrap fits failed to converge (> {max_dropped:.0%})"
        )
    centers = params[converged, 1]
    return CenterDistribution(centers, record.theta, record.axis)


def weak_value_draws(target: CenterDistribution, ref0: CenterDistribution, ref1: CenterDistribution) -> np.ndarray:
    """Paired weak-value draws (X - X0) / <X1 - X0>.

    The i-th target draw pairs with the i-th reference draws; the scale is
    the mean displacement between the unit and zero references.
    """
    x, x0, x1 = target.centers, ref0.centers, ref1.centers
    n = min(x.size, x0.size, x1.size)
    scale = float(np.mean(x1[:n] - x0[:n]))
    if abs(scale) < 1.0:
        raise ZeroScale(f"|<X1 - X0>| = {abs(scale):.3g} um < 1 um")
    return (x[:n] - x0[:n]) / scale


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
    """Mean pointer displacement between the unit and zero references (um)."""
    n = min(ref0.centers.size, ref1.centers.size)
    return float(np.mean(ref1.centers[:n] - ref0.centers[:n]))


def systematic_band(drift_records, scale: float) -> float:
    """Spread of fitted beam centers over a drift run, in weak-value units.

    Fits the per-record mean profile and returns std(centers) / scale.
    """
    if len(drift_records) < 10:
        raise ValueError("need at least 10 drift profiles")
    if not scale > 0:
        raise ValueError("scale must be > 0")
    centers = []
    for rec in drift_records:
        profile = rec.counts.mean(axis=1)
        centers.append(fit_gaussian(rec.positions, profile).center)
    return float(np.std(centers) / scale)


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

    ``estimates`` maps axis -> WeakValueEstimate; ``weak_draws`` maps
    axis -> array of paired draws. Floats are serialized with repr so a
    re-parse reproduces them bit-exactly. Returns the summary dict.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "centers.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("theta_deg,axis,draw_idx,center_um\n")
        for dist in distributions:
            for i, c in enumerate(dist.centers):
                fh.write(f"{float(dist.theta)!r},{dist.axis},{i},{float(c)!r}\n")

    with open(out / "weak_values.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("axis,draw_idx,weak_value\n")
        for axis in sorted(weak_draws):
            for i, w in enumerate(weak_draws[axis]):
                fh.write(f"{axis},{i},{float(w)!r}\n")

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
