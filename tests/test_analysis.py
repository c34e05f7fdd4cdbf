"""Profile fitting, bootstrap, weak-value scaling, systematic band, export."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mzweak import analysis as ana
from mzweak import detection as det
from mzweak import pointer as ptr
from mzweak import quantum as qm
from mzweak import rng as rngmod
from mzweak.cli import build_state, cmd_analyze, cmd_simulate, main
from mzweak.config import ExperimentConfig, scan_filename
from mzweak.errors import DegenerateProfile, NonConvergence, ZeroScale

SIGMA = 475.0
GRID = det.ScanConfig().positions  # 61 points, 50 um steps


def synth_profile(center, width=400.0, amplitude=1200.0, offset=10.0, grid=GRID):
    return amplitude * np.exp(-((grid - center) ** 2) / (2 * width**2)) + offset


def paper_state(theta=0.0):
    couplers = [ptr.CouplerSpec("spatial", "A", 50.0), ptr.CouplerSpec("diagonal", "B", 50.0)]
    return ptr.evolve_and_postselect(
        qm.pre_state(), couplers, qm.post_state(theta), sigma=SIGMA
    )


def make_dist(centers, theta=0.0, axis="x"):
    return ana.CenterDistribution(np.asarray(centers, dtype=float), theta, axis)


def flag_unconverged(monkeypatch, row):
    """Make every _lm_gaussian_batch call report ``row`` as unconverged."""
    lm = ana._lm_gaussian_batch

    def patched(u, profiles, **kwargs):
        params, resnorm, converged, n_iter = lm(u, profiles, **kwargs)
        converged[row] = False
        return params, resnorm, converged, n_iter

    monkeypatch.setattr(ana, "_lm_gaussian_batch", patched)


# ----------------------------------------------------------------- fitting


def test_fit_recovers_noiseless_parameters():
    fit = ana.fit_gaussian(GRID, synth_profile(12.3))
    assert abs(fit.center - 12.3) < 0.01
    assert abs(fit.center - 12.3) / 12.3 < 1e-6
    assert abs(fit.width - 400.0) / 400.0 < 1e-6
    assert abs(fit.amplitude - 1200.0) / 1200.0 < 1e-6
    assert abs(fit.offset - 10.0) / 10.0 < 1e-6
    assert fit.converged and fit.n_iterations <= 200
    assert fit.residual_norm < 1e-6


@given(st.floats(-200, 200), st.floats(200, 700), st.floats(100, 5000))
def test_fit_recovers_noiseless_parameters_range(center, width, amplitude):
    fit = ana.fit_gaussian(GRID, synth_profile(center, width, amplitude))
    assert abs(fit.center - center) < 1e-4 * max(1.0, abs(center))
    assert abs(fit.width - width) / width < 1e-6


def test_fit_symmetric_profile_center_is_midpoint():
    counts = synth_profile(0.0)  # exactly symmetric about the grid midpoint
    fit = ana.fit_gaussian(GRID, counts)
    assert abs(fit.center - 0.0) < 1e-9


def test_fit_degenerate_profiles_raise():
    with pytest.raises(DegenerateProfile):
        ana.fit_gaussian(GRID, np.zeros_like(GRID))
    with pytest.raises(DegenerateProfile):
        ana.fit_gaussian(GRID, np.full_like(GRID, 7.0))


def test_fit_requires_five_points():
    with pytest.raises(ValueError):
        ana.fit_gaussian(np.arange(4.0), np.array([1.0, 2.0, 3.0, 1.0]))


def test_fit_nonconvergence_budget(monkeypatch):
    rng = np.random.default_rng(5)
    noisy = rng.poisson(synth_profile(30.0)).astype(float)
    full = ana.fit_gaussian(GRID, noisy)
    assert full.converged and full.n_iterations > 1
    monkeypatch.setattr(ana, "_MAX_ITER", 1)
    with pytest.raises(NonConvergence, match="within 1 iterations"):
        ana.fit_gaussian(GRID, noisy)
    _, _, converged, n_iter = ana._lm_gaussian_batch(GRID, noisy)
    assert not converged[0] and n_iter[0] == 1


# One drift-run profile (default config, --seed 248, x axis, profile 27) on
# which every damped step is rejected at the minimum while the gradient stays
# at ~3e-3, above the absolute gtol.
STALLED_PROFILE = [
    125, 194, 255, 373, 480, 633, 804, 1094, 1389, 1770, 2212, 2724, 3337, 4076, 4834,
    5798, 6789, 7995, 9008, 10446, 11620, 12748, 13998, 15245, 16407, 17487, 18360,
    18834, 19559, 19556, 19771, 19804, 19419, 19147, 18353, 17418, 16436, 15088, 13992,
    12665, 11499, 10121, 9072, 7855, 6816, 5753, 4761, 4108, 3290, 2683, 2245, 1710,
    1382, 1060, 799, 645, 458, 377, 246, 185, 119,
]


def test_fit_stalled_at_minimum_is_converged():
    fit = ana.fit_gaussian(GRID, STALLED_PROFILE)
    assert fit.converged
    assert fit.n_iterations < 20
    assert abs(fit.center - (-1.2399)) < 1e-3
    assert abs(fit.width - 477.7036) < 1e-3


def test_fit_center_error_scale_poisson_profile():
    # repeated-simulation oracle: micron-scale center errors at kHz peaks
    cfg = det.ScanConfig(mean_rate=1000.0, repeats=1)
    centers = []
    for seed in range(25):
        rec = det.simulate_scan(det.single_beam_state(SIGMA), cfg, "x", det.DriftModel(), seed)
        centers.append(ana.fit_gaussian(rec.positions, rec.counts[:, 0]).center)
    scatter = np.std(centers)
    assert 1.0 < scatter < 10.0


def gaussian_rows(params):
    """Rows A exp(-(u - mu)^2 / (2 s^2)) + b on GRID for params rows (A, mu, s, b)."""
    amp, center, width, offset = (params[:, k:k + 1] for k in range(4))
    return amp * np.exp(-((GRID - center) ** 2) / (2 * width**2)) + offset


def poisson_profiles(n, seed, amplitude=(100, 5000)):
    """Seeded Poisson profiles over the paper's parameter ranges, and their truth."""
    rng = np.random.default_rng(seed)
    truth = np.stack(
        [rng.uniform(*amplitude, n), rng.uniform(-200, 200, n), rng.uniform(250, 650, n), rng.uniform(0, 50, n)],
        axis=1,
    )
    return rng.poisson(gaussian_rows(truth)).astype(float), truth


def noise_free_profiles(n, seed):
    """Exact profiles at bootstrap (1e3) and drift-run (2e4) amplitudes, and their truth.

    Their least-squares cost is at the rounding level, so the closed-form
    cost ||yc||^2 - <e, yc>^2 / see cancels completely on them."""
    rng = np.random.default_rng(seed)
    truth = np.stack(
        [rng.choice([1e3, 2e4], n), rng.uniform(-200, 200, n), rng.uniform(300, 600, n), np.full(n, 10.0)],
        axis=1,
    )
    return gaussian_rows(truth), truth


def assert_matches_least_squares_oracle(profiles, truth):
    from scipy.optimize import least_squares

    params, resnorm, converged, _ = ana._lm_gaussian_batch(GRID, profiles)
    assert converged.all()

    def residual(p, y):
        return p[0] * np.exp(-((GRID - p[1]) ** 2) / (2 * p[2] ** 2)) + p[3] - y

    for row, y in enumerate(profiles):
        oracle = least_squares(residual, truth[row], args=(y,), method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert abs(params[row, 1] - oracle.x[1]) < 1e-4
        assert resnorm[row] ** 2 <= (1 + 1e-9) * np.sum(oracle.fun**2)


def test_fit_matches_least_squares_oracle():
    assert_matches_least_squares_oracle(*poisson_profiles(150, seed=12))


def test_fit_matches_least_squares_oracle_at_drift_rates():
    # peak ~2e4 counts as in the drift run: 10 of these 50 fits end with
    # cost / ||yc||^2 under the closed-form cost's cancellation guard
    assert_matches_least_squares_oracle(*poisson_profiles(50, seed=15, amplitude=(1.5e4, 2.5e4)))


def test_fit_noise_free_profiles_converge_fast_and_exactly():
    profiles, truth = noise_free_profiles(50, seed=16)
    params, _, converged, n_iter = ana._lm_gaussian_batch(GRID, profiles)
    assert converged.all()
    assert n_iter.max() <= 6
    assert np.abs(params[:, 1] - truth[:, 1]).max() < 1e-9


def test_fit_residual_norm_is_explicit_residual():
    # noise-free rows have rounding-level residuals, hence the absolute floor
    for profiles in (noise_free_profiles(50, seed=16)[0], poisson_profiles(200, seed=17)[0],
                     poisson_profiles(50, seed=15, amplitude=(1.5e4, 2.5e4))[0]):
        params, resnorm, _, _ = ana._lm_gaussian_batch(GRID, profiles)
        explicit = np.linalg.norm(profiles - gaussian_rows(params), axis=1)
        floor = 1e-12 * np.linalg.norm(profiles, axis=1)
        assert np.all(np.abs(resnorm - explicit) <= 1e-8 * explicit + floor)


def test_fit_rows_do_not_depend_on_chunking():
    n = 2 * ana._CHUNK_ROWS + 40
    profiles, _ = poisson_profiles(n, seed=13)
    params, resnorm, converged, n_iter = ana._lm_gaussian_batch(GRID, profiles)
    edges = (0, ana._CHUNK_ROWS - 1, ana._CHUNK_ROWS, 2 * ana._CHUNK_ROWS - 1, 2 * ana._CHUNK_ROWS, n - 1)
    for row in edges:
        fit = ana.fit_gaussian(GRID, profiles[row])
        assert (fit.amplitude, fit.center, fit.width, fit.offset) == tuple(params[row])
        assert (fit.residual_norm, fit.converged, fit.n_iterations) == (resnorm[row], converged[row], n_iter[row])


def default_bootstrap_chunk():
    """The first bootstrap chunk of the default run's theta = 0 x record, and its linearized start."""
    rec = default_records()[0]
    profiles = resampled_profiles(rec, ana._CHUNK_ROWS, ExperimentConfig.from_dict({}).seed)
    return rec.positions, profiles, ana._linearized_start(rec.positions, rec.counts.mean(axis=1))(profiles)


def test_fit_takes_its_last_step_unevaluated(monkeypatch):
    # the step that would only confirm convergence is not evaluated
    u, profiles, start = default_bootstrap_chunk()
    evaluated, evaluate = [], ana._evaluate

    def counted(u, mu, *args):
        evaluated.append(mu.size)
        return evaluate(u, mu, *args)

    monkeypatch.setattr(ana, "_evaluate", counted)
    _, _, converged, _ = ana._lm_gaussian_batch(u, profiles, start=start)
    assert converged.all()
    assert sum(evaluated) <= 2.8 * len(profiles)


def test_fit_returned_rows_are_stationary():
    # one more evaluated, undamped Gauss-Newton step barely moves a returned center
    u, profiles, start = default_bootstrap_chunk()
    params, _, converged, _ = ana._lm_gaussian_batch(u, profiles, start=start)
    y, (amp, mu, s, _) = profiles[converged], params[converged].T
    yc = y - y.mean(axis=1)[:, None]
    _, _, g_mu, g_s, h_mm, h_ss, h_ms, _ = ana._evaluate(u, mu, s, yc, ana._dot(yc, yc), np.empty((4,) + y.shape))
    d_mu = (h_ss * g_mu - h_ms * g_s) / (amp / s * (h_mm * h_ss - h_ms * h_ms))
    assert np.abs(d_mu).max() < 2e-5


# --------------------------------------------------------------- bootstrap


def test_bootstrap_single_repeat_is_unreadable_input(tmp_path, capsys):
    # one repeat gives one possible profile, so every draw would agree: a zero spread
    cfg = det.ScanConfig(mean_rate=1000.0, repeats=1)
    rec = det.simulate_scan(det.single_beam_state(SIGMA), cfg, "x", det.DriftModel(), seed=2)
    with pytest.raises(ValueError, match="at least 2 repeats per position, got 1"):
        ana.bootstrap_centers(rec, n_bootstrap=500, seed=3)
    path = tmp_path / scan_filename(0.0, "x")
    rec.save_csv(path)
    assert main(["--quiet", "--out", str(tmp_path), "analyze"]) == 3
    message = "the bootstrap needs at least 2 repeats per position, got 1"
    assert capsys.readouterr().err == f"unreadable input: {path}: {message}\n"


@pytest.mark.parametrize("n_points", [1, 2, 4])
def test_bootstrap_needs_five_positions_before_any_fit(monkeypatch, n_points):
    rec = det.ScanRecord(0.0, "x", GRID[:n_points], np.full((n_points, 3), 10), seed=0)

    def no_fit(*args):
        raise AssertionError("fitted a record with too few positions")

    monkeypatch.setattr(ana, "_fit_chunk", no_fit)
    with pytest.raises(ValueError, match="^need at least 5 points$"):
        ana.bootstrap_centers(rec, n_bootstrap=100, seed=1)


def test_one_position_scan_is_unreadable_input(tmp_path, capsys):
    path = tmp_path / scan_filename(0.0, "x")
    det.ScanRecord(0.0, "x", GRID[:1], [[10, 12, 9]], seed=0).save_csv(path)
    assert main(["--quiet", "--out", str(tmp_path), "analyze"]) == 3
    assert capsys.readouterr().err == f"unreadable input: {path}: need at least 5 points\n"


def test_bootstrap_deterministic_under_seed():
    cfg = det.ScanConfig(mean_rate=1000.0, repeats=8)
    rec = det.simulate_scan(det.single_beam_state(SIGMA), cfg, "x", det.DriftModel(), seed=2)
    a = ana.bootstrap_centers(rec, n_bootstrap=300, seed=4)
    b = ana.bootstrap_centers(rec, n_bootstrap=300, seed=4)
    assert np.array_equal(a.centers, b.centers)
    c = ana.bootstrap_centers(rec, n_bootstrap=300, seed=5)
    assert not np.array_equal(a.centers, c.centers)


def test_bootstrap_spread_matches_resimulation_scatter():
    # oracle: scatter of single-repeat fits across independent re-simulations
    cfg16 = det.ScanConfig(mean_rate=1000.0, repeats=16)
    rec = det.simulate_scan(det.single_beam_state(SIGMA), cfg16, "x", det.DriftModel(), seed=31)
    boot_sigma = np.std(ana.bootstrap_centers(rec, n_bootstrap=2000, seed=1).centers)

    cfg1 = det.ScanConfig(mean_rate=1000.0, repeats=1)
    direct = []
    for s in range(40):
        one = det.simulate_scan(det.single_beam_state(SIGMA), cfg1, "x", det.DriftModel(), 400 + s)
        direct.append(ana.fit_gaussian(one.positions, one.counts[:, 0]).center)
    direct_sigma = np.std(direct)
    assert boot_sigma / direct_sigma < 1.5
    assert direct_sigma / boot_sigma < 1.5


def test_bootstrap_draws_are_prefix_stable():
    # draw-major resampling: the first 200 draws do not depend on the total
    cfg = det.ScanConfig(mean_rate=1000.0, repeats=8)
    walk = det.DriftModel(step_sigma=5.0)
    rec = det.simulate_scan(det.single_beam_state(SIGMA), cfg, "x", walk, seed=2)
    short = ana.bootstrap_centers(rec, n_bootstrap=200, seed=6)
    long = ana.bootstrap_centers(rec, n_bootstrap=1000, seed=6)
    assert np.array_equal(short.centers, long.centers[:200])
    assert np.array_equal(short.draw_idx, long.draw_idx[:200])


def record_fits(monkeypatch):
    """Make _lm_gaussian_batch record each call's profiles and n_iter."""
    lm, calls = ana._lm_gaussian_batch, []

    def recorded(u, profiles, **kwargs):
        result = lm(u, profiles, **kwargs)
        calls.append((profiles.copy(), result[3]))
        return result

    monkeypatch.setattr(ana, "_lm_gaussian_batch", recorded)
    return calls


def resampled_profiles(record, n_bootstrap, seed):
    """The bootstrap profiles of ``record``, drawn in one call from a fresh stream."""
    gen = rngmod.stream(seed, rngmod.BOOTSTRAP, rngmod.theta_key(record.theta), rngmod.AXIS_KEY[record.axis])
    draws = gen.integers(0, record.repeats, size=(n_bootstrap, record.positions.size))
    return record.counts[np.arange(record.positions.size), draws].astype(float)


def default_records():
    """The default run's 16-repeat target and 3-repeat reference x scans."""
    config = ExperimentConfig.from_dict({})
    return [
        det.simulate_scan(build_state(config, theta), config.scan_config(theta), "x", det.DriftModel(), config.seed)
        for theta in (0.0, 45.0)
    ]


def test_bootstrap_draws_stream_chunk_by_chunk(monkeypatch):
    # each chunk is drawn and fitted on its own, and together they are the
    # one-shot draw: the fits see the same profiles in the same order
    cfg = det.ScanConfig(mean_rate=1000.0, repeats=3)
    rec = det.simulate_scan(det.single_beam_state(SIGMA), cfg, "x", det.DriftModel(), seed=2)
    n = 2 * ana._CHUNK_ROWS + 40
    calls = record_fits(monkeypatch)
    ana.bootstrap_centers(rec, n_bootstrap=n, seed=9)
    assert [len(p) for p, _ in calls] == [ana._CHUNK_ROWS, ana._CHUNK_ROWS, 40]
    assert np.array_equal(np.concatenate([p for p, _ in calls]), resampled_profiles(rec, n, seed=9))


def test_bootstrap_warm_start_matches_cold_fits(monkeypatch):
    # the linearized start from the repeat-mean fit lands every draw on the
    # cold fit's center, converges the same rows, and takes fewer steps
    for rec in default_records():
        assert rec.repeats in (16, 3)
        profiles = resampled_profiles(rec, 3000, seed=5)
        params, _, converged, cold_iter = ana._lm_gaussian_batch(rec.positions, profiles)
        calls = record_fits(monkeypatch)
        dist = ana.bootstrap_centers(rec, n_bootstrap=3000, seed=5)
        monkeypatch.undo()
        assert np.array_equal(dist.draw_idx, np.flatnonzero(converged))
        assert np.abs(dist.centers - params[converged, 1]).max() < 1e-4
        warm_iter = np.concatenate([n_iter for _, n_iter in calls])
        assert cold_iter.mean() > 3.5
        assert warm_iter.mean() <= 3.2


def test_bootstrap_falls_back_to_moment_start_off_grid():
    # a repeat-mean fit narrower than the grid step is no place to linearize
    counts = np.full((61, 4), 10)
    counts[30] += [900, 1000, 1100, 950]
    rec = det.ScanRecord(0.0, "x", GRID, counts, seed=0)
    assert ana._linearized_start(GRID, rec.counts.mean(axis=1))(np.zeros((2, 61))) is None
    profiles = resampled_profiles(rec, 200, seed=3)
    cold = ana._lm_gaussian_batch(GRID, profiles)
    dist = ana.bootstrap_centers(rec, n_bootstrap=200, seed=3)
    assert np.array_equal(dist.centers, cold[0][cold[2], 1])


def test_bootstrap_dropped_draw_keeps_later_draw_idx(tmp_path, monkeypatch):
    cfg = det.ScanConfig(mean_rate=1000.0, repeats=8)
    rec = det.simulate_scan(det.single_beam_state(SIGMA), cfg, "x", det.DriftModel(), seed=2)
    full = ana.bootstrap_centers(rec, n_bootstrap=300, seed=4)
    lm = ana._lm_gaussian_batch

    def drop_row_17(u, profiles, **kwargs):
        params, resnorm, converged, n_iter = lm(u, profiles, **kwargs)
        converged[17] = False
        return params, resnorm, converged, n_iter

    monkeypatch.setattr(ana, "_lm_gaussian_batch", drop_row_17)
    dist = ana.bootstrap_centers(rec, n_bootstrap=300, seed=4)
    keep = np.arange(300) != 17
    assert np.array_equal(dist.draw_idx, np.flatnonzero(keep))
    assert np.array_equal(dist.centers, full.centers[keep])

    ana.export_results(tmp_path, [dist], {}, seed=4, n_bootstrap=300, target_theta=0.0)
    rows = (tmp_path / "centers.csv").read_text().strip().splitlines()[1:]
    written = [int(r.split(",")[2]) for r in rows]
    assert written == list(range(17)) + list(range(18, 300))


def test_center_distribution_draw_idx_validation():
    assert np.array_equal(make_dist([1.0, 2.0, 3.0]).draw_idx, [0, 1, 2])
    with pytest.raises(ValueError):
        ana.CenterDistribution(np.array([1.0, 2.0]), 0.0, "x", np.array([0]))


@pytest.mark.parametrize("centers", [[], [1.0, np.inf]])
def test_center_distribution_needs_finite_centers(centers):
    with pytest.raises(ValueError, match="non-empty and finite"):
        make_dist(centers)


def test_center_distribution_copies_caller_arrays():
    centers = np.array([1.0, 2.0, 3.0])
    idx = np.array([0, 4, 7], dtype=np.int64)
    dist = ana.CenterDistribution(centers, 0.0, "x", idx)
    assert centers.flags.writeable and idx.flags.writeable
    assert not (dist.centers.flags.writeable or dist.draw_idx.flags.writeable)
    centers[0] = 99.0
    idx[2] = 99
    assert dist.centers[0] == 1.0 and dist.draw_idx[2] == 7


def test_bootstrap_drop_policy_errors_on_flat_records():
    flat = det.ScanRecord(0.0, "x", GRID, np.zeros((61, 2), dtype=int), seed=0)
    with pytest.raises(NonConvergence):
        ana.bootstrap_centers(flat, n_bootstrap=100, seed=1)


# --------------------------------------------------------- weak-value ratio


def test_weak_value_zero_and_unit_anchors():
    rng = np.random.default_rng(0)
    ref0 = make_dist(rng.normal(0.0, 3.0, 1000), theta=45.0)
    ref1 = make_dist(ref0.centers + 49.7, theta=90.0)
    zero = ana.weak_value_draws(make_dist(ref0.centers), ref0, ref1)[1]
    unit = ana.weak_value_draws(make_dist(ref1.centers), ref0, ref1)[1]
    assert abs(np.mean(zero)) < 1e-12
    assert abs(np.mean(unit) - 1.0) < 1e-12
    assert np.std(zero) == 0.0


@given(st.floats(-500, 500))
def test_weak_value_translation_invariance(shift):
    rng = np.random.default_rng(1)
    x = rng.normal(50.0, 4.0, 400)
    x0 = rng.normal(0.0, 4.0, 400)
    x1 = rng.normal(49.0, 4.0, 400)
    base = ana.weak_value_draws(make_dist(x), make_dist(x0), make_dist(x1))
    moved = ana.weak_value_draws(
        make_dist(x + shift), make_dist(x0 + shift), make_dist(x1 + shift)
    )
    assert np.allclose(base[1], moved[1], atol=1e-9)


def test_weak_value_reported_shift_and_scale():
    # a 53.468 um shift against a 60.08 um scale reads 0.890
    rng = np.random.default_rng(2)
    x0 = rng.normal(0.0, 1e-9, 800)
    target = make_dist(x0 + 53.468)
    ref0 = make_dist(x0, theta=45.0)
    ref1 = make_dist(x0 + 60.08, theta=90.0)
    mean = np.mean(ana.weak_value_draws(target, ref0, ref1)[1])
    assert abs(mean - 53.468 / 60.08) < 1e-9
    assert abs(mean - 0.890) < 1e-3


def test_weak_value_zero_scale_raises():
    rng = np.random.default_rng(3)
    ref0 = make_dist(rng.normal(0.0, 0.1, 200))
    ref1 = make_dist(ref0.centers + 0.5)  # scale below 1 um
    with pytest.raises(ZeroScale):
        ana.weak_value_draws(make_dist(ref0.centers), ref0, ref1)


@given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=40))
def test_weak_value_draws_match_per_draw_loop(kept):
    # target, ref0 and ref1 each keep a random subset of the draws
    masks = np.array(kept).T
    assume(masks.any(axis=1).all())
    rng = np.random.default_rng(len(kept))
    x, x0 = rng.normal(50.0, 3.0, len(kept)), rng.normal(0.0, 3.0, len(kept))
    x1 = x0 + rng.normal(49.0, 3.0, len(kept))
    target, ref0, ref1 = (
        ana.CenterDistribution(c[m], theta, "x", np.flatnonzero(m))
        for c, m, theta in zip((x, x0, x1), masks, (0.0, 45.0, 90.0))
    )
    shared = [i for i, flags in enumerate(kept) if all(flags)]
    if not shared:
        with pytest.raises(ValueError, match="share no bootstrap draw"):
            ana.weak_value_draws(target, ref0, ref1)
        return
    scale = float(np.mean([x1[i] - x0[i] for i in shared]))
    idx, draws, paired_scale = ana.weak_value_draws(target, ref0, ref1)
    assert idx.tolist() == shared
    assert paired_scale == scale
    assert draws.tolist() == [(x[i] - x0[i]) / scale for i in shared]


def test_weak_values_pair_on_draw_idx(tmp_path, monkeypatch):
    recs = {
        theta: det.simulate_scan(
            paper_state(theta), det.ScanConfig(mean_rate=1000.0, repeats=4, theta=theta), "x", det.DriftModel(), seed=8
        )
        for theta in (0.0, 45.0, 90.0)
    }
    full = {theta: ana.bootstrap_centers(rec, n_bootstrap=300, seed=4) for theta, rec in recs.items()}
    flag_unconverged(monkeypatch, 17)
    target, ref0, ref1 = full[0.0], full[45.0], ana.bootstrap_centers(recs[90.0], n_bootstrap=300, seed=4)
    keep = np.arange(300) != 17
    x, x0, x1 = target.centers[keep], ref0.centers[keep], full[90.0].centers[keep]
    scale = float(np.mean(x1 - x0))
    idx, draws, paired_scale = ana.weak_value_draws(target, ref0, ref1)
    assert paired_scale == scale
    assert np.array_equal(idx, np.flatnonzero(keep))
    assert np.array_equal(draws, (x - x0) / scale)

    summary = ana.export_results(
        tmp_path, [target, ref0, ref1], {"x": (idx, draws, 0.0)}, seed=4, n_bootstrap=300, target_theta=0.0
    )
    assert summary["results"]["x"]["n_samples"] == 299
    rows = (tmp_path / "weak_values.csv").read_text().strip().splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == list(range(17)) + list(range(18, 300))
    with pytest.raises(ValueError):  # pairing needs each distribution's draws in order
        ana.CenterDistribution(np.array([1.0, 2.0]), 0.0, "x", np.array([3, 1]))

    # the target drops draw 17 while both references keep it: the sys band
    # divides by the same 299-draw scale as the weak values
    monkeypatch.undo()
    out = tmp_path / "run"
    config = ExperimentConfig.from_dict({"analysis": {"n_bootstrap": 300}, "drift": {"n_profiles": 10}})
    cmd_simulate(config, out, quiet=True)
    boot, band = ana.bootstrap_centers, ana.systematic_band
    dists, scales = {}, []

    def target_drops_17(record, n_bootstrap, seed):
        dist = boot(record, n_bootstrap, seed)
        if record.theta == config.target_theta:
            dist = ana.CenterDistribution(dist.centers[keep], dist.theta, dist.axis, dist.draw_idx[keep])
        dists[(record.theta, record.axis)] = dist
        return dist

    def recorded_band(records, scale):
        scales.append(scale)
        return band(records, scale)

    monkeypatch.setattr(ana, "bootstrap_centers", target_drops_17)
    monkeypatch.setattr(ana, "systematic_band", recorded_band)
    cmd_analyze(config, out, quiet=True)
    summary = ana.load_summary(out / "summary.json")
    assert len(scales) == 2
    for axis, scale in zip("xy", scales):
        x0, x1 = dists[(45.0, axis)].centers, dists[(90.0, axis)].centers
        assert x0.size == x1.size == 300
        assert scale == abs(float(np.mean(x1[keep] - x0[keep])))
        assert scale != abs(float(np.mean(x1 - x0)))  # the 300-draw scale differs
        assert summary["results"][axis]["n_samples"] == 299


@pytest.mark.parametrize(
    "target,tol_x,tol_y", [(0.0, 1e-9, 1e-9), (10.0, 2e-3, 2e-4), (20.0, 2e-3, 2e-4), (30.0, 2e-3, 2e-4)]
)
def test_noise_free_chain_matches_exact_centroid_ratio(target, tol_x, tol_y):
    # truth oracle: Gaussian fits of the noise-free rate profiles against the
    # closed-form centroids at the default config (g/sigma = 0.105). At theta = 0
    # the check is trivial, post_state(90) = -post_state(0); at 10..30 deg the
    # fit's bias measures 0.85-1.02e-3 on x and <= 6e-5 on y.
    config = ExperimentConfig.from_dict({})
    states = {theta: build_state(config, theta) for theta in (target, 45.0, 90.0)}
    for axis, tol in (("x", tol_x), ("y", tol_y)):
        fitted, exact = {}, {}
        for theta, state in states.items():
            scan = config.scan_config(theta)
            rates = det.expected_rate(state, axis, scan.positions, scan)
            fitted[theta] = ana.fit_gaussian(scan.positions, rates).center
            exact[theta] = ptr.centroid_exact(state, axis)
        w_fit, w_exact = ((c[target] - c[45.0]) / (c[90.0] - c[45.0]) for c in (fitted, exact))
        assert abs(w_fit - w_exact) <= tol, axis


def test_stat_sigma_shrinks_with_rate():
    sigmas = []
    for rate in (250.0, 1000.0, 4000.0):
        dists = {}
        for theta in (0.0, 45.0, 90.0):
            repeats = 8 if theta == 0.0 else 3
            cfg = det.ScanConfig(mean_rate=rate, repeats=repeats, theta=theta)
            rec = det.simulate_scan(paper_state(theta), cfg, "x", det.DriftModel(), seed=60)
            dists[theta] = ana.bootstrap_centers(rec, n_bootstrap=1200, seed=61)
        sigmas.append(np.std(ana.weak_value_draws(dists[0.0], dists[45.0], dists[90.0])[1]))
    assert sigmas[0] > sigmas[1] > sigmas[2]
    # quadrupled rate should halve sigma, allow a generous window
    assert 1.4 < sigmas[0] / sigmas[1] < 2.9
    assert 1.4 < sigmas[1] / sigmas[2] < 2.9


# ---------------------------------------------------------- systematic band


def test_systematic_band_requires_profiles_and_scale():
    with pytest.raises(ValueError):
        ana.systematic_band([], 50.0)
    cfg = det.ScanConfig(mean_rate=20000.0, repeats=1)
    recs = det.simulate_drift_run(cfg, det.DriftModel(), 10, seed=70)
    with pytest.raises(ValueError):
        ana.systematic_band(recs, 0.0)


def test_systematic_band_monotone_in_step_sigma():
    cfg = det.ScanConfig(mean_rate=20000.0, repeats=1)
    bands = []
    for step in (0.0, 1.0, 2.0):
        drift = det.DriftModel(step_sigma=step)
        recs = det.simulate_drift_run(cfg, drift, 60, seed=71)
        bands.append(ana.systematic_band(recs, 49.7))
    assert bands[0] < bands[1] < bands[2]


def test_systematic_band_is_std_of_single_fits():
    cfg = det.ScanConfig(mean_rate=20000.0, repeats=1)
    recs = det.simulate_drift_run(cfg, det.DriftModel(step_sigma=2.0), 60, seed=72)
    single = [ana.fit_gaussian(rec.positions, rec.counts.mean(axis=1)).center for rec in recs]
    assert ana.systematic_band(recs, 49.7) == float(np.std(single) / 49.7)


def test_systematic_band_flat_and_unconverged_profiles_raise(monkeypatch):
    cfg = det.ScanConfig(mean_rate=20000.0, repeats=1)
    recs = det.simulate_drift_run(cfg, det.DriftModel(), 20, seed=73)
    flat = det.ScanRecord(0.0, "x", recs[0].positions, np.zeros((61, 1), dtype=int), seed=73)
    with pytest.raises(DegenerateProfile):
        ana.systematic_band(recs[:7] + [flat] + recs[8:], 49.7)
    flag_unconverged(monkeypatch, 5)
    with pytest.raises(NonConvergence):
        ana.systematic_band(recs, 49.7)


def band_by_record_means(records, scale):
    """The band fitted from one mean profile per record, records of any
    number of repeats: the stack systematic_band built before it took
    single-repeat records only."""
    profiles = np.stack([rec.counts.mean(axis=1) for rec in records])
    params, _, converged, _ = ana._lm_gaussian_batch(records[0].positions, profiles)
    assert converged.all()
    return float(np.std(params[:, 1]) / scale)


@pytest.mark.parametrize("seed", [74, 75, 76])
def test_systematic_band_equals_record_mean_stack(seed):
    config = ExperimentConfig.from_dict({})
    for axis in ("x", "y"):
        recs = det.simulate_drift_run(config.drift_scan_config(), config.drift_model(axis), 250, seed=seed, axis=axis)
        assert ana.systematic_band(recs, 49.7) == band_by_record_means(recs, 49.7)


def test_systematic_band_refuses_multi_repeat_records():
    cfg = det.ScanConfig(mean_rate=20000.0, repeats=1)
    recs = det.simulate_drift_run(cfg, det.DriftModel(), 20, seed=77)
    two = det.ScanRecord(0.0, "x", recs[0].positions, np.repeat(recs[0].counts, 2, axis=1), seed=77)
    with pytest.raises(ValueError, match="single-repeat"):
        ana.systematic_band(recs[:5] + [two] + recs[6:], 49.7)


def test_systematic_band_refuses_records_from_two_grids():
    cfg = det.ScanConfig(mean_rate=20000.0, repeats=1)
    recs = det.simulate_drift_run(cfg, det.DriftModel(), 20, seed=77)
    shifted = det.ScanRecord(0.0, "x", recs[0].positions + 10.0, recs[0].counts, seed=77)
    with pytest.raises(ValueError, match="one position grid"):
        ana.systematic_band(recs[:5] + [shifted] + recs[6:], 49.7)


# ----------------------------------------------------------------- export


def test_export_empty_summary_is_valid(tmp_path):
    summary = ana.export_results(tmp_path, [], {}, seed=1, n_bootstrap=0, target_theta=0.0)
    loaded = ana.load_summary(tmp_path / "summary.json")
    assert loaded == summary
    assert loaded["results"] == {}


def test_export_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    centers = rng.normal(50.0, 3.0, 50)
    dist = make_dist(centers, theta=0.0, axis="x")
    ref0 = make_dist(rng.normal(0.0, 3.0, 50), theta=45.0, axis="x")
    ref1 = make_dist(rng.normal(49.0, 3.0, 50), theta=90.0, axis="x")
    idx, draws, _ = ana.weak_value_draws(dist, ref0, ref1)
    weak = {"x": (idx, draws, 0.07), "y": (idx[::2], 1.0 - draws[::2], 0.0)}
    summary = ana.export_results(tmp_path, [dist, ref0, ref1], weak, seed=9, n_bootstrap=50, target_theta=0.0)
    loaded = ana.load_summary(tmp_path / "summary.json")
    assert loaded["results"]["x"]["sys_band"] == 0.07
    assert loaded == summary

    rows = (tmp_path / "centers.csv").read_text().strip().splitlines()[1:]
    parsed = [float(r.split(",")[3]) for r in rows[: centers.size]]
    assert np.array_equal(np.array(parsed), centers)

    # each axis's summary statistics are those of its weak_values.csv rows, bit for bit
    wrows = [r.split(",") for r in (tmp_path / "weak_values.csv").read_text().strip().splitlines()[1:]]
    for axis, (_, values, _) in weak.items():
        wparsed = np.array([float(v) for a, _, v in wrows if a == axis])
        assert np.array_equal(wparsed, values)
        assert loaded["results"][axis]["weak_value_mean"] == np.mean(wparsed)
        assert loaded["results"][axis]["stat_sigma"] == np.std(wparsed)
        assert loaded["results"][axis]["n_samples"] == wparsed.size


def test_export_in_blocks_writes_the_bytes_of_one_block(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    dists = [make_dist(rng.normal(mu, 3.0, n), theta, "x") for mu, n, theta in ((50, 50, 0.0), (0, 49, 45.0), (49, 50, 90.0))]
    draws = {"x": (np.arange(50), rng.normal(1.0, 0.1, 50), 0.0), "y": (np.arange(49), rng.normal(0.0, 0.1, 49), 0.0)}
    ana.export_results(tmp_path / "one", dists, draws, seed=3, n_bootstrap=50, target_theta=0.0)
    monkeypatch.setattr(ana, "_EXPORT_ROWS", 7)  # 49 rows fill whole blocks, 50 leave one row over
    ana.export_results(tmp_path / "blocks", dists, draws, seed=3, n_bootstrap=50, target_theta=0.0)
    for name in ("centers.csv", "weak_values.csv"):
        assert (tmp_path / "blocks" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def bits(values):
    """The IEEE-754 bit patterns of float values, so -0.0 and nan compare exactly."""
    return np.asarray(values, dtype=float).view(np.uint64)


def test_write_csv_reparses_awkward_values_bit_exactly(tmp_path):
    floats = np.array([-0.0, np.nan, 1e16, 1e-05, 5e-324, -np.inf])
    ints = np.arange(6, dtype=np.int64) * 10**15
    path = tmp_path / "t.csv"
    ana.write_csv(path, "a,b,i,x", ("1.5e-07, q,", ints, floats), ("", ints[:1], floats[:1]))
    head, *rows, last = path.read_bytes().split(b"\n")
    assert head == b"a,b,i,x" and last == b""
    assert [r.split(b",")[:2] for r in rows[:-1]] == [[b"1.5e-07", b" q"]] * floats.size  # the prefix as given
    parsed = [r.decode().rsplit(",", 2)[-2:] for r in rows]
    assert [i for i, _ in parsed] == [str(v) for v in ints.tolist()] + ["0"]  # integers, not floats
    assert np.array_equal(bits([float(x) for _, x in parsed]), bits(np.append(floats, -0.0)))


@pytest.mark.parametrize("blocks", [
    [("", np.arange(3.0), np.arange(2.0))],  # a profile of 3 positions and 2 intensities
    [("", np.arange(2.0), np.arange(2.0)), ("a,", np.arange(1.0), [])],
    [("", )],
])
def test_write_csv_refuses_columns_of_unequal_length_before_opening(tmp_path, blocks):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="not of one length"):
        ana.write_csv(path, "u,i", *blocks)
    assert not path.exists()


def test_profile_csv_roundtrip(tmp_path):
    grid = np.linspace(-100, 100, 5)
    state = ptr.evolve_and_postselect(qm.pre_state(), [], qm.post_state(0.0), sigma=SIGMA)
    profile = ptr.marginal_intensity(state, "x", grid)
    path = tmp_path / "profile.csv"
    ana.write_csv(path, "position_um,intensity", ("", grid, profile))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "position_um,intensity"
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.array_equal(bits(parsed[:, 0]), bits(grid))
    assert np.array_equal(bits(parsed[:, 1]), bits(profile))


def test_export_contains_both_axes(tmp_path):
    rng = np.random.default_rng(6)
    dists = {}
    draws = {}
    for axis in ("x", "y"):
        ref0 = make_dist(rng.normal(0, 3, 40), 45.0, axis)
        ref1 = make_dist(rng.normal(49, 3, 40), 90.0, axis)
        tgt = make_dist(rng.normal(49, 3, 40), 0.0, axis)
        idx, values, _ = ana.weak_value_draws(tgt, ref0, ref1)
        draws[axis] = idx, values, 0.0
        dists[axis] = tgt
    summary = ana.export_results(tmp_path, list(dists.values()), draws, seed=1, n_bootstrap=40, target_theta=0.0)
    assert set(summary["results"]) == {"x", "y"}


def test_load_summary_rejects_unknown_schema(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"schema_version": 999}))
    with pytest.raises(ValueError):
        ana.load_summary(path)


@pytest.mark.parametrize("text", ["true", "1.0"])
def test_load_summary_rejects_a_version_that_only_compares_equal(tmp_path, text):
    # True == 1 and 1.0 == 1 in Python; only the integer 1 is schema version 1
    path = tmp_path / "summary.json"
    path.write_text(f'{{"schema_version": {text}}}')
    with pytest.raises(ValueError, match=f"unsupported results schema version: {text.capitalize()}"):
        ana.load_summary(path)


@pytest.mark.parametrize("text", ["[1]", "null", '"x"'])
def test_load_summary_rejects_a_document_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "summary.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="summary.json: expected a JSON object"):
        ana.load_summary(path)
