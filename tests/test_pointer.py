"""Gaussian pointer branch algebra: couplers, profiles, exact centroids."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import erf
from hypothesis import given, strategies as st

from mzweak import detection as det
from mzweak import pointer as ptr
from mzweak import quantum as qm
from mzweak.errors import VanishingPostSelection

import oracles

RT2 = np.sqrt(2.0)
SIGMA = 475.0


def paper_couplers(g=50.0):
    return [ptr.CouplerSpec("spatial", "A", g), ptr.CouplerSpec("diagonal", "B", g)]


def paper_state(theta=0.0, g=50.0, sigma=SIGMA, **pre):
    """The paper's couplers on ``qm.pre_state(**pre)``, post-selected at theta."""
    return ptr.evolve_and_postselect(
        qm.pre_state(**pre), paper_couplers(g), qm.post_state(theta), sigma=sigma
    )


def quad_centroid(state, axis, span=6000.0, n=24001):
    """Trapezoid-quadrature oracle for the normalized first moment."""
    u = np.linspace(-span, span, n)
    i = ptr.marginal_intensity(state, axis, u)
    return trapezoid(u * i, u) / trapezoid(i, u)


def branch_map(state):
    return {(b.label, round(b.dx, 9), round(b.dy, 9)): b.coeff for b in state.branches}


# ------------------------------------------------------------ mode algebra


@given(st.floats(-300, 300), st.floats(-300, 300), st.floats(50, 1000))
def test_mode_overlap_matches_quadrature(a, b, sigma):
    u = np.linspace(min(a, b) - 8 * sigma, max(a, b) + 8 * sigma, 20001)
    numeric = trapezoid(
        oracles.gaussian_amplitude(u, a, sigma) * oracles.gaussian_amplitude(u, b, sigma), u
    )
    assert abs(numeric - oracles.mode_overlap(a, b, sigma)) < 1e-12


def test_mode_intensity_normalized_and_rms_width():
    u = np.linspace(-8 * SIGMA, 8 * SIGMA, 40001)
    intensity = oracles.gaussian_amplitude(u, 0.0, SIGMA) ** 2
    assert abs(trapezoid(intensity, u) - 1.0) < 1e-12
    rms = np.sqrt(trapezoid(u**2 * intensity, u))
    assert abs(rms - SIGMA) < 1e-6


@given(st.floats(-300, 300), st.floats(-300, 300), st.floats(50, 1000))
def test_first_moment_matches_quadrature(a, b, sigma):
    u = np.linspace(min(a, b) - 9 * sigma, max(a, b) + 9 * sigma, 20001)
    numeric = trapezoid(
        u * oracles.gaussian_amplitude(u, a, sigma) * oracles.gaussian_amplitude(u, b, sigma), u
    )
    assert abs(numeric - oracles.first_moment(a, b, sigma)) < 1e-9


# --------------------------------------------------------------- couplers


def test_spatial_coupler_shifts_target_arm_only():
    base = ptr.initial_branch_state(qm.SystemState([1, 0, 0, 0]), SIGMA)
    out = ptr.apply_coupler(base, ptr.CouplerSpec("spatial", "A", 50.0))
    assert branch_map(out) == {(0, 0.0, 50.0): pytest.approx(1.0)}

    base_b = ptr.initial_branch_state(qm.SystemState([0, 0, 0, 1]), SIGMA)
    out_b = ptr.apply_coupler(base_b, ptr.CouplerSpec("spatial", "A", 50.0))
    assert branch_map(out_b) == {(3, 0.0, 0.0): pytest.approx(1.0)}


def test_diagonal_coupler_zero_is_identity():
    state = ptr.initial_branch_state(qm.pre_state(), SIGMA)
    out = ptr.apply_coupler(state, ptr.CouplerSpec("diagonal", "B", 0.0))
    assert branch_map(out) == pytest.approx(branch_map(state))


@pytest.mark.parametrize("arm", ["A", "B"])
@pytest.mark.parametrize("basis_index", range(4))
def test_composite_stack_equals_direct_exponential(arm, basis_index):
    amps = np.zeros(4, dtype=complex)
    amps[basis_index] = 1.0
    base = ptr.initial_branch_state(qm.SystemState(amps), SIGMA)
    direct = ptr.apply_coupler(base, ptr.CouplerSpec("diagonal", arm, 50.0))
    stack = oracles.diagonal_coupler_composite(arm, 50.0)(base)
    da, db = branch_map(direct), branch_map(stack)
    for key in set(da) | set(db):
        assert abs(da.get(key, 0.0) - db.get(key, 0.0)) < 1e-12


@pytest.mark.parametrize("arm", ["A", "B"])
@pytest.mark.parametrize("kind", ["spatial", "diagonal"])
def test_coupler_spectrum_is_the_reported_observable(kind, arm):
    # the pointer moves by the spectrum of the observable whose weak value is reported
    spectrum = qm.ARM_SPECTRA[kind]
    op = np.asarray(qm.observable(kind, arm))
    idx = list(qm.ARM_INDICES[arm])
    block = np.zeros_like(op)
    block[np.ix_(idx, idx)] = op[np.ix_(idx, idx)]
    np.testing.assert_array_equal(op, block)  # zero off the target arm
    np.testing.assert_array_equal(sum(value * proj for value, proj in spectrum), op[np.ix_(idx, idx)])
    np.testing.assert_array_equal(sum(proj for _, proj in spectrum), np.eye(2))
    for _, proj in spectrum:
        np.testing.assert_array_equal(proj @ proj, proj)


def test_coupler_spec_validation():
    with pytest.raises(ValueError):
        ptr.CouplerSpec("spatial", "C", 1.0)
    with pytest.raises(ValueError):
        ptr.CouplerSpec("other", "A", 1.0)
    # an infinite g used to fail only later, in BranchState, without naming g
    for g in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="g must be non-negative and finite"):
            ptr.CouplerSpec("spatial", "A", g)


def test_conflicting_couplers_rejected():
    with pytest.raises(ValueError):
        ptr.evolve(
            qm.pre_state(),
            [ptr.CouplerSpec("spatial", "A", 10.0), ptr.CouplerSpec("spatial", "A", 20.0)],
            sigma=SIGMA,
        )


# ------------------------------------------------------ evolve + postselect


def test_paper_configuration_branch_coefficients():
    state = paper_state()
    bm = branch_map(state)
    assert set(bm) == {(None, 0.0, 50.0), (None, 50.0, 0.0), (None, -50.0, 0.0)}
    assert bm[(None, 0.0, 50.0)] == pytest.approx(0.5, abs=1e-12)
    assert bm[(None, 50.0, 0.0)] == pytest.approx(0.25, abs=1e-12)
    assert bm[(None, -50.0, 0.0)] == pytest.approx(-0.25, abs=1e-12)


def test_no_couplers_reduces_to_overlap():
    state = ptr.evolve_and_postselect(qm.pre_state(), [], qm.post_state(0.0), sigma=SIGMA)
    bm = branch_map(state)
    assert bm == {(None, 0.0, 0.0): pytest.approx(0.5, abs=1e-12)}


def test_spatial_coupler_alone_single_displaced_branch():
    state = ptr.evolve_and_postselect(
        qm.pre_state(),
        [ptr.CouplerSpec("spatial", "A", 50.0)],
        qm.post_state(0.0),
        sigma=SIGMA,
    )
    bm = branch_map(state)
    # the arm-B (unshifted) component dies in post-selection
    assert set(bm) == {(None, 0.0, 50.0)}
    assert abs(ptr.centroid_exact(state, "y") - 50.0) < 1e-12
    assert abs(ptr.centroid_exact(state, "x")) < 1e-12


def test_blocked_arm_destructive_interference():
    # with arm A blocked the arm-B polarization (V) is orthogonal to the
    # theta=0 post-selection: opposite-sign branches at +/-g, null at center
    state = ptr.evolve_and_postselect(
        qm.pre_state(blocked_arm="A"),
        [ptr.CouplerSpec("diagonal", "B", 50.0)],
        qm.post_state(0.0),
        sigma=SIGMA,
    )
    bm = branch_map(state)
    assert bm[(None, 50.0, 0.0)] == pytest.approx(0.25, abs=1e-12)
    assert bm[(None, -50.0, 0.0)] == pytest.approx(-0.25, abs=1e-12)
    grid = np.linspace(-2000, 2000, 801)
    profile = ptr.marginal_intensity(state, "x", grid)
    assert profile[400] < 1e-25  # exact null at u = 0
    assert np.allclose(profile, profile[::-1], atol=1e-20)  # even pattern
    assert np.all(profile >= 0.0)


def test_blocked_arm_parallel_polarization_no_null():
    # at theta=45 the post-selected polarization equals the arm-B input (V):
    # equal-sign branches, centered symmetric bump instead of a null
    state = ptr.evolve_and_postselect(
        qm.pre_state(blocked_arm="A"),
        [ptr.CouplerSpec("diagonal", "B", 50.0)],
        qm.post_state(45.0),
        sigma=SIGMA,
    )
    bm = branch_map(state)
    assert bm[(None, 50.0, 0.0)] == pytest.approx(0.25, abs=1e-12)
    assert bm[(None, -50.0, 0.0)] == pytest.approx(0.25, abs=1e-12)
    grid = np.array([0.0])
    assert ptr.marginal_intensity(state, "x", grid)[0] > 1e-6
    assert abs(ptr.centroid_exact(state, "x")) < 1e-12


def test_both_arms_open_orthogonal_theta_diagonal_pattern():
    # theta = 67.5: overall overlap vanishes but the coupled branches survive,
    # displaced along the two axes with opposite signs
    state = paper_state(theta=67.5)
    bm = branch_map(state)
    assert set(bm) == {(None, 0.0, 50.0), (None, -50.0, 0.0)}
    assert bm[(None, 0.0, 50.0)] == pytest.approx(-1 / (2 * RT2), abs=1e-12)
    assert bm[(None, -50.0, 0.0)] == pytest.approx(+1 / (2 * RT2), abs=1e-12)


# ---------------------------------------------------------------- marginals


def test_marginal_single_branch_is_gaussian():
    state = ptr.BranchState((ptr.Branch(1.0, None, 0.0, 0.0),), SIGMA)
    grid = np.linspace(-1000, 1000, 101)
    profile = ptr.marginal_intensity(state, "x", grid)
    expected = oracles.gaussian_amplitude(grid, 0.0, SIGMA) ** 2
    assert np.allclose(profile, expected, atol=1e-15)


def test_marginal_requires_branches():
    empty = ptr.BranchState((), SIGMA)
    with pytest.raises(VanishingPostSelection, match="no branches survive post-selection"):
        ptr.marginal_intensity(empty, "x", [0.0])


def test_marginal_integral_equals_postselection_probability_weak_limit():
    # quadrature oracle against P = |<phi|psi>|^2 = 1/4 as g/sigma -> 0
    state = paper_state(g=5.0)
    u = np.linspace(-5000, 5000, 40001)
    integral = trapezoid(ptr.marginal_intensity(state, "x", u), u)
    assert abs(integral - oracles.total_norm(state)) < 1e-9
    assert abs(integral - 0.25) < 1e-3


# ---------------------------------------------------------------- centroids


def test_centroid_unshifted_zero():
    state = ptr.evolve_and_postselect(qm.pre_state(), [], qm.post_state(0.0), sigma=SIGMA)
    assert ptr.centroid_exact(state, "x") == pytest.approx(0.0, abs=1e-12)
    assert ptr.centroid_exact(state, "y") == pytest.approx(0.0, abs=1e-12)


def test_centroid_paper_configuration_weak_regime():
    state = paper_state()
    cx = ptr.centroid_exact(state, "x")
    cy = ptr.centroid_exact(state, "y")
    assert abs(cx - 50.0) < 1.0
    assert abs(cy - 50.0) < 1.0
    assert abs(cx - quad_centroid(state, "x")) < 0.01
    assert abs(cy - quad_centroid(state, "y")) < 0.01


def test_centroid_strong_regime_breaks_first_order():
    state = paper_state(g=500.0)
    wv = qm.weak_value(qm.observable("diagonal", "B"), qm.pair(0.0))
    first_order = ptr.first_order_shift(wv, 500.0)
    cx = ptr.centroid_exact(state, "x")
    assert abs(cx - first_order) / first_order > 0.05
    assert abs(cx - quad_centroid(state, "x", span=9000.0)) < 0.01


@pytest.mark.parametrize(
    "theta,blocked,arm_phase",
    [(0.0, None, 0.0), (22.5, None, 0.0), (22.5, None, 0.7), (0.0, "A", 0.0), (30.0, None, 0.0)],
)
def test_centroid_closed_form_vs_quadrature(theta, blocked, arm_phase):
    state = paper_state(theta=theta, blocked_arm=blocked, arm_phase=arm_phase)
    for axis in ("x", "y"):
        assert abs(ptr.centroid_exact(state, axis) - quad_centroid(state, axis)) < 0.01


def test_weak_limit_convergence_monotone():
    errors = []
    for ratio in (0.2, 0.1, 0.05):
        g = ratio * SIGMA
        state = paper_state(g=g)
        errors.append(abs(ptr.centroid_exact(state, "x") / g - 1.0))
    assert errors[0] > errors[1] > errors[2]


def test_centroid_vanishing_postselection():
    state = ptr.evolve_and_postselect(qm.pre_state(), [], qm.post_state(67.5), sigma=SIGMA)
    with pytest.raises(VanishingPostSelection):
        ptr.centroid_exact(state, "y")


def test_arm_phase_shifts_interference_centroid():
    # the x centroid reads the A/B cross term, so an unlocked phase pulls it
    # toward zero while the y centroid is unaffected
    locked = paper_state(theta=0.0)
    drifted = paper_state(theta=0.0, arm_phase=0.6)
    assert ptr.centroid_exact(locked, "x") - ptr.centroid_exact(drifted, "x") > 5.0
    assert abs(ptr.centroid_exact(locked, "y") - ptr.centroid_exact(drifted, "y")) < 1e-9


def test_arm_phase_is_global_when_one_arm_blocked():
    a = paper_state(theta=0.0, blocked_arm="A")
    b = paper_state(theta=0.0, blocked_arm="A", arm_phase=1.3)
    grid = np.linspace(-500, 500, 11)
    assert np.allclose(
        ptr.marginal_intensity(a, "x", grid), ptr.marginal_intensity(b, "x", grid), atol=1e-15
    )


# ------------------------------------------------------------- first order


def test_first_order_shift_values():
    assert ptr.first_order_shift(1.0 + 0.0j, 50.0) == pytest.approx(50.0, abs=1e-12)
    assert ptr.first_order_shift(0.0 + 5.0j, 50.0) == pytest.approx(0.0, abs=1e-12)
    assert ptr.first_order_shift(0.89, 60.08) == pytest.approx(53.47, abs=0.005)


# ------------------------------------------------------------- invariants


@given(
    st.floats(-60.0, 60.0),
    st.floats(0.0, 400.0),
    st.floats(0.0, 400.0),
    st.floats(0.0, 2 * np.pi),
)
def test_norm_conserved_before_postselection(theta, gx, gy, phase):
    couplers = [ptr.CouplerSpec("spatial", "A", gy), ptr.CouplerSpec("diagonal", "B", gx)]
    state = ptr.evolve(qm.pre_state(arm_phase=phase), couplers, sigma=SIGMA)
    assert abs(oracles.total_norm(state) - 1.0) < 1e-12
    post = ptr.postselect(state, qm.post_state(theta))
    assert oracles.total_norm(post) <= 1.0 + 1e-12


# ------------------------------------------------- pair-loop reference oracle
# The moments as explicit double loops over label-matched branch pairs, with
# scipy's erf for the fiber window; the library must agree on any state.


def ref_pairs(state):
    for k in state.branches:
        for l in state.branches:
            if k.label == l.label:
                yield k, l


def ref_shifts(branch, axis):
    return (branch.dx, branch.dy) if axis == "x" else (branch.dy, branch.dx)


def ref_marginal_intensity(state, axis, grid):
    if not state.branches:
        raise VanishingPostSelection("no branches survive post-selection")
    u = np.asarray(grid, dtype=float)
    total = np.zeros_like(u)
    for k, l in ref_pairs(state):
        dk, pk = ref_shifts(k, axis)
        dl, pl = ref_shifts(l, axis)
        w = k.coeff * np.conj(l.coeff) * oracles.mode_overlap(pk, pl, state.sigma)
        total += np.real(
            w * oracles.gaussian_amplitude(u, dk, state.sigma) * oracles.gaussian_amplitude(u, dl, state.sigma)
        )
    return np.clip(total, 0.0, None)


def ref_centroid_sums(state, axis):
    """The centroid's pair sums over terms w at midpoints m: sum w m, sum w,
    sum |w m| and sum |w|."""
    sums = np.zeros(4)
    for k, l in ref_pairs(state):
        dk, pk = ref_shifts(k, axis)
        dl, pl = ref_shifts(l, axis)
        w = np.real(k.coeff * np.conj(l.coeff) * oracles.mode_overlap(pk, pl, state.sigma))
        moment = w * oracles.first_moment(dk, dl, state.sigma)
        weight = w * oracles.mode_overlap(dk, dl, state.sigma)
        sums += moment, weight, abs(moment), abs(weight)
    return sums


def ref_centroid_exact(state, axis):
    if not state.branches:
        raise VanishingPostSelection("no branches survive post-selection")
    num, den, _, _ = ref_centroid_sums(state, axis)
    if den <= 1e-12:
        raise VanishingPostSelection(f"post-selected weight {den:.3e} <= 1e-12")
    return float(num / den)


def ref_centroid_cancellation(state, axis):
    """(sum |w m| - |sum w m| + |c| (sum |w| - sum w)) / sum w, c the
    centroid: how far the pair terms cancel. The rounding of a float centroid
    grows with 2|c| plus this; it is 0 where no terms cancel, and large for a
    centroid near 0 between far branches or a small post-selected weight."""
    num, den, size_num, size_den = ref_centroid_sums(state, axis)
    if den <= 1e-12:
        return 0.0
    return max(size_num - abs(num) + abs(num / den) * (size_den - den), 0.0) / den


def ref_windowed_intensity(state, axis, centers, width):
    if not state.branches:
        raise VanishingPostSelection("no branches survive post-selection")
    c = np.atleast_1d(np.asarray(centers, dtype=float))
    s = state.sigma
    z = 1.0 / (s * np.sqrt(2.0))
    total = np.zeros_like(c)
    for k, l in ref_pairs(state):
        dk, pk = ref_shifts(k, axis)
        dl, pl = ref_shifts(l, axis)
        w = np.real(
            k.coeff * np.conj(l.coeff) * oracles.mode_overlap(pk, pl, s) * oracles.mode_overlap(dk, dl, s)
        )
        m = 0.5 * (dk + dl)
        total += w * 0.5 * (erf((c + 0.5 * width - m) * z) - erf((c - 0.5 * width - m) * z))
    return np.clip(total, 0.0, None)


@st.composite
def branch_states(draw):
    """Labelled or post-selected states over both arms, blocking and arm phase."""
    couplers = [
        ptr.CouplerSpec("spatial", draw(st.sampled_from("AB")), draw(st.floats(0.0, 600.0))),
        ptr.CouplerSpec("diagonal", draw(st.sampled_from("AB")), draw(st.floats(0.0, 600.0))),
    ]
    sigma = draw(st.floats(100.0, 900.0))
    pre = qm.pre_state(
        blocked_arm=draw(st.sampled_from([None, "A", "B"])),
        arm_phase=draw(st.floats(0.0, 2 * np.pi)),
    )
    state = ptr.evolve(pre, couplers, sigma=sigma)
    if draw(st.booleans()):
        state = ptr.postselect(state, qm.post_state(draw(st.floats(-90.0, 90.0))))
    return state


def assert_matches_reference(fn, ref, *args, atol=1e-15):
    """Same exception type, or values within rtol 1e-12 (atol near 0)."""
    try:
        expected = ref(*args)
    except VanishingPostSelection as exc:
        with pytest.raises(type(exc)):
            fn(*args)
        return
    np.testing.assert_allclose(fn(*args), expected, rtol=1e-12, atol=atol)


@given(branch_states())
def test_moments_match_pair_loop_reference(state):
    # the squared norm is the sum of the mixture weights
    np.testing.assert_allclose(
        np.sum(state._mixtures["x"][1]), oracles.total_norm(state), rtol=1e-12, atol=1e-15
    )
    grid = np.linspace(-3000.0, 3000.0, 121)
    for axis in ("x", "y"):
        assert_matches_reference(ptr.marginal_intensity, ref_marginal_intensity, state, axis, grid)
        # pair terms that cancel widen the centroid's rounding by their size
        cancellation = ref_centroid_cancellation(state, axis)
        assert_matches_reference(
            ptr.centroid_exact, ref_centroid_exact, state, axis, atol=1e-12 * cancellation + 1e-15
        )
        assert_matches_reference(
            ptr.windowed_intensity, ref_windowed_intensity, state, axis, grid, 50.0
        )
        assert_matches_reference(
            ptr.windowed_intensity, ref_windowed_intensity, state, axis, 12.5, 80.0
        )


# ---------------------------------------------- computed-once exactness


def per_edge_windowed_intensity(state, axis, centers, width):
    """windowed_intensity with erf evaluated on both edges c -/+ width/2 of
    every window, shared edges and all: the same operands, so the same bits."""
    mids, weight = ptr._mixture(state, axis)
    c = np.atleast_1d(np.asarray(centers, dtype=float))[..., None]
    z = 1.0 / (state.sigma * np.sqrt(2.0))
    mass = 0.5 * (ptr._erf((c + 0.5 * width - mids) * z) - ptr._erf((c - 0.5 * width - mids) * z))
    return np.clip(np.sum(mass * weight, axis=-1), 0.0, None)


EXACTNESS_STATES = [
    paper_state(0.0),
    paper_state(30.0, g=400.0, sigma=375.0),
    paper_state(0.0, blocked_arm="A"),
    ptr.evolve(qm.pre_state(arm_phase=0.7), paper_couplers(120.0), sigma=SIGMA),
]


@pytest.mark.parametrize("state", EXACTNESS_STATES)
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("step,width", [(50.0, 50.0), (25.0, 25.0), (50.0, 80.0), (37.5, 12.5)])
def test_windowed_intensity_equals_per_edge_formula(state, axis, step, width):
    grid = step * np.arange(-40, 41)
    drifted = grid - np.array([-37.5, 0.0, 12.25, 410.0, 1e-3])[:, None]
    for centers in (grid, drifted, grid[:1], 12.5):
        np.testing.assert_array_equal(
            ptr.windowed_intensity(state, axis, centers, width),
            per_edge_windowed_intensity(state, axis, centers, width),
        )


def seeded_evolution(rng):
    """(couplers, sigma, blocked arm, arm phase) of a random evolution: either
    coupler arm, and a diagonal coupler on both arms half the time."""
    couplers = [
        ptr.CouplerSpec("spatial", str(rng.choice(["A", "B"])), rng.uniform(0.0, 600.0)),
        ptr.CouplerSpec("diagonal", str(rng.choice(["A", "B"])), rng.uniform(0.0, 600.0)),
    ]
    if rng.integers(2):
        arm = "A" if couplers[1].arm == "B" else "B"
        couplers.append(ptr.CouplerSpec("diagonal", arm, rng.uniform(0.0, 600.0)))
    return couplers, rng.uniform(100.0, 900.0), [None, "A", "B"][rng.integers(3)], rng.uniform(0.0, 2 * np.pi)


def seeded_random_state(rng):
    """A labelled or post-selected state of a ``seeded_evolution``. Diagonal
    couplers on both arms give up to 9 distinct midpoints on x; from 8 terms
    on, numpy's sum order can depend on the array layout."""
    couplers, sigma, blocked, phase = seeded_evolution(rng)
    state = ptr.evolve(qm.pre_state(phase, blocked), couplers, sigma=sigma)
    if rng.integers(2):
        state = ptr.postselect(state, qm.post_state(rng.uniform(-90.0, 90.0)))
    return state


def test_scalar_center_equals_grid_element_bit_for_bit():
    # a center's window integral and rate must not depend on the call's shape
    rng = np.random.default_rng(20261018)
    cfg = det.ScanConfig(mean_rate=1000.0)
    for _ in range(120):
        state = seeded_random_state(rng)
        grid = cfg.positions - rng.uniform(-400.0, 400.0, size=(4, 1))
        for axis in ("x", "y"):
            flux = ptr.windowed_intensity(state, axis, grid, cfg.fiber_core)
            rates = det.expected_rate(state, axis, grid, cfg)
            for i, j in zip(rng.integers(4, size=6), rng.integers(cfg.n_points, size=6)):
                c = float(grid[i, j])
                assert ptr.windowed_intensity(state, axis, c, cfg.fiber_core)[0] == flux[i, j]
                assert det.expected_rate(state, axis, c, cfg) == rates[i, j]


# Oracle: the blocked arm and the arm phase applied to the labelled branch
# state around the couplers, the blocked arm's branches dropped before them and
# arm B's coefficients multiplied by exp(i phase) after them. Each coupler acts
# inside one arm, so both commute with it: ``quantum.pre_state``, which carries
# them in the pre-selected state, must give the same branches bit for bit.


def oracle_evolve(couplers, sigma, blocked, phase):
    state = ptr.initial_branch_state(qm.pre_state(), sigma)
    if blocked is not None:
        open_arm = [b for b in state.branches if b.label not in qm.ARM_INDICES[blocked]]
        state = ptr._merged(open_arm, sigma)
    for spec in couplers:
        state = ptr.apply_coupler(state, spec)
    if phase == 0.0:
        return state
    factor = np.exp(1j * phase)
    arm_b = qm.ARM_INDICES["B"]
    return ptr._merged(
        [b._replace(coeff=b.coeff * factor) if b.label in arm_b else b for b in state.branches], sigma
    )


def branch_bits(state):
    """The branches' labels and shifts, and their coefficients as raw bytes."""
    coeffs = np.array([b.coeff for b in state.branches], dtype=complex)
    return [(b.label, b.dx, b.dy) for b in state.branches], coeffs.tobytes()


def test_pre_selected_blocking_and_phase_equal_the_branch_oracle():
    rng = np.random.default_rng(20261019)
    for n in range(3000):
        couplers, sigma, blocked, phase = seeded_evolution(rng)
        if n % 4 == 0:
            phase = 0.0
        if n % 7 == 0:  # a zero coupling merges opposite-shift terms
            couplers[-1] = dataclasses.replace(couplers[-1], g=0.0)
        state = ptr.evolve(qm.pre_state(phase, blocked), couplers, sigma=sigma)
        oracle = oracle_evolve(couplers, sigma, blocked, phase)
        assert branch_bits(state) == branch_bits(oracle)
        post = qm.post_state(rng.uniform(-90.0, 90.0))
        assert branch_bits(ptr.postselect(state, post)) == branch_bits(ptr.postselect(oracle, post))


@pytest.mark.parametrize("state", EXACTNESS_STATES)
def test_pair_tables_cached_read_only_and_fresh(state):
    # the pair sums live in the (mids, weight) mixture table
    for axis in ("x", "y"):
        table = ptr._mixture(state, axis)
        assert ptr._mixture(state, axis) is table
        fresh = ptr._build_mixtures(state.branches, state.sigma)[axis]
        for cached, rebuilt in zip(table, fresh):
            np.testing.assert_array_equal(cached, rebuilt)
            with pytest.raises(ValueError):
                cached[0] = 1.0
        assert np.all(np.diff(table[0]) > 0)
    np.testing.assert_allclose(np.sum(ptr._mixture(state, "x")[1]), oracles.total_norm(state), rtol=1e-12)


@pytest.mark.parametrize(
    "moment,args",
    [
        (ptr.marginal_intensity, ([0.0],)),
        (ptr.centroid_exact, ()),
        (ptr.windowed_intensity, ([0.0], 50.0)),
    ],
)
def test_moments_reject_unknown_axis(moment, args):
    with pytest.raises(ValueError):
        moment(paper_state(), "z", *args)


def test_nan_arm_phase_rejected_not_pruned():
    # a NaN coefficient sum must reach the finiteness check, not drop as if zero
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        qm.pre_state(arm_phase=float("nan"))
    with pytest.raises(ValueError, match="branch fields must be finite"):
        ptr._merged([(complex("nan"), 0, 0.0, 0.0)], SIGMA)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, np.nan])
def test_branch_state_requires_positive_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        ptr.BranchState((), sigma)


@pytest.mark.parametrize(
    "fields",
    [
        (1.0, None, np.nan, 0.0),
        (1.0, None, 0.0, -np.inf),
        (complex(np.inf, 0.0), None, 0.0, 0.0),
        (complex(0.0, np.nan), 0, 0.0, 0.0),
    ],
)
def test_branch_state_rejects_non_finite_branch(fields):
    with pytest.raises(ValueError, match="branch fields must be finite"):
        ptr.BranchState((ptr.Branch(0.5, None, 0.0, 0.0), ptr.Branch(*fields)), SIGMA)


def test_apply_jones_rejects_infinite_entry():
    base = ptr.initial_branch_state(qm.pre_state(), SIGMA)
    with pytest.raises(ValueError, match="finite"):
        oracles.apply_jones(base, "A", np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex))


def test_tiny_branches_pruned():
    state = ptr.evolve_and_postselect(
        qm.pre_state(), [], qm.post_state(45.0), sigma=SIGMA
    )
    # <phi(45)|psi> = 1/2 via the BV component only; AH component dies exactly
    assert len(state.branches) == 1

