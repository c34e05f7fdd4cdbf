"""State calculus: weak values, conditional probabilities, qubit pointer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from mzweak import quantum as qm
from mzweak.errors import (
    NotAnEigenvalue,
    OrthogonalPostSelection,
    VanishingPostSelection,
)
from mzweak.rng import ABL_MC, stream

import oracles

RT2 = np.sqrt(2.0)


def post_overlap(theta):
    """<phi(theta)|psi> evaluated independently: (cos 2t + sin 2t) / 2."""
    t = np.deg2rad(2.0 * theta)
    return (np.cos(t) + np.sin(t)) / 2.0


nonorthogonal_thetas = st.floats(-89.0, 89.0).filter(
    lambda t: abs(post_overlap(t)) > 1e-3
)


# ---------------------------------------------------------------- states


def test_pre_state_amplitudes():
    amps = np.asarray(qm.pre_state())
    assert np.allclose(amps, [1 / RT2, 0, 0, 1 / RT2], atol=1e-15)


def test_np_array_takes_a_copy_under_numpy_2():
    # np.array passes copy= to __array__; without that keyword numpy 2 warns,
    # and tier-1 turns the warning into an error
    for obj, inner in ((qm.pre_state(), "amplitudes"), (qm.observable("diagonal", "B"), "matrix")):
        arr = np.array(obj)
        assert np.array_equal(arr, getattr(obj, inner)) and arr.flags.writeable
        arr.flat[0] = 7.0
        assert np.asarray(obj).flat[0] != 7.0


def test_pre_state_norm_and_self_overlap():
    psi = qm.pre_state()
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    assert abs(qm.inner(psi, psi) - 1.0) < 1e-12


def test_post_state_at_zero():
    assert np.allclose(np.asarray(qm.post_state(0.0)), [1 / RT2, 0, 1 / RT2, 0], atol=1e-15)


def test_post_state_diagonal_225():
    assert np.allclose(np.asarray(qm.post_state(22.5)), [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_post_state_45_by_direct_jones_application():
    # oracle: multiply the HWP matrix into |H> by hand
    t = np.deg2rad(90.0)
    jones = np.array([[np.cos(t), np.sin(t)], [np.sin(t), -np.cos(t)]])
    pol = jones @ np.array([1.0, 0.0])
    expected = np.kron([1 / RT2, 1 / RT2], pol)
    assert np.allclose(np.asarray(qm.post_state(45.0)), expected, atol=1e-12)
    assert np.allclose(np.asarray(qm.post_state(45.0)), [0, 1 / RT2, 0, 1 / RT2], atol=1e-12)


def test_pre_state_is_one_immutable_instance():
    psi = qm.pre_state()
    assert qm.pre_state() is psi
    assert qm.pre_state(0.0, None) is psi
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


@pytest.mark.parametrize("phase", [0.6, -2.0, 3 * np.pi])
def test_pre_state_arm_phase_multiplies_arm_b(phase):
    psi = qm.pre_state(arm_phase=phase)
    assert psi.normalized
    np.testing.assert_allclose(np.asarray(psi), [1 / RT2, 0, 0, np.exp(1j * phase) / RT2], rtol=0, atol=1e-15)


@pytest.mark.parametrize("blocked,open_index", [("A", 3), ("B", 0)])
def test_pre_state_blocked_arm_is_zero_and_unnormalized(blocked, open_index):
    psi = qm.pre_state(arm_phase=0.6, blocked_arm=blocked)
    assert not psi.normalized
    amps = np.asarray(psi)
    assert np.count_nonzero(amps) == 1
    assert abs(amps[open_index]) == pytest.approx(1 / RT2, abs=1e-15)
    # the blocked pair: orthogonal at theta = 0 when arm A is blocked, a weak value of 1 otherwise
    pp = qm.PrePostPair(psi, qm.post_state(0.0))
    if blocked == "A":
        with pytest.raises(OrthogonalPostSelection):
            qm.weak_value(qm.observable("diagonal", "B"), pp)
    else:
        assert qm.weak_value(qm.observable("spatial", "A"), pp) == pytest.approx(1.0, abs=1e-12)


def test_pre_state_rejects_unknown_arm():
    with pytest.raises(ValueError, match="blocked_arm"):
        qm.pre_state(blocked_arm="C")


@pytest.mark.parametrize("theta", [0.0, -0.0, 22.5, 45.0, 67.5, 90.0, -33.3, 1e-300, 719.9])
def test_post_state_bits_equal_jones_product(theta):
    # the Kronecker form of the docstring, (|A> + |B>)/sqrt(2) (x) S(theta)|H>
    pol = oracles.hwp_jones(theta) @ np.array([1.0, 0.0], dtype=complex)
    expected = np.kron(np.array([1.0, 1.0]) / np.sqrt(2.0), pol)
    assert qm.post_state(theta).amplitudes.tobytes() == expected.tobytes()


def test_post_state_requires_finite_theta():
    with pytest.raises(ValueError):
        qm.post_state(float("nan"))


def test_unnormalized_state_flag():
    with pytest.raises(ValueError):
        qm.SystemState(np.array([1.0, 0, 0, 1.0]))
    st_ok = qm.SystemState(np.array([1.0, 0, 0, 1.0]), normalized=False)
    assert abs(np.linalg.norm(st_ok.amplitudes) - RT2) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("normalized", [True, False])
def test_system_state_rejects_non_finite_amplitudes(bad, normalized):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        qm.SystemState(np.array([bad, 0, 0, 0]), normalized=normalized)


def test_state_and_operator_leave_caller_arrays_writable():
    amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    proj = np.eye(4, dtype=complex)
    state, op = qm.SystemState(amps), qm.SystemOperator(((1.0, proj),))
    (_, copy), = op.spectrum
    assert amps.flags.writeable and not state.amplitudes.flags.writeable
    assert proj.flags.writeable and not copy.flags.writeable and not op.matrix.flags.writeable
    amps[0] = proj[0, 0] = 0.0
    assert state.amplitudes[0] == copy[0, 0] == op.matrix[0, 0] == 1.0


# ------------------------------------------------------------ observables


def test_spatial_projectors_complete():
    total = np.asarray(qm.observable("spatial", "A")) + np.asarray(qm.observable("spatial", "B"))
    assert np.allclose(total, np.eye(4), atol=1e-15)


def test_observables_hermitian_and_projector_property():
    # exact: the spectral projectors are idempotent, pairwise orthogonal and
    # complete, and the operator equals its conjugate transpose
    for kind in ("spatial", "diagonal"):
        for arm in ("A", "B"):
            op = qm.observable(kind, arm)
            projs = [proj for _, proj in op.spectrum]
            for k, proj in enumerate(projs):
                np.testing.assert_array_equal(proj @ proj, proj)
                for other in projs[k + 1:]:
                    np.testing.assert_array_equal(proj @ other, np.zeros((4, 4)))
            np.testing.assert_array_equal(sum(projs), np.eye(4))
            np.testing.assert_array_equal(op.matrix, op.matrix.conj().T)
    for arm in ("A", "B"):
        proj = np.asarray(qm.observable("spatial", arm))
        np.testing.assert_array_equal(proj @ proj, proj)


def test_diagonal_swaps_h_and_v():
    bv = np.array([0, 0, 0, 1.0], dtype=complex)
    out = np.asarray(qm.observable("diagonal", "B")) @ bv
    assert np.allclose(out, [0, 0, 1.0, 0], atol=1e-15)


def test_diagonal_eigenvalues():
    vals = np.linalg.eigvalsh(np.asarray(qm.observable("diagonal", "A")))
    assert np.allclose(np.sort(vals), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_observable_rejects_bad_args():
    with pytest.raises(ValueError):
        qm.observable("spatial", "C")
    with pytest.raises(ValueError):
        qm.observable("circular", "A")


# ------------------------------------------------------------- weak values


def test_weak_values_at_theta_zero():
    pp = qm.pair(0.0)
    assert abs(qm.weak_value(qm.observable("spatial", "A"), pp) - 1.0) < 1e-12
    assert abs(qm.weak_value(qm.observable("spatial", "B"), pp)) < 1e-12
    assert abs(qm.weak_value(qm.observable("diagonal", "B"), pp) - 1.0) < 1e-12
    assert abs(qm.weak_value(qm.observable("diagonal", "A"), pp)) < 1e-12


def test_weak_value_reference_angles():
    # the two calibration anchors of the analysis chain
    assert abs(qm.weak_value(qm.observable("spatial", "A"), qm.pair(45.0))) < 1e-12
    assert abs(qm.weak_value(qm.observable("spatial", "A"), qm.pair(90.0)) - 1.0) < 1e-12


@given(nonorthogonal_thetas)
def test_weak_value_identity_is_one(theta):
    wv = qm.weak_value(qm.SystemOperator(((1.0, np.eye(4)),)), qm.pair(theta))
    assert abs(wv - 1.0) < 1e-12


def test_weak_value_theta_30_against_matrix_oracle():
    # oracle: build the projector and states with independent numpy code
    psi = np.array([1, 0, 0, 1], dtype=complex) / RT2
    t = np.deg2rad(60.0)
    phi = np.kron([1 / RT2, 1 / RT2], [np.cos(t), np.sin(t)]).astype(complex)
    y_a = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    oracle = np.vdot(phi, y_a @ psi) / np.vdot(phi, psi)

    wv = qm.weak_value(qm.observable("spatial", "A"), qm.pair(30.0))
    assert abs(wv - oracle) < 1e-12
    assert abs(wv - 0.36603) < 5e-6


def test_weak_value_orthogonal_post_selection():
    assert abs(post_overlap(67.5)) < 1e-15  # direct evaluation
    with pytest.raises(OrthogonalPostSelection):
        qm.weak_value(qm.observable("spatial", "A"), qm.pair(67.5))


@given(nonorthogonal_thetas)
def test_spatial_sum_rule(theta):
    pp = qm.pair(theta)
    total = qm.weak_value(qm.observable("spatial", "A"), pp) + qm.weak_value(
        qm.observable("spatial", "B"), pp
    )
    assert abs(total - 1.0) < 1e-12


@given(nonorthogonal_thetas)
def test_diagonal_sum_rule_state_dependent(theta):
    pp = qm.pair(theta)
    total = qm.weak_value(qm.observable("diagonal", "A"), pp) + qm.weak_value(
        qm.observable("diagonal", "B"), pp
    )
    # sigma_1 on both arms: the two arms' diagonal projectors at +1, anti-diagonal at -1
    plus = np.kron(np.eye(2), [[0.5, 0.5], [0.5, 0.5]])
    minus = np.kron(np.eye(2), [[0.5, -0.5], [-0.5, 0.5]])
    sigma1_full = qm.SystemOperator(((-1.0, minus), (1.0, plus)))
    expected = qm.weak_value(sigma1_full, pp)
    assert abs(total - expected) < 1e-12


def test_diagonal_sum_rule_is_one_at_zero():
    pp = qm.pair(0.0)
    total = qm.weak_value(qm.observable("diagonal", "A"), pp) + qm.weak_value(
        qm.observable("diagonal", "B"), pp
    )
    assert abs(total - 1.0) < 1e-12


@given(
    st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    st.lists(st.floats(-1, 1), min_size=4, max_size=4),
)
def test_projector_weak_value_real_for_real_inputs(a, b, v):
    a, b, v = np.array(a), np.array(b), np.array(v)
    if np.linalg.norm(a) < 1e-3 or np.linalg.norm(b) < 1e-3 or np.linalg.norm(v) < 1e-3:
        return
    pre = qm.SystemState(a / np.linalg.norm(a))
    post = qm.SystemState(b / np.linalg.norm(b))
    pp = qm.PrePostPair(pre, post)
    if abs(pp.overlap) < 1e-3:
        return
    vn = v / np.linalg.norm(v)
    projector = qm.SystemOperator(((0.0, np.eye(4) - np.outer(vn, vn)), (1.0, np.outer(vn, vn))))
    assert abs(qm.weak_value(projector, pp).imag) < 1e-12


# ---------------------------------------------------------- conditionals


def test_abl_conditional_values_at_zero():
    pp = qm.pair(0.0)
    assert abs(qm.abl_conditional(qm.observable("spatial", "A"), 1.0, pp) - 1.0) < 1e-12
    assert abs(qm.abl_conditional(qm.observable("spatial", "B"), 1.0, pp)) < 1e-12
    # exact: the diagonal projectors are built from ARM_SPECTRA, not decomposed
    assert qm.abl_conditional(qm.observable("diagonal", "B"), 1.0, pp) == 0.25
    assert qm.abl_conditional(qm.observable("diagonal", "B"), -1.0, pp) == 0.25


@pytest.mark.parametrize("kind,arm", [("spatial", "A"), ("spatial", "B"), ("diagonal", "A"), ("diagonal", "B")])
def test_spectrum_cached_read_only_and_fresh(kind, arm):
    op = qm.observable(kind, arm)
    spectrum = op.spectrum
    assert op.spectrum is spectrum
    fresh = qm.observable(kind, arm).spectrum  # each operator holds its own copies
    assert fresh is not spectrum
    assert [lam for lam, _ in spectrum] == [lam for lam, _ in fresh]
    for (_, cached), (_, rebuilt) in zip(spectrum, fresh):
        np.testing.assert_array_equal(cached, rebuilt)
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0


def test_abl_rejects_non_eigenvalue():
    with pytest.raises(NotAnEigenvalue):
        qm.abl_conditional(qm.observable("spatial", "A"), 0.5, qm.pair(0.0))


def test_abl_orthogonal_raises():
    with pytest.raises(OrthogonalPostSelection):
        qm.abl_conditional(qm.observable("spatial", "A"), 1.0, qm.pair(67.5))


@pytest.mark.parametrize("theta", [0.0, 45.0, 90.0])
def test_abl_spatial_distribution_sums_to_one(theta):
    # at the angles the experiment uses, the path measurement leaves the
    # post-selection rate unchanged and the conditionals are a distribution
    dist = qm.abl_distribution(qm.observable("spatial", "A"), qm.pair(theta))
    assert abs(sum(p for _, p in dist) - 1.0) < 1e-12


def test_abl_identity_probability_one():
    dist = qm.abl_distribution(qm.SystemOperator(((1.0, np.eye(4)),)), qm.pair(30.0))
    assert len(dist) == 1 and abs(dist[0][1] - 1.0) < 1e-12


@pytest.mark.parametrize("theta", [0.0, 10.0, 45.0, 90.0])
@pytest.mark.parametrize("kind,arm", [("spatial", "A"), ("spatial", "B"), ("diagonal", "A"), ("diagonal", "B")])
def test_abl_conditional_is_its_distribution_entry(kind, arm, theta):
    op = qm.observable(kind, arm)
    pp = qm.pair(theta)
    dist = dict(qm.abl_distribution(op, pp))
    for lam, _ in op.spectrum:
        assert qm.abl_conditional(op, lam, pp) == dist[lam]


def test_abl_diagonal_family_disturbance_accounting():
    """The diagonal measurement disturbs the post-selection rate: the raw
    yields exceed 1 by exactly the rate increase, and renormalizing them
    reproduces the joint-measurement conditional distribution."""
    pp = qm.pair(0.0)
    dist = dict(qm.abl_distribution(qm.observable("diagonal", "B"), pp))
    total = sum(dist.values())
    assert abs(total - 1.5) < 1e-12  # 3/8 disturbed rate over 1/4 undisturbed
    _, cond = qm.joint_disturbing_distribution(pp)
    assert abs(dist[1.0] / total - cond.probability("B+")) < 1e-12
    assert abs(dist[-1.0] / total - cond.probability("B-")) < 1e-12
    assert abs(dist[0.0] / total - cond.probability("A")) < 1e-12


def _mc_estimates(op, pp, n, seed):
    joint, ref = qm.sample_measure_postselect(op, pp, n, stream(seed, ABL_MC))
    est = {}
    for lam, cnt in joint.items():
        value = cnt / ref
        # delta-method error of the ratio of two independent binomials
        pa, pb = cnt / n, ref / n
        var = 0.0
        if cnt > 0:
            var = value**2 * ((1 - pa) / cnt + (1 - pb) / ref)
        sigma = np.sqrt(var) if var > 0 else 4.0 / ref
        est[lam] = (value, sigma)
    return est


def test_abl_matches_monte_carlo_frequencies():
    n = 100_000
    pp = qm.pair(0.0)
    for op in (qm.observable("spatial", "A"), qm.observable("diagonal", "B")):
        est = _mc_estimates(op, pp, n, seed=20260809)
        for lam, (value, sigma) in est.items():
            exact = qm.abl_conditional(op, lam, pp)
            assert abs(value - exact) <= 4.0 * max(sigma, 1e-12), (lam, value, exact)


# ------------------------------------------------- joint strong measurement


def test_joint_disturbing_unconditional():
    uncond, _ = qm.joint_disturbing_distribution(qm.pair(0.0))
    probs = dict(uncond.outcomes)
    assert abs(probs["A"] - 0.5) < 1e-12
    assert abs(probs["B+"] - 0.25) < 1e-12
    assert abs(probs["B-"] - 0.25) < 1e-12
    assert abs(sum(probs.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("blocked,expected", [("A", {"A": 0.0, "B+": 0.5, "B-": 0.5}), ("B", {"A": 1.0, "B+": 0.0, "B-": 0.0})])
def test_joint_disturbing_unconditional_of_a_blocked_arm(blocked, expected):
    # the records of the open arm, relative to <pre|pre> = 1/2
    uncond, cond = qm.joint_disturbing_distribution(qm.PrePostPair(qm.pre_state(blocked_arm=blocked), qm.post_state(10.0)))
    for label, p in expected.items():
        assert abs(uncond.probability(label) - p) < 1e-12
        assert (cond.probability(label) == 0.0) == (p == 0.0)


def test_joint_disturbing_conditional_vs_branch_oracle():
    # oracle: construct each orthogonal branch of the post-coupling state by
    # hand, project on phi, renormalize
    psi = np.array([1, 0, 0, 1], dtype=complex) / RT2
    phi = np.array([1, 0, 1, 0], dtype=complex) / RT2
    diag = np.array([1, 1]) / RT2
    anti = np.array([1, -1]) / RT2
    branch_a = np.diag([1.0, 1.0, 0, 0]) @ psi
    branch_bp = np.kron([0, 1], diag) * np.vdot(np.kron([0, 1], diag), psi)
    branch_bm = np.kron([0, 1], anti) * np.vdot(np.kron([0, 1], anti), psi)
    weights = np.array([abs(np.vdot(phi, b)) ** 2 for b in (branch_a, branch_bp, branch_bm)])
    oracle = weights / weights.sum()

    _, cond = qm.joint_disturbing_distribution(qm.pair(0.0))
    probs = dict(cond.outcomes)
    assert abs(probs["A"] - oracle[0]) < 1e-12
    assert abs(probs["B+"] - oracle[1]) < 1e-12
    assert abs(probs["B-"] - oracle[2]) < 1e-12
    assert abs(probs["A"] - 2.0 / 3.0) < 1e-12
    assert abs(probs["B+"] - 1.0 / 6.0) < 1e-12


def test_joint_disturbing_orthogonal_raises():
    with pytest.raises(OrthogonalPostSelection):
        qm.joint_disturbing_distribution(qm.pair(67.5))


@pytest.mark.parametrize("theta", [67.5 - 1e-7, 67.5 + 1e-7])
def test_joint_disturbing_near_orthogonal_is_a_distribution(theta):
    # |<post|pre>| ~ 2.5e-9, just above the tolerance: the three records sum
    # to the identity, so their post-selected amplitudes cannot all vanish
    pp = qm.pair(theta)
    assert qm.ORTHOGONALITY_TOL < abs(pp.overlap) < 3e-9
    _, cond = qm.joint_disturbing_distribution(pp)
    probs = [p for _, p in cond.outcomes]
    assert np.all(np.isfinite(probs)) and abs(sum(probs) - 1.0) < 1e-12


@given(nonorthogonal_thetas)
def test_joint_disturbing_normalized_for_all_angles(theta):
    uncond, cond = qm.joint_disturbing_distribution(qm.pair(theta))
    assert abs(sum(p for _, p in uncond.outcomes) - 1.0) < 1e-12
    assert abs(sum(p for _, p in cond.outcomes) - 1.0) < 1e-12
    # the pre-selected state fixes the unconditional record probabilities
    assert uncond.probability("A") == pytest.approx(0.5, abs=1e-12)
    assert uncond.probability("B+") == pytest.approx(0.25, abs=1e-12)


# ------------------------------------------------------------ qubit pointer


@pytest.mark.parametrize("g", np.linspace(0.0, 3.0, 25))
def test_qubit_pointer_never_excites_on_arm_a(g):
    if abs(g - np.pi / 2) < 0.05:
        return  # post-selected norm vanishes at exactly pi/2
    assert qm.qubit_pointer_excitation("A", g, qm.pair(0.0)) < 1e-12


def test_qubit_pointer_arm_b_value():
    p = qm.qubit_pointer_excitation("B", np.pi / 4, qm.pair(0.0))
    assert abs(p - 1.0 / 3.0) < 1e-12


# theta = 0 keeps the ids "arm-g"; away from it the branch amplitudes differ
@pytest.mark.parametrize(
    "arm,g,theta",
    [
        pytest.param(arm, g, theta, id=f"{arm}-{g}" + (f"-theta{theta:g}" if theta else ""))
        for theta in (0.0, 10.0, 30.0, 60.0)
        for arm in "AB"
        for g in (0.1, np.pi / 4, 0.9, 1.7)
    ],
)
def test_qubit_pointer_vs_expm_oracle(arm, g, theta):
    # oracle: full 8-dim matrix exponential, independent of the spectral path
    sigma2 = np.array([[0, -1j], [1j, 0]])
    x_arm = np.asarray(qm.observable("diagonal", arm))
    u8 = expm(-1j * g * np.kron(x_arm, sigma2))
    pp = qm.pair(theta)
    state8 = np.kron(np.asarray(pp.pre), [1.0, 0.0])
    evolved = u8 @ state8
    phi = np.asarray(pp.post)
    amp0 = np.vdot(np.kron(phi, [1.0, 0.0]), evolved)
    amp1 = np.vdot(np.kron(phi, [0.0, 1.0]), evolved)
    oracle = abs(amp1) ** 2 / (abs(amp0) ** 2 + abs(amp1) ** 2)
    assert abs(qm.qubit_pointer_excitation(arm, g, pp) - oracle) < 1e-12


def test_qubit_pointer_zero_coupling():
    assert qm.qubit_pointer_excitation("B", 0.0, qm.pair(0.0)) == 0.0


def test_qubit_pointer_vanishing_norm():
    with pytest.raises(VanishingPostSelection):
        qm.qubit_pointer_excitation("A", np.pi / 2, qm.pair(0.0))


# ----------------------------------------------------------- distributions


def test_outcome_distribution_validation():
    with pytest.raises(ValueError):
        qm.OutcomeDistribution((("a", 0.7), ("b", 0.7)))
    with pytest.raises(ValueError):
        qm.OutcomeDistribution((("a", -0.1), ("b", 1.1)))


@pytest.mark.parametrize("probs", [(np.nan, 1.0), (0.5, np.nan), (np.nan, np.nan)])
def test_outcome_distribution_rejects_nan(probs):
    with pytest.raises(ValueError, match="probabilities"):
        qm.OutcomeDistribution(tuple(zip("ab", probs)))
