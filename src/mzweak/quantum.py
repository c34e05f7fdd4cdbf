"""Exact state calculus on the path (x) polarization space of the interferometer.

The Hilbert space is 4-dimensional with the frozen basis order

    index 0: A,H    index 1: A,V    index 2: B,H    index 3: B,V

(arm A / arm B, horizontal / vertical polarization). Every state vector and
every 4x4 operator in the package uses this order; serialized matrices are
row-major in the same order.

Conventions:
    * inner(a, b) = <a|b> conjugates its first argument.
    * The half-wave-plate Jones matrix with fast axis at ``theta`` degrees is
      S(theta) = [[cos 2t, sin 2t], [sin 2t, -cos 2t]]. With this convention
      the family of post-selected states |phi(theta)> has zero weak value at
      theta = 45 deg and unit weak value at theta = 90 deg, which is what the
      45/90 reference scans of the analysis chain rely on.
    * Conditional probabilities of intermediate projective outcomes are
      normalized to the undisturbed post-selection rate |<phi|psi>|^2 (Bayes
      chain P(outcome) * P(post | outcome) / P(post)). For path projectors
      this is the standard two-time conditional probability; for the diagonal
      polarization operators it is the experimentally reported yield ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotAnEigenvalue, OrthogonalPostSelection, VanishingPostSelection

ARM_INDICES = {"A": (0, 1), "B": (2, 3)}

ORTHOGONALITY_TOL = 1e-9

# The projectors of the observable kinds on one arm's (H, V) labels: the
# identity, and the diagonal and anti-diagonal polarization projectors
_ARM_PROJECTORS = 0.5 * np.array([[[2, 0], [0, 2]], [[1, 1], [1, 1]], [[1, -1], [-1, 1]]])
_ARM_PROJECTORS.setflags(write=False)
# Each observable kind on one arm in spectral form ((eigenvalue, projector),
# ...); it is zero on the other arm. ``observable``, the joint-measurement
# records and the pointer couplers (``pointer.apply_coupler``) all read it.
ARM_SPECTRA = {
    "spatial": ((1.0, _ARM_PROJECTORS[0]),),
    "diagonal": ((1.0, _ARM_PROJECTORS[1]), (-1.0, _ARM_PROJECTORS[2])),
}


@dataclass(frozen=True)
class SystemState:
    """Amplitude vector on the 4-dim path x polarization space.

    ``normalized=False`` flags intentionally un-normalized states (e.g. a
    pre-selected state with one arm blocked); normalized states are checked
    to unit norm within 1e-12. Every state needs finite amplitudes (a finite
    norm).
    """

    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=complex).reshape(4)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)
        norm = np.linalg.norm(arr)
        if not math.isfinite(norm):
            raise ValueError("amplitudes must be finite")
        if self.normalized and abs(norm - 1.0) > 1e-12:
            raise ValueError("state marked normalized has norm != 1")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.amplitudes, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class SystemOperator:
    """A Hermitian operator on the path x polarization space in spectral form:
    ``spectrum`` is ((eigenvalue, projector), ...), one entry per distinct
    eigenvalue in ascending order, each projector a read-only complex 4x4 copy.
    ``matrix``, the sum of eigenvalue * projector, is built once. Nothing is
    decomposed at run time: ``observable`` builds from ``ARM_SPECTRA``."""

    spectrum: tuple

    def __post_init__(self):
        entries = []
        for lam, proj in sorted(self.spectrum, key=lambda entry: entry[0]):
            arr = np.array(proj, dtype=complex).reshape(4, 4)
            arr.setflags(write=False)
            entries.append((float(lam), arr))
        object.__setattr__(self, "spectrum", tuple(entries))

    @cached_property
    def matrix(self) -> np.ndarray:
        out = sum(lam * proj for lam, proj in self.spectrum)
        out.setflags(write=False)
        return out

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)


def inner(bra: SystemState, ket: SystemState) -> complex:
    """<bra|ket> with the first argument conjugated."""
    return complex(np.vdot(np.asarray(bra), np.asarray(ket)))


@dataclass(frozen=True)
class PrePostPair:
    """Pre- and post-selected states with the cached overlap <post|pre>."""

    pre: SystemState
    post: SystemState
    overlap: complex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "overlap", inner(self.post, self.pre))

    def require_nonorthogonal(self) -> None:
        if abs(self.overlap) <= ORTHOGONALITY_TOL:
            raise OrthogonalPostSelection(
                f"|<post|pre>| = {abs(self.overlap):.3e} <= tolerance {ORTHOGONALITY_TOL:.1e}"
            )


@dataclass(frozen=True)
class OutcomeDistribution:
    """Labelled probabilities, either unconditional or post-selected."""

    outcomes: tuple

    def __post_init__(self):
        outcomes = tuple((str(k), float(p)) for k, p in self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        if not all(-1e-12 <= p <= 1 + 1e-12 for _, p in outcomes):
            raise ValueError("probabilities out of [0, 1]")
        total = sum(p for _, p in outcomes)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def probability(self, label: str) -> float:
        return dict(self.outcomes)[label]


_R = 1.0 / np.sqrt(2.0)
_PRE_STATE = SystemState(np.array([_R, 0.0, 0.0, _R], dtype=complex))


def pre_state(arm_phase: float = 0.0, blocked_arm: str | None = None) -> SystemState:
    """(|A,H> + e^(i arm_phase) |B,V>)/sqrt(2): the state prepared after the
    input splitter, with the residual A/B phase on arm B.

    A blocked arm's amplitudes are zero, and the state is then un-normalized.
    Both act inside one arm, so they commute with every coupler: this is the
    one place the experiment applies them. With the defaults the module's one
    instance is returned.
    """
    if blocked_arm is not None and blocked_arm not in ARM_INDICES:
        raise ValueError(f"blocked_arm must be None, 'A' or 'B', got {blocked_arm!r}")
    if arm_phase == 0.0 and blocked_arm is None:
        return _PRE_STATE
    amps = _PRE_STATE.amplitudes.copy()
    amps[2:] *= np.exp(1j * arm_phase)  # arm B: BH, BV
    if blocked_arm is not None:
        i, j = ARM_INDICES[blocked_arm]
        amps[i:j + 1] = 0.0
    return SystemState(amps, normalized=blocked_arm is None)


def post_state(theta_deg: float) -> SystemState:
    """(|A> + |B>)/sqrt(2) (x) S(theta)|H>: post-selection at HWP angle theta."""
    if not np.isfinite(theta_deg):
        raise ValueError("theta must be finite")
    # S(theta)|H> = (cos 2t, sin 2t), the first column of the Jones matrix
    # S(theta); "+ 0.0" turns t = -0.0 into +0.0, whose sine is +0.0 as in
    # the product S(theta) @ |H>
    t = np.deg2rad(2.0 * float(theta_deg)) + 0.0
    c, s = _R * np.cos(t), _R * np.sin(t)
    return SystemState(np.array([c, s, c, s], dtype=complex))


def _on_arm(block: np.ndarray, arm: str) -> np.ndarray:
    """The read-only 4x4 matrix acting as the 2x2 ``block`` on one arm's
    (H, V) labels and as zero on the other arm."""
    out = np.zeros((4, 4), dtype=complex)
    i, j = ARM_INDICES[arm]
    out[i:j + 1, i:j + 1] = block
    out.setflags(write=False)
    return out


def observable(kind: str, arm: str) -> SystemOperator:
    """Path projector (``spatial``) or diagonal polarization (``diagonal``) on
    one arm: ``ARM_SPECTRA[kind]`` on that arm, and the other arm's identity
    block at eigenvalue 0.

    spatial:  |arm><arm| (x) 1, eigenvalues {0, 1}
    diagonal: |arm><arm| (x) sigma_1, eigenvalues {-1, 0, +1}
    """
    if arm not in ARM_INDICES:
        raise ValueError(f"arm must be 'A' or 'B', got {arm!r}")
    if kind not in ARM_SPECTRA:
        raise ValueError(f"kind must be 'spatial' or 'diagonal', got {kind!r}")
    other_arm = ((0.0, _on_arm(_ARM_PROJECTORS[0], "B" if arm == "A" else "A")),)
    return SystemOperator(other_arm + tuple((lam, _on_arm(proj, arm)) for lam, proj in ARM_SPECTRA[kind]))


def pair(theta_deg: float) -> PrePostPair:
    """Convenience constructor: standard pre-selection with post_state(theta)."""
    return PrePostPair(pre_state(), post_state(theta_deg))


def weak_value(op: SystemOperator, pp: PrePostPair) -> complex:
    """<post|op|pre> / <post|pre>; raises OrthogonalPostSelection below ORTHOGONALITY_TOL."""
    pp.require_nonorthogonal()
    num = np.vdot(np.asarray(pp.post), np.asarray(op) @ np.asarray(pp.pre))
    return complex(num / pp.overlap)


def _branch(proj: np.ndarray, pp: PrePostPair) -> tuple:
    """(<P pre|P pre>, <post|P pre>) of one outcome projector P: the branch's
    weight and its post-selected amplitude. Every outcome probability reads it."""
    collapsed = proj @ pp.pre.amplitudes
    return float(np.real(np.vdot(collapsed, collapsed))), np.vdot(pp.post.amplitudes, collapsed)


def abl_conditional(op: SystemOperator, eigenvalue: float, pp: PrePostPair) -> float:
    """Conditional probability of one intermediate projective outcome: its
    entry in ``abl_distribution``, looked up by exact eigenvalue."""
    dist = dict(abl_distribution(op, pp))
    if eigenvalue not in dist:
        raise NotAnEigenvalue(f"{eigenvalue!r} not in spectrum of operator")
    return dist[eigenvalue]


def abl_distribution(op: SystemOperator, pp: PrePostPair) -> tuple:
    """(eigenvalue, conditional probability) for the full spectrum of ``op``.

    Computed as P(outcome) * P(post | outcome) / P(post) with
    P(post) = |<post|pre>|^2, i.e. the event yield relative to the
    undisturbed post-selection rate. Equals |<post|P_k|pre>|^2 / |<post|pre>|^2.
    """
    pp.require_nonorthogonal()
    return tuple((lam, float(abs(_branch(proj, pp)[1]) ** 2 / abs(pp.overlap) ** 2)) for lam, proj in op.spectrum)


def sample_measure_postselect(op: SystemOperator, pp: PrePostPair, n_trials: int, rng):
    """Simulate projective measurement of ``op`` followed by post-selection.

    Per trial draws an eigenvalue with its Born probability, then a
    post-selection success on the collapsed state. An independent reference
    post-selection (no intermediate measurement) is drawn alongside, so that
    joint_counts[lam] / ref_count estimates abl_conditional(op, lam, ...).

    Returns (joint_counts: dict eigenvalue -> int, ref_count: int).
    """
    specs = op.spectrum
    branches = [_branch(proj, pp) for _, proj in specs]
    p_outcome = np.array([w for w, _ in branches])
    p_post_given = np.array([abs(amp) ** 2 / w if w > 0 else 0.0 for w, amp in branches])
    p_outcome = p_outcome / p_outcome.sum()

    which = rng.choice(len(specs), size=n_trials, p=p_outcome)
    post_ok = rng.random(n_trials) < p_post_given[which]
    ref_ok = rng.random(n_trials) < abs(pp.overlap) ** 2

    joint = {lam: int(np.count_nonzero(post_ok & (which == k))) for k, (lam, _) in enumerate(specs)}
    return joint, int(np.count_nonzero(ref_ok))


# The three record projectors of the joint measurement: |A><A| (x) 1 and
# |B><B| (x) |diag><diag|, |B><B| (x) |anti><anti|
_JOINT_PROJECTORS = {
    "A": _on_arm(_ARM_PROJECTORS[0], "A"),
    "B+": _on_arm(_ARM_PROJECTORS[1], "B"),
    "B-": _on_arm(_ARM_PROJECTORS[2], "B"),
}


def joint_disturbing_distribution(pp: PrePostPair):
    """Outcome statistics of the strong joint measurement on both arms.

    The path pointer on arm A and the diagonal-polarization pointer on arm B
    are both coupled strongly (shifted pointer states orthogonal), so exactly
    one of three records occurs per run: the arm-A pointer shifted ("A"), or
    the arm-B pointer shifted up ("B+") or down ("B-").

    Returns (unconditional, conditional-on-postselection) distributions. The
    unconditional part is each branch's weight relative to <pre|pre>, so a
    pre-selected state with a blocked arm is measured on its open arm; the
    conditional part projects each orthogonal branch onto the post-selected
    state and renormalizes.
    """
    pp.require_nonorthogonal()
    psi = pp.pre.amplitudes
    branches = {k: _branch(proj, pp) for k, proj in _JOINT_PROJECTORS.items()}
    norm = float(np.real(np.vdot(psi, psi)))
    uncond = OutcomeDistribution(tuple((k, w / norm) for k, (w, _) in branches.items()))
    # A, B+ and B- sum to the identity: the amplitudes sum to <post|pre> != 0, so total > 0
    weights = {k: abs(amp) ** 2 for k, (_, amp) in branches.items()}
    total = sum(weights.values())
    cond = OutcomeDistribution(tuple((k, w / total) for k, w in weights.items()))
    return uncond, cond


def qubit_pointer_excitation(arm: str, g: float, pp: PrePostPair) -> float:
    """Excitation probability of a qubit pointer coupled to the diagonal
    polarization on one arm, conditioned on post-selection.

    The coupling exp(-i g X_arm sigma2_q) rotates the qubit on each
    eigenspace P_lam of X_arm, taking |0> to cos(g lam)|0> + sin(g lam)|1>.
    Post-selection reads each projector branch's amplitude <post|P_lam pre>
    and leaves the qubit in sum_lam <post|P_lam pre> (cos(g lam)|0> +
    sin(g lam)|1>), which is measured in its energy basis.
    """
    pp.require_nonorthogonal()
    amp_ground = amp_excited = 0.0
    for lam, proj in observable("diagonal", arm).spectrum:
        amp = _branch(proj, pp)[1]
        amp_ground += np.cos(g * lam) * amp
        amp_excited += np.sin(g * lam) * amp
    total = abs(amp_ground) ** 2 + abs(amp_excited) ** 2
    if total <= 1e-30:
        raise VanishingPostSelection("post-selected norm vanished under coupling")
    return float(abs(amp_excited) ** 2 / total)
