"""Continuous Gaussian-pointer dynamics with closed-form moments.

The transverse beam state on each axis is a superposition of displaced
Gaussian modes

    xi_a(u) = (2 pi sigma^2)^(-1/4) exp(-(u - a)^2 / (4 sigma^2)),

normalized so the intensity |xi|^2 has rms width sigma and the overlap of two
modes is <xi_a|xi_b> = exp(-(a - b)^2 / (8 sigma^2)). The x and y axes are an
exact product (the two couplers act on orthogonal axes), so a joint state is
a finite list of branches (coefficient, system basis index, dx, dy).

Couplers are translation evolutions exp(-i g S P_axis): the path coupler
(tilted plate) shifts the target arm by g along y; the diagonal-polarization
coupler (beam-displacer stack) splits the target arm into a +g diagonal and a
-g anti-diagonal component along x.

Default beam width: sigma = 475 um (a 1.9 mm beam read as 4 sigma full
width); the alternative collimation reading, a 1.5 mm beam, is the config
``"sigma": 375``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import EmptyState, VanishingPostSelection
from .quantum import ARM_INDICES, ARM_SPECTRA, SystemState

DEFAULT_SIGMA_UM = 475.0

COEFF_PRUNE_TOL = 1e-15

# The pointer axis each coupler kind moves; its observable is
# ``quantum.ARM_SPECTRA[kind]`` on the target arm
_COUPLER_AXES = {"spatial": "y", "diagonal": "x"}


def _overlap(a, b, sigma):
    return np.exp(-((a - b) ** 2) / (8.0 * sigma**2))


class Branch(NamedTuple):
    """One term of the joint superposition, plain data.

    ``label`` is a basis index 0..3 (AH, AV, BH, BV) before post-selection
    and None once the system degree of freedom has been projected out. A
    branch is not checked on its own: the ``BranchState`` holding it is.
    """

    coeff: complex
    label: int | None
    dx: float
    dy: float


@dataclass(frozen=True)
class BranchState:
    """Finite superposition of Gaussian pointer branches.

    The state holds the invariant, checked once here: sigma is positive and
    finite, and every branch's |coeff|, dx and dy are finite. A post-selected
    state has label-free branches and is generally un-normalized.
    """

    branches: tuple
    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        branches = tuple(self.branches)
        for coeff, _, dx, dy in branches:
            if not (math.isfinite(abs(coeff)) and math.isfinite(dx) and math.isfinite(dy)):
                raise ValueError("branch fields must be finite")
        object.__setattr__(self, "branches", branches)

    def total_norm(self) -> float:
        """Squared norm including Gaussian overlaps between branches."""
        return float(np.sum(_mixture(self, "x")[1]))

    @cached_property
    def _mixtures(self):
        return _build_mixtures(self.branches, self.sigma)


def _merged(terms, sigma) -> BranchState:
    """One branch per distinct (label, dx, dy) of the (coeff, label, dx, dy)
    terms, coefficients summed in term order; sums below COEFF_PRUNE_TOL drop, NaN stays."""
    acc = {}
    for coeff, label, dx, dy in terms:
        key = (label, dx, dy)
        acc[key] = acc.get(key, 0.0) + coeff
    kept = tuple(Branch(c, *key) for key, c in acc.items() if not abs(c) < COEFF_PRUNE_TOL)
    return BranchState(kept, sigma)


@dataclass(frozen=True)
class CouplerSpec:
    """A von Neumann coupler: kind 'spatial' (y axis) or 'diagonal' (x axis),
    target arm, displacement g in um."""

    kind: str
    arm: str
    g: float

    def __post_init__(self):
        if self.kind not in _COUPLER_AXES:
            raise ValueError(f"kind must be 'spatial' or 'diagonal', got {self.kind!r}")
        if self.arm not in ARM_INDICES:
            raise ValueError(f"arm must be 'A' or 'B', got {self.arm!r}")
        if not 0 <= self.g < math.inf:
            raise ValueError("g must be non-negative and finite")


def initial_branch_state(state: SystemState, sigma: float = DEFAULT_SIGMA_UM) -> BranchState:
    """Attach unshifted pointer modes to every system basis component."""
    terms = [
        (complex(amp), j, 0.0, 0.0)
        for j, amp in enumerate(np.asarray(state))
        if abs(amp) >= COEFF_PRUNE_TOL
    ]
    return _merged(terms, sigma)


def _apply_on_arm(state: BranchState, arm: str, axis: str, terms) -> BranchState:
    """Apply sum_j M_j (x) T(shift_j) to the branches on one arm.

    Each M_j is a 2x2 polarization matrix on the arm's (H, V) labels and
    T(shift_j) translates the pointer by shift_j along ``axis``; branches on
    the other arm, and label-free branches, pass through unchanged.
    """
    idx = ARM_INDICES[arm]
    out = []
    for b in state.branches:
        if b.label not in idx:
            out.append(b)
            continue
        col = idx.index(b.label)
        for m, shift in terms:
            dx, dy = (b.dx + shift, b.dy) if axis == "x" else (b.dx, b.dy + shift)
            out.extend((b.coeff * m[row, col], lab, dx, dy) for row, lab in enumerate(idx))
    return _merged(out, state.sigma)


def apply_coupler(state: BranchState, spec: CouplerSpec) -> BranchState:
    """exp(-i g S P_axis) in its spectral form: each eigenspace of the kind's
    observable S on the target arm (``quantum.ARM_SPECTRA``) moves by
    eigenvalue * g along the kind's axis; the other arm passes through."""
    terms = [(proj, value * spec.g) for proj, value in ARM_SPECTRA[spec.kind]]
    return _apply_on_arm(state, spec.arm, _COUPLER_AXES[spec.kind], terms)


def postselect(state: BranchState, post: SystemState) -> BranchState:
    """Project the system part on <post|; the result is un-normalized and
    carries pointer-only branches (label None)."""
    phi = np.asarray(post)
    terms = [(b.coeff * np.conj(phi[b.label]), None, b.dx, b.dy) for b in state.branches]
    return _merged(terms, state.sigma)


def evolve(pre: SystemState, couplers, *, sigma: float = DEFAULT_SIGMA_UM) -> BranchState:
    """Run the coupler sequence on the labelled branch state (no
    post-selection). The pointer evolves the pre-selected state it is handed;
    a blocked arm or an arm phase is part of that state (``quantum.pre_state``)."""
    seen = set()
    for spec in couplers:
        key = (spec.kind, spec.arm)
        if key in seen:
            raise ValueError(f"conflicting couplers: duplicate {key}")
        seen.add(key)
    state = initial_branch_state(pre, sigma)
    for spec in couplers:
        state = apply_coupler(state, spec)
    return state


def evolve_and_postselect(
    pre: SystemState, couplers, post: SystemState, *, sigma: float = DEFAULT_SIGMA_UM
) -> BranchState:
    """Coupler evolution followed by post-selection; un-normalized output."""
    return postselect(evolve(pre, couplers, sigma=sigma), post)


def _mixture(state: BranchState, axis: str):
    """The marginal along ``axis`` as a Gaussian mixture, arrays (mids, weight).

    Since xi_a xi_b = <xi_a|xi_b> N(u; (a+b)/2, sigma^2), the marginal
    intensity is sum_m weight[m] N(u; mids[m], sigma^2). ``mids`` are the
    sorted distinct pair midpoints; weight[m] sums, in k-major pair order,
    Re(c_k conj(c_l)) times the exact overlaps of the two modes across and
    along ``axis`` over the label-matched pairs (k, l) at mids[m] (distinct
    system labels do not interfere). Both axes' tables are built in one pass
    per state; their arrays are read-only.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    return state._mixtures[axis]


def _build_mixtures(branches, sigma: float) -> dict:
    """The (mids, weight) table of each axis, from one set of label-matched pairs."""
    labels = np.array([b.label for b in branches], dtype=object)
    k, l = np.nonzero(labels[:, None] == labels[None, :])
    coeff = np.array([b.coeff for b in branches], dtype=complex)
    dx = np.array([b.dx for b in branches], dtype=float)
    dy = np.array([b.dy for b in branches], dtype=float)
    # Re(c_k conj(c_l)) spelled out: numpy's array complex product may fuse
    # multiply-adds and round differently from the scalar product
    re, im = coeff.real, coeff.imag
    real = re[k] * re[l] + im[k] * im[l]
    over_x = _overlap(dx[k], dx[l], sigma)
    over_y = _overlap(dy[k], dy[l], sigma)
    # each axis multiplies the overlap across it first, then the one along it
    return {
        "x": _table(0.5 * (dx[k] + dx[l]), real * over_y * over_x),
        "y": _table(0.5 * (dy[k] + dy[l]), real * over_x * over_y),
    }


def _table(mid, pair_weight):
    """Pair weights summed per distinct midpoint, sorted by midpoint, read-only."""
    mids = np.array(sorted(set(mid.tolist())), dtype=float)
    weight = np.bincount(np.searchsorted(mids, mid), pair_weight, mids.size)
    mids.setflags(write=False)
    weight.setflags(write=False)
    return mids, weight


def marginal_intensity(state: BranchState, axis: str, grid) -> np.ndarray:
    """Marginal intensity I(u) on the grid along one axis.

    I(u) = sum_m weight[m] N(u; mids[m], sigma^2) over the state's mixture
    table (see ``_mixture``): one Gaussian per distinct pair midpoint. The
    result is clipped at 0 against rounding dust.
    """
    mids, weight = _mixture(state, axis)
    if not state.branches:
        raise EmptyState("no branches")
    s = state.sigma
    u = np.asarray(grid, dtype=float)
    along_mids = (-1,) + (1,) * u.ndim
    # a product-then-sum, not a matmul: BLAS may fuse multiply-adds, and then
    # opposite-sign branches at +/-g no longer cancel exactly at their center
    gauss = np.exp((u - mids.reshape(along_mids)) ** 2 / (-2.0 * s**2))
    total = np.sum(gauss * weight.reshape(along_mids), axis=0) / (s * np.sqrt(2.0 * np.pi))
    return np.clip(total, 0.0, None)


def centroid_exact(state: BranchState, axis: str) -> float:
    """Mean position of the normalized marginal intensity, in closed form.

    The mixture's mean: sum(weight * mids) / sum(weight). Raises
    VanishingPostSelection when the total weight is at most 1e-12.
    """
    mids, weight = _mixture(state, axis)
    if not state.branches:
        raise VanishingPostSelection("no branches survive post-selection")
    den = np.sum(weight)
    if den <= 1e-12:
        raise VanishingPostSelection(f"post-selected weight {den:.3e} <= 1e-12")
    return float(np.sum(weight * mids) / den)


def first_order_shift(weak_val: complex, g: float) -> float:
    """Leading-order pointer shift g * Re(weak value), in um."""
    return float(g * np.real(weak_val))


def windowed_intensity(state: BranchState, axis: str, centers, width: float) -> np.ndarray:
    """Integral of the marginal intensity over [c - width/2, c + width/2].

    Closed form via the normal CDF of the mixture's Gaussians; used for
    fiber-core integration. erf runs once per distinct window edge and
    mixture midpoint: windows that share an edge (a scan whose step equals
    its width, or a repeated center) share its erf values. Each center sums
    mass * weight along a C-contiguous midpoint axis, so its value does not
    depend on how many centers share the call.
    """
    if not state.branches:
        raise EmptyState("no branches")
    mids, weight = _mixture(state, axis)
    c = np.atleast_1d(np.asarray(centers, dtype=float))
    edges, edge_idx = np.unique(np.stack([c + 0.5 * width, c - 0.5 * width]), return_inverse=True)
    edge_idx = edge_idx.reshape((2,) + c.shape)
    z = 1.0 / (state.sigma * np.sqrt(2.0))
    cdf = _erf((edges[:, None] - mids) * z)
    mass = 0.5 * (cdf[edge_idx[0]] - cdf[edge_idx[1]])
    total = np.sum(mass * weight, axis=-1)
    return np.clip(total, 0.0, None)


def _erf(x):
    """math.erf elementwise; np.vectorize is several times slower."""
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)

