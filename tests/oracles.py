"""Independent constructions the library is checked against.

Quadrature modes for the Gaussian mixture's closed forms, and the optical
element stack (half-wave plates and polarizing beam displacers) for the
exponential diagonal coupler. No command runs them; tests import this module
as ``import oracles``.
"""

import numpy as np

from mzweak import pointer as ptr

# The H and V projectors on an arm's (H, V) labels, for the beam displacer
_P_H = np.diag([1.0, 0.0])
_P_V = np.diag([0.0, 1.0])


def gaussian_amplitude(u, center: float, sigma: float):
    """Pointer mode amplitude xi_center(u)."""
    u = np.asarray(u, dtype=float)
    return (2.0 * np.pi * sigma**2) ** (-0.25) * np.exp(-((u - center) ** 2) / (4.0 * sigma**2))


def mode_overlap(a: float, b: float, sigma: float) -> float:
    """<xi_a|xi_b> = exp(-(a-b)^2 / (8 sigma^2))."""
    return float(np.exp(-((a - b) ** 2) / (8.0 * sigma**2)))


def first_moment(a: float, b: float, sigma: float) -> float:
    """integral u xi_a(u) xi_b(u) du = midpoint times overlap."""
    return 0.5 * (a + b) * mode_overlap(a, b, sigma)


def hwp_jones(theta_deg: float) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at theta degrees."""
    t = np.deg2rad(2.0 * float(theta_deg))
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def apply_jones(state, arm: str, jones: np.ndarray):
    """Apply a 2x2 polarization Jones matrix to branches on one arm."""
    if not np.all(np.isfinite(jones)):
        raise ValueError("Jones matrix entries must be finite")
    return ptr._apply_on_arm(state, arm, "x", [(jones, 0.0)])


def apply_displacer(state, arm: str, shift: float):
    """Polarizing beam displacer on one arm: shifts the vertical (e-ray)
    component by ``shift`` along x, leaves the horizontal (o-ray) in place."""
    return ptr._apply_on_arm(state, arm, "x", [(_P_H, 0.0), (_P_V, shift)])


def diagonal_coupler_composite(arm: str, g: float):
    """Optical-element construction of the diagonal coupler.

    Half-wave plates at 22.5 deg sandwich a displacer pair (e-ray shifted by
    -g, then +g) with 45 deg half-wave plates interleaved, which swaps the
    e/o roles between the displacers. Displacement signs are oriented so the
    stack equals exp(-i g X_arm P_x) (diagonal component toward +x) on every
    basis state.
    """
    hwp_225 = hwp_jones(22.5)
    hwp_45 = hwp_jones(45.0)

    def transform(state):
        st = apply_jones(state, arm, hwp_225)
        st = apply_displacer(st, arm, -g)
        st = apply_jones(st, arm, hwp_45)
        st = apply_displacer(st, arm, +g)
        st = apply_jones(st, arm, hwp_45)
        st = apply_jones(st, arm, hwp_225)
        return st

    return transform
