"""Two-ion pulse dynamics.

A simultaneous red/blue Raman pair drives, per Fock sector (n, n_r), a pair
of two-level ions with an effective Hamiltonian that is diagonal in the
motional labels. Evolution therefore factors into independent 4-dimensional
electronic problems, each a phase times a rotation by the sector's mixing
angle about one fixed operator (``mixing_operator``), from which the
Lamb-Dicke-limit pulse is built. ``ionsim.oracle`` holds the per-sector
unitary stack (``sector_unitary``), the Debye-Waller rotation of a Fock level
n > 0 and the full truncated-space Hamiltonian the tests check these against.

Electronic basis ordering for the pulsed pair is |dd>, |du>, |ud>, |uu>,
with d the lower level and ion order matching tensor order.

Sign convention: the two-photon drive strength is proportional to
(i*eta)**(2k)/delta and so carries a factor (-1)**k; with the pair detuned
delta > 0 this sign multiplies the scaled sideband brackets returned by
:func:`ionsim.motional.rabi_grid`. All closed-form unitaries here
include it, so positive times evolve forward.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

DOWN_DOWN, DOWN_UP, UP_DOWN, UP_UP = range(4)

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class PulseSpec:
    """One simultaneous two-ion Raman excitation.

    ``area`` is the target pulse area |Omega_ref| * t in radians; the actual
    duration is (1 + epsilon) * area / |Omega_ref| with the reference Rabi
    factor taken at the ground sector (0, 0). Phases, area and imprecision
    must be finite.
    """

    phi: float
    phi0: float
    k: int = 1
    area: float = math.pi / 4
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        for name in ("phi", "phi0", "area", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.area > 0:
            raise ValueError("pulse area must be positive")
        if not self.epsilon > -1:
            raise ValueError("pulse-area imprecision must exceed -1")

    def duration(self, omega_ref: float) -> float:
        """Pulse duration (1 + epsilon) * area / |omega_ref|."""
        if omega_ref == 0:
            raise ValueError("reference Rabi frequency is zero")
        return (1.0 + self.epsilon) * self.area / abs(omega_ref)


def drive_sign(k: int) -> float:
    """The (-1)**k sign of the two-photon drive strength of the k-th sideband."""
    return -1.0 if k % 2 else 1.0


def mixing_operator(k: int, phi: float, phi0: float) -> np.ndarray:
    """The Hermitian part M of the sideband generator that flips the pair:
    double-flip raising/lowering with phase 2*phi and flip-flop exchange with
    phase phi0, the latter weighted by (-1)**k. M @ M is the identity, so the
    pulse of a sector is exp(i theta) (cos a I - i sin a M) for its signed
    mixing angle a (see ``ld_pulse_unitary``)."""
    sgn = drive_sign(k)
    m = np.zeros((4, 4), dtype=complex)
    m[UP_UP, DOWN_DOWN] = cmath.exp(2j * phi)
    m[DOWN_DOWN, UP_UP] = cmath.exp(-2j * phi)
    m[UP_DOWN, DOWN_UP] = sgn * cmath.exp(1j * phi0)
    m[DOWN_UP, UP_DOWN] = sgn * cmath.exp(-1j * phi0)
    return m


def ld_pulse_unitary(k: int, phi: float, phi0: float, theta: float) -> np.ndarray:
    """Pulse unitary in the Lamb-Dicke limit: every sector mixes as (0, 0)
    does, by the area ``theta`` (imprecision included) and with the sign of
    its bracket -k! f_k(0, 0)**2 < 0. At small eta only k = 1 mixes all
    sectors alike; for k >= 2 the bracket grows with n. The unitary is
    exp(i theta) (cos a I - i sin a M) with a = -drive_sign(k) theta."""
    a = -drive_sign(k) * theta
    phase = cmath.exp(1j * theta)
    u = mixing_operator(k, phi, phi0) * (-1j * math.sin(a) * phase)
    u.flat[::5] = math.cos(a) * phase  # M has a zero diagonal
    return u


def carrier_rotation(axis: str, angle: float, epsilon: float = 0.0) -> np.ndarray:
    """Single-qubit rotation about ``axis`` by angle * (1 + epsilon), as the
    carrier pulse acts on the Fock level n = 0 it is calibrated on;
    ``oracle.debye_waller_rotation`` rescales it for a level n > 0."""
    if axis not in PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    theta = angle * (1.0 + epsilon)
    return math.cos(theta / 2) * np.eye(2, dtype=complex) - 1j * math.sin(theta / 2) * PAULI[axis]
