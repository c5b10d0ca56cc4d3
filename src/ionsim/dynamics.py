"""Two-ion pulse dynamics.

A simultaneous red/blue Raman pair drives, per Fock sector (n, n_r), a pair
of two-level ions with an effective Hamiltonian that is diagonal in the
motional labels. Evolution therefore factors into independent 4-dimensional
electronic problems, solved here in closed form for one sector or for an
array of sectors at once. ``ionsim.oracle`` builds the full truncated-space
Hamiltonian that the tests check this against.

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

from .motional import laguerre

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
    mixing angle a (see ``sector_unitary``)."""
    sgn = drive_sign(k)
    m = np.zeros((4, 4), dtype=complex)
    m[UP_UP, DOWN_DOWN] = np.exp(2j * phi)
    m[DOWN_DOWN, UP_UP] = np.exp(-2j * phi)
    m[UP_DOWN, DOWN_UP] = sgn * np.exp(1j * phi0)
    m[DOWN_UP, UP_DOWN] = sgn * np.exp(-1j * phi0)
    return m


def sector_unitary(k: int, phi: float, phi0: float, omega: float | np.ndarray, t: float) -> np.ndarray:
    """Closed-form 4x4 evolution of one Fock sector for a raw duration ``t``.

    ``omega`` is the sector's scaled sideband bracket, an entry of
    ``rabi_grid``; the (-1)**k drive sign is applied internally. A NumPy array
    of brackets, one per sector, gives the stack of unitaries, of shape
    omega.shape + (4, 4). The |dd>,|uu> and |du>,|ud> parity blocks never mix,
    and the self-energy term contributes only the sector-global phase in front.
    """
    sgn = drive_sign(k)
    a = sgn * omega * t
    phase = np.exp(-1j * sgn * a)
    diag, flip = phase * np.cos(a), phase * np.sin(a) * -1j
    u = np.zeros(diag.shape + (4, 4), dtype=complex)
    cols = u.T  # cols[j, i] is the entry <i|U|j> of every sector
    cols[DOWN_DOWN, DOWN_DOWN] = cols[UP_UP, UP_UP] = diag
    cols[DOWN_UP, DOWN_UP] = cols[UP_DOWN, UP_DOWN] = diag
    cols[DOWN_DOWN, UP_UP] = flip * cmath.exp(2j * phi)
    cols[UP_UP, DOWN_DOWN] = flip * cmath.exp(-2j * phi)
    cols[DOWN_UP, UP_DOWN] = flip * (sgn * cmath.exp(1j * phi0))
    cols[UP_DOWN, DOWN_UP] = flip * (sgn * cmath.exp(-1j * phi0))
    return u


def ld_pulse_unitary(k: int, phi: float, phi0: float, theta: float) -> np.ndarray:
    """Pulse unitary in the Lamb-Dicke limit: every sector mixes as (0, 0)
    does, by the area ``theta`` (imprecision included) and with the sign of
    its bracket -k! f_k(0, 0)**2 < 0. At small eta only k = 1 mixes all
    sectors alike; for k >= 2 the bracket grows with n."""
    return sector_unitary(k, phi, phi0, -1.0, theta)


def carrier_rotation(
    axis: str, angle: float, n: int = 0, eta_local: float = 0.0, epsilon: float = 0.0
) -> np.ndarray:
    """Single-qubit rotation about ``axis`` whose angle is rescaled by the
    carrier Debye-Waller factor of the host trap's Fock level ``n``.

    The rotation is calibrated on the n = 0 sector, so the effective angle is
    angle * (1 + epsilon) * L_n(eta_local^2).
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    theta = angle * (1.0 + epsilon) * laguerre(n, 0, eta_local**2)
    return math.cos(theta / 2) * np.eye(2, dtype=complex) - 1j * math.sin(theta / 2) * PAULI[axis]
