"""Two-ion pulse dynamics.

A simultaneous red/blue Raman pair drives, per Fock sector (n, n_r), a pair
of two-level ions with an effective Hamiltonian that is diagonal in the
motional labels. Evolution therefore factors into independent 4-dimensional
electronic problems, solved here in closed form; the full truncated-space
Hamiltonian is also built for verification by direct matrix exponential.

Electronic basis ordering for the pulsed pair is |dd>, |du>, |ud>, |uu>,
with d the lower level and ion order matching tensor order.

Sign convention: the two-photon drive strength is proportional to
(i*eta)**(2k)/delta and so carries a factor (-1)**k; with the pair detuned
delta > 0 this sign multiplies the scaled sideband bracket returned by
:func:`ionsim.motional.rabi_frequency`. All generators and closed-form
unitaries here include it, so positive times evolve forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .motional import ModeParams, laguerre, rabi_frequency

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
    factor taken at the Fock sector ``reference``.
    """

    phi: float
    phi0: float
    k: int = 1
    area: float = math.pi / 4
    epsilon: float = 0.0
    reference: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("sideband order must be nonnegative")
        if not self.area > 0:
            raise ValueError("pulse area must be positive")
        if not self.epsilon > -1:
            raise ValueError("pulse-area imprecision must exceed -1")

    def duration(self, omega_ref: float) -> float:
        """Pulse duration (1 + epsilon) * area / |omega_ref|."""
        if omega_ref == 0:
            raise ValueError("reference Rabi frequency is zero")
        return (1.0 + self.epsilon) * self.area / abs(omega_ref)


@dataclass(frozen=True, eq=False)
class SectorState:
    """Electronic pure state attached to one motional Fock sector.

    ``n`` and ``n_r`` label the modes of the trap hosting the pulsed pair.
    """

    n: int
    n_r: int
    weight: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("sector weight must be nonnegative")


def _signed_omega(k: int, omega: float) -> float:
    return -omega if k % 2 else omega


def _pair_generator(k: int, phi: float, phi0: float) -> np.ndarray:
    """Electronic part of the sideband Hamiltonian for unit vibrational factor:
    double-flip raising/lowering with phase 2*phi, flip-flop exchange with
    phase phi0, and the self-energy shift, the last two weighted by (-1)**k.
    """
    sgn = -1.0 if k % 2 else 1.0
    e = sgn * np.eye(4, dtype=complex)
    e[UP_UP, DOWN_DOWN] = np.exp(2j * phi)
    e[DOWN_DOWN, UP_UP] = np.exp(-2j * phi)
    e[UP_DOWN, DOWN_UP] = sgn * np.exp(1j * phi0)
    e[DOWN_UP, UP_DOWN] = sgn * np.exp(-1j * phi0)
    return e


def sector_unitary(k: int, phi: float, phi0: float, omega: float, t: float) -> np.ndarray:
    """Closed-form 4x4 evolution of one Fock sector for a raw duration ``t``.

    ``omega`` is the scaled sideband bracket from ``rabi_frequency``; the
    (-1)**k drive sign is applied internally. The |dd>,|uu> and |du>,|ud>
    parity blocks never mix, and the self-energy term contributes only the
    sector-global phase in front.
    """
    w = _signed_omega(k, omega)
    a = w * t
    sgn = -1.0 if k % 2 else 1.0
    c = math.cos(a)
    s = math.sin(a)
    u = np.zeros((4, 4), dtype=complex)
    u[DOWN_DOWN, DOWN_DOWN] = u[UP_UP, UP_UP] = c
    u[UP_UP, DOWN_DOWN] = -1j * s * np.exp(2j * phi)
    u[DOWN_DOWN, UP_UP] = -1j * s * np.exp(-2j * phi)
    u[DOWN_UP, DOWN_UP] = u[UP_DOWN, UP_DOWN] = c
    u[UP_DOWN, DOWN_UP] = -1j * sgn * s * np.exp(1j * phi0)
    u[DOWN_UP, UP_DOWN] = -1j * sgn * s * np.exp(-1j * phi0)
    return np.exp(-1j * sgn * a) * u


def sector_evolve(
    electronic: np.ndarray, pulse: PulseSpec, omega: float, omega_ref: float
) -> np.ndarray:
    """Apply one pulse to a 4-amplitude two-ion state in the sector whose Rabi
    factor is ``omega``, with the duration calibrated against ``omega_ref``."""
    electronic = np.asarray(electronic, dtype=complex)
    if electronic.shape != (4,):
        raise ValueError("sector_evolve expects a 4-amplitude two-ion state")
    t = pulse.duration(omega_ref)
    return sector_unitary(pulse.k, pulse.phi, pulse.phi0, omega, t) @ electronic


def ld_pulse_unitary(k: int, phi: float, phi0: float, theta: float) -> np.ndarray:
    """Pulse unitary in the Lamb-Dicke limit, where every sector mixes by the
    same angle ``theta`` (the pulse area, imprecision included)."""
    return sector_unitary(k, phi, phi0, _signed_omega(k, 1.0), theta)


def build_heff(
    k: int,
    p: ModeParams,
    phi: float,
    phi0: float,
    cutoff: int,
    cutoff_r: int | None = None,
) -> np.ndarray:
    """Full effective Hamiltonian on (two-ion electronic) x (two-mode Fock
    space truncated at the given cutoffs), in units of the drive strength.

    The vibrational factor is diagonal in (n, n_r), so the operator is the
    electronic generator tensored with a real diagonal and is Hermitian by
    construction. Intended as the brute-force oracle for ``sector_evolve``;
    the sector decomposition is the production path.
    """
    if cutoff < k:
        raise ValueError("Fock cutoff must be at least the sideband order")
    if cutoff_r is None:
        cutoff_r = cutoff
    sgn = -1.0 if k % 2 else 1.0
    diag = np.array(
        [
            sgn * rabi_frequency(k, n, n_r, p)
            for n in range(cutoff + 1)
            for n_r in range(cutoff_r + 1)
        ]
    )
    return linalg.tensor(_pair_generator(k, phi, phi0), np.diag(diag).astype(complex))


def build_ld_hamiltonian(phi: float, phi0: float) -> np.ndarray:
    """Electronic-only generator of the first sideband in the Lamb-Dicke
    limit, in units of the Rabi frequency magnitude: double-flip with phase
    2*phi minus flip-flop with phase phi0 minus the self-energy half."""
    return _pair_generator(1, phi, phi0)


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


def oracle_evolve(state: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """Evolve a state by exp(-i h t) through a dense matrix exponential."""
    state = np.asarray(state, dtype=complex)
    if h.shape[0] != state.shape[0]:
        raise ValueError(
            f"dimension mismatch: generator {h.shape[0]} vs state {state.shape[0]}"
        )
    return linalg.mat_exp(h, t) @ state
