"""Teleportation pipeline: Bell-channel fidelity, the two-ion analyzer
pulse, projective measurement with conditional correction, end-to-end
fidelity reports, entanglement teleportation and swapping. The
sector-by-sector and full-space references that the tests hold these
routes to live in ``ionsim.oracle``.

Every teleport report comes from one Bell-pair channel run: the analyzer and
measurement of ions 2 and 3 on Phi+(ions 1, 2) x channel(ions 3, 4) leave the
Choi state of each outcome channel, which every input contracts on ion 1.

In every thermal sector the pulse is exp(i theta) (cos a I - i sin a M) with
one fixed M (``dynamics.mixing_operator``) and the sector's signed mixing
angle a, so trap A enters the channel fidelity and every teleport report
only through the three thermal sums of cos^2 a, sin^2 a and cos a sin a
(``_sector_moments``): O(S) float work for S sectors, against three fixed
(4, 4, 4) contractions per pulse and second pair (``_bell_terms``). The
swaps run the same pair run on Phi+ x Phi+, the Lamb-Dicke swap as one
sector of weight 1.

Trap B enters only through the three sums A, B, C of its thermally mixed pi
rotation (``_trap_b_sums``), so every corrected branch of posterior rho_o
scores by three overlaps with the ideal state psi,
p_o F_o = A <psi|rho_o|psi> + B <s|rho_o|s> - 2 C Im <psi|rho_o|s> with
s = sigma_o psi (``score_outcomes``); the per-branch route that normalises,
rotates and scores each branch is ``oracle.score_outcome_states``.

Bell-state convention: Phi+- = (|dd> +- |uu>)/sqrt(2), Psi+- = (|du> +- |ud>)/sqrt(2),
with d ordered before u. The correction and the swap herald of every
outcome are read off the same run at ideal pulses.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import linalg
from .dynamics import PAULI, PulseSpec, drive_sign, ld_pulse_unitary, mixing_operator
from .motional import (
    ModeParams,
    TAIL_TOL_DEFAULT,
    ThermalSpec,
    cutoff_for,
    laguerre_table,
    matched_nbar_r,
    rabi_grid,
    thermal_distribution,
    thermal_weights,
    NU_RATIO_DEFAULT,
)
from .register import EMPTY_PROB, OUTCOMES, apply, split_pair

DEFAULT_PHI0 = -math.pi / 2

_SQ2 = math.sqrt(2.0)

BELL_STATES = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / _SQ2,
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / _SQ2,
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / _SQ2,
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / _SQ2,
}


@dataclass(frozen=True)
class PhaseConfig:
    """Raman phases per trap and the equilibrium-separation phases.

    Unspecified fields resolve to a single shared phi0 with
    phi_A = phi_B = pi - phi0/2, the choice that turns the four analyzer
    branches into the identity and the three pi rotations of the input.
    Every phase must be finite.
    """

    phi0_a: float = DEFAULT_PHI0
    phi0_b: float | None = None
    phi_a: float | None = None
    phi_b: float | None = None

    def __post_init__(self) -> None:
        if self.phi0_b is None:
            object.__setattr__(self, "phi0_b", self.phi0_a)
        if self.phi_a is None:
            object.__setattr__(self, "phi_a", math.pi - self.phi0_a / 2)
        if self.phi_b is None:
            object.__setattr__(self, "phi_b", math.pi - self.phi0_b / 2)
        for name in ("phi0_a", "phi0_b", "phi_a", "phi_b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class InputQubit:
    """Electronic state alpha |d> + beta |u> of the ion to be teleported."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"input amplitudes have norm {norm!r}, expected 1")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    @classmethod
    def from_spec(cls, spec: str) -> "InputQubit":
        """Parse 'z+'/'z-'/'x+'/'x-'/'y+'/'y-' or an 'alpha,beta' pair."""
        key = spec.strip().lower()
        if key in CARDINAL_STATES:
            return CARDINAL_STATES[key]
        parts = spec.split(",")
        if len(parts) != 2:
            raise ValueError(f"cannot parse input state {spec!r}")
        try:
            alpha, beta = complex(parts[0].strip()), complex(parts[1].strip())
        except ValueError as exc:
            raise ValueError(f"cannot parse input state {spec!r}: {exc}") from None
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        if norm == 0:
            raise ValueError("input state must be nonzero")
        return cls(alpha / norm, beta / norm)


CARDINAL_STATES = {
    "z+": InputQubit(1.0, 0.0),
    "z-": InputQubit(0.0, 1.0),
    "x+": InputQubit(1 / _SQ2, 1 / _SQ2),
    "x-": InputQubit(1 / _SQ2, -1 / _SQ2),
    "y+": InputQubit(1 / _SQ2, 1j / _SQ2),
    "y-": InputQubit(1 / _SQ2, -1j / _SQ2),
}


@dataclass(frozen=True)
class TeleportConfig:
    """Full parameter point for one teleportation run.

    Omitted secondary parameters resolve from the primary ones: eta_r by
    oscillator-length scaling, nbar_r by the shared-temperature relation,
    trap-B occupation and Lamb-Dicke parameter equal to trap A's, and Fock
    cutoffs from the thermal tail tolerance.
    """

    eta: float = 0.2
    nbar: float = 0.0
    epsilon: float = 0.0
    eta_r: float | None = None
    nbar_r: float | None = None
    nbar_b: float | None = None
    eta_b: float | None = None
    nu_ratio: float = NU_RATIO_DEFAULT
    phases: PhaseConfig = field(default_factory=PhaseConfig)
    k: int = 1
    tail_tol: float = TAIL_TOL_DEFAULT
    cutoff: int | None = None
    cutoff_r: int | None = None
    cutoff_b: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.nbar < math.inf:
            raise ValueError(f"nbar must be finite and nonnegative, got {self.nbar!r}")
        if not abs(self.epsilon) < 1:
            raise ValueError("pulse-area imprecision must satisfy |epsilon| < 1")
        if not self.nu_ratio > 1:
            raise ValueError(f"nu_ratio must exceed 1, got {self.nu_ratio!r}")
        if not 0 < self.tail_tol < 1:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol!r}")
        if self.nbar_r is None:
            object.__setattr__(self, "nbar_r", matched_nbar_r(self.nbar, self.nu_ratio))
        if self.nbar_b is None:
            object.__setattr__(self, "nbar_b", self.nbar)
        if self.eta_b is None:
            object.__setattr__(self, "eta_b", self.eta)
        for name in ("eta", "eta_r", "eta_b"):
            value = getattr(self, name)
            if value is not None and not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
        for name in ("nbar_r", "nbar_b"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        # each of the two trap-A modes gets half the tail budget so the
        # product truncation stays within tail_tol
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", cutoff_for(self.nbar, self.tail_tol / 2))
        if self.cutoff_r is None:
            object.__setattr__(self, "cutoff_r", cutoff_for(self.nbar_r, self.tail_tol / 2))
        if self.cutoff_b is None:
            object.__setattr__(self, "cutoff_b", cutoff_for(self.nbar_b, self.tail_tol))
        for name, low in (("k", 1), ("cutoff", 0), ("cutoff_r", 0), ("cutoff_b", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")

    def modes(self) -> ModeParams:
        return ModeParams(eta=self.eta, eta_r=self.eta_r, nu_ratio=self.nu_ratio)

    def thermal(self) -> ThermalSpec:
        return thermal_distribution(
            self.nbar, self.nbar_r, self.cutoff, self.cutoff_r, self.tail_tol
        )

    def analyzer_pulse_spec(self) -> PulseSpec:
        return PulseSpec(
            phi=self.phases.phi_a,
            phi0=self.phases.phi0_a,
            k=self.k,
            epsilon=self.epsilon,
        )

    def describe(self) -> dict:
        """Every field with the phases flattened, eta_r resolved, and the
        analyzer pulse area."""
        params = {f.name: getattr(self, f.name) for f in fields(self)}
        params.update(asdict(params.pop("phases")), eta_r=self.modes().eta_r, area=math.pi / 4)
        return params


@dataclass
class SwapOutcome:
    """One heralded branch of entanglement swapping."""

    label: str
    probability: float
    state: np.ndarray
    herald: str
    fidelity: float


@dataclass
class FidelityReport:
    """Per-outcome probabilities and fidelities plus their aggregate for one
    parameter point; ``aggregate`` equals sum_o p_o F_o."""

    outcome_probs: dict[str, float]
    outcome_fidelities: dict[str, float]
    aggregate: float
    params: dict
    input_state: str


@lru_cache(maxsize=32)
def channel_target_state(k: int, phi: float) -> np.ndarray:
    """Bell channel made from |dd> by an exact pi/4 pulse of sideband order
    ``k`` and phase ``phi`` in the Lamb-Dicke limit, with its |dd> amplitude
    made positive: (|dd> + i drive_sign(k) exp(2i phi) |uu>)/sqrt(2). The
    array is cached and read-only."""
    column = ld_pulse_unitary(k, phi, 0.0, math.pi / 4)[:, 0]
    state = column * (abs(column[0]) / column[0])
    state.flags.writeable = False
    return state


def _sector_moments(thermal: ThermalSpec, pulse: PulseSpec, modes: ModeParams) -> np.ndarray:
    """The thermal sums (C_cc, C_ss, C_cs) = sum_s w_s (cos^2 a_s, sin^2 a_s,
    cos a_s sin a_s) over the signed mixing angles a_s = drive_sign(k) Omega_s t
    of the sectors (those of ``oracle.sector_unitary``), t calibrated on the
    ground sector, all three as w_n^T f(a) w_r in one contraction."""
    omega = rabi_grid(pulse.k, thermal.cutoff, thermal.cutoff_r, modes)
    a = drive_sign(pulse.k) * pulse.duration(omega[0, 0]) * omega
    c, s = np.cos(a), np.sin(a)
    return thermal.weights_n @ np.array((c * c, s * s, c * s)) @ thermal.weights_r


def channel_fidelity(thermal: ThermalSpec, pulse: PulseSpec, modes: ModeParams) -> float:
    """Overlap of the thermally prepared channel with ``channel_target_state``
    by the closed form F = sum_s w_s (1 + s sin(2 a_s))/2 = 1/2 + s C_cs, with
    a_s the signed mixing angle realized in sector s, C_cs its moment of
    ``_sector_moments`` and s = -drive_sign(k) the sign of the ideal angle
    (see ``ld_pulse_unitary``)."""
    return float(0.5 - drive_sign(pulse.k) * _sector_moments(thermal, pulse, modes)[2])


def _ideal_run(k: int, phases: PhaseConfig) -> tuple[np.ndarray, np.ndarray]:
    """The Bell-pair run at exact pi/4 pulses in the Lamb-Dicke limit: trap
    B's channel C (2x2) of ions 3, 4 and trap A's analyzer U of ions 2, 3.
    Row o of U, as A_o[i, j] = <o|U|i j>, gives the ideal branch map
    K_o = (A_o C)^T from ion 2 to ion 4 and the pair sum_ij A_o[i, j] |i j>/2
    that a swap of Phi+ x Phi+ heralds on ions 1, 4."""
    channel = channel_target_state(k, phases.phi_b).reshape(2, 2)
    return channel, ld_pulse_unitary(k, phases.phi_a, phases.phi0_a, math.pi / 4)


@lru_cache(maxsize=32)
def correction_axes(k: int, phases: PhaseConfig) -> MappingProxyType[str, str | None]:
    """Pauli axis (None for no pulse) of largest |Tr(sigma K_o)| per outcome:
    odd k gives dd z, du y, ud x, uu None and even k swaps x and y. Raises
    ValueError where a corrected ideal branch falls short of fidelity 1."""
    channel, analyzer = _ideal_run(k, phases)
    axes = {}
    for o, row in zip(OUTCOMES, analyzer):
        kmap = (row.reshape(2, 2) @ channel).T
        overlap = {axis: abs(np.trace(sigma @ kmap)) for axis, sigma in {None: np.eye(2), **PAULI}.items()}
        axes[o] = max(overlap, key=overlap.get)
        # entanglement fidelity of the corrected ideal branch
        fidelity = overlap[axes[o]] ** 2 / (2 * np.vdot(kmap, kmap).real)
        if not fidelity >= 1 - 1e-12:
            raise ValueError(f"outcome {o} has no Pauli correction at k={k} and {phases} (best "
                             f"fidelity {fidelity:.6f}): teleportation is not reliable there")
    return MappingProxyType(axes)


@lru_cache(maxsize=32)
def swap_heralds(k: int, phases: PhaseConfig) -> MappingProxyType[str, tuple[str, np.ndarray]]:
    """Name and state of the pair each outcome heralds in an ideal swap: the
    normalised branch, named after the ``BELL_STATES`` entry it equals up to
    a global phase, or 'other'."""
    analyzer = _ideal_run(k, phases)[1]
    analyzer.flags.writeable = False  # its rows are the cached herald states
    heralds = {}
    for o, row in zip(OUTCOMES, analyzer):
        names = (b for b, bell in BELL_STATES.items() if abs(np.vdot(bell, row)) ** 2 > 1 - 1e-12)
        heralds[o] = (next(names, "other"), row)
    return MappingProxyType(heralds)


def _trap_b_sums(nbar_b: float, eta_b: float, epsilon: float, cutoff_b: int) -> tuple:
    """The sums A, B, C of the correction on the receiving ion, mixed over the
    Fock levels n <= cutoff_b of its host trap B; they do not depend on the
    outcome corrected. A pi rotation about sigma has on level n the angle
    theta_n = pi (1 + epsilon) L_n(eta_b^2), with the carrier Debye-Waller
    factor and the area imprecision. With R_n = c_n I - i s_n sigma,
    c_n = cos(theta_n/2) and s_n = sin(theta_n/2), the thermal mixture
    sum_n w_n R_n rho R_n^+ equals A rho + B sigma rho sigma + i C (rho sigma - sigma rho)
    with A = sum_n w_n c_n^2, B = sum_n w_n s_n^2 and C = sum_n w_n c_n s_n,
    so no per-level matrix product is formed (``score_outcomes``).
    """
    weights = thermal_weights(nbar_b, cutoff_b)
    weights = weights / weights.sum()
    theta = math.pi * (1.0 + epsilon) * laguerre_table(cutoff_b, 0, eta_b**2)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return weights @ (c * c), weights @ (s * s), weights @ (c * s)


def score_outcomes(
    posteriors: np.ndarray, psi: np.ndarray, cfg: TeleportConfig
) -> tuple[dict[str, float], dict[str, float], float]:
    """Correct the last qubit of every measurement branch with trap B of
    ``cfg`` and score it against the pure ideal state ``psi``. Returns
    per-outcome probabilities, fidelities and their aggregate sum_o p_o F_o.

    ``posteriors`` holds the four unnormalised posteriors rho_o (trace p_o)
    in ``OUTCOMES`` order; a branch of p_o <= ``EMPTY_PROB`` is empty and
    scores p 0 and F 0. With sigma_o the Pauli of ``correction_axes`` on the
    last qubit and A, B, C the ``_trap_b_sums``, the corrected branch scores
    p_o F_o = A <psi|rho_o|psi> + B <s|rho_o|s> - 2 C Im <psi|rho_o|s> for
    s = sigma_o psi; an outcome that needs no pulse scores <psi|rho_o|psi>.
    ``oracle.score_outcome_states`` is the per-branch reference."""
    axes = correction_axes(cfg.k, cfg.phases)
    sums = _trap_b_sums(cfg.nbar_b, cfg.eta_b, cfg.epsilon, cfg.cutoff_b)
    psi = np.asarray(psi, dtype=complex)
    probs: dict[str, float] = {}
    fids: dict[str, float] = {}
    aggregate = 0.0
    for o, rho, p in zip(OUTCOMES, posteriors, np.einsum("oii->o", posteriors).real.tolist()):
        if p <= EMPTY_PROB:
            probs[o] = fids[o] = 0.0
            continue
        a, b, c = (1.0, 0.0, 0.0) if axes[o] is None else sums
        vecs = np.stack([psi, (psi.reshape(-1, 2) @ PAULI.get(axes[o], np.eye(2)).T).ravel()])
        (direct, cross), (_, flipped) = vecs.conj() @ rho @ vecs.T
        probs[o] = p
        fids[o] = linalg.clamp_fidelity(float(a * direct.real + b * flipped.real - 2 * c * cross.imag) / p)
        aggregate += p * fids[o]
    return probs, fids, aggregate


@lru_cache(maxsize=64)
def _bell_terms(k: int, phi: float, phi0: float, phi_b: float | None) -> np.ndarray:
    """The three (4, 4, 4) contractions T0, T1, T2 of the pair run of a pulse
    of order ``k`` and phases ``phi``, ``phi0`` on ions 2, 3 of Phi+(ions 1, 2)
    x a second pair on ions 3, 4: the trap-B channel
    ``channel_target_state(k, phi_b)`` of a teleport, or Phi+ of a swap for
    ``phi_b`` None. Read-only and cached per pulse and second pair.

    With B0 the outcome rows (``split_pair``) of the initial register psi0
    and B1 those of -i M psi0, M the ``mixing_operator`` of the pulse, a
    sector of mixing angle a leaves the rows cos a B0 + sin a B1 up to a
    phase, so T0 = B0 B0^+, T1 = B1 B1^+ and T2 = B0 B1^+ + B1 B0^+ per
    outcome, and the posteriors of ions 1, 4 are C_cc T0 + C_ss T1 + C_cs T2.
    """
    second = BELL_STATES["phi+"] if phi_b is None else channel_target_state(k, phi_b)
    psi0 = np.kron(BELL_STATES["phi+"], second)
    flip = -1j * mixing_operator(k, phi, phi0)
    b = split_pair(np.stack([psi0, apply(flip, psi0, (1, 2), 4)]), (1, 2), 4)
    outer = np.einsum("aoi,boj->aboij", b, b.conj())
    terms = np.stack([outer[0, 0], outer[1, 1], outer[0, 1] + outer[1, 0]])
    terms.flags.writeable = False
    return terms


def _bell_channel(cfg: TeleportConfig) -> np.ndarray:
    """Probability-weighted posteriors J_o of ions 1 and 4 from the pair run
    on Phi+(ions 1, 2) x channel(ions 3, 4), before the correction, from the
    ``_sector_moments`` of the analyzer and the ``_bell_terms``;
    ``oracle._pair_run`` on the same register is the sector-by-sector
    reference.

    J_o is the Choi state of the uncorrected channel E_o from the input ion
    to the receiving ion.
    """
    phases = cfg.phases
    moments = _sector_moments(cfg.thermal(), cfg.analyzer_pulse_spec(), cfg.modes())
    return np.tensordot(moments, _bell_terms(cfg.k, phases.phi_a, phases.phi0_a, phases.phi_b), 1)


def _teleport(
    state: np.ndarray, cfg: TeleportConfig
) -> tuple[dict[str, float], dict[str, float], float]:
    """Score the teleport of the last qubit of a one- or two-ion ``state``.

    With X = state.reshape(-1, 2), state equals sqrt(2) (X x I) Phi+, so the
    posterior of outcome o is 2 (X x I) J_o (X x I)^+ of the Bell-pair run.
    """
    x = np.kron(state.reshape(-1, 2), np.eye(2))
    posteriors = 2 * x @ _bell_channel(cfg) @ x.conj().T
    return score_outcomes(posteriors, state, cfg)


def teleport_fidelity(
    input_state: InputQubit | str, config: TeleportConfig | None = None
) -> FidelityReport:
    """Teleportation report for one input state, or for 'average' the
    uniform average over the six cardinal Bloch states.

    The channel in ions 2 and 3 is taken as the exact Bell state; the trap
    hosting ions 1 and 2 holds the two-mode thermal mixture and the remote
    trap the one-mode mixture entering the correction. The report comes from
    one Bell-pair channel run. 'average' teleports half of Phi+ and reports
    F_o = (2 F_e,o + 1)/3 from its fidelities F_e,o, exact because the
    cardinal states form a qubit 2-design (Horodecki et al., PRA 60, 1888
    (1999); Nielsen, Phys. Lett. A 303, 249 (2002)).
    """
    cfg = config if config is not None else TeleportConfig()
    if isinstance(input_state, str) and input_state.strip().lower() == "average":
        probs, ent_fids, _ = _teleport(BELL_STATES["phi+"], cfg)
        fids = {o: (2 * f + 1) / 3 if probs[o] > 0 else 0.0 for o, f in ent_fids.items()}
        aggregate = sum(probs[o] * fids[o] for o in OUTCOMES)
        return FidelityReport(probs, fids, aggregate, cfg.describe(), "average")
    q = InputQubit.from_spec(input_state) if isinstance(input_state, str) else input_state
    return FidelityReport(*_teleport(q.vector, cfg), cfg.describe(), f"{q.alpha},{q.beta}")


def entanglement_teleport(
    input_state: np.ndarray, config: TeleportConfig | None = None
) -> FidelityReport:
    """Teleport one half of an arbitrary two-qubit state.

    Ions 1 and 2 hold ``input_state`` and ion 2 is teleported through the
    same Bell-pair channel run as ``teleport_fidelity``, leaving the input
    entanglement shared between ions 1 and 4.
    """
    cfg = config if config is not None else TeleportConfig()
    psi = np.asarray(input_state, dtype=complex)
    if psi.shape != (4,):
        raise ValueError("entanglement_teleport expects a 4-amplitude two-ion state")
    norm = float(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"input state has norm {norm!r}, expected 1")
    label = "two-qubit:" + ",".join(f"{a}" for a in psi)
    return FidelityReport(*_teleport(psi, cfg), cfg.describe(), label)


def entanglement_swap(
    pulse: PulseSpec | None = None,
    phases: PhaseConfig | None = None,
    thermal: ThermalSpec | None = None,
    modes: ModeParams | None = None,
) -> list[SwapOutcome]:
    """Swap entanglement between two Bell pairs by analyzing ions 2 and 3.

    Starting from Phi+ on ions 1,2 and Phi+ on ions 3,4, the pulse on ions
    2,3 and their measurement herald on ions 1,4 the pair that ``swap_heralds``
    derives for the pulse, which scores the branch. Without a thermal
    distribution the pulse acts in the Lamb-Dicke limit, as one sector of
    weight 1; with one, every Fock sector of the trap hosting ions 2 and 3 is
    mixed in. Either way the posteriors of ions 1, 4 are the pulse's three
    moments contracted with its ``_bell_terms`` on Phi+ x Phi+, and the pure
    herald t scores a branch of posterior J_o as <t|J_o|t>/p_o;
    ``oracle._pair_run`` is the sector-by-sector reference.
    """
    if phases is None:
        phases = PhaseConfig()
    if pulse is None:
        pulse = PulseSpec(phi=phases.phi_a, phi0=phases.phi0_a)
    if thermal is not None and modes is None:
        raise ValueError("thermal swap requires mode parameters")
    if thermal is None:
        a = -drive_sign(pulse.k) * (1 + pulse.epsilon) * pulse.area
        moments = np.array([math.cos(a) ** 2, math.sin(a) ** 2, math.cos(a) * math.sin(a)])
    else:
        moments = _sector_moments(thermal, pulse, modes)
    terms = _bell_terms(pulse.k, pulse.phi, pulse.phi0, None)
    posteriors = np.tensordot(moments, terms, 1)
    heralds = swap_heralds(pulse.k, replace(phases, phi_a=pulse.phi, phi0_a=pulse.phi0))
    results = []
    for o, j, p in zip(OUTCOMES, posteriors, np.einsum("oii->o", posteriors).real.tolist()):
        herald, target = heralds[o]
        if p <= EMPTY_PROB:
            results.append(SwapOutcome(o, 0.0, np.zeros((4, 4), complex), herald, 0.0))
            continue
        f = linalg.clamp_fidelity(float(np.vdot(target, j @ target).real) / p)
        results.append(SwapOutcome(o, p, j / p, herald, f))
    return results
