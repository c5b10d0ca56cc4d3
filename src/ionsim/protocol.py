"""Teleportation pipeline: Bell-channel preparation and fidelity, the
two-ion analyzer pulse, projective measurement with conditional correction,
end-to-end fidelity reports, entanglement teleportation and swapping.

Bell-state convention: Phi+- = (|dd> +- |uu>)/sqrt(2), Psi+- = (|du> +- |ud>)/sqrt(2),
with d ordered before u. A pi/4 double-sideband pulse on ions prepared in
|dd> yields (|dd> - i exp(2i phi_B) |uu>)/sqrt(2); with the default phases
phi0 = -pi/2 and phi_A = phi_B = pi - phi0/2 that channel is Phi+ and the
analyzer pulse maps the four standard Bell states onto the four product
states, so single-ion readout distinguishes them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .dynamics import PAULI, PulseSpec, SectorState, ld_pulse_unitary, sector_unitary
from .motional import (
    ModeParams,
    TAIL_TOL_DEFAULT,
    ThermalSpec,
    cutoff_for,
    laguerre,
    matched_nbar_r,
    rabi_frequency,
    thermal_distribution,
    thermal_weights,
    NU_RATIO_DEFAULT,
)
from .register import EMPTY_PROB, OUTCOMES, apply, split_pair

#: Conditional correction applied to the receiving ion per outcome.
CORRECTION_AXES = {"dd": "z", "du": "y", "ud": "x", "uu": None}

#: Bell pair heralded on ions 1 and 4 per outcome on ions 2 and 3.
SWAP_HERALDS = {"uu": "phi+", "dd": "phi-", "ud": "psi+", "du": "psi-"}

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
    area: float = math.pi / 4
    tail_tol: float = TAIL_TOL_DEFAULT
    cutoff: int | None = None
    cutoff_r: int | None = None
    cutoff_b: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")
        if not 0 <= self.nbar < math.inf:
            raise ValueError(f"nbar must be finite and nonnegative, got {self.nbar!r}")
        if not abs(self.epsilon) < 1:
            raise ValueError("pulse-area imprecision must satisfy |epsilon| < 1")
        if self.nbar_r is None:
            object.__setattr__(self, "nbar_r", matched_nbar_r(self.nbar, self.nu_ratio))
        if self.nbar_b is None:
            object.__setattr__(self, "nbar_b", self.nbar)
        if self.eta_b is None:
            object.__setattr__(self, "eta_b", self.eta)
        # each of the two trap-A modes gets half the tail budget so the
        # product truncation stays within tail_tol
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", cutoff_for(self.nbar, self.tail_tol / 2))
        if self.cutoff_r is None:
            object.__setattr__(self, "cutoff_r", cutoff_for(self.nbar_r, self.tail_tol / 2))
        if self.cutoff_b is None:
            object.__setattr__(self, "cutoff_b", cutoff_for(self.nbar_b, self.tail_tol))

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
            area=self.area,
            epsilon=self.epsilon,
        )

    def describe(self) -> dict:
        m = self.modes()
        return {
            "eta": self.eta,
            "eta_r": m.eta_r,
            "nu_ratio": self.nu_ratio,
            "nbar": self.nbar,
            "nbar_r": self.nbar_r,
            "nbar_b": self.nbar_b,
            "eta_b": self.eta_b,
            "epsilon": self.epsilon,
            "k": self.k,
            "area": self.area,
            "phi_a": self.phases.phi_a,
            "phi_b": self.phases.phi_b,
            "phi0_a": self.phases.phi0_a,
            "phi0_b": self.phases.phi0_b,
            "cutoff": self.cutoff,
            "cutoff_r": self.cutoff_r,
            "cutoff_b": self.cutoff_b,
            "tail_tol": self.tail_tol,
        }


@dataclass
class OutcomeState:
    """One measurement branch: outcome label, its probability, and the
    density operator of the unmeasured ions (None when the branch is empty)."""

    label: str
    probability: float
    state: np.ndarray | None

    @property
    def empty(self) -> bool:
        return self.state is None


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

    def to_dict(self) -> dict:
        return {
            "input_state": self.input_state,
            "outcome_probs": dict(self.outcome_probs),
            "outcome_fidelities": dict(self.outcome_fidelities),
            "aggregate": self.aggregate,
            "params": dict(self.params),
        }


def channel_target_state(phi_b: float) -> np.ndarray:
    """Bell channel produced by an exact pi/4 pulse on |dd>:
    (|dd> - i exp(2i phi_b) |uu>)/sqrt(2)."""
    out = np.zeros(4, dtype=complex)
    out[0] = 1 / _SQ2
    out[3] = -1j * np.exp(2j * phi_b) / _SQ2
    return out


def prepare_channel(
    thermal: ThermalSpec, pulse: PulseSpec, modes: ModeParams
) -> list[SectorState]:
    """Drive both ions from |dd> with one pulse in every thermal Fock sector.

    The |du>, |ud> amplitudes stay exactly zero: the double-sideband drive
    preserves the electronic parity blocks.
    """
    omega_ref = rabi_frequency(pulse.k, *pulse.reference, modes)
    t = pulse.duration(omega_ref)
    ground = np.array([1, 0, 0, 0], dtype=complex)
    out = []
    for n, n_r, w in thermal.sectors():
        u = sector_unitary(pulse.k, pulse.phi, pulse.phi0, rabi_frequency(pulse.k, n, n_r, modes), t)
        out.append(SectorState(n=n, n_r=n_r, weight=w, amplitudes=u @ ground))
    return out


def channel_fidelity(thermal: ThermalSpec, pulse: PulseSpec, modes: ModeParams) -> float:
    """Overlap of the thermally prepared channel with the ideal Bell state,
    by the closed form F = sum_nnr P(n,n_r) (1 + sin(2 x_nnr))/2 with
    x_nnr the signed mixing angle realized in the sector.

    The signed angle carries the (-1)**k drive sign; on grids where every
    sector frequency is positive this reduces to the familiar form with
    |Omega| in the sine.
    """
    sgn = -1.0 if pulse.k % 2 else 1.0
    omega_ref = rabi_frequency(pulse.k, *pulse.reference, modes)
    t = pulse.duration(omega_ref)
    total = 0.0
    for n, n_r, w in thermal.sectors():
        x = sgn * rabi_frequency(pulse.k, n, n_r, modes) * t
        total += w * 0.5 * (1.0 + math.sin(2.0 * x))
    return total


def channel_fidelity_pipeline(
    thermal: ThermalSpec, pulse: PulseSpec, modes: ModeParams
) -> float:
    """Same fidelity through the general route: prepare every sector, then
    project the mixture onto the ideal channel state."""
    target = channel_target_state(pulse.phi)
    total = 0.0
    for sector in prepare_channel(thermal, pulse, modes):
        total += sector.weight * abs(np.vdot(target, sector.amplitudes)) ** 2
    return total


def analyzer_pulse(
    register: list[SectorState],
    pulse: PulseSpec,
    modes: ModeParams,
    pair: tuple[int, int] = (0, 1),
    n_qubits: int = 3,
) -> list[SectorState]:
    """Apply the disentangling pulse to ions ``pair`` of every sector of a
    register, with the full (n, n_r) dependence of the sideband drive."""
    omega_ref = rabi_frequency(pulse.k, *pulse.reference, modes)
    t = pulse.duration(omega_ref)
    out = []
    for s in register:
        u = sector_unitary(pulse.k, pulse.phi, pulse.phi0, rabi_frequency(pulse.k, s.n, s.n_r, modes), t)
        out.append(replace(s, amplitudes=apply(u, s.amplitudes, pair, n_qubits)))
    return out


def measure_and_condition(
    register: list[SectorState],
    pair: tuple[int, int] = (0, 1),
    n_qubits: int = 3,
) -> list[OutcomeState]:
    """Measure ions ``pair`` in the energy basis over the whole sector
    mixture.

    Returns the four outcomes in fixed order, each with its probability and
    the posterior density operator of the unmeasured ions; an outcome of zero
    probability is flagged empty rather than raising.
    """
    weights = np.array([s.weight for s in register])
    branches = np.array([split_pair(s.amplitudes, pair, n_qubits) for s in register])
    rho = np.einsum("s,soi,soj->oij", weights, branches, branches.conj())
    out = []
    for o, r, p in zip(OUTCOMES, rho, np.einsum("oii->o", rho).real.tolist()):
        if p <= EMPTY_PROB:
            out.append(OutcomeState(label=o, probability=0.0, state=None))
        else:
            out.append(OutcomeState(label=o, probability=p, state=r / p))
    return out


def correct_ion3(
    outcome: str,
    state: np.ndarray,
    nbar_b: float,
    eta_b: float,
    epsilon: float = 0.0,
    cutoff_b: int | None = None,
    tail_tol: float = TAIL_TOL_DEFAULT,
) -> np.ndarray:
    """Conditional recovery rotation on the receiving ion, the last qubit of
    the posterior ``state``, mixed over the thermal occupation of its host
    trap.

    Outcome 'uu' needs no pulse and therefore introduces no error; the others
    get a pi rotation about z, x or y whose angle per Fock level n,
    theta_n = pi (1 + epsilon) L_n(eta_b^2), carries the carrier Debye-Waller
    factor and the area imprecision. With R_n = c_n I - i s_n sigma,
    c_n = cos(theta_n/2) and s_n = sin(theta_n/2), the thermal mixture
    sum_n w_n R_n rho R_n^+ equals
    A rho + B sigma rho sigma + i C (rho sigma - sigma rho)
    with A = sum_n w_n c_n^2, B = sum_n w_n s_n^2 and C = sum_n w_n c_n s_n,
    so no per-level matrix product is formed.
    """
    if outcome not in CORRECTION_AXES:
        raise ValueError(f"unknown outcome {outcome!r}")
    axis = CORRECTION_AXES[outcome]
    rho = np.array(state, dtype=complex)
    if axis is None:
        return rho
    if cutoff_b is None:
        cutoff_b = cutoff_for(nbar_b, tail_tol)
    weights = thermal_weights(nbar_b, cutoff_b)
    weights = weights / weights.sum()
    debye_waller = np.array([laguerre(n, 0, eta_b**2) for n in range(cutoff_b + 1)])
    theta = math.pi * (1.0 + epsilon) * debye_waller
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    a, b, cs = weights @ (c * c), weights @ (s * s), weights @ (c * s)
    sigma = np.kron(np.eye(rho.shape[0] // 2), PAULI[axis])
    rho_sigma, sigma_rho = rho @ sigma, sigma @ rho
    return a * rho + b * (sigma @ rho_sigma) + 1j * cs * (rho_sigma - sigma_rho)


def score_outcomes(
    outcomes: list[OutcomeState], ideal: np.ndarray, cfg: TeleportConfig
) -> tuple[dict[str, float], dict[str, float], float]:
    """Correct the last qubit of every measurement branch with trap B of
    ``cfg`` and score it against ``ideal``. Returns per-outcome
    probabilities, fidelities (0 for an empty branch) and their aggregate
    sum_o p_o F_o."""
    probs: dict[str, float] = {}
    fids: dict[str, float] = {}
    aggregate = 0.0
    for oc in outcomes:
        probs[oc.label] = oc.probability
        if oc.empty:
            fids[oc.label] = 0.0
            continue
        corrected = correct_ion3(
            oc.label, oc.state, cfg.nbar_b, cfg.eta_b, cfg.epsilon, cfg.cutoff_b, cfg.tail_tol
        )
        fids[oc.label] = linalg.fidelity(ideal, corrected)
        aggregate += oc.probability * fids[oc.label]
    return probs, fids, aggregate


def _pipeline(
    initial: np.ndarray,
    ideal: np.ndarray,
    cfg: TeleportConfig,
    pair: tuple[int, int],
    n_qubits: int,
) -> tuple[dict[str, float], dict[str, float], float]:
    """Analyzer pulse, measurement and correction on an arbitrary register;
    the last qubit receives the conditional correction. Returns per-outcome
    probabilities, fidelities against ``ideal``, and their aggregate."""
    register = [
        SectorState(n=n, n_r=n_r, weight=w, amplitudes=initial)
        for n, n_r, w in cfg.thermal().sectors()
    ]
    pulse = cfg.analyzer_pulse_spec()
    register = analyzer_pulse(register, pulse, cfg.modes(), pair=pair, n_qubits=n_qubits)
    outcomes = measure_and_condition(register, pair=pair, n_qubits=n_qubits)
    return score_outcomes(outcomes, ideal, cfg)


def teleport_fidelity(
    input_state: InputQubit | str, config: TeleportConfig | None = None
) -> FidelityReport:
    """Run the full pipeline for one input state, or for 'average' the
    uniform average over the six cardinal Bloch states.

    The channel in ions 2 and 3 is taken as the exact Bell state; the trap
    hosting ions 1 and 2 holds the two-mode thermal mixture and the remote
    trap the one-mode mixture entering the correction.
    """
    cfg = config if config is not None else TeleportConfig()
    if isinstance(input_state, str) and input_state.strip().lower() == "average":
        singles = [
            _teleport_single(q, cfg) for q in CARDINAL_STATES.values()
        ]
        n = len(singles)
        probs = {o: sum(s[0][o] for s in singles) / n for o in OUTCOMES}
        weighted = {o: sum(s[0][o] * s[1][o] for s in singles) / n for o in OUTCOMES}
        fids = {o: (weighted[o] / probs[o] if probs[o] > 0 else 0.0) for o in OUTCOMES}
        aggregate = sum(weighted.values())
        return FidelityReport(
            outcome_probs=probs,
            outcome_fidelities=fids,
            aggregate=aggregate,
            params=cfg.describe(),
            input_state="average",
        )
    q = InputQubit.from_spec(input_state) if isinstance(input_state, str) else input_state
    probs, fids, aggregate = _teleport_single(q, cfg)
    return FidelityReport(
        outcome_probs=probs,
        outcome_fidelities=fids,
        aggregate=aggregate,
        params=cfg.describe(),
        input_state=f"{q.alpha},{q.beta}",
    )


def _teleport_single(
    q: InputQubit, cfg: TeleportConfig
) -> tuple[dict[str, float], dict[str, float], float]:
    initial = linalg.tensor(q.vector, channel_target_state(cfg.phases.phi_b))
    ideal = linalg.projector(q.vector)
    return _pipeline(initial, ideal, cfg, pair=(0, 1), n_qubits=3)


def entanglement_teleport(
    input_state: np.ndarray, config: TeleportConfig | None = None
) -> FidelityReport:
    """Teleport one half of an arbitrary two-qubit state.

    Ions 1 and 2 start in ``input_state`` and ions 3 and 4 in the Bell
    channel; the single-state pipeline acts on ions 2, 3 and 4, leaving the
    input entanglement shared between ions 1 and 4.
    """
    cfg = config if config is not None else TeleportConfig()
    psi = np.asarray(input_state, dtype=complex)
    if psi.shape != (4,):
        raise ValueError("entanglement_teleport expects a 4-amplitude two-ion state")
    norm = float(np.vdot(psi, psi).real)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"input state has norm {norm!r}, expected 1")
    initial = linalg.tensor(psi, channel_target_state(cfg.phases.phi_b))
    ideal = linalg.projector(psi)
    probs, fids, aggregate = _pipeline(initial, ideal, cfg, pair=(1, 2), n_qubits=4)
    return FidelityReport(
        outcome_probs=probs,
        outcome_fidelities=fids,
        aggregate=aggregate,
        params=cfg.describe(),
        input_state="two-qubit:" + ",".join(f"{a}" for a in psi),
    )


def entanglement_swap(
    pulse: PulseSpec | None = None,
    phases: PhaseConfig | None = None,
    thermal: ThermalSpec | None = None,
    modes: ModeParams | None = None,
) -> list[SwapOutcome]:
    """Swap entanglement between two Bell pairs by analyzing ions 2 and 3.

    Starting from Phi+ on ions 1,2 and Phi+ on ions 3,4, the pulse on ions
    2,3 followed by their measurement heralds ions 1,4 in the Bell state
    uu -> Phi+, dd -> Phi-, ud -> Psi+, du -> Psi-. Without a thermal
    distribution the pulse acts in the Lamb-Dicke limit; with one, every
    Fock sector of the trap hosting ions 2 and 3 is mixed in.
    """
    if phases is None:
        phases = PhaseConfig()
    if pulse is None:
        pulse = PulseSpec(phi=phases.phi_a, phi0=phases.phi0_a)
    initial = linalg.tensor(BELL_STATES["phi+"], BELL_STATES["phi+"])
    if thermal is None:
        u = ld_pulse_unitary(pulse.k, pulse.phi, pulse.phi0, (1 + pulse.epsilon) * pulse.area)
        register = [
            SectorState(n=0, n_r=0, weight=1.0, amplitudes=apply(u, initial, (1, 2), 4))
        ]
    else:
        if modes is None:
            raise ValueError("thermal swap requires mode parameters")
        register = [
            SectorState(n=n, n_r=n_r, weight=w, amplitudes=initial)
            for n, n_r, w in thermal.sectors()
        ]
        register = analyzer_pulse(register, pulse, modes, pair=(1, 2), n_qubits=4)
    outcomes = measure_and_condition(register, pair=(1, 2), n_qubits=4)
    results = []
    for oc in outcomes:
        herald = SWAP_HERALDS[oc.label]
        if oc.empty:
            results.append(SwapOutcome(oc.label, 0.0, np.zeros((4, 4), complex), herald, 0.0))
            continue
        f = linalg.fidelity(linalg.projector(BELL_STATES[herald]), oc.state)
        results.append(SwapOutcome(oc.label, oc.probability, oc.state, herald, f))
    return results
