"""Brute-force references that the tests hold the production routes to:
the full truncated-space Hamiltonian and its dense exponential, the scalar
Laguerre polynomial and the Lamb-Dicke coupling factors, the closed-form
unitary of one sector or of a stack of sectors (``sector_unitary``), the
thermal channel and the measurement sector by sector, the trap-B correction
level by level with the Debye-Waller rotation of each Fock level, and the
pair run of ions 2 and 3 both over the full space and sector by sector. The
sector-by-sector route keeps a thermal register as arrays over the S sectors
of ``ThermalSpec.weights.ravel()``: one initial register shared by all
sectors, the (S, 4, 4) sector pulse unitaries (``_sector_unitaries``) and
the S weights, so a pulse is one ``register.apply`` (``analyzer_pulse``) and
a measurement one weighted einsum (``_posteriors``). Production reaches the
same posteriors through three thermal moments, each w_n^T f w_r over the two
mode weight vectors, and three fixed contractions (``protocol._bell_terms``).
The per-branch scoring route (``score_outcome_states``) normalises every
measured branch (``OutcomeState``), corrects it with a Pauli kron on the
last qubit (``_rotate_ion3``) and scores it by a checked
``linalg.fidelity``, where production takes three overlaps per branch
(``protocol.score_outcomes``). ``execute_script_per_branch`` runs a pulse
script one branch register at a time, where production batches the live
branches. No other module of the package imports this one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, protocol
from .dynamics import (
    DOWN_DOWN,
    DOWN_UP,
    PAULI,
    UP_DOWN,
    UP_UP,
    PulseSpec,
    carrier_rotation,
    drive_sign,
    ld_pulse_unitary,
    mixing_operator,
)
from .motional import ModeParams, ThermalSpec, cutoff_for, laguerre_table, rabi_grid
from .protocol import PhaseConfig, TeleportConfig, _trap_b_sums, correction_axes
from .pulsescript import Branch, MeasureStatement, PulseScript, PulseStatement, ScriptError, ScriptResult
from .register import EMPTY_PROB, OUTCOMES, apply, collapse_pair, split_pair


def mat_exp(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i h t) of a Hermitian generator, via eigendecomposition."""
    h = linalg._require_hermitian(h, linalg.HERMITIAN_TOL, "mat_exp generator")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def oracle_evolve(state: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """Evolve a state by exp(-i h t) through a dense matrix exponential."""
    state = np.asarray(state, dtype=complex)
    if h.shape[0] != state.shape[0]:
        raise ValueError(
            f"dimension mismatch: generator {h.shape[0]} vs state {state.shape[0]}"
        )
    return mat_exp(h, t) @ state


def _pair_generator(k: int, phi: float, phi0: float) -> np.ndarray:
    """Electronic part of the sideband Hamiltonian for unit vibrational factor:
    ``mixing_operator`` plus the self-energy shift (-1)**k I. At k = 1 this is
    the Lamb-Dicke-limit generator in units of the Rabi frequency magnitude:
    double-flip with phase 2*phi minus flip-flop with phase phi0 minus the
    self-energy half.
    """
    return drive_sign(k) * np.eye(4) + mixing_operator(k, phi, phi0)


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
    construction.
    """
    if cutoff < k:
        raise ValueError("Fock cutoff must be at least the sideband order")
    if cutoff_r is None:
        cutoff_r = cutoff
    diag = drive_sign(k) * rabi_grid(k, cutoff, cutoff_r, p).ravel()
    return np.kron(_pair_generator(k, phi, phi0), np.diag(diag).astype(complex))


def laguerre(m: int, k: int, x: float) -> float:
    """Associated Laguerre polynomial L_m^k(x): entry m of ``laguerre_table``."""
    return 1.0 if m == 0 and k >= 0 else float(laguerre_table(m, k, x)[m])


def coupling_factor(k: int, n: int, n_r: int, p: ModeParams) -> float:
    """Lamb-Dicke coupling factor of the k-th sideband on the Fock sector (n, n_r):

        f_k(n, n_r) = exp(-(eta^2 + eta_r^2)/2) * n!/(n+k)!
                      * L_n^k(eta^2) * L_{n_r}^0(eta_r^2)

    The factorial ratio is one correctly rounded integer division, finite at any n.
    """
    if k < 0 or n < 0 or n_r < 0:
        raise ValueError("sideband order and Fock indices must be nonnegative")
    gauss = math.exp(-(p.eta**2 + p.eta_r**2) / 2.0)
    ratio = math.factorial(n) / math.factorial(n + k)
    return gauss * ratio * laguerre(n, k, p.eta**2) * laguerre(n_r, 0, p.eta_r**2)


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


def _sector_rabi(thermal: ThermalSpec, pulse: PulseSpec, modes: ModeParams) -> tuple[np.ndarray, float]:
    """Rabi factor of every thermal sector in the order of
    ``thermal.weights.ravel()`` (entry n*(cutoff_r+1) + n_r is sector
    (n, n_r)), and the pulse duration calibrated on the ground sector, entry 0."""
    omega = rabi_grid(pulse.k, thermal.cutoff, thermal.cutoff_r, modes).ravel()
    return omega, pulse.duration(omega[0])


def _sector_unitaries(thermal: ThermalSpec, pulse: PulseSpec, modes: ModeParams) -> np.ndarray:
    """The (S, 4, 4) pulse unitaries of the S thermal sectors."""
    return sector_unitary(pulse.k, pulse.phi, pulse.phi0, *_sector_rabi(thermal, pulse, modes))


def analyzer_pulse(
    register: np.ndarray,
    thermal: ThermalSpec,
    pulse: PulseSpec,
    modes: ModeParams,
    pair: tuple[int, int] = (0, 1),
    n_qubits: int = 3,
) -> np.ndarray:
    """Apply the disentangling pulse to ions ``pair`` of the register shared
    by every thermal sector, with the full (n, n_r) dependence of the
    sideband drive: the (S, 2**n_qubits) registers of the S sectors."""
    return apply(_sector_unitaries(thermal, pulse, modes), register, pair, n_qubits)


def _posteriors(register: np.ndarray, weights: np.ndarray, pair: tuple[int, int], n_qubits: int) -> np.ndarray:
    """Unnormalised posteriors of the unmeasured ions, in ``OUTCOMES`` order."""
    branches = split_pair(register, pair, n_qubits)
    return np.einsum("s,soi,soj->oij", weights, branches, branches.conj())


def _pair_run(
    initial: np.ndarray, pulse: PulseSpec, thermal: ThermalSpec | None, modes: ModeParams | None
) -> np.ndarray:
    """Pulse ions 2 and 3 of the 4-ion register ``initial`` sector by sector
    and measure them: the posteriors of ions 1 and 4 mixed over the thermal
    sectors, a (4, 4, 4) array in ``OUTCOMES`` order of trace p_o. Without
    ``thermal`` the pulse acts in the Lamb-Dicke limit, as one sector of
    weight 1."""
    if thermal is None:
        u = ld_pulse_unitary(pulse.k, pulse.phi, pulse.phi0, (1 + pulse.epsilon) * pulse.area)
        register, weights = apply(u, initial, (1, 2), 4)[None], np.ones(1)
    else:
        register = analyzer_pulse(initial, thermal, pulse, modes, (1, 2), 4)
        weights = thermal.weights.ravel()
    return _posteriors(register, weights, (1, 2), 4)


def prepare_channel(thermal: ThermalSpec, pulse: PulseSpec, modes: ModeParams) -> np.ndarray:
    """Drive both ions from |dd> with one pulse in every thermal Fock sector:
    the (S, 4) amplitudes, one row per sector of ``thermal.weights.ravel()``.

    The |du>, |ud> amplitudes stay exactly zero: the double-sideband drive
    preserves the electronic parity blocks.
    """
    return _sector_unitaries(thermal, pulse, modes)[:, :, 0]


def channel_fidelity_pipeline(
    thermal: ThermalSpec, pulse: PulseSpec, modes: ModeParams
) -> float:
    """``protocol.channel_fidelity`` through the general route: prepare every
    sector, then project the mixture onto the ideal channel state."""
    target = protocol.channel_target_state(pulse.k, pulse.phi)
    overlaps = prepare_channel(thermal, pulse, modes) @ target.conj()
    return float(thermal.weights.ravel() @ np.abs(overlaps) ** 2)


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


def _outcome_states(posteriors: np.ndarray) -> list[OutcomeState]:
    """The four branches of unnormalised posteriors given in ``OUTCOMES``
    order; a posterior of trace at most ``EMPTY_PROB`` is an empty branch."""
    out = []
    for o, r, p in zip(OUTCOMES, posteriors, np.einsum("oii->o", posteriors).real.tolist()):
        if p <= EMPTY_PROB:
            out.append(OutcomeState(label=o, probability=0.0, state=None))
        else:
            out.append(OutcomeState(label=o, probability=p, state=r / p))
    return out


def measure_and_condition(
    register: np.ndarray,
    weights: np.ndarray,
    pair: tuple[int, int] = (0, 1),
    n_qubits: int = 3,
) -> list[OutcomeState]:
    """Measure ions ``pair`` in the energy basis over the (S, 2**n_qubits)
    sector registers mixed with the S ``weights``.

    Returns the four outcomes in fixed order, each with its probability and
    the posterior density operator of the unmeasured ions; an outcome of zero
    probability is flagged empty rather than raising.
    """
    return _outcome_states(_posteriors(register, weights, pair, n_qubits))


def debye_waller_rotation(
    axis: str, angle: float, n: int, eta_local: float, epsilon: float = 0.0
) -> np.ndarray:
    """Single-qubit rotation about ``axis`` on Fock level ``n`` of the host
    trap: calibrated on n = 0 (``dynamics.carrier_rotation``), its angle is
    rescaled by the carrier Debye-Waller factor to
    angle * (1 + epsilon) * L_n(eta_local^2)."""
    theta = angle * (1.0 + epsilon) * laguerre(n, 0, eta_local**2)
    return math.cos(theta / 2) * np.eye(2, dtype=complex) - 1j * math.sin(theta / 2) * PAULI[axis]


def trap_b_correction(axis: str, state: np.ndarray, nbar_b: float, eta_b: float, epsilon: float) -> np.ndarray:
    """The thermal mixture sum_n w_n R_n rho R_n^+ of the pi rotations R_n
    about ``axis`` on the last qubit of ``state``, one
    ``debye_waller_rotation`` per Fock level n of trap B, with the
    Bose-Einstein weights w_n renormalised over the levels up to
    ``cutoff_for(nbar_b)``."""
    rho = np.array(state, dtype=complex)
    weights = np.array([nbar_b**n / (1 + nbar_b) ** (n + 1) for n in range(cutoff_for(nbar_b) + 1)])
    out = np.zeros_like(rho)
    for n, w in enumerate(weights / weights.sum()):
        r = np.kron(np.eye(rho.shape[0] // 2), debye_waller_rotation(axis, math.pi, n, eta_b, epsilon))
        out += w * (r @ rho @ r.conj().T)
    return out


def _rotate_ion3(axis: str | None, state: np.ndarray, a: float, b: float, cs: float) -> np.ndarray:
    """The thermally mixed correction about ``axis`` of the last qubit of the
    posterior ``state``, from the trap-B sums A, B, C of
    ``protocol._trap_b_sums``; ``axis`` None needs no pulse and therefore
    introduces no error."""
    if axis is not None and axis not in PAULI:
        raise ValueError(f"unknown correction axis {axis!r}")
    rho = np.array(state, dtype=complex)
    if axis is None:
        return rho
    sigma = np.kron(np.eye(rho.shape[0] // 2), PAULI[axis])
    rho_sigma, sigma_rho = rho @ sigma, sigma @ rho
    return a * rho + b * (sigma @ rho_sigma) + 1j * cs * (rho_sigma - sigma_rho)


def score_outcome_states(
    outcomes: list[OutcomeState], ideal: np.ndarray, cfg: TeleportConfig
) -> tuple[dict[str, float], dict[str, float], float]:
    """``protocol.score_outcomes`` branch by branch: correct the last qubit of
    every normalised branch state with trap B of ``cfg`` (``_rotate_ion3``)
    and score it against the density operator ``ideal`` by a checked
    ``linalg.fidelity``. Returns per-outcome probabilities, fidelities (0 for
    an empty branch) and their aggregate sum_o p_o F_o."""
    axes = correction_axes(cfg.k, cfg.phases)
    sums = _trap_b_sums(cfg.nbar_b, cfg.eta_b, cfg.epsilon, cfg.cutoff_b)
    probs: dict[str, float] = {}
    fids: dict[str, float] = {}
    aggregate = 0.0
    for oc in outcomes:
        probs[oc.label] = oc.probability
        if oc.empty:
            fids[oc.label] = 0.0
            continue
        fids[oc.label] = linalg.fidelity(ideal, _rotate_ion3(axes[oc.label], oc.state, *sums))
        aggregate += oc.probability * fids[oc.label]
    return probs, fids, aggregate


def pair_run(initial: np.ndarray, pulse: PulseSpec, thermal: ThermalSpec, modes: ModeParams) -> np.ndarray:
    """The thermal ``_pair_run`` of the 4-ion register ``initial``
    by one dense matrix exponential of the pulse's full Hamiltonian on ions
    2, 3 and both trap-A modes, traced over the motion: the posteriors of
    ions 1 and 4, a (4, 4, 4) array in ``OUTCOMES`` order of trace p_o."""
    n_sectors = thermal.weights.size
    h = build_heff(pulse.k, modes, pulse.phi, pulse.phi0, thermal.cutoff, thermal.cutoff_r)
    t = pulse.duration(rabi_grid(pulse.k, 0, 0, modes)[0, 0])
    # rows: level of ions 2, 3; columns: level of ions 1, 4
    pair = np.asarray(initial).reshape(2, 4, 2).transpose(1, 0, 2).reshape(4, 4)
    full = oracle_evolve(np.kron(pair, np.eye(n_sectors)), h, t).reshape(4, n_sectors, 4, n_sectors)
    return np.einsum("s,omis,omjs->oij", thermal.weights.ravel(), full, full.conj())


def execute_script_per_branch(
    script: PulseScript,
    n_ions: int,
    initial: np.ndarray,
    phases: PhaseConfig | None = None,
) -> ScriptResult:
    """``pulsescript.execute_script`` branch by branch: one ``apply`` per
    live branch and statement and one ``collapse_pair`` per live branch and
    measurement, each on its own register of 2**n_ions amplitudes."""
    if phases is None:
        phases = PhaseConfig()
    state = np.asarray(initial, dtype=complex)
    if state.shape != (2**n_ions,):
        raise ValueError(f"initial state must have {2**n_ions} amplitudes")
    branches = [Branch(probability=1.0, amplitudes=state.copy())]

    def check_ion(ion: int, line: int) -> int:
        if ion > n_ions:
            raise ScriptError(f"ion {ion} exceeds register size {n_ions}", line, 1)
        return ion - 1

    for st in script.statements:
        if isinstance(st, MeasureStatement):
            pair = (check_ion(st.ions[0], st.line), check_ion(st.ions[1], st.line))
            split: list[Branch] = []
            for b in branches:
                if b.amplitudes is None:
                    split.append(b)
                    continue
                probs, collapsed = collapse_pair(b.amplitudes, pair, n_ions)
                for label, p, amps in zip(OUTCOMES, probs.tolist(), collapsed):
                    outcomes = b.outcomes + [(st.ions, label)]
                    if p <= EMPTY_PROB:
                        split.append(Branch(0.0, None, outcomes))
                    else:
                        split.append(Branch(b.probability * p, amps, outcomes))
            branches = split
            continue
        if isinstance(st, PulseStatement):
            qubits = (check_ion(st.ions[0], st.line), check_ion(st.ions[1], st.line))
            phi = st.phi if st.phi is not None else phases.phi_a
            phi0 = st.phi0 if st.phi0 is not None else phases.phi0_a
            op = ld_pulse_unitary(st.k, phi, phi0, (1 + st.eps) * st.area)
        else:
            qubits = (check_ion(st.ion, st.line),)
            op = carrier_rotation(st.axis, st.angle, epsilon=st.eps)
        for b in branches:
            if b.amplitudes is not None:
                b.amplitudes = apply(op, b.amplitudes, qubits, n_ions)
    return ScriptResult(n_ions=n_ions, branches=branches)
