"""Brute-force references that the tests hold the production routes to:
the full truncated-space Hamiltonian and its dense exponential, the
Lamb-Dicke coupling factors, the thermal channel and the measurement sector
by sector, the trap-B correction level by level, and the pair run of ions 2
and 3 both over the full space and sector by sector. The sector-by-sector
route keeps a thermal register as arrays over the S sectors of
``ThermalSpec.weights.ravel()``: one initial register shared by all sectors,
the (S, 4, 4) sector pulse unitaries (``_sector_unitaries``) and the S
weights, so a pulse is one ``register.apply`` (``analyzer_pulse``) and a
measurement one weighted einsum (``_posteriors``). Production reaches the
same posteriors through three thermal moments (``protocol._bell_terms``).
``execute_script_per_branch`` runs a pulse script one branch register at a
time, where production batches the live branches. No other module of the
package imports this one.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg, protocol
from .dynamics import PulseSpec, carrier_rotation, drive_sign, ld_pulse_unitary, mixing_operator, sector_unitary
from .motional import ModeParams, ThermalSpec, cutoff_for, laguerre, rabi_grid
from .protocol import PhaseConfig
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


def _sector_unitaries(thermal: ThermalSpec, pulse: PulseSpec, modes: ModeParams) -> np.ndarray:
    """The (S, 4, 4) pulse unitaries of the S thermal sectors."""
    return sector_unitary(pulse.k, pulse.phi, pulse.phi0, *protocol._sector_rabi(thermal, pulse, modes))


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


def measure_and_condition(
    register: np.ndarray,
    weights: np.ndarray,
    pair: tuple[int, int] = (0, 1),
    n_qubits: int = 3,
) -> list[protocol.OutcomeState]:
    """Measure ions ``pair`` in the energy basis over the (S, 2**n_qubits)
    sector registers mixed with the S ``weights``.

    Returns the four outcomes in fixed order, each with its probability and
    the posterior density operator of the unmeasured ions; an outcome of zero
    probability is flagged empty rather than raising.
    """
    return protocol._outcome_states(_posteriors(register, weights, pair, n_qubits))


def trap_b_correction(axis: str, state: np.ndarray, nbar_b: float, eta_b: float, epsilon: float) -> np.ndarray:
    """The thermal mixture sum_n w_n R_n rho R_n^+ of the pi rotations R_n
    about ``axis`` on the last qubit of ``state``, one ``carrier_rotation``
    per Fock level n of trap B, with the Bose-Einstein weights w_n
    renormalised over the levels up to ``cutoff_for(nbar_b)``."""
    rho = np.array(state, dtype=complex)
    weights = np.array([nbar_b**n / (1 + nbar_b) ** (n + 1) for n in range(cutoff_for(nbar_b) + 1)])
    out = np.zeros_like(rho)
    for n, w in enumerate(weights / weights.sum()):
        r = np.kron(np.eye(rho.shape[0] // 2), carrier_rotation(axis, math.pi, n, eta_b, epsilon))
        out += w * (r @ rho @ r.conj().T)
    return out


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
