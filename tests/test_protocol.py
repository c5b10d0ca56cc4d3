import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsim import linalg
from ionsim.dynamics import PulseSpec, SectorState, build_ld_hamiltonian, carrier_rotation
from ionsim.motional import ModeParams, rabi_frequency, thermal_distribution, cutoff_for, matched_nbar_r
from ionsim.protocol import (
    BELL_STATES,
    CARDINAL_STATES,
    InputQubit,
    OUTCOMES,
    PhaseConfig,
    TeleportConfig,
    analyzer_pulse,
    channel_fidelity,
    channel_fidelity_pipeline,
    channel_target_state,
    correct_ion3,
    entanglement_swap,
    entanglement_teleport,
    measure_and_condition,
    prepare_channel,
    teleport_fidelity,
)

MODES = ModeParams(eta=0.2)
PHASES = PhaseConfig()


def bell_pulse(epsilon=0.0, phases=PHASES):
    return PulseSpec(phi=phases.phi_b, phi0=phases.phi0_b, epsilon=epsilon)


def thermal_for(nbar, tail_tol=1e-6):
    nbar_r = matched_nbar_r(nbar)
    return thermal_distribution(
        nbar, nbar_r, cutoff_for(nbar, tail_tol / 2), cutoff_for(nbar_r, tail_tol / 2), tail_tol
    )


def random_qubit(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return InputQubit(v[0], v[1])


class TestPhaseConfig:
    def test_default_relation(self):
        p = PhaseConfig()
        assert p.phi_a == p.phi_b == pytest.approx(math.pi - p.phi0_a / 2)
        assert p.phi0_a == p.phi0_b

    def test_explicit_values_kept(self):
        p = PhaseConfig(phi0_a=0.3, phi_a=1.0, phi_b=2.0)
        assert (p.phi_a, p.phi_b, p.phi0_b) == (1.0, 2.0, 0.3)


class TestInputQubit:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            InputQubit(1.0, 1.0)

    def test_cardinal_parse(self):
        q = InputQubit.from_spec("y+")
        assert q.beta == pytest.approx(1j / math.sqrt(2))

    def test_pair_parse_normalizes(self):
        q = InputQubit.from_spec("3,4")
        assert q.alpha == pytest.approx(0.6)
        assert q.beta == pytest.approx(0.8)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            InputQubit.from_spec("sideways")


class TestPrepareChannel:
    def test_ideal_sector_is_exact_bell(self):
        thermal = thermal_for(0.0)
        sectors = prepare_channel(thermal, bell_pulse(), MODES)
        assert len(sectors) == 1
        amps = sectors[0].amplitudes
        phase = amps[0] / abs(amps[0])
        assert np.max(np.abs(amps / phase - channel_target_state(PHASES.phi_b))) < 1e-12
        assert channel_fidelity(thermal, bell_pulse(), MODES) == pytest.approx(1.0, abs=1e-12)

    def test_hot_sector_rotation_angle_scales_with_rabi_ratio(self):
        thermal = thermal_distribution(1.0, 0.5, cutoff=4, cutoff_r=4, tail_tol=0.999)
        sectors = prepare_channel(thermal, bell_pulse(), MODES)
        ratio = abs(rabi_frequency(1, 2, 1, MODES) / rabi_frequency(1, 0, 0, MODES))
        target = next(s for s in sectors if (s.n, s.n_r) == (2, 1))
        angle = math.atan2(abs(target.amplitudes[3]), abs(target.amplitudes[0]))
        assert angle == pytest.approx(math.pi / 4 * ratio, abs=1e-12)

    def test_parity_preserved(self):
        thermal = thermal_for(0.2)
        for s in prepare_channel(thermal, bell_pulse(epsilon=0.05), MODES):
            assert s.amplitudes[1] == 0.0
            assert s.amplitudes[2] == 0.0


class TestChannelFidelity:
    @pytest.mark.parametrize(
        "nbar,target,tol",
        [(0.2, 0.999, 2e-3), (1.0, 0.988, 4e-3), (5.0, 0.880, 1e-2)],
    )
    def test_thermal_degradation_values(self, nbar, target, tol):
        f = channel_fidelity(thermal_for(nbar), bell_pulse(), MODES)
        assert f == pytest.approx(target, abs=tol)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.05, 0.3), st.floats(-0.1, 0.1))
    def test_closed_form_matches_pipeline(self, nbar, eta, eps):
        modes = ModeParams(eta=eta)
        thermal = thermal_for(nbar)
        pulse = bell_pulse(epsilon=eps)
        closed = channel_fidelity(thermal, pulse, modes)
        piped = channel_fidelity_pipeline(thermal, pulse, modes)
        assert abs(closed - piped) < 1e-9


class TestAnalyzerPulse:
    def _ideal_register(self, q):
        return [
            SectorState(
                n=0, n_r=0, weight=1.0,
                amplitudes=linalg.tensor(q.vector, channel_target_state(PHASES.phi_b)),
            )
        ]

    def test_ideal_branch_pattern(self):
        q = random_qubit(21)
        pulse = PulseSpec(phi=PHASES.phi_a, phi0=PHASES.phi0_a)
        thermal = thermal_for(0.0)
        reg = analyzer_pulse(self._ideal_register(q), pulse, MODES)
        a, b = q.alpha, q.beta
        # branch table for phi_a = phi_b = pi - phi0/2 and phi0 = -pi/2,
        # each branch carrying weight 1/2; overall sector phase exp(i pi/4)
        expected = np.exp(1j * math.pi / 4) * 0.5 * np.array(
            [a, -b, -b, a, b, a, a, b], dtype=complex
        )
        assert np.max(np.abs(reg[0].amplitudes - expected)) < 1e-12

    def test_basis_input_feeds_single_branch(self):
        q = InputQubit(1.0, 0.0)
        pulse = PulseSpec(phi=PHASES.phi_a, phi0=PHASES.phi0_a)
        reg = analyzer_pulse(self._ideal_register(q), pulse, MODES)
        uu_branch = reg[0].amplitudes.reshape(4, 2)[3]
        assert abs(uu_branch[1]) < 1e-14  # |u> amplitude of ion 3 vanishes
        assert abs(uu_branch[0]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_lamb_dicke_exponential_oracle(self):
        q = random_qubit(22)
        pulse = PulseSpec(phi=PHASES.phi_a, phi0=PHASES.phi0_a)
        reg = analyzer_pulse(self._ideal_register(q), pulse, MODES)
        h_full = np.kron(build_ld_hamiltonian(PHASES.phi_a, PHASES.phi0_a), np.eye(2))
        u = scipy.linalg.expm(-1j * h_full * (math.pi / 4))
        expected = u @ self._ideal_register(q)[0].amplitudes
        assert np.max(np.abs(reg[0].amplitudes - expected)) < 1e-9


class TestMeasureAndCondition:
    def _analyzed(self, q, nbar=0.0, eps=0.0):
        thermal = thermal_for(nbar)
        pulse = PulseSpec(phi=PHASES.phi_a, phi0=PHASES.phi0_a, epsilon=eps)
        reg = [
            SectorState(
                n=n, n_r=n_r, weight=w,
                amplitudes=linalg.tensor(q.vector, channel_target_state(PHASES.phi_b)),
            )
            for n, n_r, w in thermal.sectors()
        ]
        return measure_and_condition(analyzer_pulse(reg, pulse, MODES))

    def test_ideal_probabilities_are_uniform(self):
        outcomes = self._analyzed(random_qubit(31))
        for oc in outcomes:
            assert oc.probability == pytest.approx(0.25, abs=1e-12)

    def test_ideal_dd_outcome_state(self):
        q = random_qubit(32)
        outcomes = {oc.label: oc for oc in self._analyzed(q)}
        flipped = np.array([q.alpha, -q.beta], dtype=complex)
        assert np.max(np.abs(outcomes["dd"].state - linalg.projector(flipped))) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0), st.floats(-0.1, 0.1))
    def test_probabilities_sum_to_one(self, seed, nbar, eps):
        outcomes = self._analyzed(random_qubit(seed), nbar=nbar, eps=eps)
        assert sum(oc.probability for oc in outcomes) == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_outcome_is_flagged(self):
        # unentangled register: measuring ions 1,2 of |dd> x |d> leaves
        # three branches structurally empty
        reg = [SectorState(n=0, n_r=0, weight=1.0,
                           amplitudes=np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=complex))]
        outcomes = {oc.label: oc for oc in measure_and_condition(reg)}
        assert outcomes["dd"].probability == pytest.approx(1.0)
        for label in ("du", "ud", "uu"):
            assert outcomes[label].probability == 0.0
            assert outcomes[label].empty


class TestCorrectIon3:
    def test_uu_outcome_untouched(self):
        rho = linalg.projector(random_qubit(41).vector)
        out = correct_ion3("uu", rho, nbar_b=0.5, eta_b=0.2, epsilon=0.1)
        assert np.array_equal(out, rho)

    def test_dd_outcome_exact_in_ground_state(self):
        q = random_qubit(42)
        flipped = linalg.projector(np.array([q.alpha, -q.beta], dtype=complex))
        out = correct_ion3("dd", flipped, nbar_b=0.0, eta_b=0.2, epsilon=0.0)
        assert linalg.fidelity(linalg.projector(q.vector), out) == pytest.approx(1.0, abs=1e-12)

    def test_ud_outcome_with_thermal_and_imprecision(self):
        q = random_qubit(43)
        swapped = linalg.projector(np.array([q.beta, q.alpha], dtype=complex))
        out = correct_ion3("ud", swapped, nbar_b=0.2, eta_b=0.2, epsilon=0.05)
        f = linalg.fidelity(linalg.projector(q.vector), out)
        assert 0.97 < f < 1.0

    def test_unknown_outcome(self):
        with pytest.raises(ValueError):
            correct_ion3("xx", np.eye(2) / 2, 0.0, 0.0)


class TestTeleportFidelity:
    def test_ideal_is_exact_for_random_inputs(self):
        cfg = TeleportConfig(nbar=0.0, eta=0.2)
        for seed in range(5):
            report = teleport_fidelity(random_qubit(seed), cfg)
            assert report.aggregate == pytest.approx(1.0, abs=1e-12)

    def test_ideal_probabilities_input_independent(self):
        cfg = TeleportConfig(nbar=0.0, eta=0.15)
        for seed in (1, 2, 3):
            report = teleport_fidelity(random_qubit(seed), cfg)
            for o in OUTCOMES:
                assert report.outcome_probs[o] == pytest.approx(0.25, abs=1e-10)

    def test_report_invariants(self):
        cfg = TeleportConfig(nbar=0.15, eta=0.22, epsilon=0.03)
        report = teleport_fidelity("average", cfg)
        assert sum(report.outcome_probs.values()) == pytest.approx(1.0, abs=1e-9)
        recombined = sum(
            report.outcome_probs[o] * report.outcome_fidelities[o] for o in OUTCOMES
        )
        assert report.aggregate == pytest.approx(recombined, abs=1e-12)

    def test_aggregate_nonincreasing_in_nbar(self):
        for eta in (0.1, 0.2):
            values = [
                teleport_fidelity("average", TeleportConfig(nbar=nb, eta=eta)).aggregate
                for nb in (0.0, 0.05, 0.1, 0.15, 0.2)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_average_matches_cardinal_mean(self):
        cfg = TeleportConfig(nbar=0.1, eta=0.2, epsilon=0.02)
        avg = teleport_fidelity("average", cfg).aggregate
        singles = [teleport_fidelity(q, cfg).aggregate for q in CARDINAL_STATES.values()]
        assert avg == pytest.approx(sum(singles) / len(singles), abs=1e-12)


class TestEntanglementSwap:
    def test_ideal_heralds_exact_bell_pairs(self):
        for oc in entanglement_swap():
            assert oc.probability == pytest.approx(0.25, abs=1e-10)
            assert oc.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_herald_labels(self):
        heralds = {oc.label: oc.herald for oc in entanglement_swap()}
        assert heralds == {"uu": "phi+", "dd": "phi-", "ud": "psi+", "du": "psi-"}

    def test_thermal_swap_degrades(self):
        thermal = thermal_for(0.2)
        outcomes = entanglement_swap(thermal=thermal, modes=MODES)
        assert sum(oc.probability for oc in outcomes) == pytest.approx(1.0, abs=1e-10)
        for oc in outcomes:
            assert oc.fidelity < 1.0

    def test_bell_product_reexpansion_identity(self):
        # |phi+>_{12} |phi+>_{34} equals (1/2) sum_B |B>_{14} |B>_{23}
        direct = np.kron(BELL_STATES["phi+"], BELL_STATES["phi+"])
        recombined = np.zeros(16, dtype=complex)
        for name in BELL_STATES:
            outer = np.einsum(
                "a,b->ab", BELL_STATES[name], BELL_STATES[name]
            ).reshape(2, 2, 2, 2)
            # axes (i1, i4, i2, i3) -> (i1, i2, i3, i4)
            recombined += 0.5 * np.transpose(outer, (0, 2, 3, 1)).reshape(-1)
        assert np.max(np.abs(direct - recombined)) < 1e-15


class TestEntanglementTeleport:
    def test_bell_input_ideal(self):
        cfg = TeleportConfig(nbar=0.0)
        report = entanglement_teleport(BELL_STATES["phi+"], cfg)
        assert report.aggregate == pytest.approx(1.0, abs=1e-12)
        for o in OUTCOMES:
            assert report.outcome_probs[o] == pytest.approx(0.25, abs=1e-10)

    def test_random_entangled_input_ideal(self):
        rng = np.random.default_rng(55)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        report = entanglement_teleport(psi, TeleportConfig(nbar=0.0))
        assert report.aggregate == pytest.approx(1.0, abs=1e-12)

    def test_product_input_reduces_to_single_qubit_result(self):
        q = random_qubit(56)
        spectator = random_qubit(57)
        psi = np.kron(spectator.vector, q.vector)
        cfg = TeleportConfig(nbar=0.1, eta=0.2, epsilon=0.02)
        pair_report = entanglement_teleport(psi, cfg)
        single_report = teleport_fidelity(q, cfg)
        assert pair_report.aggregate == pytest.approx(single_report.aggregate, abs=1e-10)
        for o in OUTCOMES:
            assert pair_report.outcome_probs[o] == pytest.approx(
                single_report.outcome_probs[o], abs=1e-10
            )

    def test_matches_direct_state_algebra_with_imprecision(self):
        rng = np.random.default_rng(58)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        eps = 0.04
        cfg = TeleportConfig(nbar=0.0, epsilon=eps)
        report = entanglement_teleport(psi, cfg)

        # direct 16-dim oracle: exponential pulse on ions 2,3 then projective
        # measurement and an over-rotated correction on ion 4
        initial = np.kron(psi, channel_target_state(PHASES.phi_b))
        h = np.kron(np.kron(np.eye(2), build_ld_hamiltonian(PHASES.phi_a, PHASES.phi0_a)), np.eye(2))
        state = scipy.linalg.expm(-1j * h * (1 + eps) * math.pi / 4) @ initial
        t = state.reshape(2, 2, 2, 2)
        ideal = linalg.projector(psi)
        aggregate = 0.0
        for label, (b1, b2) in {"dd": (0, 0), "du": (0, 1), "ud": (1, 0), "uu": (1, 1)}.items():
            v = t[:, b1, b2, :].reshape(-1)
            p = float(np.vdot(v, v).real)
            assert p == pytest.approx(report.outcome_probs[label], abs=1e-12)
            rho = linalg.projector(v / math.sqrt(p))
            axis = {"dd": "z", "du": "y", "ud": "x", "uu": None}[label]
            if axis is not None:
                r = np.kron(np.eye(2), carrier_rotation(axis, math.pi, epsilon=eps))
                rho = r @ rho @ r.conj().T
            aggregate += p * float(np.trace(ideal @ rho).real)
        assert report.aggregate == pytest.approx(aggregate, abs=1e-12)

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            entanglement_teleport(np.array([1, 0, 0, 1], dtype=complex), TeleportConfig())


def per_level_correction(outcome, rho, nbar_b, eta_b, epsilon):
    """Thermal mixture sum_n w_n R_n rho R_n^+ of the per-level rotations on
    the last qubit, level by level."""
    axis = {"dd": "z", "du": "y", "ud": "x"}[outcome]
    cutoff = cutoff_for(nbar_b, 1e-6)
    weights = np.array([nbar_b**n / (1 + nbar_b) ** (n + 1) for n in range(cutoff + 1)])
    weights /= weights.sum()
    out = np.zeros_like(rho)
    for n, w in enumerate(weights):
        r = np.kron(np.eye(rho.shape[0] // 2), carrier_rotation(axis, math.pi, n, eta_b, epsilon))
        out += w * (r @ rho @ r.conj().T)
    return out


class TestCorrectionClosedForm:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("outcome", ["dd", "du", "ud"])
    @settings(max_examples=8, deadline=None)
    @given(
        nbar_b=st.floats(0.0, 3.0),
        eta_b=st.floats(0.01, 0.3),
        epsilon=st.floats(-0.2, 0.2),
        seed=st.integers(0, 2**31),
    )
    def test_matches_per_level_mixture(self, dim, outcome, nbar_b, eta_b, epsilon, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        got = correct_ion3(outcome, rho, nbar_b, eta_b, epsilon)
        expected = per_level_correction(outcome, rho, nbar_b, eta_b, epsilon)
        assert np.max(np.abs(got - expected)) <= 1e-12
