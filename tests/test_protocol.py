import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ionsim import linalg
from ionsim.dynamics import PulseSpec, carrier_rotation, drive_sign, ld_pulse_unitary
from ionsim.motional import ModeParams, rabi_grid, thermal_distribution, cutoff_for, matched_nbar_r
from ionsim.oracle import (
    _outcome_states,
    _pair_generator,
    _pair_run,
    _posteriors,
    _rotate_ion3,
    _sector_rabi,
    analyzer_pulse,
    channel_fidelity_pipeline,
    measure_and_condition,
    pair_run,
    prepare_channel,
    score_outcome_states,
    trap_b_correction,
)
from ionsim.protocol import (
    BELL_STATES,
    CARDINAL_STATES,
    InputQubit,
    OUTCOMES,
    PhaseConfig,
    TeleportConfig,
    _bell_channel,
    _bell_terms,
    _sector_moments,
    _trap_b_sums,
    channel_fidelity,
    channel_target_state,
    correction_axes,
    entanglement_swap,
    entanglement_teleport,
    score_outcomes,
    swap_heralds,
    teleport_fidelity,
)
from ionsim.register import EMPTY_PROB

MODES = ModeParams(eta=0.2)
PHASES = PhaseConfig()


def bell_pulse(epsilon=0.0, phases=PHASES, k=1):
    return PulseSpec(phi=phases.phi_b, phi0=phases.phi0_b, k=k, epsilon=epsilon)


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
        amps = sectors[0]
        phase = amps[0] / abs(amps[0])
        assert np.max(np.abs(amps / phase - channel_target_state(1, PHASES.phi_b))) < 1e-12
        assert channel_fidelity(thermal, bell_pulse(), MODES) == pytest.approx(1.0, abs=1e-12)

    def test_hot_sector_rotation_angle_scales_with_rabi_ratio(self):
        thermal = thermal_distribution(1.0, 0.5, cutoff=4, cutoff_r=4, tail_tol=0.999)
        sectors = prepare_channel(thermal, bell_pulse(), MODES)
        ratio = abs(rabi_grid(1, 2, 1, MODES)[2, 1] / rabi_grid(1, 0, 0, MODES)[0, 0])
        target = sectors[2 * (thermal.cutoff_r + 1) + 1]
        angle = math.atan2(abs(target[3]), abs(target[0]))
        assert angle == pytest.approx(math.pi / 4 * ratio, abs=1e-12)

    def test_parity_preserved(self):
        thermal = thermal_for(0.2)
        for s in prepare_channel(thermal, bell_pulse(epsilon=0.05), MODES):
            assert s[1] == 0.0
            assert s[2] == 0.0


class TestChannelFidelity:
    @pytest.mark.parametrize(
        "nbar,target,tol",
        [(0.2, 0.999, 2e-3), (1.0, 0.988, 4e-3), (5.0, 0.880, 1e-2)],
    )
    def test_thermal_degradation_values(self, nbar, target, tol):
        f = channel_fidelity(thermal_for(nbar), bell_pulse(), MODES)
        assert f == pytest.approx(target, abs=tol)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.05, 0.3), st.floats(-0.1, 0.1), st.integers(1, 4))
    def test_closed_form_matches_pipeline(self, nbar, eta, eps, k):
        modes = ModeParams(eta=eta)
        thermal = thermal_for(nbar)
        pulse = bell_pulse(epsilon=eps, k=k)
        closed = channel_fidelity(thermal, pulse, modes)
        piped = channel_fidelity_pipeline(thermal, pulse, modes)
        assert abs(closed - piped) <= 1e-12


class TestChannelFidelityAnyK:
    """The closed form scores the channel that ``channel_target_state`` derives."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ideal_channel_is_exact(self, k):
        pulse = PulseSpec(phi=PHASES.phi_b, phi0=PHASES.phi0_b, k=k)
        assert channel_fidelity(thermal_for(0.0), pulse, MODES) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 4), st.floats(0.0, 3.0), st.floats(0.05, 0.3), st.floats(-0.1, 0.1),
           st.floats(-math.pi, math.pi))
    def test_closed_form_matches_pipeline(self, k, nbar, eta, eps, phi):
        modes = ModeParams(eta=eta)
        thermal = thermal_for(nbar)
        pulse = PulseSpec(phi=phi, phi0=-0.7, k=k, epsilon=eps)
        closed = channel_fidelity(thermal, pulse, modes)
        piped = channel_fidelity_pipeline(thermal, pulse, modes)
        assert abs(closed - piped) <= 1e-12


class TestAnalyzerPulse:
    def _ideal_register(self, q):
        return np.kron(q.vector, channel_target_state(1, PHASES.phi_b))

    def test_ideal_branch_pattern(self):
        q = random_qubit(21)
        pulse = PulseSpec(phi=PHASES.phi_a, phi0=PHASES.phi0_a)
        thermal = thermal_for(0.0)
        reg = analyzer_pulse(self._ideal_register(q), thermal, pulse, MODES)
        a, b = q.alpha, q.beta
        # branch table for phi_a = phi_b = pi - phi0/2 and phi0 = -pi/2,
        # each branch carrying weight 1/2; overall sector phase exp(i pi/4)
        expected = np.exp(1j * math.pi / 4) * 0.5 * np.array(
            [a, -b, -b, a, b, a, a, b], dtype=complex
        )
        assert np.max(np.abs(reg[0] - expected)) < 1e-12

    def test_basis_input_feeds_single_branch(self):
        q = InputQubit(1.0, 0.0)
        pulse = PulseSpec(phi=PHASES.phi_a, phi0=PHASES.phi0_a)
        reg = analyzer_pulse(self._ideal_register(q), thermal_for(0.0), pulse, MODES)
        uu_branch = reg[0].reshape(4, 2)[3]
        assert abs(uu_branch[1]) < 1e-14  # |u> amplitude of ion 3 vanishes
        assert abs(uu_branch[0]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_lamb_dicke_exponential_oracle(self):
        q = random_qubit(22)
        pulse = PulseSpec(phi=PHASES.phi_a, phi0=PHASES.phi0_a)
        reg = analyzer_pulse(self._ideal_register(q), thermal_for(0.0), pulse, MODES)
        h_full = np.kron(_pair_generator(1, PHASES.phi_a, PHASES.phi0_a), np.eye(2))
        u = scipy.linalg.expm(-1j * h_full * (math.pi / 4))
        expected = u @ self._ideal_register(q)
        assert np.max(np.abs(reg[0] - expected)) < 1e-9


class TestMeasureAndCondition:
    def _analyzed(self, q, nbar=0.0, eps=0.0):
        thermal = thermal_for(nbar)
        pulse = PulseSpec(phi=PHASES.phi_a, phi0=PHASES.phi0_a, epsilon=eps)
        reg = np.kron(q.vector, channel_target_state(1, PHASES.phi_b))
        return measure_and_condition(analyzer_pulse(reg, thermal, pulse, MODES), thermal.weights.ravel())

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
        reg = np.array([[1, 0, 0, 0, 0, 0, 0, 0]], dtype=complex)
        outcomes = {oc.label: oc for oc in measure_and_condition(reg, np.ones(1))}
        assert outcomes["dd"].probability == pytest.approx(1.0)
        for label in ("du", "ud", "uu"):
            assert outcomes[label].probability == 0.0
            assert outcomes[label].empty


def correct_ion3(axis, state, nbar_b, eta_b, epsilon=0.0):
    """The closed-form thermal correction of the last qubit of ``state``."""
    return _rotate_ion3(axis, state, *_trap_b_sums(nbar_b, eta_b, epsilon, cutoff_for(nbar_b)))


class TestCorrectIon3:
    def test_uu_outcome_untouched(self):
        rho = linalg.projector(random_qubit(41).vector)
        out = correct_ion3(None, rho, nbar_b=0.5, eta_b=0.2, epsilon=0.1)
        assert np.array_equal(out, rho)

    def test_dd_outcome_exact_in_ground_state(self):
        q = random_qubit(42)
        flipped = linalg.projector(np.array([q.alpha, -q.beta], dtype=complex))
        out = correct_ion3("z", flipped, nbar_b=0.0, eta_b=0.2, epsilon=0.0)
        assert linalg.fidelity(linalg.projector(q.vector), out) == pytest.approx(1.0, abs=1e-12)

    def test_ud_outcome_with_thermal_and_imprecision(self):
        q = random_qubit(43)
        swapped = linalg.projector(np.array([q.beta, q.alpha], dtype=complex))
        out = correct_ion3("x", swapped, nbar_b=0.2, eta_b=0.2, epsilon=0.05)
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

    def test_average_warns_about_truncation_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            teleport_fidelity("average", TeleportConfig(nbar=0.5, cutoff=2, cutoff_r=2))
        truncation = [w for w in caught if "thermal truncation" in str(w.message)]
        assert len(truncation) == 1 and truncation[0].category is UserWarning

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


class TestDerivedTables:
    """Corrections and swap heralds are read off the ideal Bell-pair run."""

    ODD = {"dd": "z", "du": "y", "ud": "x", "uu": None}
    EVEN = {"dd": "z", "du": "x", "ud": "y", "uu": None}

    def test_channel_is_cached_and_read_only(self):
        state = channel_target_state(1, PHASES.phi_b)
        assert state is channel_target_state(1, PHASES.phi_b)
        assert not state.flags.writeable
        terms = _bell_terms(1, PHASES.phi_a, PHASES.phi0_a, PHASES.phi_b)
        assert terms is _bell_terms(1, PHASES.phi_a, PHASES.phi0_a, PHASES.phi_b)
        assert not terms.flags.writeable

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_corrections_at_default_phases(self, k):
        assert correction_axes(k, PHASES) == (self.ODD if k % 2 else self.EVEN)

    @pytest.mark.parametrize(
        "k, names",
        [(1, {"dd": "phi-", "du": "psi-", "ud": "psi+", "uu": "phi+"}),
         (2, {"dd": "phi+", "du": "psi-", "ud": "psi+", "uu": "phi-"})],
    )
    def test_heralds_at_default_phases(self, k, names):
        heralds = swap_heralds(k, PHASES)
        assert {o: name for o, (name, _) in heralds.items()} == names
        for name, state in heralds.values():
            assert abs(np.vdot(BELL_STATES[name], state)) == pytest.approx(1.0, abs=1e-12)

    def test_heralds_off_the_bell_basis_are_other(self):
        heralds = swap_heralds(1, PhaseConfig(phi0_a=0.3))
        assert {name for name, _ in heralds.values()} == {"other"}

    def test_unreliable_phases_raise(self):
        phases = PhaseConfig(phi_a=0.5, phi_b=0.5)
        with pytest.raises(ValueError, match=r"outcome \w\w has no Pauli correction at k=1 and PhaseConfig\(.*phi_a=0.5"):
            correction_axes(1, phases)
        with pytest.raises(ValueError, match="not reliable"):
            teleport_fidelity("average", TeleportConfig(phases=phases))


class TestReliableForAnyK:
    """At ideal pulses every branch is exact for k = 1..4 and any shared phi0
    with phi_A = phi_B = pi - phi0/2."""

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 4), phi0=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**31))
    def test_ideal_branches_are_exact(self, k, phi0, seed):
        phases = PhaseConfig(phi0_a=phi0)
        cfg = TeleportConfig(nbar=0.0, epsilon=0.0, k=k, phases=phases)
        for report in (teleport_fidelity("average", cfg), teleport_fidelity(random_qubit(seed), cfg)):
            for o in OUTCOMES:
                assert report.outcome_probs[o] == pytest.approx(0.25, abs=1e-12)
                assert report.outcome_fidelities[o] == pytest.approx(1.0, abs=1e-12)
        pulse = cfg.analyzer_pulse_spec()
        ld = entanglement_swap(pulse, phases)
        thermal = entanglement_swap(pulse, phases, thermal_for(0.0), MODES)
        for a, b in zip(ld, thermal):
            assert a.fidelity == pytest.approx(1.0, abs=1e-12)
            assert b.fidelity == pytest.approx(1.0, abs=1e-12)
            assert (a.label, a.herald) == (b.label, b.herald)
            assert abs(a.probability - b.probability) <= 1e-12
            assert abs(a.fidelity - b.fidelity) <= 1e-12
            assert np.max(np.abs(a.state - b.state)) <= 1e-12


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
        initial = np.kron(psi, channel_target_state(1, PHASES.phi_b))
        h = np.kron(np.kron(np.eye(2), _pair_generator(1, PHASES.phi_a, PHASES.phi0_a)), np.eye(2))
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

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="norm nan"):
            entanglement_teleport(np.array([np.nan, 0, 0, 1], dtype=complex), TeleportConfig())


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
        axis = {"dd": "z", "du": "y", "ud": "x"}[outcome]
        got = correct_ion3(axis, rho, nbar_b, eta_b, epsilon)
        expected = trap_b_correction(axis, rho, nbar_b, eta_b, epsilon)
        assert np.max(np.abs(got - expected)) <= 1e-12


class TestScoreOutcomes:
    """The three-overlap scoring equals the per-branch route of the oracle."""

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 4),
        phi0=st.floats(-math.pi, math.pi),
        nbar=st.floats(0.0, 5.0),
        eta=st.floats(0.05, 0.3),
        epsilon=st.floats(-0.1, 0.1),
        nbar_b=st.floats(0.0, 3.0),
        eta_b=st.floats(0.05, 0.3),
        ions=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**31),
    )
    def test_matches_per_branch_scorer(self, k, phi0, nbar, eta, epsilon, nbar_b, eta_b, ions, seed):
        # only a shared phi0 with the resolved Raman phases keeps every
        # outcome Pauli-correctable at every k
        cfg = TeleportConfig(eta=eta, nbar=nbar, epsilon=epsilon, nbar_b=nbar_b, eta_b=eta_b, k=k,
                             phases=PhaseConfig(phi0))
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=2**ions) + 1j * rng.normal(size=2**ions)
        psi /= np.linalg.norm(psi)
        thermal, pair, n_qubits = cfg.thermal(), (ions - 1, ions), ions + 2
        initial = np.kron(psi, channel_target_state(k, cfg.phases.phi_b))
        register = analyzer_pulse(initial, thermal, cfg.analyzer_pulse_spec(), cfg.modes(), pair, n_qubits)
        posteriors = _posteriors(register, thermal.weights.ravel(), pair, n_qubits)
        probs, fids, aggregate = score_outcomes(posteriors, psi, cfg)
        expected = score_outcome_states(_outcome_states(posteriors), linalg.projector(psi), cfg)
        for o in OUTCOMES:
            assert abs(probs[o] - expected[0][o]) <= 1e-12
            assert abs(fids[o] - expected[1][o]) <= 1e-12
        assert abs(aggregate - expected[2]) <= 1e-12

    def test_empty_branch_scores_zero_and_leaves_the_aggregate(self):
        cfg = TeleportConfig(nbar_b=0.5, epsilon=0.05)
        psi = random_qubit(7).vector
        half = 0.5 * linalg.projector(psi)
        posteriors = np.stack([half, EMPTY_PROB * np.eye(2) / 2, half, np.zeros((2, 2))])
        probs, fids, aggregate = score_outcomes(posteriors, psi, cfg)
        assert probs["du"] == fids["du"] == probs["uu"] == fids["uu"] == 0.0
        assert min(fids["dd"], fids["ud"]) > 0
        assert aggregate == probs["dd"] * fids["dd"] + probs["ud"] * fids["ud"]

    def test_report_values_are_python_floats(self):
        cfg = TeleportConfig(nbar=0.3, eta=0.15, epsilon=0.05)
        reports = [teleport_fidelity("average", cfg), teleport_fidelity("0.6,0.8", cfg),
                   entanglement_teleport(BELL_STATES["psi-"], cfg)]
        for report in reports:
            values = [*report.outcome_probs.values(), *report.outcome_fidelities.values(), report.aggregate]
            assert all(type(v) is float for v in values)
            assert all(type(v) in (float, int) for v in report.params.values())
        swaps = entanglement_swap(cfg.analyzer_pulse_spec(), cfg.phases, cfg.thermal(), cfg.modes())
        assert all(type(v) is float for oc in swaps for v in (oc.probability, oc.fidelity))


def register_report(initial, ideal, cfg, pair, n_qubits):
    """Analyzer pulse, measurement and scoring of one thermal register run."""
    thermal = cfg.thermal()
    register = analyzer_pulse(initial, thermal, cfg.analyzer_pulse_spec(), cfg.modes(), pair, n_qubits)
    return score_outcome_states(measure_and_condition(register, thermal.weights.ravel(), pair, n_qubits), ideal, cfg)


def single_input_oracle(v, cfg):
    """Direct 3-ion run: input on ion 1, channel on ions 2 and 3."""
    initial = np.kron(v, channel_target_state(cfg.k, cfg.phases.phi_b))
    return register_report(initial, linalg.projector(v), cfg, (0, 1), 3)


def six_state_oracle(cfg):
    """One 3-ion run per cardinal input, re-weighted per outcome."""
    singles = [single_input_oracle(q.vector, cfg) for q in CARDINAL_STATES.values()]
    probs = {o: sum(s[0][o] for s in singles) / len(singles) for o in OUTCOMES}
    weighted = {o: sum(s[0][o] * s[1][o] for s in singles) / len(singles) for o in OUTCOMES}
    fids = {o: weighted[o] / probs[o] if probs[o] > 0 else 0.0 for o in OUTCOMES}
    return probs, fids, sum(weighted.values())


def two_ion_oracle(psi, cfg):
    """Direct 4-ion run: input on ions 1 and 2, channel on ions 3 and 4."""
    initial = np.kron(psi, channel_target_state(cfg.k, cfg.phases.phi_b))
    return register_report(initial, linalg.projector(psi), cfg, (1, 2), 4)


class TestBellChannelRun:
    """Every teleport report equals the per-input register runs it replaces."""

    @settings(max_examples=15, deadline=None)
    @given(
        nbar=st.floats(0.0, 3.0),
        eta=st.floats(0.05, 0.3),
        epsilon=st.floats(-0.1, 0.1),
        nbar_b=st.floats(0.0, 3.0),
        eta_b=st.floats(0.05, 0.3),
        k=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**31),
    )
    def test_matches_per_input_runs(self, nbar, eta, epsilon, nbar_b, eta_b, k, seed):
        cfg = TeleportConfig(eta=eta, nbar=nbar, epsilon=epsilon, nbar_b=nbar_b, eta_b=eta_b, k=k)
        q = random_qubit(seed)
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        cases = [
            (teleport_fidelity("average", cfg), six_state_oracle(cfg)),
            (teleport_fidelity(q, cfg), single_input_oracle(q.vector, cfg)),
            (entanglement_teleport(psi, cfg), two_ion_oracle(psi, cfg)),
        ]
        for report, (probs, fids, aggregate) in cases:
            for o in OUTCOMES:
                assert abs(report.outcome_probs[o] - probs[o]) <= 1e-12
                assert abs(report.outcome_fidelities[o] - fids[o]) <= 1e-12
            assert abs(report.aggregate - aggregate) <= 1e-12


def bell_pair_initial(cfg):
    """Phi+ on ions 1, 2 and the channel of ``cfg`` on ions 3, 4."""
    return np.kron(BELL_STATES["phi+"], channel_target_state(cfg.k, cfg.phases.phi_b))


class TestBellChannelMoments:
    """The three-moment Bell channel equals the sector-by-sector register run
    and the full-space oracle."""

    PHASE = st.floats(-math.pi, math.pi)
    INPUTS = dict(
        k=st.integers(1, 4),
        phases=st.builds(PhaseConfig, PHASE, PHASE, PHASE, PHASE),
        nbar=st.floats(0.0, 5.0),
        eta=st.floats(0.05, 0.3),
        epsilon=st.floats(-0.1, 0.1),
    )

    @settings(max_examples=25, deadline=None)
    @given(**INPUTS)
    def test_matches_register_run(self, k, phases, nbar, eta, epsilon):
        cfg = TeleportConfig(eta=eta, nbar=nbar, epsilon=epsilon, phases=phases, k=k)
        reference = _pair_run(bell_pair_initial(cfg), cfg.analyzer_pulse_spec(), cfg.thermal(), cfg.modes())
        assert np.max(np.abs(_bell_channel(cfg) - reference)) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(**INPUTS)
    def test_matches_full_space_oracle(self, k, phases, nbar, eta, epsilon):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # tail mass past the small cutoffs
            cfg = TeleportConfig(eta=eta, nbar=nbar, epsilon=epsilon, phases=phases, k=k, cutoff=4, cutoff_r=2)
            reference = pair_run(bell_pair_initial(cfg), cfg.analyzer_pulse_spec(), cfg.thermal(), cfg.modes())
            assert np.max(np.abs(_bell_channel(cfg) - reference)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("nbar", [0.2, 5.0, 20.0, 50.0])
    def test_moments_equal_weight_grid_sums(self, nbar, k):
        # w_n^T f(a) w_r against the sums over the raveled sector weight grid
        cfg = TeleportConfig(nbar=nbar, eta=0.15, epsilon=0.05, k=k)
        thermal, pulse = cfg.thermal(), cfg.analyzer_pulse_spec()
        omega, t = _sector_rabi(thermal, pulse, cfg.modes())
        a = drive_sign(k) * t * omega
        c, s, w = np.cos(a), np.sin(a), thermal.weights.ravel()
        expected = np.array([w @ (c * c), w @ (s * s), w @ (c * s)])
        assert np.max(np.abs(_sector_moments(thermal, pulse, cfg.modes()) - expected)) <= 1e-12


class TestSwapOracle:
    """Every swap equals the full-space pair run of ``ionsim.oracle`` on
    Phi+ x Phi+, and in the Lamb-Dicke limit one ``ld_pulse_unitary`` on
    ions 2, 3."""

    PHASES = TestBellChannelMoments.INPUTS["phases"]

    @staticmethod
    def assert_matches(outcomes, posteriors, heralds):
        for oc, j in zip(outcomes, posteriors):
            p = np.trace(j).real
            target = heralds[oc.label][1]
            assert abs(oc.probability - p) <= 1e-12
            assert np.max(np.abs(oc.state - j / p)) <= 1e-12
            assert abs(oc.fidelity - np.vdot(target, j @ target).real / p) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(1, 4), phases=PHASES, nbar=st.floats(0.0, 3.0), eta=st.floats(0.05, 0.3),
           epsilon=st.floats(-0.1, 0.1))
    def test_thermal_swap_matches_full_space_oracle(self, k, phases, nbar, eta, epsilon):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # tail mass past the small cutoffs
            cfg = TeleportConfig(eta=eta, nbar=nbar, epsilon=epsilon, phases=phases, k=k, cutoff=4, cutoff_r=2)
            thermal = cfg.thermal()
        pulse = cfg.analyzer_pulse_spec()
        initial = np.kron(BELL_STATES["phi+"], BELL_STATES["phi+"])
        reference = pair_run(initial, pulse, thermal, cfg.modes())
        self.assert_matches(entanglement_swap(pulse, phases, thermal, cfg.modes()), reference, swap_heralds(k, phases))

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(1, 4), phases=PHASES, epsilon=st.floats(-0.1, 0.1))
    def test_lamb_dicke_swap_is_one_pulse(self, k, phases, epsilon):
        pulse = PulseSpec(phi=phases.phi_a, phi0=phases.phi0_a, k=k, epsilon=epsilon)
        u = ld_pulse_unitary(k, pulse.phi, pulse.phi0, (1 + epsilon) * pulse.area)
        state = np.kron(np.kron(np.eye(2), u), np.eye(2)) @ np.kron(BELL_STATES["phi+"], BELL_STATES["phi+"])
        # rows: outcome of ions 2, 3; columns: level of ions 1, 4
        branches = state.reshape(2, 4, 2).transpose(1, 0, 2).reshape(4, 4)
        reference = np.einsum("oi,oj->oij", branches, branches.conj())
        self.assert_matches(entanglement_swap(pulse, phases), reference, swap_heralds(k, phases))


class TestSwapMoments:
    """The moments swap equals the sector-by-sector register run of
    ``oracle._pair_run`` at the default cutoffs, for pulses whose phases differ
    from the ``PhaseConfig`` and whose area is not pi/4."""

    PHASE = st.floats(-math.pi, math.pi)

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 4), phi=PHASE, phi0=PHASE, phases=TestSwapOracle.PHASES,
           area=st.floats(0.1, 3.0).filter(lambda a: abs(a - math.pi / 4) > 0.1),
           epsilon=st.floats(-0.05, 0.05), nbar=st.floats(0.0, 5.0), eta=st.floats(0.05, 0.3))
    def test_matches_register_run(self, k, phi, phi0, phases, area, epsilon, nbar, eta):
        assume(phi != phases.phi_a and phi0 != phases.phi0_a)
        pulse = PulseSpec(phi=phi, phi0=phi0, k=k, area=area, epsilon=epsilon)
        cfg = TeleportConfig(eta=eta, nbar=nbar)
        initial = np.kron(BELL_STATES["phi+"], BELL_STATES["phi+"])
        heralds = swap_heralds(k, replace(phases, phi_a=phi, phi0_a=phi0))
        for thermal, modes in ((cfg.thermal(), cfg.modes()), (None, None)):
            reference = _pair_run(initial, pulse, thermal, modes)
            TestSwapOracle.assert_matches(entanglement_swap(pulse, phases, thermal, modes), reference, heralds)

    def test_teleport_and_swap_terms_are_cached_apart(self):
        phases = PhaseConfig(phi0_a=0.3)
        key = (2, phases.phi_a, phases.phi0_a)
        teleport, swap = _bell_terms(*key, phases.phi_b), _bell_terms(*key, None)
        assert teleport is _bell_terms(*key, phases.phi_b) and swap is _bell_terms(*key, None)
        assert np.max(np.abs(teleport - swap)) > 0.1


class TestWarmTrap:
    """No Lamb-Dicke assumption: at nbar = 20 the reports converge in the cutoffs."""

    def test_doubled_cutoffs_move_reports_within_tail_budget(self):
        cfg = TeleportConfig(nbar=20.0, eta=0.15, epsilon=0.05)
        doubled = replace(cfg, cutoff=2 * cfg.cutoff, cutoff_r=2 * cfg.cutoff_r, cutoff_b=2 * cfg.cutoff_b)
        for run in (
            lambda c: teleport_fidelity("average", c).aggregate,
            lambda c: channel_fidelity(c.thermal(), c.analyzer_pulse_spec(), c.modes()),
        ):
            assert abs(run(doubled) - run(cfg)) <= 2 * cfg.tail_tol

    def test_sector_guard_stops_a_hot_report_before_allocating(self):
        # nbar 1e4 asks for about 1.2e10 sectors, 97 GB per float array
        cfg = TeleportConfig(nbar=1e4)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"give 12,\d{3},\d{3},\d{3} sectors, more than the limit"):
            teleport_fidelity("average", cfg)
        assert time.perf_counter() - start < 0.5
