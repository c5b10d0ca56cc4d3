import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsim.dynamics import PAULI, PulseSpec, carrier_rotation, ld_pulse_unitary, mixing_operator
from ionsim.motional import ModeParams, rabi_grid
from ionsim.oracle import (
    _pair_generator,
    build_heff,
    debye_waller_rotation,
    laguerre,
    oracle_evolve,
    sector_unitary,
)

MODES = ModeParams(eta=0.15)

S_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |u><d| in basis (d, u)


def pair_hamiltonian_oracle(k, phi, phi0, omega):
    """Independent construction of the sector generator from raw raising and
    lowering operators, drive sign (-1)**k included."""
    sp_sp = np.kron(S_PLUS, S_PLUS)
    sp_sm = np.kron(S_PLUS, S_PLUS.conj().T)
    half = sp_sp * np.exp(2j * phi) + (-1) ** k * (sp_sm * np.exp(1j * phi0) + 0.5 * np.eye(4))
    return (-1) ** k * omega * (half + half.conj().T)


def sector_block(h, elec_i, elec_j, sector, n_sectors):
    return h[elec_i * n_sectors + sector, elec_j * n_sectors + sector]


class TestSectorUnitary:
    def test_zero_time_is_identity(self):
        u = sector_unitary(1, 0.3, 1.1, -0.9, 0.0)
        assert np.array_equal(u, np.eye(4, dtype=complex))

    def test_quarter_pulse_prepares_bell_pair(self):
        phi = 5 * math.pi / 4
        omega = rabi_grid(1, 0, 0, MODES)[0, 0]
        pulse = PulseSpec(phi=phi, phi0=-math.pi / 2, k=1, area=math.pi / 4)
        out = sector_unitary(1, pulse.phi, pulse.phi0, omega, pulse.duration(omega)) @ np.array([1, 0, 0, 0])
        expected = (
            np.exp(1j * math.pi / 4)
            * np.array([1, 0, 0, -1j * np.exp(2j * phi)], dtype=complex)
            / math.sqrt(2)
        )
        assert np.max(np.abs(out - expected)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 2), st.integers(0, 6), st.integers(0, 6),
        st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi), st.floats(0.0, 8.0),
    )
    def test_matches_expm_of_raw_generator(self, k, n, n_r, phi, phi0, t):
        omega = rabi_grid(k, n, n_r, MODES)[n, n_r]
        u = sector_unitary(k, phi, phi0, omega, t)
        ref = scipy.linalg.expm(-1j * pair_hamiltonian_oracle(k, phi, phi0, omega) * t)
        assert np.max(np.abs(u - ref)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 4), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
        st.floats(-0.1, 0.1), st.integers(0, 2**31),
    )
    def test_batch_matches_scalar_calls_and_full_oracle(self, k, phi, phi0, eps, seed):
        pulse = PulseSpec(phi=phi, phi0=phi0, k=k, epsilon=eps)
        omega = np.random.default_rng(seed).uniform(-1.5, 1.5, size=9)
        t = pulse.duration(omega[0])
        stacked = np.array([sector_unitary(k, phi, phi0, w, t) for w in omega])
        assert np.max(np.abs(sector_unitary(k, phi, phi0, omega, t) - stacked)) <= 1e-15

        cutoff, cutoff_r = 4, 2
        omega = np.array([rabi_grid(k, n, n_r, MODES)[n, n_r]
                          for n in range(cutoff + 1) for n_r in range(cutoff_r + 1)])
        t = pulse.duration(omega[0])
        n_sectors = len(omega)
        h = build_heff(k, MODES, phi, phi0, cutoff=cutoff, cutoff_r=cutoff_r)
        full = oracle_evolve(np.eye(4 * n_sectors), h, t).reshape(4, n_sectors, 4, n_sectors)
        blocks = np.array([full[:, s, :, s] for s in range(n_sectors)])
        assert np.max(np.abs(sector_unitary(k, phi, phi0, omega, t) - blocks)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 4), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
        st.floats(-3.0, 3.0),
    )
    def test_is_phase_times_rotation_about_mixing_operator(self, k, phi, phi0, a):
        # omega = drive_sign(k) a at t = 1 makes a the signed mixing angle
        m = mixing_operator(k, phi, phi0)
        assert np.array_equal(m, m.conj().T)
        assert np.max(np.abs(m @ m - np.eye(4))) <= 1e-15
        u = sector_unitary(k, phi, phi0, (-1) ** k * a, 1.0)
        rotation = math.cos(a) * np.eye(4) - 1j * math.sin(a) * m
        assert np.max(np.abs(u - np.exp(-1j * (-1) ** k * a) * rotation)) <= 1e-15

    def test_parity_blocks_never_mix(self):
        u = sector_unitary(1, 0.7, 2.1, -0.95, 3.3)
        even = [0, 3]
        odd = [1, 2]
        for i in even:
            for j in odd:
                assert u[i, j] == 0.0
                assert u[j, i] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 3), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi),
        st.floats(-1.0, 1.0), st.floats(0.0, 10.0),
    )
    def test_unitary(self, k, phi, phi0, omega, t):
        u = sector_unitary(k, phi, phi0, omega, t)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9

    def test_semigroup_property(self):
        args = (1, 0.9, -0.4, -0.83)
        u1 = sector_unitary(*args, 1.3)
        u2 = sector_unitary(*args, 2.45)
        both = sector_unitary(*args, 1.3 + 2.45)
        assert np.max(np.abs(u1 @ u2 - both)) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        out = sector_unitary(2, 1.0, 2.0, -0.7, 4.2) @ v
        assert abs(np.linalg.norm(out) - 1) < 1e-10


class TestSectorEvolve:
    def test_reference_sector_gets_exact_area(self):
        # with eps = 0 the reference sector mixes by exactly the target area
        pulse = PulseSpec(phi=0.0, phi0=0.0, k=1, area=0.37)
        omega = rabi_grid(1, 0, 0, MODES)[0, 0]
        out = sector_unitary(1, pulse.phi, pulse.phi0, omega, pulse.duration(omega)) @ np.array([1, 0, 0, 0])
        assert abs(abs(out[0]) - math.cos(0.37)) < 1e-12
        assert abs(abs(out[3]) - math.sin(0.37)) < 1e-12

    def test_imprecision_scales_area(self):
        pulse = PulseSpec(phi=0.0, phi0=0.0, k=1, area=0.37, epsilon=0.05)
        omega = rabi_grid(1, 0, 0, MODES)[0, 0]
        out = sector_unitary(1, pulse.phi, pulse.phi0, omega, pulse.duration(omega)) @ np.array([1, 0, 0, 0])
        assert abs(abs(out[0]) - math.cos(0.37 * 1.05)) < 1e-12

    def test_zero_reference_rejected(self):
        pulse = PulseSpec(phi=0.0, phi0=0.0)
        with pytest.raises(ValueError, match="reference Rabi"):
            sector_unitary(1, pulse.phi, pulse.phi0, -0.9, pulse.duration(0.0)) @ np.array([1, 0, 0, 0])

    @pytest.mark.parametrize("k", [0, -1, 1.5, True])
    def test_pulse_spec_rejects_order_below_one(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            PulseSpec(phi=0.0, phi0=0.0, k=k)

    def test_pulse_spec_validation(self):
        with pytest.raises(ValueError):
            PulseSpec(phi=0.0, phi0=0.0, area=0.0)
        with pytest.raises(ValueError):
            PulseSpec(phi=0.0, phi0=0.0, epsilon=-1.0)
        with pytest.raises(ValueError):
            PulseSpec(phi=0.0, phi0=0.0, k=-1)

    @pytest.mark.parametrize("field", ["phi", "phi0", "area", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_pulse_spec_rejects_non_finite(self, field, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{field} must be finite"):
                PulseSpec(**{"phi": 0.0, "phi0": 0.0, field: value})


class TestBuildHeff:
    def test_hermitian(self):
        h = build_heff(1, MODES, 0.4, 1.9, cutoff=4)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_diagonal_in_fock_labels(self):
        cutoff = 3
        h = build_heff(1, MODES, 0.4, 1.9, cutoff=cutoff)
        n_sectors = (cutoff + 1) ** 2
        t = h.reshape(4, n_sectors, 4, n_sectors)
        off = t - np.einsum("isjs,st->isjt", t, np.eye(n_sectors))
        assert np.count_nonzero(off) == 0

    def test_block_eigenfrequencies(self):
        cutoff = 3
        k = 1
        h = build_heff(k, MODES, 0.4, 1.9, cutoff=cutoff)
        n_sectors = (cutoff + 1) ** 2
        for n in range(cutoff + 1):
            for n_r in range(cutoff + 1):
                s = n * (cutoff + 1) + n_r
                block = np.array(
                    [
                        [sector_block(h, 0, 0, s, n_sectors), sector_block(h, 0, 3, s, n_sectors)],
                        [sector_block(h, 3, 0, s, n_sectors), sector_block(h, 3, 3, s, n_sectors)],
                    ]
                )
                v = rabi_grid(k, n, n_r, MODES)[n, n_r]
                expected = sorted([v - abs(v), v + abs(v)])
                got = sorted(np.linalg.eigvalsh(block))
                assert np.allclose(got, expected, atol=1e-12)

    def test_cutoff_below_sideband_order_rejected(self):
        with pytest.raises(ValueError):
            build_heff(2, MODES, 0.0, 0.0, cutoff=1)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 2), st.integers(0, 3), st.integers(0, 3),
        st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi), st.floats(0.0, 6.0),
    )
    def test_sector_evolution_matches_full_oracle(self, k, n, n_r, phi, phi0, t):
        cutoff = 3
        h = build_heff(k, MODES, phi, phi0, cutoff=cutoff)
        rng = np.random.default_rng(7)
        elec = rng.normal(size=4) + 1j * rng.normal(size=4)
        elec /= np.linalg.norm(elec)
        n_sectors = (cutoff + 1) ** 2
        s = n * (cutoff + 1) + n_r
        fock = np.zeros(n_sectors)
        fock[s] = 1.0
        full = np.kron(elec, fock)
        evolved = oracle_evolve(full, h, t)
        got = evolved.reshape(4, n_sectors)[:, s]
        expected = sector_unitary(k, phi, phi0, rabi_grid(k, n, n_r, MODES)[n, n_r], t) @ elec
        assert np.max(np.abs(got - expected)) < 1e-9


class TestLambDickeHamiltonian:
    def test_hermitian(self):
        h = _pair_generator(1, 0.2, 1.4)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_quarter_pulse_matches_sector_evolution(self):
        phi, phi0 = 0.8, -0.3
        u_exp = scipy.linalg.expm(-1j * _pair_generator(1, phi, phi0) * (math.pi / 4))
        # Lamb-Dicke limit of the first sideband: scaled bracket -> -1
        u_sector = sector_unitary(1, phi, phi0, -1.0, math.pi / 4)
        assert np.max(np.abs(u_exp - u_sector)) < 1e-9
        assert np.max(np.abs(u_exp - ld_pulse_unitary(1, phi, phi0, math.pi / 4))) < 1e-9

    def test_quarter_pulse_squares_to_half_pulse(self):
        u4 = ld_pulse_unitary(1, 0.8, -0.3, math.pi / 4)
        u2 = ld_pulse_unitary(1, 0.8, -0.3, math.pi / 2)
        assert np.max(np.abs(u4 @ u4 - u2)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
        st.floats(-10.0, 10.0),
    )
    def test_equals_sector_unitary_at_unit_bracket(self, k, phi, phi0, theta):
        # the Lamb-Dicke pulse is the sector unitary of bracket -1 run for theta
        u = ld_pulse_unitary(k, phi, phi0, theta)
        assert np.max(np.abs(u - sector_unitary(k, phi, phi0, -1.0, theta))) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.6])
    def test_ground_bracket_is_negative(self, k, eta):
        assert rabi_grid(k, 0, 0, ModeParams(eta=eta))[0, 0] < 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_thermal_pulse_in_ground_sector(self, k):
        # the calibrated ground-sector pulse of the thermal path
        pulse = PulseSpec(phi=0.8, phi0=-0.3, k=k, epsilon=0.03)
        omega = rabi_grid(k, 0, 0, MODES)[0, 0]
        thermal = sector_unitary(k, pulse.phi, pulse.phi0, omega, pulse.duration(omega))
        ld = ld_pulse_unitary(k, pulse.phi, pulse.phi0, 1.03 * math.pi / 4)
        assert np.max(np.abs(ld - thermal)) < 1e-12


class TestCarrierRotation:
    def test_zero_angle(self):
        assert np.array_equal(carrier_rotation("x", 0.0), np.eye(2, dtype=complex))

    def test_z_pi_ground_sector(self):
        u = carrier_rotation("z", math.pi)
        ratio = u / u[0, 0]
        assert np.allclose(ratio, np.diag([1, -1]), atol=1e-12)

    def test_debye_waller_scaling(self):
        theta = math.pi * laguerre(3, 0, 0.2**2)
        expected = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * PAULI["x"]
        got = debye_waller_rotation("x", math.pi, 3, 0.2)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_unitary(self):
        for axis in "xyz":
            u = debye_waller_rotation(axis, 2.2, 5, 0.25, epsilon=0.03)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from("xyz"), st.floats(-7.0, 7.0), st.floats(0.0, 0.5), st.floats(-0.1, 0.1))
    def test_is_debye_waller_rotation_of_ground_level(self, axis, angle, eta, eps):
        # L_0 = 1: the calibrated level n = 0 rotates by the nominal angle
        expected = debye_waller_rotation(axis, angle, 0, eta, eps)
        assert np.array_equal(carrier_rotation(axis, angle, eps), expected)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            carrier_rotation("q", 1.0)


class TestOracleEvolve:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        h = np.diag(np.arange(8.0)).astype(complex)
        assert np.allclose(oracle_evolve(v, h, 0.0), v, atol=1e-14)

    def test_norm_preserved(self):
        rng = np.random.default_rng(13)
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (h + h.conj().T) / 2
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        out = oracle_evolve(v, h, 2.7)
        assert abs(np.linalg.norm(out) - 1) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            oracle_evolve(np.ones(4, dtype=complex), np.eye(8, dtype=complex), 1.0)
