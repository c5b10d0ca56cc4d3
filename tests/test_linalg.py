import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsim import linalg
from ionsim.linalg import fidelity, projector
from ionsim.oracle import mat_exp

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


class TestTensor:
    """The tensor order the registers rely on: ``np.kron`` makes the left
    factor the slow index."""

    def test_identity_factors(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_basis_states(self):
        out = np.kron(np.array([1, 0]), np.array([0, 1]))
        assert np.array_equal(out, np.array([0, 1, 0, 0], dtype=complex))

    def test_pauli_x_pair_flips_ground(self):
        xx = np.kron(PAULI_X, PAULI_X)
        assert np.allclose(xx @ np.array([1, 0, 0, 0]), np.array([0, 0, 0, 1]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        left = np.kron(np.kron(a, b), c)
        right = np.kron(a, np.kron(b, c))
        assert np.max(np.abs(left - right)) < 1e-12


class TestMatExp:
    def test_zero_generator(self):
        assert np.allclose(mat_exp(np.zeros((3, 3)), 1.7), np.eye(3), atol=1e-14)

    def test_half_pi_pauli_x(self):
        u = mat_exp(PAULI_X, np.pi / 2)
        assert np.max(np.abs(u - (-1j * PAULI_X))) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_unitary_for_random_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 8)
        t = rng.uniform(0, 10)
        u = mat_exp(h, t)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            mat_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestFidelity:
    def test_pure_state_self_overlap(self):
        rho = projector(random_state(np.random.default_rng(3), 4))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        zero = projector(np.array([1, 0], dtype=complex))
        one = projector(np.array([0, 1], dtype=complex))
        assert fidelity(zero, one) == 0.0

    def test_pure_against_maximally_mixed(self):
        zero = projector(np.array([1, 0], dtype=complex))
        assert fidelity(zero, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.eye(2) / 2, np.eye(3) / 3)

    def test_requires_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            fidelity(np.eye(2), np.eye(2) / 2)

    @pytest.mark.parametrize("bad", [np.full((2, 2), np.nan), np.diag([np.nan, 1.0])])
    def test_rejects_nan(self, bad):
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity(bad, np.eye(2) / 2)
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity(np.eye(2) / 2, bad)



def test_hermitian_check_tolerance():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-13
    assert np.array_equal(linalg._require_hermitian(m, linalg.HERMITIAN_TOL, "m"), m)
    m[0, 1] = 1e-8
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg._require_hermitian(m, linalg.HERMITIAN_TOL, "m")
