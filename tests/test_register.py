import itertools

import numpy as np
import pytest

from ionsim.register import OUTCOMES, apply, collapse_pair, split_pair


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def embed(op, qubits, n_qubits):
    """Full 2**n operator acting as ``op`` on ``qubits`` (the first one the
    slower index of ``op``) and as the identity elsewhere, built entry by
    entry from the register's bit layout (ion 1 the most significant bit)."""
    dim = 2**n_qubits
    bits = [[(x >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)] for x in range(dim)]
    full = np.zeros((dim, dim), dtype=complex)
    for x, y in itertools.product(range(dim), repeat=2):
        if any(bits[x][q] != bits[y][q] for q in range(n_qubits) if q not in qubits):
            continue
        row = int("".join(str(bits[x][q]) for q in qubits), 2)
        col = int("".join(str(bits[y][q]) for q in qubits), 2)
        full[x, y] = op[row, col]
    return full


def test_embedding_matches_kron_for_adjacent_pair():
    op = np.arange(16).reshape(4, 4).astype(complex)
    expected = np.kron(np.kron(np.eye(2), op), np.eye(4))
    assert np.array_equal(embed(op, (1, 2), 5), expected)


@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6])
def test_apply_equals_embedded_operator(n_qubits):
    rng = np.random.default_rng(n_qubits)
    targets = [(q,) for q in range(n_qubits)] + list(itertools.permutations(range(n_qubits), 2))
    for qubits in targets:
        d = 2 ** len(qubits)
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        psi = random_state(rng, 2**n_qubits)
        got = apply(op, psi, qubits, n_qubits)
        assert np.allclose(got, embed(op, qubits, n_qubits) @ psi, rtol=0, atol=1e-13), qubits


@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6])
def test_collapse_equals_project_and_renormalise(n_qubits):
    rng = np.random.default_rng(100 + n_qubits)
    for pair in itertools.permutations(range(n_qubits), 2):
        psi = random_state(rng, 2**n_qubits)
        probs, collapsed = collapse_pair(psi, pair, n_qubits)
        rest = split_pair(psi, pair, n_qubits)
        assert rest.shape == (4, 2 ** (n_qubits - 2))
        for o, label in enumerate(OUTCOMES):
            projected = embed(np.diag(np.eye(4)[o]), pair, n_qubits) @ psi
            p = np.vdot(projected, projected).real
            assert probs[o] == pytest.approx(p, abs=1e-14)
            assert np.vdot(rest[o], rest[o]).real == pytest.approx(p, abs=1e-14)
            assert np.allclose(collapsed[o], projected / np.sqrt(p), rtol=0, atol=1e-13), (pair, label)


def test_empty_outcome_collapses_to_zero():
    psi = np.zeros(8, dtype=complex)
    psi[0b010] = 1.0
    probs, collapsed = collapse_pair(psi, (0, 1), 3)
    assert probs.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert np.array_equal(collapsed[1], psi)
    assert not collapsed[[0, 2, 3]].any()
