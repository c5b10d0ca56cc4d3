"""Layout of an electronic register of n ions, shared by the teleportation
pipeline and the pulse-script executor.

A register is a vector of 2**n amplitudes with ion 1 the slowest index and,
on every ion, d (index 0) before u (index 1). Measuring a pair of ions has
the four outcomes ``OUTCOMES``, the first ion's level first.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Measurement outcome labels in fixed order; d = lower level, first ion first.
OUTCOMES = ("dd", "du", "ud", "uu")

#: An outcome of at most this probability is empty.
EMPTY_PROB = 1e-14


@lru_cache(maxsize=None)
def _axes(qubits: tuple[int, ...], n_qubits: int, lead: int = 0) -> tuple[tuple, tuple]:
    """Axis order that brings ``qubits`` to the front of a register, and its
    inverse, both behind ``lead`` leading axes that stay in place."""
    front = qubits + tuple(q for q in range(n_qubits) if q not in qubits)
    back = tuple(front.index(q) for q in range(n_qubits))
    keep = tuple(range(lead))
    return keep + tuple(lead + a for a in front), keep + tuple(lead + a for a in back)


def _front(amps: np.ndarray, qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Amplitudes as a (2**len(qubits), 2**(n-len(qubits))) matrix whose row
    indexes ``qubits``; the remaining qubits keep their order."""
    t = amps.reshape((2,) * n_qubits).transpose(_axes(qubits, n_qubits)[0])
    return t.reshape(2 ** len(qubits), -1)


def _back(t: np.ndarray, qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Inverse of ``_front`` on the last two axes of ``t``; leading axes of
    independent registers are kept."""
    lead = t.shape[:-2]
    t = t.reshape(lead + (2,) * n_qubits).transpose(_axes(qubits, n_qubits, len(lead))[1])
    return t.reshape(lead + (-1,))


def apply(op: np.ndarray, amps: np.ndarray, qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Apply a 2x2 operator to ``qubits = (q,)`` or a 4x4 operator to
    ``qubits = (i, j)``, with i's level the slower index of the operator."""
    return _back(op @ _front(amps, qubits, n_qubits), qubits, n_qubits)


def split_pair(amps: np.ndarray, pair: tuple[int, int], n_qubits: int) -> np.ndarray:
    """Unnormalised remaining-ion vectors, one row per outcome of measuring
    ``pair`` in ``OUTCOMES`` order, as a (4, 2**(n-2)) array that may share
    memory with ``amps``."""
    return _front(amps, pair, n_qubits)


def collapse_pair(
    amps: np.ndarray, pair: tuple[int, int], n_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of the four outcomes of measuring ``pair`` and the four
    collapsed, renormalised registers (rows of a (4, 2**n) array). The
    register of an empty outcome is zero."""
    v = split_pair(amps, pair, n_qubits)
    probs = np.einsum("oi,oi->o", v.conj(), v).real
    scale = np.divide(1.0, np.sqrt(probs), out=np.zeros(4), where=probs > EMPTY_PROB)
    full = np.zeros((4, 4, v.shape[1]), dtype=complex)
    full[range(4), range(4)] = v * scale[:, None]
    return probs, _back(full, pair, n_qubits)
