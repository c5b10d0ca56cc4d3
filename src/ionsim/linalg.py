"""Dense complex linear algebra: pure-state projectors and trace-overlap
fidelity with Hermiticity and trace checks.

States are plain 1-D complex ndarrays, operators 2-D complex ndarrays.
All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10


def _require_hermitian(m: np.ndarray, tol: float, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if not dev <= tol:
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e} > {tol:.0e})")
    return m


def projector(psi: np.ndarray) -> np.ndarray:
    """Density operator |psi><psi| of a pure state."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace-overlap fidelity Tr(rho sigma), exact when either state is pure."""
    rho = _require_hermitian(rho, HERMITIAN_TOL, "fidelity argument")
    sigma = _require_hermitian(sigma, HERMITIAN_TOL, "fidelity argument")
    if rho.shape != sigma.shape:
        raise ValueError(f"fidelity dimension mismatch: {rho.shape} vs {sigma.shape}")
    for m in (rho, sigma):
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= HERMITIAN_TOL:
            raise ValueError(f"fidelity argument has trace {tr:.6g}, expected 1")
    return clamp_fidelity(float(np.trace(rho @ sigma).real))


def clamp_fidelity(val: float) -> float:
    """A computed fidelity clamped into [0, 1] within a rounding slack of
    1e-9; ValueError beyond it."""
    if not -1e-9 <= val <= 1.0 + 1e-9:
        raise ValueError(f"fidelity {val:.6g} outside [0, 1] beyond rounding slack")
    return min(max(val, 0.0), 1.0)
