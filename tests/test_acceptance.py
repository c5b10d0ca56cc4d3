"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or in the captured-output block).

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest

from ionsim import oracle
from ionsim.dynamics import PulseSpec, carrier_rotation, ld_pulse_unitary, sector_unitary
from ionsim.motional import ModeParams, cutoff_for, matched_nbar_r, rabi_grid, thermal_distribution
from ionsim.protocol import (
    BELL_STATES,
    OUTCOMES,
    PhaseConfig,
    TeleportConfig,
    channel_fidelity,
    entanglement_swap,
    teleport_fidelity,
)

NBAR_GRID = [float(v) for v in np.linspace(0.0, 0.2, 20)]
ETA_GRID = [float(v) for v in np.linspace(0.05, 0.25, 20)]


def report(criterion: int, description: str, ok: bool) -> None:
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def surface_min(eps: float, cutoff_scale: int = 1) -> tuple[float, dict]:
    """Aggregate teleportation fidelity over the reproduction grid; returns
    the minimum and the full surface keyed by (nbar, eta)."""
    surface = {}
    for nbar in NBAR_GRID:
        for eta in ETA_GRID:
            kwargs = {}
            if cutoff_scale != 1:
                base = TeleportConfig(nbar=nbar, eta=eta)
                kwargs = {
                    "cutoff": cutoff_scale * max(1, base.cutoff),
                    "cutoff_r": cutoff_scale * max(1, base.cutoff_r),
                    "cutoff_b": cutoff_scale * max(1, base.cutoff_b),
                }
            cfg = TeleportConfig(nbar=nbar, eta=eta, epsilon=eps, **kwargs)
            surface[(nbar, eta)] = teleport_fidelity("average", cfg).aggregate
    return min(surface.values()), surface


@pytest.fixture(scope="module")
def exact_surface():
    return surface_min(0.0)


@pytest.fixture(scope="module")
def imprecise_surface():
    return surface_min(0.05)


def test_criterion_1_matched_occupation():
    got = [matched_nbar_r(nb, math.sqrt(3)) for nb in (0.2, 1.0, 5.0)]
    ok = (
        abs(got[0] - 0.047) <= 1e-3
        and abs(got[1] - 0.43) <= 5e-3
        and abs(got[2] - 2.69) <= 5e-3
    )
    report(1, f"shared-temperature occupations {[round(v, 4) for v in got]} "
              "match 0.047/0.43/2.69", ok)


def test_criterion_2_channel_fidelity():
    targets = [(0.2, 0.999, 2e-3), (1.0, 0.988, 4e-3), (5.0, 0.880, 1e-2)]
    phases = PhaseConfig()
    pulse = PulseSpec(phi=phases.phi_b, phi0=phases.phi0_b)
    details = []
    ok = True
    for nbar, target, tol in targets:
        nbar_r = matched_nbar_r(nbar)
        thermal = thermal_distribution(
            nbar, nbar_r, cutoff_for(nbar, 5e-7), cutoff_for(nbar_r, 5e-7)
        )
        values = {
            eta: channel_fidelity(thermal, pulse, ModeParams(eta=eta))
            for eta in (0.15, 0.2)
        }
        hit = any(abs(v - target) <= tol for v in values.values())
        ok = ok and hit
        details.append(f"nbar={nbar}: {min(values.values()):.4f}..{max(values.values()):.4f}")
    report(2, "channel fidelity matches 0.999/0.988/0.880 at eta 0.15 or 0.2 "
              f"({'; '.join(details)})", ok)


def test_criterion_3_ideal_reliability():
    cfg = TeleportConfig(nbar=0.0, eta=0.2)
    rng = np.random.default_rng(2026)
    worst_f = 1.0
    worst_p = 0.0
    for _ in range(100):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        result = teleport_fidelity(f"{v[0]},{v[1]}", cfg)
        worst_f = min(worst_f, result.aggregate)
        worst_p = max(worst_p, max(abs(p - 0.25) for p in result.outcome_probs.values()))
    ok = abs(worst_f - 1.0) <= 1e-12 and worst_p <= 1e-10
    report(3, f"100 random inputs teleport exactly (min F = {worst_f:.3e}, "
              f"max |p - 1/4| = {worst_p:.3e})", ok)


def test_criterion_4_fidelity_floors(exact_surface, imprecise_surface):
    min_exact, _ = exact_surface
    min_imprecise, _ = imprecise_surface
    ok = min_exact >= 0.980 and min_imprecise >= 0.970
    report(4, f"surface floors: min F(eps=0) = {min_exact:.4f} >= 0.980, "
              f"min F(eps=0.05) = {min_imprecise:.4f} >= 0.970", ok)


def test_criterion_5_oracle_equivalence():
    modes = ModeParams(eta=0.2)
    cutoff = 6
    n_sectors = (cutoff + 1) ** 2
    rng = np.random.default_rng(514)
    worst = 0.0
    for _ in range(20):
        phi = rng.uniform(0, 2 * math.pi)
        phi0 = rng.uniform(0, 2 * math.pi)
        t = rng.uniform(0.0, 6.0)
        for k in (1, 2):
            h = oracle.build_heff(k, modes, phi, phi0, cutoff=cutoff)
            u_full = oracle.mat_exp(h, t).reshape(4, n_sectors, 4, n_sectors)
            for n in range(cutoff + 1):
                for n_r in range(cutoff + 1):
                    s = n * (cutoff + 1) + n_r
                    block = u_full[:, s, :, s]
                    direct = sector_unitary(k, phi, phi0, rabi_grid(k, n, n_r, modes)[n, n_r], t)
                    worst = max(worst, float(np.max(np.abs(block - direct))))
    ok = worst < 1e-9
    report(5, f"sector evolution vs full-space exponential: max deviation {worst:.3e}", ok)


def test_criterion_6_analyzer_bijectivity():
    phases = PhaseConfig()
    u = ld_pulse_unitary(1, phases.phi_a, phases.phi0_a, math.pi / 4)
    hits = {}
    ok = True
    for name, bell in BELL_STATES.items():
        image = u @ bell
        mags = np.abs(image)
        idx = int(np.argmax(mags))
        others = np.delete(mags, idx)
        ok = ok and abs(mags[idx] - 1.0) <= 1e-10 and np.max(others) <= 1e-10
        hits[name] = OUTCOMES[idx]
    ok = ok and len(set(hits.values())) == 4
    report(6, f"pi/4 pulse maps Bell basis to products bijectively ({hits})", ok)


def test_criterion_7_entanglement_swap():
    outcomes = entanglement_swap()
    ok = True
    for oc in outcomes:
        ok = ok and abs(oc.probability - 0.25) <= 1e-10 and abs(oc.fidelity - 1.0) <= 1e-12
    labels = {oc.label: oc.herald for oc in outcomes}
    ok = ok and labels == {"uu": "phi+", "dd": "phi-", "ud": "psi+", "du": "psi-"}
    report(7, f"ideal swap heralds {labels} with p = 1/4 and unit fidelity", ok)


def test_criterion_8_structural_invariants():
    modes = ModeParams(eta=0.2)
    checks = []

    # Hermiticity of built generators
    for k in (1, 2):
        h = oracle.build_heff(k, modes, 0.7, -1.1, cutoff=4)
        checks.append(float(np.max(np.abs(h - h.conj().T))) < 1e-12)
    h_ld = oracle._pair_generator(1, 0.7, -1.1)
    checks.append(float(np.max(np.abs(h_ld - h_ld.conj().T))) < 1e-12)

    # unitarity of every pulse family
    rng = np.random.default_rng(81)
    worst_u = 0.0
    for _ in range(50):
        k = int(rng.integers(0, 3))
        u = sector_unitary(k, rng.uniform(0, 7), rng.uniform(0, 7), rng.uniform(-1, 1),
                           rng.uniform(0, 9))
        worst_u = max(worst_u, float(np.max(np.abs(u.conj().T @ u - np.eye(4)))))
        r = carrier_rotation("xyz"[k % 3], rng.uniform(0, 7), n=int(rng.integers(0, 9)),
                             eta_local=rng.uniform(0, 0.3), epsilon=rng.uniform(-0.1, 0.1))
        worst_u = max(worst_u, float(np.max(np.abs(r.conj().T @ r - np.eye(2)))))
    checks.append(worst_u < 1e-9)

    # Fock-label diagonality: exact zeros off the sector diagonal
    cutoff = 3
    n_sectors = (cutoff + 1) ** 2
    t = oracle.build_heff(1, modes, 0.3, 0.9, cutoff=cutoff).reshape(4, n_sectors, 4, n_sectors)
    mask = ~np.eye(n_sectors, dtype=bool)
    checks.append(not np.any(t.transpose(0, 2, 1, 3)[:, :, mask]))
    # parity blocks: exact zeros between {dd, uu} and {du, ud}
    u = sector_unitary(1, 0.6, 1.9, -0.9, 2.2)
    checks.append(all(u[i, j] == 0 and u[j, i] == 0 for i in (0, 3) for j in (1, 2)))

    # thermal normalization
    spec = thermal_distribution(1.3, 0.4, cutoff=40, cutoff_r=40)
    checks.append(abs(float(spec.weights.sum()) - 1.0) < 1e-14)

    # no coupling without exchanged phonons
    checks.append(all(
        rabi_grid(0, n, n_r, modes)[n, n_r] == 0.0 for n in range(8) for n_r in range(8)
    ))
    checks.append(oracle.coupling_factor(0, 0, 0, modes) > 0)

    ok = all(checks)
    report(8, f"structural invariants ({sum(checks)}/{len(checks)} checks)", ok)


def test_criterion_9_convergence(exact_surface):
    # channel fidelity under doubled cutoffs
    phases = PhaseConfig()
    pulse = PulseSpec(phi=phases.phi_b, phi0=phases.phi0_b)
    worst_channel = 0.0
    for nbar in (0.2, 1.0, 5.0):
        nbar_r = matched_nbar_r(nbar)
        for eta in (0.15, 0.2):
            modes = ModeParams(eta=eta)
            values = []
            for scale in (1, 2):
                thermal = thermal_distribution(
                    nbar, nbar_r,
                    scale * cutoff_for(nbar, 5e-7),
                    scale * cutoff_for(nbar_r, 5e-7),
                )
                values.append(channel_fidelity(thermal, pulse, modes))
            worst_channel = max(worst_channel, abs(values[0] - values[1]))

    # teleportation surface under doubled cutoffs
    _, base_surface = exact_surface
    _, doubled_surface = surface_min(0.0, cutoff_scale=2)
    worst_surface = max(
        abs(base_surface[key] - doubled_surface[key]) for key in base_surface
    )
    ok = worst_channel < 1e-6 and worst_surface < 1e-6
    report(9, f"doubled cutoffs shift channel fidelity by {worst_channel:.2e} "
              f"and the surface by {worst_surface:.2e}", ok)
