"""Correctness check of one point's record.

A point passes when its record satisfies the physical invariants and, where
a reference was recorded for the seed, matches it to 1e-12 absolute. A
mismatch makes the point count as failed; it never aborts the run.
"""

from __future__ import annotations

import json
from pathlib import Path

TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(seed: int) -> Path:
    return REFERENCE_DIR / f"seed{seed}.json"


def load_reference(name: str, seed: int) -> list[dict] | None:
    """Recorded records of workload ``name`` for ``seed``, or None."""
    path = reference_path(seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())[name]


def _close(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, str):
        return a == b
    return abs(a - b) <= TOL


def invariant_errors(point: dict, rec: dict) -> list[str]:
    """Invariants every seed must meet: probabilities sum to one, every
    fidelity lies in [0, 1], the aggregate is sum p F, ideal points give F = 1
    and script branches stay normalized."""
    errors = []
    if abs(sum(rec["p"]) - 1.0) > TOL:
        errors.append(f"probabilities sum to {sum(rec['p'])!r}")
    fids = rec.get("F", [])
    if any(not 0.0 <= f <= 1.0 for f in fids):
        errors.append(f"fidelity outside [0, 1]: {fids}")
    if "agg" in rec and abs(rec["agg"] - sum(p * f for p, f in zip(rec["p"], fids))) > TOL:
        errors.append(f"aggregate {rec['agg']!r} is not sum p F")
    ideal = point.get("nbar") == 0.0 and point.get("eps") == 0.0
    if ideal and any(abs(f - 1.0) > TOL for f in fids + [rec.get("agg", 1.0)]):
        errors.append(f"ideal point has fidelity {fids} aggregate {rec.get('agg')!r}")
    if any(abs(f - 1.0) > TOL for f in rec.get("corrected", [])):
        errors.append(f"teleport script has corrected fidelities {rec['corrected']}")
    for p, norm in zip(rec["p"], rec.get("norm", [])):
        if p > 0 and abs(norm - 1.0) > TOL:
            errors.append(f"branch of probability {p!r} has norm {norm!r}")
    return errors


def check(point: dict, rec: dict, ref: dict | None = None) -> list[str]:
    """Every reason ``rec`` is wrong; empty when the point passes."""
    errors = invariant_errors(point, rec)
    if ref is not None and not _close(ref, rec):
        errors.append("does not match the recorded reference")
    return errors
