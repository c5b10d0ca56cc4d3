"""Seeded inputs and user-level evaluations for the benchmark workloads.

Every input the program sees is drawn here from the workload name and the
seed, so one seed always gives the same points. All points use sideband
order k = 1 and the default phases: even k gives wrong fidelities at this
commit (ideal teleportation returns F = 2/3 for k = 2), so a reference
recorded now would lock in a wrong answer.

A *point* is one user-level evaluation: one fidelity-surface grid point, one
hot-trap teleport report, one swap or entanglement-teleport call, or one
parsed-and-executed pulse script. ``points(name, seed)`` returns the list a
run cycles through; ``evaluate(point)`` runs it and ``record(point, out)``
reduces the result to the numbers the correctness check compares.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

from ionsim import cli, protocol, pulsescript
from ionsim.dynamics import PulseSpec
from ionsim.protocol import TeleportConfig

OUTCOMES = ("dd", "du", "ud", "uu")
WORKLOADS = ("surface", "hot_trap", "entangle", "script")
DEFAULT_SEED = 0

SURFACE_SIDE = 20
HOT_POINTS = 48
#: 51 x 30 sectors and cutoff_b = 48 a point
HOT_NBAR = 3.0
ENTANGLE_POINTS = 16
SCRIPT_POINTS = 64

# Successive multiples of the golden ratio fill [0, 1) evenly for every
# prefix, so a run that stops part-way through its list still covers the
# whole nbar range. The seed jitters each value within its own share of the
# range, so every seed draws different points at the same cost mix.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

ROOT = Path(__file__).resolve().parent.parent
TELEPORT_SCRIPT = ROOT / "scripts" / "teleport.ps"


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _spread(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    u = [min(max((i * _GOLDEN) % 1.0 + (rng.random() - 0.5) / n, 0.0), 1.0) for i in range(n)]
    return [lo + (hi - lo) * x for x in u]


def _state(rng: random.Random, dim: int) -> list[list[float]]:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in v))
    return [[a.real / norm, a.imag / norm] for a in v]


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def _surface(rng: random.Random) -> list[dict]:
    # The CLI default grid nbar = 0..0.2, eta = 0.05..0.25, except that nbar
    # ends at 0.21: at 0.2 half the nbar values lie below a cutoff step and
    # half above, so the median point time flipped between the two steps.
    # The upper ends are jittered by 1%; a wider jitter moves grid points
    # across cutoff steps and changes the cost per seed. Cost depends on nbar
    # only, so nbar varies fastest: a run that stops part-way through a grid
    # still has every nbar about equally often.
    nbar_hi = 0.21 * (1 + rng.uniform(-0.01, 0.01))
    eta_lo = 0.05 * (1 + rng.uniform(-0.01, 0.01))
    eta_hi = 0.25 * (1 + rng.uniform(-0.01, 0.01))
    return [
        {"kind": "teleport", "nbar": float(nb), "eta": float(et), "eps": 0.05}
        for et in np.linspace(eta_lo, eta_hi, SURFACE_SIDE)
        for nb in np.linspace(0.0, nbar_hi, SURFACE_SIDE)
    ]


def _hot_trap(rng: random.Random) -> list[dict]:
    # Every point sits at nbar = HOT_NBAR, where cost does not depend on eta
    # or eps. Drawing nbar from [2, 5] makes point costs differ sixfold, and
    # with the ten to twenty points of a run the median and tail then jumped
    # with the number of points completed.
    return [{"kind": "teleport", "nbar": HOT_NBAR, "eta": rng.uniform(0.1, 0.25), "eps": rng.uniform(0.0, 0.05)}
            for _ in range(HOT_POINTS)]


def _entangle(rng: random.Random) -> list[dict]:
    out = []
    for i, nb in enumerate(_spread(rng, ENTANGLE_POINTS, 0.5, 3.0)):
        p = {"kind": "swap" if i % 2 == 0 else "ent_teleport", "nbar": nb,
             "eta": rng.uniform(0.1, 0.25), "eps": rng.uniform(0.0, 0.05)}
        if p["kind"] == "ent_teleport":
            p["state"] = _state(rng, 4)
        out.append(p)
    return out


def _script_text(rng: random.Random, i: int, n_ions: int) -> str:
    # Length, measurement count, statement kinds, ions, rotation axes and
    # optional keys depend on the script index only: they set how many
    # branches every later statement runs on (a z rotation keeps a measured
    # ion collapsed, so measuring it again leaves empty branches), so drawing
    # them per seed would change the cost per seed. The seed draws angles,
    # areas, phases and imprecisions.
    shape = random.Random(f"script-shape/{i}")
    n_statements = 3 + (7 * i) % 10
    n_measure = min((i // 4) % 4, n_statements)
    kinds = ["measure"] * n_measure + [shape.choice(("pulse", "rotate")) for _ in range(n_statements - n_measure)]
    shape.shuffle(kinds)
    lines = []
    for kind in kinds:
        if kind == "rotate":
            line = (f"rotate ion={shape.randint(1, n_ions)} axis={shape.choice('xyz')} "
                    f"angle={rng.uniform(-math.pi, math.pi)!r}")
            if shape.random() < 0.3:
                line += f" eps={rng.uniform(-0.05, 0.05)!r}"
        else:
            a, b = shape.sample(range(1, n_ions + 1), 2)
            line = f"{kind} ions={a},{b}"
            if kind == "pulse":
                for key, lo, hi in (("k", 1, 1), ("area", 0.1, math.pi), ("phi", -math.pi, math.pi),
                                    ("phi0", -math.pi, math.pi), ("eps", -0.05, 0.05)):
                    if shape.random() < 0.4:
                        line += f" {key}={1 if key == 'k' else rng.uniform(lo, hi)!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _script(rng: random.Random) -> list[dict]:
    # ion 1 carries a random qubit and ions 2, 3 start in |d>, as in the CLI
    qubit = _state(rng, 2)
    zero = [[0.0, 0.0]] * 3
    out = [{"kind": "script", "text": TELEPORT_SCRIPT.read_text(), "n_ions": 3,
            "initial": [qubit[0], *zero, qubit[1], *zero], "probe": _state(rng, 8), "teleport": qubit}]
    for i in range(1, SCRIPT_POINTS):
        n_ions = 3 + i % 4
        out.append({"kind": "script", "text": _script_text(rng, i, n_ions), "n_ions": n_ions,
                    "initial": _state(rng, 2**n_ions), "probe": _state(rng, 2**n_ions)})
    return out


_GENERATORS = {"surface": _surface, "hot_trap": _hot_trap, "entangle": _entangle, "script": _script}


def points(name: str, seed: int) -> list[dict]:
    """The point list of workload ``name`` for ``seed``, as plain data."""
    return _GENERATORS[name](_rng(name, seed))


_VECTORS = ("state", "initial", "probe", "teleport")


def prepare(p: dict) -> dict:
    """A copy of ``p`` with its state vectors as complex arrays, converted
    once so the conversion stays out of the timed evaluation."""
    return {k: _complex(v) if k in _VECTORS else v for k, v in p.items()}


def control_point(name: str) -> dict:
    """An ideal point (nbar = 0, eps = 0, so F = 1) evaluated before timing."""
    if name == "entangle":
        return {"kind": "swap", "nbar": 0.0, "eta": 0.2, "eps": 0.0}
    if name == "script":
        return points("script", DEFAULT_SEED)[0]
    return {"kind": "teleport", "nbar": 0.0, "eta": 0.2, "eps": 0.0}


def _config(p: dict) -> TeleportConfig:
    return TeleportConfig(eta=p["eta"], nbar=p["nbar"], epsilon=p["eps"])


def evaluate(p: dict):
    """Run one prepared point through the public API, as the CLI would."""
    kind = p["kind"]
    if kind == "teleport":
        return protocol.teleport_fidelity("average", _config(p))
    if kind == "ent_teleport":
        return protocol.entanglement_teleport(p["state"], _config(p))
    if kind == "swap":
        cfg = _config(p)
        pulse = PulseSpec(phi=cfg.phases.phi_a, phi0=cfg.phases.phi0_a, epsilon=cfg.epsilon)
        return protocol.entanglement_swap(pulse, cfg.phases, cfg.thermal(), cfg.modes())
    script = pulsescript.parse_pulse_script(p["text"])
    return pulsescript.execute_script(script, p["n_ions"], p["initial"])


def record(p: dict, out) -> dict:
    """The numbers of one result of a prepared point that the correctness
    check compares."""
    kind = p["kind"]
    if kind in ("teleport", "ent_teleport"):
        return {"p": [out.outcome_probs[o] for o in OUTCOMES],
                "F": [out.outcome_fidelities[o] for o in OUTCOMES],
                "agg": out.aggregate}
    if kind == "swap":
        by_label = {oc.label: oc for oc in out}
        ps = [by_label[o].probability for o in OUTCOMES]
        fs = [by_label[o].fidelity for o in OUTCOMES]
        return {"p": ps, "F": fs, "agg": sum(a * b for a, b in zip(ps, fs))}
    probe = p["probe"]
    rec = {"p": [], "labels": [], "norm": [], "probe": []}
    for b in out.branches:
        rec["p"].append(b.probability)
        rec["labels"].append(" ".join(f"{i},{j}:{lab}" for (i, j), lab in b.outcomes))
        if b.amplitudes is None:
            rec["norm"].append(0.0)
            rec["probe"].append([0.0, 0.0])
        else:
            z = complex(np.vdot(probe, b.amplitudes))
            rec["norm"].append(float(np.vdot(b.amplitudes, b.amplitudes).real))
            rec["probe"].append([z.real, z.imag])
    if "teleport" in p:
        rec["corrected"] = _teleport_script_fidelities(p, out)
    return rec


# Pauli correction on ion 3 per outcome of measuring ions 1, 2 (k = 1).
_PAULI = {
    "dd": np.array([[1, 0], [0, -1]], dtype=complex),
    "du": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "ud": np.array([[0, 1], [1, 0]], dtype=complex),
    "uu": np.eye(2, dtype=complex),
}


def _teleport_script_fidelities(p: dict, out) -> list[float]:
    """Corrected fidelity of ion 3 with the input qubit on every non-empty
    branch of the teleport script, computed without the program's
    correction code."""
    q = p["teleport"]
    fids = []
    for b in out.branches:
        if b.amplitudes is None:
            continue
        label = b.outcomes[-1][1]
        v = b.amplitudes.reshape(4, 2)[OUTCOMES.index(label)]
        fids.append(abs(np.vdot(q, _PAULI[label] @ v)) ** 2)
    return fids


def write_surface(rows: list[dict], path: Path, seed: int) -> None:
    """Write surface rows through the CLI's table writer, as the
    ``fidelity-surface`` command does."""
    meta = {"command": "fidelity-surface", "eps": 0.05, "input_state": "average", "seed": seed}
    cli.write_table(rows, ["nbar", "eta", "fidelity"], meta, "csv", str(path))
