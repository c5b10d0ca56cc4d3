"""Command-line front end.

Subcommands: rabi-surface, channel-fidelity, teleport, fidelity-surface,
swap, run-script. Tables are emitted as CSV (with a ``# key=value`` metadata
comment block) or as one JSON object with ``meta`` and ``rows``; the report
commands print JSON alone when ``--format json`` comes without ``--out``.
Flag values override config-file values, which override built-in defaults;
config files are flat ``key = value`` text. Every run is a
:class:`~ionsim.protocol.TeleportConfig`, which resolves the derived
parameters and rejects invalid ones; rows follow grid order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import linalg, protocol
from .motional import ModeParams, rabi_frequency
from .protocol import InputQubit, OutcomeState, PhaseConfig, TeleportConfig
from .register import OUTCOMES, split_pair
from .pulsescript import (
    MeasureStatement,
    RotateStatement,
    ScriptError,
    execute_script,
    parse_pulse_script,
)

DEFAULTS = {
    "eta": 0.2,
    "eta_r": None,
    "nbar": 0.0,
    "eps": 0.0,
    "k": 1,
    "phi": None,
    "phi0": protocol.DEFAULT_PHI0,
    "cutoff": None,
    "tail_tol": 1e-6,
    "input_state": "average",
    "format": "csv",
    "out": None,
    "seed": None,
    "grid": None,
}

_CASTS = {
    "eta": float,
    "eta_r": float,
    "nbar": str,
    "eps": float,
    "k": int,
    "phi": float,
    "phi0": float,
    "cutoff": int,
    "tail_tol": float,
    "input_state": str,
    "format": str,
    "out": str,
    "seed": int,
    "grid": str,
}


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return repr(obj)
    return obj


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; '#' comments and blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CASTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def resolve_options(
    args: argparse.Namespace, keys: list[str], overrides: dict | None = None
) -> dict:
    """Apply precedence: command line > config file > built-in default."""
    from_file: dict[str, str] = {}
    if getattr(args, "config", None):
        from_file = parse_config_file(args.config)
    defaults = {**DEFAULTS, **(overrides or {})}
    out = {}
    for key in keys:
        given = getattr(args, key, None)
        if given is not None:
            out[key] = given
        elif key in from_file:
            out[key] = _CASTS[key](from_file[key])
        else:
            out[key] = defaults.get(key)
    if out.get("format", "csv") not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {out['format']!r}")
    return out


def write_table(rows: list[dict], columns: list[str], meta: dict, fmt: str, out: str | None) -> None:
    meta = _plain(meta)
    if fmt == "csv":
        buf = io.StringIO()
        for key in sorted(meta):
            buf.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_plain(row[c]) for c in columns])
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps({"meta": meta, "rows": _plain(rows)}, indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_grid(spec: str, expect: dict[str, tuple]) -> dict:
    """Parse 'name=start:stop[:count],...' against expected axis names.

    Integer axes (count omitted) produce inclusive index ranges; float axes
    produce ``count`` evenly spaced points.
    """
    axes = dict(expect)
    out = {}
    parts = [p for p in spec.split(",") if p.strip()] if spec.strip() else []
    for part in parts:
        name, _, rng = part.strip().partition("=")
        if name not in axes:
            raise ValueError(f"unknown grid axis {name!r}; expected {sorted(axes)}")
        pieces = rng.split(":")
        kind = axes[name][0]
        if kind == "int":
            if len(pieces) != 2:
                raise ValueError(f"grid axis {name!r} expects start:stop")
            lo, hi = int(pieces[0]), int(pieces[1])
            if lo < 0 or hi < lo:
                raise ValueError(f"grid axis {name!r} has an empty or negative range")
            out[name] = list(range(lo, hi + 1))
        else:
            if len(pieces) != 3:
                raise ValueError(f"grid axis {name!r} expects start:stop:count")
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
            if count < 1:
                raise ValueError(f"grid axis {name!r} needs at least one point")
            out[name] = [float(v) for v in np.linspace(lo, hi, count)]
    for name, (_, default) in axes.items():
        out.setdefault(name, default)
    return out


# --------------------------------------------------------------------------
# subcommands


def cmd_rabi_surface(args: argparse.Namespace) -> int:
    opts = resolve_options(
        args, ["eta", "eta_r", "k", "grid", "format", "out"], overrides={"eta": 0.15}
    )
    modes = ModeParams(eta=opts["eta"], eta_r=opts["eta_r"])
    grid = _parse_grid(opts["grid"] or "", {"n": ("int", list(range(26))), "nr": ("int", list(range(26)))})
    k = opts["k"]
    rows = [
        {"n": n, "n_r": nr, "rabi": rabi_frequency(k, n, nr, modes)}
        for n in grid["n"]
        for nr in grid["nr"]
    ]
    meta = {"command": "rabi-surface", "eta": modes.eta, "eta_r": modes.eta_r, "k": k,
            "n_range": f"{grid['n'][0]}..{grid['n'][-1]}", "nr_range": f"{grid['nr'][0]}..{grid['nr'][-1]}"}
    write_table(rows, ["n", "n_r", "rabi"], meta, opts["format"], opts["out"])
    return 0


def _teleport_config(opts: dict, **point) -> TeleportConfig:
    """The run described by resolved options, with ``point`` (a grid point's
    ``nbar`` and ``eta``) taking precedence; options a subcommand does not
    take keep their built-in defaults."""
    o = {**DEFAULTS, **opts, **point}
    return TeleportConfig(
        eta=o["eta"],
        eta_r=o["eta_r"],
        nbar=float(o["nbar"]),
        epsilon=o["eps"],
        phases=PhaseConfig(phi0_a=o["phi0"], phi0_b=o["phi0"], phi_a=o["phi"], phi_b=o["phi"]),
        k=o["k"],
        tail_tol=o["tail_tol"],
        cutoff=o["cutoff"],
        cutoff_r=o["cutoff"],
    )


def cmd_channel_fidelity(args: argparse.Namespace) -> int:
    opts = resolve_options(
        args,
        ["eta", "eta_r", "nbar", "eps", "phi", "phi0", "cutoff", "tail_tol", "format", "out"],
        overrides={"nbar": "0.2,1,5"},
    )
    configs = [_teleport_config(opts, nbar=v) for v in str(opts["nbar"]).split(",")]
    rows = [
        {"nbar": cfg.nbar, "nbar_r": cfg.nbar_r,
         "fidelity": protocol.channel_fidelity(cfg.thermal(), cfg.analyzer_pulse_spec(), cfg.modes())}
        for cfg in configs
    ]
    cfg = configs[0]
    meta = {"command": "channel-fidelity", "eta": cfg.eta, "eta_r": cfg.modes().eta_r,
            "eps": cfg.epsilon, "tail_tol": cfg.tail_tol,
            "cutoff": "auto" if opts["cutoff"] is None else opts["cutoff"],
            "phi_b": cfg.phases.phi_b, "phi0": cfg.phases.phi0_b}
    write_table(rows, ["nbar", "nbar_r", "fidelity"], meta, opts["format"], opts["out"])
    return 0


def _print_report(report: protocol.FidelityReport, stream) -> None:
    p = report.params
    stream.write("teleportation report\n")
    stream.write(f"  input state: {report.input_state}\n")
    stream.write(
        f"  nbar={p['nbar']:.6g} nbar_r={p['nbar_r']:.6g} nbar_b={p['nbar_b']:.6g} "
        f"eta={p['eta']:.6g} eta_r={p['eta_r']:.6g} eps={p['epsilon']:.6g}\n"
    )
    stream.write("  outcome  probability    fidelity\n")
    for o in OUTCOMES:
        stream.write(f"  {o}       {report.outcome_probs[o]:<12.8f}  {report.outcome_fidelities[o]:.8f}\n")
    stream.write(f"  aggregate fidelity: {report.aggregate:.8f}\n")


def _json_only(opts: dict) -> bool:
    """``--format json`` without ``--out``: standard output carries only JSON."""
    return opts["format"] == "json" and not opts["out"]


def cmd_teleport(args: argparse.Namespace) -> int:
    opts = resolve_options(
        args,
        ["eta", "eta_r", "nbar", "eps", "k", "phi", "phi0", "cutoff", "tail_tol",
         "input_state", "format", "out", "seed"],
    )
    report = protocol.teleport_fidelity(opts["input_state"], _teleport_config(opts))
    payload = json.dumps(_plain(report.to_dict()), indent=2, sort_keys=True) + "\n"
    if _json_only(opts):
        sys.stdout.write(payload)
    else:
        _print_report(report, sys.stdout)
        if opts["seed"] is not None:
            rng = np.random.default_rng(opts["seed"])
            probs = [report.outcome_probs[o] for o in OUTCOMES]
            sampled = rng.choice(len(OUTCOMES), p=np.array(probs) / sum(probs))
            sys.stdout.write(f"  sampled outcome (seed={opts['seed']}): {OUTCOMES[sampled]}\n")
    if opts["out"]:
        Path(opts["out"]).write_text(payload)
    return 0


def cmd_fidelity_surface(args: argparse.Namespace) -> int:
    opts = resolve_options(
        args,
        ["eta_r", "eps", "phi", "phi0", "tail_tol", "cutoff", "grid", "input_state", "format", "out"],
    )
    grid = _parse_grid(
        opts["grid"] or "",
        {
            "nbar": ("float", [float(v) for v in np.linspace(0.0, 0.2, 20)]),
            "eta": ("float", [float(v) for v in np.linspace(0.05, 0.25, 20)]),
        },
    )
    rows = [
        {"nbar": nb, "eta": et, "fidelity": protocol.teleport_fidelity(
            opts["input_state"], _teleport_config(opts, nbar=nb, eta=et)).aggregate}
        for nb in grid["nbar"]
        for et in grid["eta"]
    ]
    meta = {"command": "fidelity-surface", "eps": opts["eps"], "input_state": opts["input_state"],
            "tail_tol": opts["tail_tol"], "cutoff": "auto" if opts["cutoff"] is None else opts["cutoff"],
            "nbar_points": len(grid["nbar"]), "eta_points": len(grid["eta"])}
    write_table(rows, ["nbar", "eta", "fidelity"], meta, opts["format"], opts["out"])
    return 0


def cmd_swap(args: argparse.Namespace) -> int:
    opts = resolve_options(
        args, ["eta", "eta_r", "nbar", "eps", "phi", "phi0", "tail_tol", "cutoff", "format", "out"]
    )
    cfg = _teleport_config(opts)
    # a cold trap takes the Lamb-Dicke-limit pulse
    thermal, modes = (cfg.thermal(), cfg.modes()) if cfg.nbar > 0 else (None, None)
    outcomes = protocol.entanglement_swap(cfg.analyzer_pulse_spec(), cfg.phases, thermal, modes)
    rows = [
        {"outcome": oc.label, "probability": oc.probability, "herald": oc.herald, "fidelity": oc.fidelity}
        for oc in outcomes
    ]
    if not _json_only(opts):
        sys.stdout.write("entanglement swapping report\n")
        for r in rows:
            sys.stdout.write(
                f"  outcome {r['outcome']}: p={r['probability']:.8f} heralds {r['herald']} "
                f"fidelity {r['fidelity']:.8f}\n"
            )
    if opts["out"] or opts["format"] == "json":
        meta = {"command": "swap", "nbar": cfg.nbar, "eps": cfg.epsilon, "eta": cfg.eta}
        write_table(rows, ["outcome", "probability", "herald", "fidelity"], meta, opts["format"], opts["out"])
    return 0


def cmd_run_script(args: argparse.Namespace) -> int:
    opts = resolve_options(args, ["eps", "phi", "phi0", "input_state", "format", "out"])
    cfg = _teleport_config(opts)
    script = parse_pulse_script(Path(args.script).read_text())
    max_ion = 0
    measures = []
    for st in script.statements:
        ions = (st.ion,) if isinstance(st, RotateStatement) else st.ions
        max_ion = max(max_ion, *ions)
        if isinstance(st, MeasureStatement):
            measures.append(st)
    n_ions = max(3, max_ion)
    input_spec = opts["input_state"]
    if input_spec == "average":
        input_spec = "z+"
    q = InputQubit.from_spec(input_spec)
    initial = q.vector
    for _ in range(n_ions - 1):
        initial = np.kron(initial, np.array([1.0, 0.0], dtype=complex))
    result = execute_script(script, n_ions, initial, cfg.phases)

    branches = []
    for b in result.branches:
        branches.append(
            {
                "outcomes": [f"ions {i},{j}: {label}" for (i, j), label in b.outcomes],
                "probability": b.probability,
                "amplitudes": None if b.amplitudes is None else [repr(a) for a in b.amplitudes],
            }
        )
    payload: dict = {"meta": {"command": "run-script", "n_ions": n_ions,
                              "input_state": opts["input_state"]},
                     "branches": branches}

    teleport_shaped = (
        n_ions == 3 and len(measures) == 1 and measures[0].ions == (1, 2)
        and measures[0] is script.statements[-1]
    )
    if teleport_shaped:
        # the measurement labels each branch; ion 3 is what remains of it
        outcomes = []
        for b in result.branches:
            label = b.outcomes[-1][1]
            state = None
            if b.amplitudes is not None:
                state = linalg.projector(split_pair(b.amplitudes, (0, 1), 3)[OUTCOMES.index(label)])
            outcomes.append(OutcomeState(label, b.probability, state))
        probs, fids, aggregate = protocol.score_outcomes(outcomes, linalg.projector(q.vector), cfg)
        payload["teleport"] = {
            "outcome_probs": probs,
            "outcome_fidelities": fids,
            "aggregate": aggregate,
        }
        lines = ["pulse script report (teleport-shaped)"]
        lines += [f"  outcome {o}: p={probs.get(o, 0.0):.8f} corrected fidelity {fids.get(o, 0.0):.8f}"
                  for o in OUTCOMES]
        lines.append(f"  aggregate fidelity: {aggregate:.8f}")
    else:
        lines = [f"pulse script report: {len(result.branches)} branch(es)"]
        for b in result.branches:
            labels = "; ".join(f"ions {i},{j}: {lab}" for (i, j), lab in b.outcomes) or "(no measurement)"
            lines.append(f"  p={b.probability:.8f}  {labels}")
    if not _json_only(opts):
        sys.stdout.write("\n".join(lines) + "\n")

    if opts["out"] or opts["format"] == "json":
        text_out = json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n"
        if opts["out"]:
            Path(opts["out"]).write_text(text_out)
        else:
            sys.stdout.write(text_out)
    return 0


# --------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser, names: list[str]) -> None:
    flags = {
        "eta": dict(type=float, help="CM Lamb-Dicke parameter"),
        "eta_r": dict(type=float, dest="eta_r", help="relative-mode Lamb-Dicke parameter"),
        "nbar": dict(type=str, help="CM mean occupation (comma list for channel-fidelity)"),
        "eps": dict(type=float, help="pulse-area imprecision factor"),
        "k": dict(type=int, help="sideband order"),
        "phi": dict(type=float, help="Raman phase (both traps)"),
        "phi0": dict(type=float, help="equilibrium-separation phase"),
        "grid": dict(type=str, help="grid spec, e.g. nbar=0:0.2:20,eta=0.05:0.25:20"),
        "cutoff": dict(type=int, help="Fock cutoff override (both modes)"),
        "tail_tol": dict(type=float, dest="tail_tol", help="thermal tail tolerance"),
        "input_state": dict(type=str, dest="input_state",
                            help="input state: average, z+/z-/x+/x-/y+/y-, or alpha,beta"),
        "format": dict(type=str, choices=["csv", "json"], help="output format"),
        "out": dict(type=str, help="output path (default stdout)"),
        "seed": dict(type=int, help="seed for the demo outcome sampler"),
    }
    for name in names:
        sub.add_argument(f"--{name.replace('_', '-')}", default=None, **flags[name])
    sub.add_argument("--config", default=None, help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionsim",
        description="Simulator of reliable trapped-ion teleportation over dispersive sideband pulses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rabi-surface", help="scaled sideband Rabi factor over the Fock grid")
    _add_common(p, ["eta", "eta_r", "k", "grid", "format", "out"])
    p.set_defaults(func=cmd_rabi_surface)

    p = sub.add_parser("channel-fidelity", help="Bell-channel fidelity vs thermal occupation")
    _add_common(p, ["eta", "eta_r", "nbar", "eps", "phi", "phi0", "cutoff", "tail_tol", "format", "out"])
    p.set_defaults(func=cmd_channel_fidelity)

    p = sub.add_parser("teleport", help="single full teleportation run")
    _add_common(p, ["eta", "eta_r", "nbar", "eps", "k", "phi", "phi0", "cutoff", "tail_tol",
                    "input_state", "format", "out", "seed"])
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("fidelity-surface", help="teleportation fidelity over an (nbar, eta) grid")
    _add_common(p, ["eta_r", "eps", "phi", "phi0", "tail_tol", "cutoff", "grid",
                    "input_state", "format", "out"])
    p.set_defaults(func=cmd_fidelity_surface)

    p = sub.add_parser("swap", help="entanglement swapping between two Bell pairs")
    _add_common(p, ["eta", "eta_r", "nbar", "eps", "phi", "phi0", "tail_tol", "cutoff", "format", "out"])
    p.set_defaults(func=cmd_swap)

    p = sub.add_parser("run-script", help="execute a pulse script")
    p.add_argument("script", help="path to the pulse script")
    _add_common(p, ["eps", "phi", "phi0", "input_state", "format", "out"])
    p.set_defaults(func=cmd_run_script)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScriptError as exc:
        print(f"error: script {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
