"""Command-line front end.

Subcommands: rabi-surface, channel-fidelity, teleport, fidelity-surface,
swap, run-script. Tables are emitted as CSV (with a ``# key=value`` metadata
comment block) or as one JSON object with ``meta`` and ``rows``; the report
commands print JSON alone when ``--format json`` comes without ``--out``.
Flag values override config-file values, which override the defaults of
:class:`~ionsim.protocol.TeleportConfig`; config files are flat
``key = value`` text. Every run is a ``TeleportConfig``, which resolves the
derived parameters and rejects invalid ones; rows follow grid order.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
import warnings
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import protocol
from .motional import ModeParams, rabi_grid
from .protocol import InputQubit, PhaseConfig, TeleportConfig
from .register import OUTCOMES, split_pair
from .pulsescript import (
    MeasureStatement,
    RotateStatement,
    ScriptError,
    execute_script,
    parse_pulse_script,
)

#: Defaults of the options that are not TeleportConfig fields; an unset
#: physics option leaves its field at the dataclass default.
DEFAULTS = {"input_state": "average", "format": "csv"}

#: Every option: the TeleportConfig (or PhaseConfig) fields it sets, and its
#: argparse settings, whose ``type`` also casts config-file values.
_FLAGS = {
    "eta": (("eta",), dict(type=float, help="CM Lamb-Dicke parameter")),
    "eta_r": (("eta_r",), dict(type=float, help="relative-mode Lamb-Dicke parameter")),
    "nbar": (("nbar",), dict(type=str, help="CM mean occupation (comma list for channel-fidelity)")),
    "eps": (("epsilon",), dict(type=float, help="pulse-area imprecision factor")),
    "k": (("k",), dict(type=int, help="sideband order")),
    "phi": (("phi_a", "phi_b"), dict(type=float, help="Raman phase (both traps)")),
    "phi0": (("phi0_a", "phi0_b"), dict(type=float, help="equilibrium-separation phase")),
    "grid": ((), dict(type=str, help="grid spec, e.g. nbar=0:0.2:20,eta=0.05:0.25:20")),
    "cutoff": (("cutoff", "cutoff_r"), dict(type=int, help="Fock cutoff override (both modes)")),
    "tail_tol": (("tail_tol",), dict(type=float, help="thermal tail tolerance")),
    "input_state": ((), dict(type=str, help="input state: average, z+/z-/x+/x-/y+/y-, or alpha,beta")),
    "format": ((), dict(type=str, choices=["csv", "json"], help="output format")),
    "out": ((), dict(type=str, help="output path (default stdout)")),
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
        # complex(): numpy 2 reprs an np.complex128 as "np.complex128(...)"
        return repr(complex(obj))
    return obj


def _json(obj) -> str:
    return json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


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
        if key not in _FLAGS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def resolve_options(args: argparse.Namespace, overrides: dict | None = None) -> dict:
    """The options the subcommand of ``args`` takes, by precedence: command
    line > config file > ``overrides`` > :data:`DEFAULTS`; None when unset."""
    from_file = parse_config_file(args.config) if args.config else {}
    defaults = {**DEFAULTS, **(overrides or {})}
    out = {}
    for key in (name for name in _FLAGS if hasattr(args, name)):
        given = getattr(args, key, None)
        if given is not None:
            out[key] = given
        elif key in from_file:
            out[key] = _FLAGS[key][1]["type"](from_file[key])
        else:
            out[key] = defaults.get(key)
    if out.get("format", "csv") not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {out['format']!r}")
    return out


def write_table(rows: Iterable[dict], columns: list[str], meta: dict, fmt: str, out: str | None) -> None:
    """Write ``rows``, any iterable of dicts, as one JSON object or as CSV
    under a ``# key=value`` metadata block, one row at a time."""
    meta = _plain(meta)
    if fmt == "json":
        _emit(_json({"meta": meta, "rows": list(rows)}), out)
    elif fmt == "csv":
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as stream:
            stream.writelines(f"# {key}={meta[key]}\n" for key in sorted(meta))
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_plain(row[c]) for c in columns] for row in rows)
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def _report(opts: dict, lines: list[str], write) -> None:
    """Emit a report command: the text ``lines`` on standard output, and
    ``write(path)`` its machine-readable form to ``--out``. With ``--format
    json`` and no ``--out``, standard output carries that form alone."""
    json_only = opts["format"] == "json" and not opts["out"]
    if not json_only:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
    if opts["out"] or json_only:
        write(opts["out"])


def _parse_grid(spec: str, axes: dict[str, str]) -> dict:
    """Parse 'name=start:stop[:count],...' over ``axes``, which maps each axis
    name to its default range.

    An axis whose default reads start:stop takes inclusive integer ranges;
    one whose default reads start:stop:count takes ``count`` evenly spaced points.
    """
    out = {}
    for part in [f"{name}={rng}" for name, rng in axes.items()] + spec.split(","):
        if not part.strip():
            continue
        name, _, rng = part.strip().partition("=")
        if name not in axes:
            raise ValueError(f"unknown grid axis {name!r}; expected {sorted(axes)}")
        pieces = rng.split(":")
        if axes[name].count(":") == 1:
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
    return out


def _teleport_config(opts: dict, **point) -> TeleportConfig:
    """The run described by the options that were set, with ``point`` (a grid
    point's ``nbar`` and ``eta``) taking precedence; every other field keeps
    its dataclass default."""
    fields = {field: value for key, value in {**opts, **point}.items() if value is not None
              for field in _FLAGS[key][0]}
    if "nbar" in fields:
        fields["nbar"] = float(fields["nbar"])
    phases = {f.name: fields.pop(f.name) for f in dataclasses.fields(PhaseConfig) if f.name in fields}
    return TeleportConfig(**fields, phases=PhaseConfig(**phases))


def _warn_once(rows, tail_tol: float) -> list[dict]:
    """The rows of a sweep, evaluated with their warnings recorded; the
    warnings are re-emitted with the thermal truncations folded into one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = list(rows)
    tails = [w.message.tail_mass for w in caught if hasattr(w.message, "tail_mass")]
    for w in (w for w in caught if not hasattr(w.message, "tail_mass")):
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if tails:
        warnings.warn(f"thermal truncation leaves tail mass > {tail_tol:.0e} at {len(tails)} of "
                      f"{len(rows)} points (largest {max(tails):.3e})")
    return rows


# --------------------------------------------------------------------------
# subcommands


def cmd_rabi_surface(args: argparse.Namespace) -> int:
    opts = resolve_options(args, overrides={"eta": 0.15})
    modes = ModeParams(eta=opts["eta"], eta_r=opts["eta_r"])
    k = TeleportConfig.k if opts["k"] is None else opts["k"]
    grid = _parse_grid(opts["grid"] or "", {"n": "0:25", "nr": "0:25"})
    rabi = rabi_grid(k, grid["n"][-1], grid["nr"][-1], modes)
    rows = ({"n": n, "n_r": nr, "rabi": rabi[n, nr].item()} for n in grid["n"] for nr in grid["nr"])
    meta = {"command": "rabi-surface", "eta": modes.eta, "eta_r": modes.eta_r, "k": k,
            "n_range": f"{grid['n'][0]}..{grid['n'][-1]}", "nr_range": f"{grid['nr'][0]}..{grid['nr'][-1]}"}
    write_table(rows, ["n", "n_r", "rabi"], meta, opts["format"], opts["out"])
    return 0


def cmd_channel_fidelity(args: argparse.Namespace) -> int:
    opts = resolve_options(args, overrides={"nbar": "0.2,1,5"})
    configs = [_teleport_config(opts, nbar=v) for v in opts["nbar"].split(",")]
    cfg = configs[0]
    rows = _warn_once((
        {"nbar": c.nbar, "nbar_r": c.nbar_r,
         "fidelity": protocol.channel_fidelity(c.thermal(), c.analyzer_pulse_spec(), c.modes())}
        for c in configs
    ), cfg.tail_tol)
    meta = {"command": "channel-fidelity", "eta": cfg.eta, "eta_r": cfg.modes().eta_r,
            "eps": cfg.epsilon, "k": cfg.k, "tail_tol": cfg.tail_tol,
            "cutoff": "auto" if opts["cutoff"] is None else opts["cutoff"],
            "phi_b": cfg.phases.phi_b, "phi0": cfg.phases.phi0_b}
    write_table(rows, ["nbar", "nbar_r", "fidelity"], meta, opts["format"], opts["out"])
    return 0


def cmd_teleport(args: argparse.Namespace) -> int:
    opts = resolve_options(args)
    report = protocol.teleport_fidelity(opts["input_state"], _teleport_config(opts))
    p = report.params
    lines = [
        "teleportation report",
        f"  input state: {report.input_state}",
        f"  nbar={p['nbar']:.6g} nbar_r={p['nbar_r']:.6g} nbar_b={p['nbar_b']:.6g} "
        f"eta={p['eta']:.6g} eta_r={p['eta_r']:.6g} eps={p['epsilon']:.6g}",
        "  outcome  probability    fidelity",
        *(f"  {o}       {report.outcome_probs[o]:<12.8f}  {report.outcome_fidelities[o]:.8f}"
          for o in OUTCOMES),
        f"  aggregate fidelity: {report.aggregate:.8f}",
    ]
    _report(opts, lines, lambda out: _emit(_json(dataclasses.asdict(report)), out))
    return 0


def cmd_fidelity_surface(args: argparse.Namespace) -> int:
    opts = resolve_options(args)
    grid = _parse_grid(opts["grid"] or "", {"nbar": "0:0.2:20", "eta": "0.05:0.25:20"})
    cfg = _teleport_config(opts)
    rows = _warn_once((
        {"nbar": nb, "eta": et, "fidelity": protocol.teleport_fidelity(
            opts["input_state"], _teleport_config(opts, nbar=nb, eta=et)).aggregate}
        for nb in grid["nbar"]
        for et in grid["eta"]
    ), cfg.tail_tol)
    meta = {"command": "fidelity-surface", "eps": cfg.epsilon, "input_state": opts["input_state"],
            "tail_tol": cfg.tail_tol, "cutoff": "auto" if opts["cutoff"] is None else opts["cutoff"],
            "nbar_points": len(grid["nbar"]), "eta_points": len(grid["eta"])}
    write_table(rows, ["nbar", "eta", "fidelity"], meta, opts["format"], opts["out"])
    return 0


def cmd_swap(args: argparse.Namespace) -> int:
    opts = resolve_options(args)
    cfg = _teleport_config(opts)
    outcomes = protocol.entanglement_swap(cfg.analyzer_pulse_spec(), cfg.phases, cfg.thermal(), cfg.modes())
    rows = [
        {"outcome": oc.label, "probability": oc.probability, "herald": oc.herald, "fidelity": oc.fidelity}
        for oc in outcomes
    ]
    lines = ["entanglement swapping report"]
    lines += [f"  outcome {r['outcome']}: p={r['probability']:.8f} heralds {r['herald']} "
              f"fidelity {r['fidelity']:.8f}" for r in rows]
    meta = {"command": "swap", "nbar": cfg.nbar, "eps": cfg.epsilon, "eta": cfg.eta, "k": cfg.k}
    _report(opts, lines, lambda out: write_table(
        rows, ["outcome", "probability", "herald", "fidelity"], meta, opts["format"], out))
    return 0


def cmd_run_script(args: argparse.Namespace) -> int:
    opts = resolve_options(args, overrides={"input_state": "z+"})
    if opts["input_state"].strip().lower() == "average":
        raise ValueError("run-script starts ion 1 in one input state; 'average' is not one")
    cfg = _teleport_config(opts)
    script = parse_pulse_script(Path(args.script).read_text())
    ions = [st.ion if isinstance(st, RotateStatement) else max(st.ions) for st in script.statements]
    n_ions = max([3, *ions])
    measures = [st for st in script.statements if isinstance(st, MeasureStatement)]
    q = InputQubit.from_spec(opts["input_state"])
    # ions 2 and up start in |d>
    result = execute_script(script, n_ions, np.kron(q.vector, np.eye(2 ** (n_ions - 1))[0]), cfg.phases)
    branches = [
        {"outcomes": [f"ions {i},{j}: {label}" for (i, j), label in b.outcomes],
         "probability": b.probability, "amplitudes": b.amplitudes}
        for b in result.branches
    ]
    payload: dict = {"meta": {"command": "run-script", "n_ions": n_ions,
                              "input_state": opts["input_state"]},
                     "branches": branches}

    teleport_shaped = (
        n_ions == 3 and len(measures) == 1 and measures[0].ions == (1, 2)
        and measures[0] is script.statements[-1]
    )
    if teleport_shaped:
        # the measurement labels each branch; ion 3 is what remains of it
        posteriors = np.zeros((4, 2, 2), dtype=complex)
        for b in (b for b in result.branches if b.amplitudes is not None):
            o = OUTCOMES.index(b.outcomes[-1][1])
            ion3 = split_pair(b.amplitudes, (0, 1), 3)[o]
            posteriors[o] = b.probability * np.outer(ion3, ion3.conj())
        probs, fids, aggregate = protocol.score_outcomes(posteriors, q.vector, cfg)
        payload["teleport"] = {
            "outcome_probs": probs,
            "outcome_fidelities": fids,
            "aggregate": aggregate,
        }
        lines = ["pulse script report (teleport-shaped)"]
        lines += [f"  outcome {o}: p={probs[o]:.8f} corrected fidelity {fids[o]:.8f}"
                  for o in OUTCOMES]
        lines.append(f"  aggregate fidelity: {aggregate:.8f}")
    else:
        lines = [f"pulse script report: {len(result.branches)} branch(es)"]
        for b in result.branches:
            labels = "; ".join(f"ions {i},{j}: {lab}" for (i, j), lab in b.outcomes) or "(no measurement)"
            lines.append(f"  p={b.probability:.8f}  {labels}")
    _report(opts, lines, lambda out: _emit(_json(payload), out))
    return 0


# --------------------------------------------------------------------------
# parser

#: Every subcommand: its function, help line and options in ``--help`` order.
_COMMANDS = {
    "rabi-surface": (cmd_rabi_surface, "scaled sideband Rabi factor over the Fock grid",
                     "eta eta_r k grid format out"),
    "channel-fidelity": (cmd_channel_fidelity, "Bell-channel fidelity vs thermal occupation",
                         "eta eta_r nbar eps k phi phi0 cutoff tail_tol format out"),
    "teleport": (cmd_teleport, "single full teleportation run",
                 "eta eta_r nbar eps k phi phi0 cutoff tail_tol input_state format out"),
    "fidelity-surface": (cmd_fidelity_surface, "teleportation fidelity over an (nbar, eta) grid",
                         "eta_r eps phi phi0 tail_tol cutoff grid input_state format out"),
    "swap": (cmd_swap, "entanglement swapping between two Bell pairs",
             "eta eta_r nbar eps k phi phi0 tail_tol cutoff format out"),
    "run-script": (cmd_run_script, "execute a pulse script", "eps phi phi0 input_state format out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionsim",
        description="Simulator of reliable trapped-ion teleportation over dispersive sideband pulses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options.split():
            p.add_argument(f"--{option.replace('_', '-')}", default=None, **_FLAGS[option][1])
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.set_defaults(func=func)
    sub.choices["run-script"].add_argument("script", help="path to the pulse script")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        where = "script " if isinstance(exc, ScriptError) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
