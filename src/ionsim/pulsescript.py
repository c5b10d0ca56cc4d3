"""Line-oriented pulse scripts.

Grammar, one statement per line, ``#`` starting a comment:

    pulse ions=<i,j> [k=<int>] [area=<float>] [phi=<float>] [phi0=<float>] [eps=<float>]
    rotate ion=<i> axis=<x|y|z> angle=<float> [eps=<float>]
    measure ions=<i,j>

Ion numbers are 1-based. Execution models the electronic register only:
pulses act in the Lamb-Dicke limit (every motional sector mixes by the
stated area) and rotations on the motional ground state, so a script is a
pulse-algebra check rather than a thermal simulation. A measurement splits
the run into its four outcome branches; later statements apply per branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import carrier_rotation, ld_pulse_unitary
from .protocol import PhaseConfig
from .register import EMPTY_PROB, OUTCOMES, apply, collapse_pair


class ScriptError(ValueError):
    """Parse or execution failure with a 1-based line/column location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class PulseStatement:
    ions: tuple[int, int]
    k: int = 1
    area: float = math.pi / 4
    phi: float | None = None
    phi0: float | None = None
    eps: float = 0.0
    line: int = 0


@dataclass(frozen=True)
class RotateStatement:
    ion: int
    axis: str
    angle: float
    eps: float = 0.0
    line: int = 0


@dataclass(frozen=True)
class MeasureStatement:
    ions: tuple[int, int]
    line: int = 0


Statement = PulseStatement | RotateStatement | MeasureStatement


@dataclass(frozen=True)
class PulseScript:
    statements: tuple[Statement, ...]

    def __len__(self) -> int:
        return len(self.statements)


_KEYS = {
    "pulse": {"ions": True, "k": False, "area": False, "phi": False, "phi0": False, "eps": False},
    "rotate": {"ion": True, "axis": True, "angle": True, "eps": False},
    "measure": {"ions": True},
}


def _tokens_with_columns(line: str) -> list[tuple[str, int]]:
    out = []
    col = 0
    for raw in line.split(" "):
        if raw.strip():
            out.append((raw.strip(), col + 1))
        col += len(raw) + 1
    return out


def _parse_int(value: str, name: str, line: int, col: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScriptError(f"{name} expects an integer, got {value!r}", line, col) from None


def _parse_float(value: str, name: str, line: int, col: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ScriptError(f"{name} expects a number, got {value!r}", line, col) from None


def _parse_ion_pair(value: str, keyword: str, line: int, col: int) -> tuple[int, int]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ScriptError(f"{keyword} requires two ions, got {value!r}", line, col)
    i = _parse_int(parts[0], "ions", line, col)
    j = _parse_int(parts[1], "ions", line, col)
    if i < 1 or j < 1:
        raise ScriptError("ion numbers start at 1", line, col)
    if i == j:
        raise ScriptError(f"{keyword} requires two distinct ions", line, col)
    return i, j


def parse_pulse_script(text: str) -> PulseScript:
    """Parse script text, raising :class:`ScriptError` with the offending
    line/column on any syntax problem."""
    statements: list[Statement] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].replace("\t", " ")
        tokens = _tokens_with_columns(line)
        if not tokens:
            continue
        keyword, kw_col = tokens[0]
        if keyword not in _KEYS:
            raise ScriptError(f"unknown statement {keyword!r}", lineno, kw_col)
        allowed = _KEYS[keyword]
        values: dict[str, tuple[str, int]] = {}
        for token, col in tokens[1:]:
            if "=" not in token:
                raise ScriptError(f"expected key=value, got {token!r}", lineno, col)
            key, _, value = token.partition("=")
            if key not in allowed:
                raise ScriptError(f"unknown key {key!r} for {keyword}", lineno, col)
            if key in values:
                raise ScriptError(f"duplicate key {key!r}", lineno, col)
            if not value:
                raise ScriptError(f"empty value for {key!r}", lineno, col)
            values[key] = (value, col)
        for key, required in allowed.items():
            if required and key not in values:
                raise ScriptError(f"{keyword} requires {key}=...", lineno, kw_col)

        if keyword == "pulse":
            ions_val, ions_col = values["ions"]
            ions = _parse_ion_pair(ions_val, "pulse", lineno, ions_col)
            statements.append(
                PulseStatement(
                    ions=ions,
                    k=_parse_int(values["k"][0], "k", lineno, values["k"][1]) if "k" in values else 1,
                    area=_parse_float(values["area"][0], "area", lineno, values["area"][1])
                    if "area" in values
                    else math.pi / 4,
                    phi=_parse_float(values["phi"][0], "phi", lineno, values["phi"][1])
                    if "phi" in values
                    else None,
                    phi0=_parse_float(values["phi0"][0], "phi0", lineno, values["phi0"][1])
                    if "phi0" in values
                    else None,
                    eps=_parse_float(values["eps"][0], "eps", lineno, values["eps"][1])
                    if "eps" in values
                    else 0.0,
                    line=lineno,
                )
            )
        elif keyword == "rotate":
            axis, axis_col = values["axis"]
            if axis not in ("x", "y", "z"):
                raise ScriptError(f"axis must be x, y or z, got {axis!r}", lineno, axis_col)
            statements.append(
                RotateStatement(
                    ion=_parse_int(values["ion"][0], "ion", lineno, values["ion"][1]),
                    axis=axis,
                    angle=_parse_float(values["angle"][0], "angle", lineno, values["angle"][1]),
                    eps=_parse_float(values["eps"][0], "eps", lineno, values["eps"][1])
                    if "eps" in values
                    else 0.0,
                    line=lineno,
                )
            )
        else:
            ions_val, ions_col = values["ions"]
            statements.append(
                MeasureStatement(
                    ions=_parse_ion_pair(ions_val, "measure", lineno, ions_col), line=lineno
                )
            )
    return PulseScript(statements=tuple(statements))


@dataclass
class Branch:
    """One execution branch: accumulated measurement labels, probability and
    the register amplitudes (None once the branch has zero probability)."""

    probability: float
    amplitudes: np.ndarray | None
    outcomes: list[tuple[tuple[int, int], str]] = field(default_factory=list)


@dataclass
class ScriptResult:
    n_ions: int
    branches: list[Branch]


def execute_script(
    script: PulseScript,
    n_ions: int,
    initial: np.ndarray,
    phases: PhaseConfig | None = None,
) -> ScriptResult:
    """Run a parsed script on an ``n_ions`` electronic register.

    ``phases`` supplies the default phi/phi0 of pulses that omit them.
    """
    if phases is None:
        phases = PhaseConfig()
    state = np.asarray(initial, dtype=complex)
    if state.shape != (2**n_ions,):
        raise ValueError(f"initial state must have {2**n_ions} amplitudes")
    branches = [Branch(probability=1.0, amplitudes=state.copy())]

    def check_ion(ion: int, line: int) -> int:
        if ion > n_ions:
            raise ScriptError(f"ion {ion} exceeds register size {n_ions}", line, 1)
        return ion - 1

    for st in script.statements:
        if isinstance(st, MeasureStatement):
            pair = (check_ion(st.ions[0], st.line), check_ion(st.ions[1], st.line))
            split: list[Branch] = []
            for b in branches:
                if b.amplitudes is None:
                    split.append(b)
                    continue
                probs, collapsed = collapse_pair(b.amplitudes, pair, n_ions)
                for label, p, amps in zip(OUTCOMES, probs.tolist(), collapsed):
                    outcomes = b.outcomes + [(st.ions, label)]
                    if p <= EMPTY_PROB:
                        split.append(Branch(0.0, None, outcomes))
                    else:
                        split.append(Branch(b.probability * p, amps, outcomes))
            branches = split
            continue
        if isinstance(st, PulseStatement):
            qubits = (check_ion(st.ions[0], st.line), check_ion(st.ions[1], st.line))
            phi = st.phi if st.phi is not None else phases.phi_a
            phi0 = st.phi0 if st.phi0 is not None else phases.phi0_a
            op = ld_pulse_unitary(st.k, phi, phi0, (1 + st.eps) * st.area)
        else:
            qubits = (check_ion(st.ion, st.line),)
            op = carrier_rotation(st.axis, st.angle, epsilon=st.eps)
        for b in branches:
            if b.amplitudes is not None:
                b.amplitudes = apply(op, b.amplitudes, qubits, n_ions)
    return ScriptResult(n_ions=n_ions, branches=branches)
