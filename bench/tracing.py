"""Timing spans around the calls into each ionsim layer, installed from the
benchmark's side only.

The wrappers replace the module attributes that the pipeline looks up at
call time: ``analyzer_pulse`` calls ``protocol.rabi_frequency``, not
``motional.rabi_frequency``, so that is the name wrapped. Spans are kept in
memory as parallel arrays (layer, start, end, parent span, point id) and
written out when the run ends. A layer's self time is its spans' duration
minus the time their child spans cover. A target that a later refactor
removes is skipped, so its layer reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

#: Sectors lighter than this contribute nothing measurable to any output.
NEGLIGIBLE_WEIGHT = 1e-12


def _analyzer_counts(tracer: "Tracer", args, kwargs, result) -> None:
    register = args[0] if args else kwargs["register"]
    negligible = sum(1 for s in register if s.weight < NEGLIGIBLE_WEIGHT)
    # one 4x4 pair unitary applied to a register of d amplitudes costs
    # 16 * d / 4 complex multiply-adds per sector
    cmac = 4 * len(register) * len(register[0].amplitudes) if len(register) else 0
    tracer.counts["protocol.analyzer_pulse.sectors"] += len(register)
    tracer.counts["protocol.analyzer_pulse.negligible"] += negligible
    tracer.counts["protocol.analyzer_pulse.cmac_computed"] += cmac


def _branch_count(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["pulsescript.branches"] += len(result.branches)


def _table_bytes(tracer: "Tracer", args, kwargs, result) -> None:
    out = args[4] if len(args) > 4 else kwargs["out"]
    tracer.counts["cli.write_table.bytes"] += os.path.getsize(out)


#: (module, attribute, layer, counter hook run after the call)
TARGETS = (
    ("ionsim.protocol", "rabi_frequency", "motional.rabi_frequency", None),
    ("ionsim.protocol", "thermal_distribution", "motional.thermal_distribution", None),
    ("ionsim.protocol", "sector_unitary", "dynamics.sector_unitary", None),
    ("ionsim.protocol", "carrier_rotation", "dynamics.carrier_rotation", None),
    ("ionsim.protocol", "ld_pulse_unitary", "dynamics.ld_pulse_unitary", None),
    ("ionsim.pulsescript", "carrier_rotation", "dynamics.carrier_rotation", None),
    ("ionsim.pulsescript", "ld_pulse_unitary", "dynamics.ld_pulse_unitary", None),
    ("ionsim.protocol", "analyzer_pulse", "protocol.analyzer_pulse", _analyzer_counts),
    ("ionsim.protocol", "measure_and_condition", "protocol.measure_and_condition", None),
    ("ionsim.protocol", "correct_ion3", "protocol.correction", None),
    ("ionsim.protocol", "_correct_last_qubit", "protocol.correction", None),
    ("ionsim.protocol", "teleport_fidelity", "protocol.glue", None),
    ("ionsim.protocol", "entanglement_teleport", "protocol.glue", None),
    ("ionsim.protocol", "entanglement_swap", "protocol.glue", None),
    ("ionsim.linalg", "fidelity", "linalg.fidelity", None),
    ("ionsim.cli", "write_table", "cli.write_table", _table_bytes),
    ("ionsim.pulsescript", "parse_pulse_script", "pulsescript.parse_pulse_script", None),
    ("ionsim.pulsescript", "execute_script", "pulsescript.execute_script", _branch_count),
)


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.point = array("q")
        self.counts: Counter = Counter()
        self.point_id = -1
        self._stack = [-1]

    def _layer_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    def call(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        return self._call(self._layer_id(layer), None, fn, args, kwargs)

    def _call(self, layer_id: int, hook, fn, args, kwargs):
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.point.append(self.point_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
        if hook is not None:
            try:
                hook(self, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, OSError, TypeError):
                # arguments reshaped by a refactor: the counter reads 0
                pass
        return result

    def wrap(self, layer: str, fn, hook=None):
        layer_id = self._layer_id(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(layer_id, hook, fn, args, kwargs)

        return wrapper

    def totals(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per layer: span count, self seconds and inclusive seconds; and
        the summed duration of top-level spans."""
        layer = np.asarray(self.layer, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        n = len(self.layers)
        calls = np.bincount(layer, minlength=n)
        self_s = np.bincount(layer, weights=own, minlength=n)
        incl_s = np.bincount(layer, weights=dur, minlength=n)
        per_layer = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(self.layers)
        }
        return per_layer, float(dur[~nested].sum())

    def save(self, path: Path) -> None:
        """Write the spans out as arrays, one entry per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.array(self.layer),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent),
            point=np.array(self.point),
        )


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target that exists; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, layer, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(layer, fn, hook))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
