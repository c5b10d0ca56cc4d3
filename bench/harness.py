"""Closed-loop measurement, metrics and output of the ionsim benchmark.

One client in one process and one thread evaluates a workload's points back
to back, checks each result, and reports the end-to-end metrics (untraced)
or the per-layer metrics (traced). ``bench/run.py`` is the entry point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 9
SETUP_CODE = (
    "import ionsim, ionsim.cli\n"
    "r = ionsim.protocol.teleport_fidelity('average', ionsim.TeleportConfig(nbar=0.0, eta=0.2))\n"
    "print(repr(r.aggregate))\n"
)

#: Time of ``calibrate()`` on an undisturbed core of the machine the
#: baseline was recorded on; timings are reported at this speed.
CAL_REF_S = 0.0028

#: Calibrate again before the first point that starts this long after the
#: previous calibration.
CAL_EVERY_S = 0.2


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop that uses no ionsim code: the
    machine's current speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(40_000):
        s += i * i
    return time.perf_counter() - t0


END_TO_END = {
    "points_per_s": "1/s",
    "point_p50_ms": "ms",
    "point_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: layers whose self time is reported; together they cover every span
SELF_LAYERS = (
    "motional.rabi_frequency",
    "motional.thermal_distribution",
    "dynamics.sector_unitary",
    "dynamics.carrier_rotation",
    "dynamics.ld_pulse_unitary",
    "protocol.analyzer_pulse",
    "protocol.measure_and_condition",
    "protocol.correction",
    "protocol.glue",
    "linalg.fidelity",
    "cli.write_table",
    "pulsescript.parse_pulse_script",
    "pulsescript.execute_script",
)
CALL_LAYERS = (
    "motional.rabi_frequency",
    "dynamics.sector_unitary",
    "dynamics.carrier_rotation",
    "dynamics.ld_pulse_unitary",
    "linalg.fidelity",
)
PER_LAYER = {
    **{f"{layer}.calls": "calls/point" for layer in CALL_LAYERS},
    **{f"{layer}.self_s": "s/point" for layer in SELF_LAYERS},
    "protocol.analyzer_pulse.sectors": "sectors/point",
    "protocol.analyzer_pulse.cmac_computed": "cmac/point",
    "protocol.analyzer_pulse.gcmac_per_s": "Gcmac/s",
    "protocol.negligible_sector_frac": "frac",
    "cli.write_table.bytes": "bytes/point",
    "pulsescript.branches": "branches/point",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
}


@dataclass
class Block:
    """Points timed between two calibrations: the time of all of them, the
    times of the passing ones, and the time of table writes."""

    seconds: float = 0.0
    times: list[float] = field(default_factory=list)
    write_s: float = 0.0


class Run:
    """Closed-loop evaluation of one workload's point list, with checking.

    Other tenants of a shared machine change its CPU speed by up to 40% for
    minutes at a time, so the speed is calibrated about every
    ``CAL_EVERY_S`` seconds and after the last point, and the times of each
    block of points between two calibrations are scaled to the reference
    speed ``CAL_REF_S`` (see bench/README.md).
    """

    def __init__(self, name: str, seed: int, tracer: tracing.Tracer | None = None):
        self.name = name
        self.seed = seed
        self.points = [workloads.prepare(p) for p in workloads.points(name, seed)]
        self.refs = checks.load_reference(name, seed)
        self.tracer = tracer
        self.times: list[float] = []
        self.blocks: list[Block] = []
        self.cal: list[float] = []
        self.total_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.rows: list[dict] = []

    def step(self, i: int) -> None:
        """Evaluate and check point ``i`` of the cycled list; a failure is
        counted, not raised."""
        if not self.blocks or self.blocks[-1].seconds >= CAL_EVERY_S:
            self.cal.append(calibrate())
            self.blocks.append(Block())
        k = i % len(self.points)
        if self.tracer is not None:
            self.tracer.point_id = i
        self.evaluate(self.points[k], self.refs[k] if self.refs else None)

    def evaluate(self, point: dict, ref: dict | None) -> None:
        self.attempted += 1
        root = "pulsescript.glue" if point["kind"] == "script" else "protocol.glue"
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = workloads.evaluate(point)
            else:
                out = self.tracer.call(root, workloads.evaluate, point)
            dt = time.perf_counter() - t0
            errors = checks.check(point, workloads.record(point, out), ref)
        except Exception as exc:  # a point that raises is a failed point
            dt = time.perf_counter() - t0
            errors = [f"{type(exc).__name__}: {exc}"]
        self.total_s += dt
        block = self.blocks[-1] if self.blocks else Block()
        block.seconds += dt
        if errors:
            self.failed += 1
            if self.failed <= 5:
                brief = {k: v for k, v in point.items() if k in ("kind", "nbar", "eta", "eps", "n_ions")}
                print(f"bench: {self.name} point failed: {brief}: {errors}", file=sys.stderr)
            return
        self.times.append(dt)
        block.times.append(dt)
        if self.name == "surface":
            self.rows.append({"nbar": point["nbar"], "eta": point["eta"], "fidelity": out.aggregate})
            if len(self.rows) == len(self.points):
                self.flush()

    def flush(self) -> None:
        """Write the surface rows collected so far, as the CLI does."""
        if not self.rows:
            return
        if self.tracer is not None:
            self.tracer.point_id = -1
        t0 = time.perf_counter()
        workloads.write_surface(self.rows, OUT / "surface.csv", self.seed)
        dt = time.perf_counter() - t0
        self.total_s += dt
        if self.blocks:
            self.blocks[-1].write_s += dt
        self.rows = []

    def finish(self) -> None:
        """Write the remaining rows and take the closing calibration."""
        self.flush()
        self.cal.append(calibrate())

    def warm_up(self) -> None:
        """Evaluate the workload's ideal control point, checked, untimed."""
        self.evaluate(workloads.prepare(workloads.control_point(self.name)), None)
        self.times.clear()
        self.rows.clear()
        self.total_s = 0.0

    def scaled(self) -> tuple[float, list[float], float]:
        """Throughput (passing points per second, table writes included) and
        passing point times at the reference speed, and the median speed of
        the machine relative to it."""
        speeds = [CAL_REF_S / ((a + b) / 2) for a, b in zip(self.cal, self.cal[1:])]
        times = [t * s for b, s in zip(self.blocks, speeds) for t in b.times]
        seconds = sum((b.seconds + b.write_s) * s for b, s in zip(self.blocks, speeds))
        return len(times) / seconds, times, statistics.median(speeds)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); the maximum when that percentile would lie below
    the median, that is with fewer than twenty samples."""
    s = sorted(times)
    n = len(s)
    if n < 20:
        return 100.0, s[-1]
    return 100.0 * (n - 10) / n, s[n - 11]


def measure_setup(run: Run) -> float:
    """Median wall time of a fresh interpreter importing ionsim and
    ionsim.cli and evaluating one ideal point, which must give F = 1.

    Not scaled to the reference speed: process start-up varies with the
    machine's memory and page-cache state, which the calibration loop does
    not follow."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        run.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        try:
            ok = proc.returncode == 0 and abs(float(proc.stdout.strip()) - 1.0) <= checks.TOL
        except ValueError:
            ok = False
        if not ok:
            run.failed += 1
            print(f"bench: set-up run failed: {proc.stderr.strip()[-500:]}", file=sys.stderr)
    return statistics.median(times)


def end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    setup_s = measure_setup(run)
    run.warm_up()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        run.step(i)
        i += 1
    run.finish()
    if not run.times:
        sys.exit(f"bench: no {run.name} point completed successfully")
    rate, times, speed = run.scaled()
    n = len(times)
    pct, tail_s = tail(times)
    raw_pct, raw_tail = tail(run.times)
    note = f"n={n}, {len(run.cal)} calibrations, machine at {speed:.3f} x reference speed"
    return {
        "points_per_s": (rate, f"{note}, raw {len(run.times) / run.total_s:.6g}"),
        "point_p50_ms": (statistics.median(times) * 1e3, f"{note}, raw {statistics.median(run.times) * 1e3:.6g}"),
        "point_tail_ms": (tail_s * 1e3, f"p{pct:.3f}, {note}, raw {raw_tail * 1e3:.6g}"),
        "setup_s": (setup_s, f"median of {SETUP_RUNS}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "peak of this process"),
    }


def per_layer(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """Evaluate every point twice, traced and untraced in alternating order,
    so the tracing overhead is measured under the same machine load."""
    plain = Run(run.name, run.seed)
    run.warm_up()
    plain.warm_up()
    w0, c0 = time.perf_counter(), time.process_time()
    deadline = w0 + seconds
    n = 0
    while time.perf_counter() < deadline:
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                with tracing.installed(run.tracer):
                    run.step(n)
            else:
                plain.step(n)
        n += 1
    with tracing.installed(run.tracer):
        run.finish()
    plain.finish()
    cpu_per_wall = (time.process_time() - c0) / (time.perf_counter() - w0)
    run.tracer.save(OUT / f"spans_{run.name}.npz")
    run.attempted += plain.attempted
    run.failed += plain.failed

    layers, root_s = run.tracer.totals()
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    get = lambda layer: layers.get(layer, zero)  # noqa: E731
    counts = run.tracer.counts
    sectors = counts["protocol.analyzer_pulse.sectors"]
    analyzer_s = get("protocol.analyzer_pulse")["incl_s"]
    note = f"n={n} traced points"
    out = {f"{layer}.calls": (get(layer)["calls"] / n, note) for layer in CALL_LAYERS}
    out.update({f"{layer}.self_s": (get(layer)["self_s"] / n, note) for layer in SELF_LAYERS})
    for key in ("protocol.analyzer_pulse.sectors", "protocol.analyzer_pulse.cmac_computed",
                "cli.write_table.bytes", "pulsescript.branches"):
        out[key] = (counts[key] / n, note)
    out["protocol.analyzer_pulse.gcmac_per_s"] = (
        counts["protocol.analyzer_pulse.cmac_computed"] / analyzer_s / 1e9 if analyzer_s else 0.0,
        "computed from sector count x register size",
    )
    out["protocol.negligible_sector_frac"] = (
        counts["protocol.analyzer_pulse.negligible"] / sectors if sectors else 0.0,
        f"of {sectors} analyzed sectors",
    )
    out["process.cpu_per_wall"] = (cpu_per_wall, "traced and untraced phase")
    out["trace.overhead_frac"] = (run.total_s / plain.total_s - 1.0, f"same {n} points untraced")
    out["trace.accounted_frac"] = (
        sum(get(layer)["self_s"] for layer in SELF_LAYERS) / root_s if root_s else 0.0,
        "reported self times / traced wall time",
    )
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "IONSIM_THREADS": os.environ.get("IONSIM_THREADS", "unset"),
        "commit": _commit(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("surface", "hot_trap", "entangle", "script"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    OUT.mkdir(exist_ok=True)

    print("# env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    if args.trace:
        run = Run(args.workload, args.seed, tracer=tracing.Tracer())
        metrics, units = per_layer(run, args.seconds), PER_LAYER
    else:
        run = Run(args.workload, args.seed)
        metrics, units = end_to_end(run, args.seconds), END_TO_END
    for name, (value, note) in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} ({note})")
    print(f"failed_frac = {run.failed / run.attempted:.6g} frac ({run.failed}/{run.attempted} points)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }))
    return 0

