"""Tests of the benchmark itself: seeded generation, failure counting,
tracing hygiene and the printed metric set.

    python -m pytest -q bench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ionsim  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert workloads.points(name, 7) == workloads.points(name, 7)
    assert workloads.points(name, 7) != workloads.points(name, 8)


def test_generated_points_stay_at_k1_inside_accepted_ranges():
    for name in ("surface", "hot_trap", "entangle"):
        for p in workloads.points(name, 3):
            cfg = workloads._config(p)
            assert cfg.k == 1 and 0 < cfg.eta < 1 and cfg.nbar >= 0 and abs(cfg.epsilon) < 1
    for p in workloads.points("script", 3)[1:]:
        assert 3 <= p["n_ions"] <= 6
        assert sum(line.startswith("measure") for line in p["text"].splitlines()) <= 3


def test_reference_covers_every_default_seed_point():
    for name in workloads.WORKLOADS:
        assert len(checks.load_reference(name, workloads.DEFAULT_SEED)) == len(
            workloads.points(name, workloads.DEFAULT_SEED)
        )


@pytest.mark.parametrize("field", ["agg", "p", "F"])
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 5])
def test_result_perturbed_by_1e9_is_a_failed_point(monkeypatch, field, seed):
    run = harness.Run("surface", seed)
    real = workloads.record

    def perturbed(point, out):
        rec = real(point, out)
        if field == "agg":
            rec["agg"] += 1e-9
        else:
            rec[field][1] += 1e-9
        return rec

    run.step(1)
    assert (run.attempted, run.failed) == (1, 0)
    monkeypatch.setattr(workloads, "record", perturbed)
    run.step(1)
    assert (run.attempted, run.failed) == (2, 1)


def test_raising_point_is_counted_not_raised(monkeypatch):
    run = harness.Run("entangle", 2)

    def broken(point):
        raise ValueError("boom")

    monkeypatch.setattr(workloads, "evaluate", broken)
    run.step(0)
    assert (run.attempted, run.failed, run.times) == (1, 1, [])


def _module_state():
    mods = [m for name, m in sorted(sys.modules.items()) if name == "ionsim" or name.startswith("ionsim.")]
    return {m.__name__: dict(vars(m)) for m in mods}


def test_traced_run_leaves_ionsim_modules_unchanged():
    before = _module_state()
    run = harness.Run("surface", 1, tracer=tracing.Tracer())
    metrics = harness.per_layer(run, 0.3)
    after = _module_state()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys()
        changed = [k for k in before[name] if before[name][k] is not after[name][k]]
        assert not changed, (name, changed)
    assert metrics["motional.rabi_frequency.calls"][0] > 0
    assert run.failed == 0


def test_self_times_cover_the_traced_time():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.call("protocol.glue", ionsim.protocol.teleport_fidelity, "average",
                    ionsim.TeleportConfig(nbar=1.0))
    layers, root_s = tracer.totals()
    assert set(layers) <= set(harness.SELF_LAYERS)
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(root_s, rel=1e-9)
    assert layers["protocol.analyzer_pulse"]["calls"] == 6


def test_removed_target_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("ionsim.protocol", "no_such_function", "protocol.gone", None),
        ("ionsim.no_such_module", "f", "gone.module", None),
    ))
    run = harness.Run("script", 1, tracer=tracing.Tracer())
    metrics = harness.per_layer(run, 0.2)
    layers, _ = run.tracer.totals()
    assert "protocol.gone" not in layers and "gone.module" not in layers
    assert metrics["protocol.analyzer_pulse.sectors"][0] == 0


def test_counter_hook_survives_reshaped_arguments():
    tracer = tracing.Tracer()
    wrapped = tracer.wrap("protocol.analyzer_pulse", lambda register: 1, tracing._analyzer_counts)
    assert wrapped(register=[0.5, 0.5]) == 1
    assert tracer.counts["protocol.analyzer_pulse.sectors"] == 0
    assert tracer.totals()[0]["protocol.analyzer_pulse"]["calls"] == 1


def _main_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert harness.main(argv) == 0
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed(trace, section):
    lines = _main_output(["--workload", "script", "--seed", "1", "--seconds", "0.5", "--trace", str(trace)])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    printed = {line.split(" = ")[0] for line in lines[:-1] if " = " in line}
    assert set(names) | {"failed_frac"} <= printed
    assert any(line.startswith("# env ") for line in lines)


def test_declared_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
