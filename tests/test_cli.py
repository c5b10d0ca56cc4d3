import csv
import io
import json
import math

import numpy as np
import pytest

from ionsim import cli
from ionsim.motional import ModeParams

TELEPORT_SCRIPT = "pulse ions=2,3\npulse ions=1,2\nmeasure ions=1,2\n"


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return meta, rows


class TestRabiSurface:
    def test_default_emits_full_grid(self, capsys):
        code, out, err = run_cli(["rabi-surface"], capsys)
        assert code == 0 and err == ""
        meta, rows = parse_csv(out)
        assert len(rows) == 676
        assert meta["eta"] == "0.15"
        modes = ModeParams(eta=0.15)
        first = rows[0]
        assert (first["n"], first["n_r"]) == ("0", "0")
        expected = math.exp(-(modes.eta**2 + modes.eta_r**2))
        assert abs(float(first["rabi"])) == pytest.approx(expected, abs=1e-12)

    def test_magnitudes_pairwise_distinct(self, capsys):
        code, out, _ = run_cli(["rabi-surface"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        mags = sorted(abs(float(r["rabi"])) for r in rows)
        assert all(b > a for a, b in zip(mags, mags[1:]))

    def test_json_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "surface.json"
        code, _, _ = run_cli(
            ["rabi-surface", "--grid", "n=0:3,nr=0:3", "--format", "json", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        text = out_path.read_text()
        payload = json.loads(text)
        assert set(payload) == {"meta", "rows"}
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text


class TestChannelFidelity:
    def test_default_triple(self, capsys):
        code, out, _ = run_cli(["channel-fidelity"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        got = {float(r["nbar"]): (float(r["nbar_r"]), float(r["fidelity"])) for r in rows}
        assert got[0.2][0] == pytest.approx(0.047, abs=1e-3)
        assert got[1.0][0] == pytest.approx(0.43, abs=5e-3)
        assert got[5.0][0] == pytest.approx(2.69, abs=5e-3)
        assert got[0.2][1] == pytest.approx(0.999, abs=2e-3)
        assert got[1.0][1] == pytest.approx(0.988, abs=4e-3)
        assert got[5.0][1] == pytest.approx(0.880, abs=1e-2)

    def test_ground_state_row(self, capsys):
        code, out, _ = run_cli(["channel-fidelity", "--nbar", "0"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["fidelity"]) == pytest.approx(1.0, abs=1e-12)

    def test_cutoff_doubling_converged(self, capsys):
        values = []
        for cutoff in (80, 160):
            code, out, _ = run_cli(
                ["channel-fidelity", "--nbar", "5", "--cutoff", str(cutoff)], capsys
            )
            assert code == 0
            _, rows = parse_csv(out)
            values.append(float(rows[0]["fidelity"]))
        assert abs(values[0] - values[1]) < 1e-6


class TestTeleport:
    def test_ideal_json(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["teleport", "--nbar", "0", "--input-state", "0.6,0.8", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["aggregate"] == pytest.approx(1.0, abs=1e-12)
        for p in payload["outcome_probs"].values():
            assert p == pytest.approx(0.25, abs=1e-10)

    def test_cold_trap_report(self, capsys):
        code, out, _ = run_cli(["teleport", "--nbar", "0.11"], capsys)
        assert code == 0
        assert "aggregate fidelity" in out
        aggregate = float(out.split("aggregate fidelity:")[1].split()[0])
        assert aggregate >= 0.985

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(["teleport", "--nbar", "0", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    def test_seeded_demo_sample_is_deterministic(self, capsys):
        _, out1, _ = run_cli(["teleport", "--nbar", "0", "--seed", "11"], capsys)
        _, out2, _ = run_cli(["teleport", "--nbar", "0", "--seed", "11"], capsys)
        assert out1 == out2
        assert "sampled outcome (seed=11)" in out1


class TestFidelitySurface:
    def test_small_grid(self, capsys):
        code, out, _ = run_cli(
            ["fidelity-surface", "--grid", "nbar=0:0.2:3,eta=0.05:0.25:3"], capsys
        )
        assert code == 0
        meta, rows = parse_csv(out)
        assert len(rows) == 9
        corner = next(r for r in rows if float(r["nbar"]) == 0.0 and float(r["eta"]) == 0.05)
        assert float(corner["fidelity"]) == pytest.approx(1.0, abs=1e-9)
        assert all(float(r["fidelity"]) > 0.97 for r in rows)
        assert meta["eps"] == "0.0"

    def test_thread_env_does_not_change_output(self, capsys, monkeypatch):
        args = ["fidelity-surface", "--grid", "nbar=0:0.15:2,eta=0.1:0.2:2"]
        monkeypatch.setenv("IONSIM_THREADS", "1")
        _, serial, _ = run_cli(args, capsys)
        monkeypatch.setenv("IONSIM_THREADS", "4")
        _, threaded, _ = run_cli(args, capsys)
        assert serial == threaded


class TestSwap:
    def test_ideal_report(self, capsys):
        code, out, _ = run_cli(["swap"], capsys)
        assert code == 0
        for label, herald in (("dd", "phi-"), ("du", "psi-"), ("ud", "psi+"), ("uu", "phi+")):
            assert f"outcome {label}: p=0.25000000 heralds {herald} fidelity 1.00000000" in out

    def test_thermal_swap(self, capsys, tmp_path):
        out_path = tmp_path / "swap.json"
        code, out, _ = run_cli(
            ["swap", "--nbar", "0.2", "--format", "json", "--out", str(out_path)], capsys
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        probs = [row["probability"] for row in payload["rows"]]
        fids = [row["fidelity"] for row in payload["rows"]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)
        assert all(f < 1.0 for f in fids)


class TestRunScript:
    def test_matches_teleport_command(self, capsys, tmp_path):
        script = tmp_path / "teleport.ps"
        script.write_text(TELEPORT_SCRIPT)
        report_path = tmp_path / "teleport.json"
        code, _, _ = run_cli(
            ["teleport", "--nbar", "0", "--input-state", "0.6,0.8", "--out", str(report_path)],
            capsys,
        )
        assert code == 0
        direct = json.loads(report_path.read_text())

        script_out = tmp_path / "script.json"
        code, _, _ = run_cli(
            ["run-script", str(script), "--input-state", "0.6,0.8", "--out", str(script_out)],
            capsys,
        )
        assert code == 0
        scripted = json.loads(script_out.read_text())["teleport"]
        assert scripted["aggregate"] == pytest.approx(direct["aggregate"], abs=1e-12)
        for label, p in direct["outcome_probs"].items():
            assert scripted["outcome_probs"][label] == pytest.approx(p, abs=1e-12)

    def test_parse_error_exit_code(self, capsys, tmp_path):
        script = tmp_path / "bad.ps"
        script.write_text("pulse ions=1 k=1\n")
        code, out, err = run_cli(["run-script", str(script)], capsys)
        assert code == 1
        assert err.startswith("error: script line 1")
        assert err.count("\n") == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(["run-script", str(tmp_path / "nope.ps")], capsys)
        assert code == 1
        assert err.startswith("error: ")


class TestConfigPrecedence:
    def test_file_applies_and_flag_overrides(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# comment line\neta = 0.1\nformat = csv\n")
        _, out_file, _ = run_cli(["rabi-surface", "--grid", "n=0:1,nr=0:1",
                                  "--config", str(config)], capsys)
        meta_file, _ = parse_csv(out_file)
        assert meta_file["eta"] == "0.1"
        _, out_flag, _ = run_cli(
            ["rabi-surface", "--grid", "n=0:1,nr=0:1", "--config", str(config), "--eta", "0.3"],
            capsys,
        )
        meta_flag, _ = parse_csv(out_flag)
        assert meta_flag["eta"] == "0.3"

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("warp = 9\n")
        code, _, err = run_cli(["rabi-surface", "--config", str(config)], capsys)
        assert code == 1
        assert "unknown config key" in err


class TestValidation:
    def test_eta_out_of_range(self, capsys):
        code, _, err = run_cli(["channel-fidelity", "--eta", "1.5"], capsys)
        assert code == 1
        assert err.startswith("error: eta must lie in (0, 1)")

    def test_eps_out_of_range(self, capsys):
        code, _, err = run_cli(["teleport", "--eps", "1.5"], capsys)
        assert code == 1
        assert "eps" in err

    def test_bad_grid_axis(self, capsys):
        code, _, err = run_cli(["fidelity-surface", "--grid", "volume=0:1:2"], capsys)
        assert code == 1
        assert "unknown grid axis" in err

    def test_unwritable_output_path(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "table.csv"
        code, _, err = run_cli(
            ["rabi-surface", "--grid", "n=0:1,nr=0:1", "--out", str(target)], capsys
        )
        assert code == 1
        assert err.startswith("error: ")


class TestInvalidInputs:
    @pytest.mark.parametrize(
        "argv",
        [[command, "--nbar", nbar] for command in ("teleport", "channel-fidelity", "swap")
         for nbar in ("nan", "inf", "-1")]
        + [["teleport", "--input-state", "nan,1"]],
    )
    def test_one_line_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestJsonStdout:
    @pytest.mark.parametrize("argv", [["teleport", "--nbar", "0"], ["swap", "--nbar", "0.2"], ["run-script"]])
    def test_format_json_without_out_prints_only_json(self, capsys, tmp_path, argv):
        if argv == ["run-script"]:
            script = tmp_path / "teleport.ps"
            script.write_text(TELEPORT_SCRIPT)
            argv = ["run-script", str(script)]
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0
        assert isinstance(json.loads(out), dict)
