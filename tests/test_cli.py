import argparse
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from ionsim import cli
from ionsim.motional import ModeParams
from ionsim.protocol import PhaseConfig, TeleportConfig
from ionsim.pulsescript import execute_script, parse_pulse_script

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

    def test_truncation_warns_once_per_run(self, capsys):
        # every one of the 15 points truncates its thermal tail at cutoff 4
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(["fidelity-surface", "--grid", "nbar=0.5:3:5,eta=0.1:0.2:3",
                                  "--cutoff", "4"], capsys)
        assert code == 0
        truncation = [str(w.message) for w in caught if "thermal truncation" in str(w.message)]
        assert len(truncation) == 1
        assert "at 15 of 15 grid points (largest 3.005e-01)" in truncation[0]


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
        assert payload["meta"]["k"] == 1


class TestSidebandOrder:
    """``--k`` reaches the swap and the channel: both are exact at nbar = 0."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ideal_swap(self, capsys, k):
        code, out, _ = run_cli(["swap", "--nbar", "0", "--k", str(k), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["k"] == k
        assert len(payload["rows"]) == 4
        for row in payload["rows"]:
            assert row["fidelity"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ideal_channel(self, capsys, k):
        code, out, _ = run_cli(["channel-fidelity", "--nbar", "0", "--k", str(k)], capsys)
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["k"] == str(k)
        assert [float(r["fidelity"]) for r in rows] == [pytest.approx(1.0, abs=1e-12)]


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

    def test_json_amplitudes_parse_back_to_branch_registers(self, capsys, tmp_path):
        script = tmp_path / "teleport.ps"
        script.write_text(TELEPORT_SCRIPT)
        code, out, _ = run_cli(["run-script", str(script), "--input-state", "0.6,0.8", "--format", "json"], capsys)
        assert code == 0
        initial = np.kron([0.6, 0.8], [1, 0, 0, 0]).astype(complex)
        want = execute_script(parse_pulse_script(TELEPORT_SCRIPT), 3, initial, PhaseConfig()).branches
        got = json.loads(out)["branches"]
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert np.array_equal([complex(a) for a in g["amplitudes"]], w.amplitudes)

    def test_parse_error_exit_code(self, capsys, tmp_path):
        script = tmp_path / "bad.ps"
        script.write_text("pulse ions=1 k=1\n")
        code, out, err = run_cli(["run-script", str(script)], capsys)
        assert code == 1
        assert err.startswith("error: script line 1")
        assert err.count("\n") == 1

    def test_default_input_state_is_the_qubit_it_ran(self, capsys, tmp_path):
        script = tmp_path / "teleport.ps"
        script.write_text(TELEPORT_SCRIPT)
        code, out, _ = run_cli(["run-script", str(script), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["input_state"] == "z+"
        _, explicit, _ = run_cli(["run-script", str(script), "--input-state", "z+", "--format", "json"], capsys)
        assert json.loads(explicit) == payload

    def test_average_input_state_rejected(self, capsys, tmp_path):
        script = tmp_path / "teleport.ps"
        script.write_text(TELEPORT_SCRIPT)
        code, out, err = run_cli(["run-script", str(script), "--input-state", "average"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "'average'" in err and err.count("\n") == 1

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
        + [["teleport", "--input-state", "nan,1"], ["teleport", "--k", "0"]]
        + [[command, flag, value] for command in ("teleport", "channel-fidelity", "swap")
           for flag in ("--phi", "--phi0") for value in ("nan", "inf")],
    )
    def test_one_line_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("nbar_r", "nbar_b") for v in (math.nan, math.inf, -1.0)]
        + [("eta_b", v) for v in (math.nan, math.inf, 1.5, 1.0, 0.0, -0.1)]
        + [("k", v) for v in (0, -1, 1.5, True)],
    )
    def test_config_error_names_field(self, field, value):
        # trap-B and stretch-mode fields reach the library only, not the CLI;
        # k must be a whole sideband order of at least 1
        with pytest.raises(ValueError, match=rf"^{field} must"):
            TeleportConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("phi0_a", "phi0_b", "phi_a", "phi_b") for v in (math.nan, math.inf, -math.inf)],
    )
    def test_phase_error_names_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            PhaseConfig(**{field: value})


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


#: Every subcommand's option strings, in ``--help`` order, and its positionals.
OPTIONS = {
    "rabi-surface": ("--eta --eta-r --k --grid --format --out", []),
    "channel-fidelity": ("--eta --eta-r --nbar --eps --k --phi --phi0 --cutoff --tail-tol --format --out", []),
    "teleport": ("--eta --eta-r --nbar --eps --k --phi --phi0 --cutoff --tail-tol --input-state --format "
                 "--out --seed", []),
    "fidelity-surface": ("--eta-r --eps --phi --phi0 --tail-tol --cutoff --grid --input-state --format --out",
                         []),
    "swap": ("--eta --eta-r --nbar --eps --k --phi --phi0 --tail-tol --cutoff --format --out", []),
    "run-script": ("--eps --phi --phi0 --input-state --format --out", ["script"]),
}

#: A value off the default for every option that sets a TeleportConfig field.
CONFIG_VALUES = {"eta": "0.15", "eta_r": "0.12", "nbar": "0.3", "eps": "0.02", "k": "2",
                 "phi": "2.356194490192345", "phi0": "-1.2", "cutoff": "6", "tail_tol": "1e-4"}


class TestTables:
    def test_subcommand_options_are_pinned(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(OPTIONS)
        for name, (flags, positionals) in OPTIONS.items():
            actions = sub.choices[name]._actions
            got = [s for a in actions for s in a.option_strings]
            assert got == ["-h", "--help", *flags.split(), "--config"], name
            assert [a.dest for a in actions if not a.option_strings] == positionals, name

    @pytest.mark.parametrize("key, value", list(CONFIG_VALUES.items()))
    def test_config_key_matches_flag(self, capsys, tmp_path, key, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n")
        flag = "--" + key.replace("_", "-")
        outputs = [run_cli(["teleport", *argv, "--format", "json"], capsys)
                   for argv in ([flag, value], ["--config", str(config)], [])]
        assert [code for code, _, _ in outputs] == [0, 0, 0]
        from_flag, from_file, default = (out for _, out, _ in outputs)
        assert from_file == from_flag != default
