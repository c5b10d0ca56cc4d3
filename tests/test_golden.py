"""Golden output of the README command lines.

Each case runs one README command through ``cli.main`` and compares its
standard output, followed by the file it writes with ``--out``, against
``tests/golden/<case>.txt``: every non-numeric token exactly and every
number to 1e-12. The fidelity surface uses a 3x3 grid to stay fast.

Rewrite the golden files, only in a change meant to alter the output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest

from ionsim import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
TOL = 1e-12

#: case name -> (argv, name of the --out file or None)
CASES = {
    "rabi-surface": (["rabi-surface", "--out", "{out}"], "rabi.csv"),
    "channel-fidelity": (["channel-fidelity"], None),
    "teleport": (["teleport", "--nbar", "0.11", "--eps", "0.0"], None),
    "fidelity-surface": (
        ["fidelity-surface", "--eps", "0.05", "--grid", "nbar=0:0.2:3,eta=0.05:0.25:3",
         "--out", "{out}"],
        "surface.csv",
    ),
    "swap": (["swap", "--nbar", "0.2"], None),
    "run-script": (
        ["run-script", str(ROOT / "scripts" / "teleport.ps"), "--input-state", "0.6,0.8"],
        None,
    ),
}

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def run_case(name: str) -> str:
    """Standard output of one case, then the file it wrote, if any."""
    argv, out_name = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / (out_name or "unused")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([a.format(out=out) for a in argv])
        assert code == 0, name
        text = stdout.getvalue()
        if out_name:
            text += "==> out <==\n" + out.read_text()
    return text


def assert_matches(got: str, want: str) -> None:
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert len(got_parts) == len(want_parts), "token count differs"
    # split() alternates literal text (even index) and numbers (odd index)
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            assert g == w
        else:
            assert abs(float(g) - float(w)) <= TOL, (g, w)


@pytest.mark.parametrize("name", list(CASES))
def test_readme_command_output_is_unchanged(name):
    assert_matches(run_case(name), (GOLDEN / f"{name}.txt").read_text())


def test_number_tokens_compare_by_value():
    assert_matches("p=0.9999999999999999 (0.6+0.8j)", "p=1.0 (0.6+0.8j)")
    with pytest.raises(AssertionError):
        assert_matches("p=0.25 heralds phi+", "p=0.25 heralds phi-")
    with pytest.raises(AssertionError):
        assert_matches("p=0.25000001", "p=0.25")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_text(run_case(case))
    sys.exit(0)
