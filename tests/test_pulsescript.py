import math

import numpy as np
import pytest

from ionsim.protocol import PhaseConfig, channel_target_state
from ionsim.pulsescript import (
    MeasureStatement,
    PulseStatement,
    RotateStatement,
    ScriptError,
    execute_script,
    parse_pulse_script,
)

PHASES = PhaseConfig()

TELEPORT_SCRIPT = """\
# teleport ion 1 onto ion 3
pulse ions=2,3    # prepare the Bell channel in the remote trap
pulse ions=1,2    # disentangling analyzer pulse
measure ions=1,2
"""


class TestParser:
    def test_empty_text(self):
        assert len(parse_pulse_script("")) == 0
        assert len(parse_pulse_script("\n  \n# only a comment\n")) == 0

    def test_teleport_sequence(self):
        script = parse_pulse_script(TELEPORT_SCRIPT)
        assert len(script) == 3
        first, second, third = script.statements
        assert isinstance(first, PulseStatement) and first.ions == (2, 3)
        assert first.k == 1 and first.area == pytest.approx(math.pi / 4)
        assert isinstance(second, PulseStatement) and second.ions == (1, 2)
        assert isinstance(third, MeasureStatement) and third.ions == (1, 2)

    def test_full_pulse_statement(self):
        script = parse_pulse_script("pulse ions=1,2 k=2 area=1.5 phi=0.25 phi0=-0.5 eps=0.01")
        st = script.statements[0]
        assert (st.k, st.area, st.phi, st.phi0, st.eps) == (2, 1.5, 0.25, -0.5, 0.01)

    def test_rotate_statement(self):
        script = parse_pulse_script("rotate ion=3 axis=y angle=3.14159")
        st = script.statements[0]
        assert isinstance(st, RotateStatement)
        assert (st.ion, st.axis) == (3, "y")

    def test_single_ion_pulse_rejected_with_location(self):
        with pytest.raises(ScriptError, match="pulse requires two ions") as err:
            parse_pulse_script("pulse ions=1 k=1")
        assert err.value.line == 1
        assert err.value.col == 7

    def test_unknown_statement(self):
        with pytest.raises(ScriptError, match="unknown statement 'warp'") as err:
            parse_pulse_script("# fine\nwarp ions=1,2")
        assert err.value.line == 2

    def test_unknown_key(self):
        with pytest.raises(ScriptError, match="unknown key 'power'"):
            parse_pulse_script("pulse ions=1,2 power=9")

    def test_duplicate_key(self):
        with pytest.raises(ScriptError, match="duplicate key"):
            parse_pulse_script("pulse ions=1,2 k=1 k=2")

    def test_bad_number(self):
        with pytest.raises(ScriptError, match="area expects a number"):
            parse_pulse_script("pulse ions=1,2 area=wide")

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_sideband_order_below_one(self, k):
        with pytest.raises(ScriptError, match="k must be an integer >= 1") as err:
            parse_pulse_script(f"pulse ions=1,2 k={k}")
        assert (err.value.line, err.value.col) == (1, 16)

    def test_bad_axis(self):
        with pytest.raises(ScriptError, match="axis must be"):
            parse_pulse_script("rotate ion=1 axis=w angle=1.0")

    def test_missing_required_key(self):
        with pytest.raises(ScriptError, match="rotate requires angle"):
            parse_pulse_script("rotate ion=1 axis=x")

    def test_identical_ions_rejected(self):
        with pytest.raises(ScriptError, match="distinct"):
            parse_pulse_script("measure ions=2,2")


class TestExecutor:
    def _ground_register(self, q, n_ions=3):
        state = np.asarray(q, dtype=complex)
        for _ in range(n_ions - 1):
            state = np.kron(state, np.array([1.0, 0.0], dtype=complex))
        return state

    def test_channel_preparation_from_ground(self):
        script = parse_pulse_script("pulse ions=2,3")
        q = np.array([1.0, 0.0], dtype=complex)
        result = execute_script(script, 3, self._ground_register(q), PHASES)
        amps = result.branches[0].amplitudes.reshape(2, 4)[0]
        phase = amps[0] / abs(amps[0])
        assert np.max(np.abs(amps / phase - channel_target_state(1, PHASES.phi_b))) < 1e-12

    def test_rotation_flips_basis_state(self):
        script = parse_pulse_script("rotate ion=1 axis=x angle=3.141592653589793")
        q = np.array([1.0, 0.0], dtype=complex)
        result = execute_script(script, 1, q, PHASES)
        amps = result.branches[0].amplitudes
        assert abs(amps[0]) < 1e-12
        assert abs(abs(amps[1]) - 1) < 1e-12

    def test_teleport_script_branches(self):
        script = parse_pulse_script(TELEPORT_SCRIPT)
        q = np.array([0.6, 0.8], dtype=complex)
        result = execute_script(script, 3, self._ground_register(q), PHASES)
        assert len(result.branches) == 4
        assert sum(b.probability for b in result.branches) == pytest.approx(1.0, abs=1e-10)
        for b in result.branches:
            assert b.probability == pytest.approx(0.25, abs=1e-10)
            assert len(b.outcomes) == 1 and b.outcomes[0][0] == (1, 2)

    def test_measured_register_collapses(self):
        script = parse_pulse_script("pulse ions=1,2\nmeasure ions=1,2")
        q = np.array([1.0, 0.0], dtype=complex)
        result = execute_script(script, 2, np.kron(q, q), PHASES)
        live = [b for b in result.branches if b.amplitudes is not None]
        dead = [b for b in result.branches if b.amplitudes is None]
        # pi/4 pulse from |dd> populates only the dd and uu branches
        assert {b.outcomes[0][1] for b in live} == {"dd", "uu"}
        assert all(b.probability == 0.0 for b in dead)
        for b in live:
            assert abs(np.linalg.norm(b.amplitudes) - 1) < 1e-12

    def test_ion_out_of_range(self):
        script = parse_pulse_script("rotate ion=5 axis=x angle=1.0")
        with pytest.raises(ScriptError, match="exceeds register size"):
            execute_script(script, 3, self._ground_register(np.array([1.0, 0.0])), PHASES)
