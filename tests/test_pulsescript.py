import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsim.oracle import execute_script_per_branch
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize(
        "prefix, key",
        [("pulse ions=1,2 ", "area"), ("pulse ions=1,2 ", "phi"), ("pulse ions=1,2 ", "phi0"),
         ("pulse ions=1,2 ", "eps"), ("rotate ion=1 axis=x ", "angle"), ("rotate ion=1 axis=x angle=1 ", "eps")],
    )
    def test_non_finite_number_rejected_with_location(self, prefix, key, value):
        with pytest.raises(ScriptError, match=rf"{key} must be finite, got '{value}'") as err:
            parse_pulse_script(f"# comment\n{prefix}{key}={value}")
        assert (err.value.line, err.value.col) == (2, len(prefix) + 1)

    @pytest.mark.parametrize(
        "prefix, token, message",
        [("pulse ions=1,2 ", "area=0", "pulse area must be positive"),
         ("pulse ions=1,2 ", "area=-2", "pulse area must be positive"),
         ("pulse ions=1,2 area=0.5 ", "eps=-1", "pulse-area imprecision must exceed -1"),
         ("pulse ions=1,2 ", "eps=-3", "pulse-area imprecision must exceed -1"),
         ("rotate ion=1 axis=x angle=1 ", "eps=-1", "pulse-area imprecision must exceed -1"),
         ("rotate ion=1 axis=x angle=1 ", "eps=-1.5", "pulse-area imprecision must exceed -1")],
    )
    def test_area_and_imprecision_rejected_like_pulse_spec(self, prefix, token, message):
        # the same bounds PulseSpec enforces, reported at the offending token
        with pytest.raises(ScriptError, match=f"^line 2, col {len(prefix) + 1}: {message}$"):
            parse_pulse_script(f"pulse ions=2,3\n{prefix}{token}")


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

    @pytest.mark.parametrize(
        "initial, norm",
        [([1, 1, 0, 0], "2.0"), ([math.nan, 0, 0, 0], "nan"), ([math.inf, 0, 0, 0], "(nan|inf)"),
         ([0.6, 0.8 + 1e-11, 0, 0], "1.0000000000"), ([0, 0, 0, 0], "0.0")],
    )
    def test_initial_state_must_be_finite_and_normalised(self, initial, norm):
        script = parse_pulse_script("pulse ions=1,2\nmeasure ions=1,2")
        with pytest.raises(ValueError, match=f"initial state has norm {norm}"):
            execute_script(script, 2, np.array(initial, dtype=complex), PHASES)


ANGLE = st.floats(-math.pi, math.pi)


def _statements(n_ions):
    """Pulse, rotate and measure lines on an ``n_ions`` register; the phases
    of a pulse are left to the ``PhaseConfig`` at random."""
    pair = st.lists(st.integers(1, n_ions), min_size=2, max_size=2, unique=True).map(lambda p: f"{p[0]},{p[1]}")
    option = lambda key, values: st.one_of(st.just(""), values.map(lambda v: f" {key}={v!r}"))
    pulse = st.builds(lambda ions, *opts: f"pulse ions={ions}" + "".join(opts), pair,
                      option("k", st.integers(1, 3)), option("area", st.floats(0.1, 3.0)),
                      option("phi", ANGLE), option("phi0", ANGLE), option("eps", st.floats(-0.05, 0.05)))
    rotate = st.builds(lambda ion, axis, angle, eps: f"rotate ion={ion} axis={axis} angle={angle!r}{eps}",
                       st.integers(1, n_ions), st.sampled_from("xyz"), ANGLE, option("eps", st.floats(-0.05, 0.05)))
    measure = pair.map(lambda ions: f"measure ions={ions}")
    return st.one_of(pulse, rotate, measure) if n_ions >= 2 else rotate


class TestBatchedExecutor:
    """``execute_script`` runs every live branch as one row of a single
    register array; it equals the branch-by-branch reference."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_ions=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), remeasure=st.booleans())
    def test_equals_per_branch_reference(self, data, n_ions, seed, remeasure):
        lines = data.draw(st.lists(_statements(n_ions), max_size=6))
        if remeasure and n_ions >= 2:
            # a z rotation keeps ion 2 collapsed, so measuring it again leaves empty branches
            at = data.draw(st.integers(0, len(lines)))
            lines[at:at] = ["measure ions=2,1", "rotate ion=2 axis=z angle=0.7", "measure ions=1,2"]
        script = parse_pulse_script("\n".join(lines))
        rng = np.random.default_rng(seed)
        initial = rng.normal(size=2**n_ions) + 1j * rng.normal(size=2**n_ions)
        initial /= np.linalg.norm(initial)
        got = execute_script(script, n_ions, initial, PHASES).branches
        want = execute_script_per_branch(script, n_ions, initial, PHASES).branches
        assert [b.outcomes for b in got] == [b.outcomes for b in want]
        assert [b.amplitudes is None for b in got] == [b.amplitudes is None for b in want]
        for g, w in zip(got, want):
            assert abs(g.probability - w.probability) <= 1e-12
            if w.amplitudes is not None:
                assert np.max(np.abs(g.amplitudes - w.amplitudes)) <= 1e-12
        if remeasure and n_ions >= 2:
            assert any(b.amplitudes is None for b in got)
