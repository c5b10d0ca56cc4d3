import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from ionsim import protocol
from ionsim.dynamics import PulseSpec
from ionsim.motional import (
    ModeParams,
    ThermalSpec,
    cutoff_for,
    default_eta_r,
    laguerre,
    matched_nbar_r,
    rabi_grid,
    thermal_distribution,
    thermal_weights,
)
from ionsim.oracle import coupling_factor

ETA = 0.15
MODES = ModeParams(eta=ETA)


def laguerre_sum(m, k, x):
    """Finite-sum oracle: L_m^k(x) = sum_l (-1)^l C(m+k, m-l) x^l / l!."""
    return sum(
        (-1) ** l * math.comb(m + k, m - l) * x**l / math.factorial(l)
        for l in range(m + 1)
    )


class TestLaguerre:
    def test_order_zero_is_one(self):
        for k in (0, 1, 5):
            for x in (0.0, 0.3, 2.0):
                assert laguerre(0, k, x) == 1.0

    def test_first_order(self):
        for x in (0.0, 0.5, 1.7):
            assert laguerre(1, 0, x) == pytest.approx(1 - x, abs=1e-15)

    def test_against_finite_sum(self):
        assert laguerre(2, 1, 0.0225) == pytest.approx(laguerre_sum(2, 1, 0.0225), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 20), st.integers(0, 3),
        st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    def test_matches_scipy(self, m, k, x):
        ref = float(eval_genlaguerre(m, k, x))
        assert laguerre(m, k, x) == pytest.approx(ref, rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 49), st.integers(0, 3),
        st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    def test_three_term_recurrence(self, m, k, x):
        lhs = (m + 1) * laguerre(m + 1, k, x)
        rhs = (2 * m + k + 1 - x) * laguerre(m, k, x) - (m + k) * laguerre(m - 1, k, x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_negative_indices(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 0.5)
        with pytest.raises(ValueError):
            laguerre(0, -2, 0.5)


class TestCouplingFactor:
    def test_first_sideband_ground_sector(self):
        expected = math.exp(-(MODES.eta**2 + MODES.eta_r**2) / 2)
        assert coupling_factor(1, 0, 0, MODES) == pytest.approx(expected, abs=1e-15)
        assert coupling_factor(1, 0, 0, MODES) == pytest.approx(0.98241, abs=1e-5)

    def test_carrier_ground_sector(self):
        expected = math.exp(-(MODES.eta**2 + MODES.eta_r**2) / 2)
        assert coupling_factor(0, 0, 0, MODES) == pytest.approx(expected, abs=1e-15)

    def test_large_n_matches_high_precision_oracle(self):
        n = 40
        got = coupling_factor(1, n, 0, MODES)
        with mpmath.workdps(60):
            gauss = mpmath.exp(-(mpmath.mpf(ETA) ** 2 + mpmath.mpf(MODES.eta_r) ** 2) / 2)
            ref = gauss / (n + 1) * mpmath.laguerre(n, 1, ETA**2) * mpmath.laguerre(0, 0, MODES.eta_r**2)
            ref = float(ref)
        assert got == pytest.approx(ref, rel=1e-9)
        assert math.isfinite(got)

    def test_negative_indices(self):
        with pytest.raises(ValueError):
            coupling_factor(1, -1, 0, MODES)


class TestRabiFrequency:
    def test_ground_sector_first_sideband(self):
        expected = -math.exp(-(MODES.eta**2 + MODES.eta_r**2))
        assert rabi_grid(1, 0, 0, MODES)[0, 0] == pytest.approx(expected, abs=1e-15)
        assert rabi_grid(1, 0, 0, MODES)[0, 0] == pytest.approx(-0.96513, abs=1e-5)

    def test_carrier_has_no_coupling(self):
        for n in range(4):
            for n_r in range(4):
                assert rabi_grid(0, n, n_r, MODES)[n, n_r] == 0.0

    def test_magnitudes_pairwise_distinct_on_surface_grid(self):
        mags = sorted(np.abs(rabi_grid(1, 25, 25, MODES)).ravel())
        assert len(mags) == 676
        assert min(b - a for a, b in zip(mags, mags[1:])) > 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.01, 0.3, allow_nan=False),
        st.integers(0, 25), st.integers(0, 25), st.integers(1, 2),
    )
    def test_finite_and_nonzero(self, eta, n, n_r, k):
        value = rabi_grid(k, n, n_r, ModeParams(eta=eta))[n, n_r]
        assert math.isfinite(value)
        assert value != 0.0


def rabi_grid_oracle(k, cutoff, cutoff_r, p):
    """The bracket f_k^2(n-k, n_r) n!/(n-k)! - f_k^2(n, n_r) (n+k)!/n! at 50
    digits, with f_k(n, n_r) = cm[n] * rel[n_r] the coupling factor."""
    with mpmath.workdps(50):
        eta2, eta_r2 = mpmath.mpf(p.eta) ** 2, mpmath.mpf(p.eta_r) ** 2
        gauss = mpmath.exp(-(eta2 + eta_r2) / 2)
        cm = [gauss * mpmath.factorial(n) / mpmath.factorial(n + k) * mpmath.laguerre(n, k, eta2)
              for n in range(cutoff + 1)]
        rel = [mpmath.laguerre(n_r, 0, eta_r2) for n_r in range(cutoff_r + 1)]
        rising = [mpmath.factorial(n + k) / mpmath.factorial(n) for n in range(cutoff + 1)]
        bracket = [(cm[n - k] ** 2 * rising[n - k] if n >= k else 0) - cm[n] ** 2 * rising[n]
                   for n in range(cutoff + 1)]
        return np.array([[float(b * r**2) for r in rel] for b in bracket])


class TestRabiGrid:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [0.05, 0.15, 0.3])
    def test_matches_mpmath(self, k, eta):
        p = ModeParams(eta=eta)
        ref = rabi_grid_oracle(k, 80, 46, p)
        assert np.max(np.abs(rabi_grid(k, 80, 46, p) - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestMatchedNbarR:
    @pytest.mark.parametrize(
        "nbar,expected,tol",
        [(0.2, 0.047, 1e-3), (1.0, 0.43, 5e-3), (5.0, 2.69, 5e-3)],
    )
    def test_shared_temperature_values(self, nbar, expected, tol):
        assert matched_nbar_r(nbar, math.sqrt(3)) == pytest.approx(expected, abs=tol)

    def test_zero_temperature_limit(self):
        assert matched_nbar_r(0.0) == 0.0

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative(self, nbar):
        with pytest.raises(ValueError, match="mean occupation must be finite and nonnegative"):
            matched_nbar_r(nbar)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 20.0, allow_nan=False), st.floats(0.001, 1.0))
    def test_strictly_increasing(self, nbar, step):
        assert matched_nbar_r(nbar + step) > matched_nbar_r(nbar)


class TestCutoffFor:
    def test_ground_state(self):
        assert cutoff_for(0.0) == 0

    def test_reference_values(self):
        assert cutoff_for(1.0, 1e-6) == 19
        assert cutoff_for(5.0, 1e-6) == 75

    @pytest.mark.parametrize("nbar", [math.inf, math.nan, -0.5])
    def test_rejects_nonfinite_or_negative_occupation(self, nbar):
        with pytest.raises(ValueError, match="mean occupation must be finite and nonnegative"):
            cutoff_for(nbar)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.01, 10.0, allow_nan=False))
    def test_tail_bound_holds_and_is_tight(self, nbar):
        n = cutoff_for(nbar, 1e-6)
        ratio = nbar / (1 + nbar)
        assert ratio ** (n + 1) < 1e-6
        if n > 0:
            assert ratio**n >= 1e-6


class TestThermalDistribution:
    def test_ground_state_is_deterministic(self):
        spec = thermal_distribution(0.0, 0.0, cutoff=3)
        assert spec.weights[0, 0] == 1.0
        assert spec.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_truncated_geometric_renormalization(self):
        # raw weights 1/2 and 1/4 renormalize to 2/3 and 1/3
        with pytest.warns(UserWarning, match="tail mass"):
            spec = thermal_distribution(1.0, 0.0, cutoff=1, cutoff_r=0)
        assert spec.weights[0, 0] == pytest.approx(2 / 3, abs=1e-15)
        assert spec.weights[1, 0] == pytest.approx(1 / 3, abs=1e-15)

    def test_auto_cutoff_keeps_tail_small(self):
        spec = thermal_distribution(5.0, 0.0, cutoff=cutoff_for(5.0, 1e-6), cutoff_r=0)
        assert spec.tail_mass < 1e-6

    def test_weights_sum_to_one(self):
        spec = thermal_distribution(0.7, 0.3, cutoff=25, cutoff_r=25)
        assert abs(spec.weights.sum() - 1.0) < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 5.0, allow_nan=False), st.floats(0.0, 2.0, allow_nan=False))
    def test_monotone_in_each_mode(self, nbar, nbar_r):
        spec = thermal_distribution(nbar, nbar_r, cutoff=12, cutoff_r=12,
                                    tail_tol=0.999)
        w = spec.weights
        assert np.all(np.diff(w, axis=0) <= 1e-18)
        assert np.all(np.diff(w, axis=1) <= 1e-18)

    def test_sector_order_is_weights_ravel(self):
        # entry n*(cutoff_r+1) + n_r of the Rabi factors and of the weights
        # belongs to sector (n, n_r)
        spec = thermal_distribution(0.5, 0.1, cutoff=3, cutoff_r=2, tail_tol=0.999)
        weights = spec.weights.ravel()
        for k in (1, 2, 3):
            omega, _ = protocol._sector_rabi(spec, PulseSpec(phi=0.0, phi0=0.0, k=k), MODES)
            assert omega.shape == weights.shape == (12,)
            for n in range(4):
                for n_r in range(3):
                    assert omega[n * 3 + n_r] == rabi_grid(k, n, n_r, MODES)[n, n_r]
                    assert weights[n * 3 + n_r] == spec.weights[n, n_r]


@pytest.mark.parametrize("nbar", [math.nan, math.inf, -0.5])
def test_thermal_weights_reject_nonfinite_or_negative_occupation(nbar):
    with pytest.raises(ValueError, match="mean occupation must be finite and nonnegative"):
        thermal_weights(nbar, 5)
    with pytest.raises(ValueError, match="mean occupation must be finite and nonnegative"):
        thermal_distribution(nbar, 0.0, 5)


def test_thermal_spec_rejects_nan_weights():
    with pytest.raises(ValueError, match="expected 1"):
        ThermalSpec(nbar=0.0, nbar_r=0.0, cutoff=1, cutoff_r=0, weights=np.array([[1.0], [np.nan]]), tail_mass=0.0)


def test_thermal_weights_raw_mass():
    w = thermal_weights(1.0, 19)
    assert w[0] == pytest.approx(0.5, abs=1e-15)
    assert 1.0 - w.sum() == pytest.approx(0.5**20, rel=1e-9)


def test_default_eta_r_convention():
    assert default_eta_r(0.15) == pytest.approx(0.15 * 3 ** (-0.25), abs=1e-15)
    assert MODES.eta_r == pytest.approx(0.15 * 3 ** (-0.25), abs=1e-15)


def test_mode_params_validation():
    with pytest.raises(ValueError):
        ModeParams(eta=-0.1)
    with pytest.raises(ValueError):
        ModeParams(eta=0.1, nu_ratio=0.5)
