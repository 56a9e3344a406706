"""Link-level primitives: gains, geometry, SNR building blocks."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopsec import (
    ChannelGains,
    CooperationLevel,
    Geometry,
    NoiseModel,
    PowerBudget,
    effective_gain,
    snr_direct,
    snr_relay_path,
)

finite_gain = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
positive_power = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
noise_var = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
distance = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


class TestChannelGains:
    def test_reciprocal_default(self):
        gains = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
        assert gains.g_ja == 0.2

    def test_explicit_asymmetric_pair_link(self):
        gains = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2, g_ja=0.25)
        assert gains.g_ja == 0.25
        assert gains.g_aj == 0.2

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            ChannelGains(g_ab=-0.1, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ChannelGains(g_ab=math.inf, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)

    @pytest.mark.parametrize(
        "value", ["0.4", b"0.4", True, False], ids=["str", "bytes", "true", "false"]
    )
    def test_strings_and_booleans_are_not_numbers(self, value):
        with pytest.raises(ValueError, match=r"^g_ab must be a number, got "):
            ChannelGains(g_ab=value, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)

    def test_integers_and_numpy_floats_become_floats(self):
        import numpy as np

        gains = ChannelGains(g_ab=1, g_ae=np.float64(0.3), g_jb=0.5, g_je=0.3, g_aj=0.2)
        assert type(gains.g_ab) is float and type(gains.g_ae) is float
        assert (gains.g_ab, gains.g_ae) == (1.0, 0.3)

    def test_frozen(self, std_gains):
        with pytest.raises(AttributeError):
            std_gains.g_ab = 1.0

    def test_effective_unit_distances_is_identity(self, std_gains, unit_geometry):
        assert std_gains.effective(unit_geometry) == std_gains

    def test_effective_divides_by_distance_power(self, std_gains):
        geometry = Geometry(d_ab=2.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=0.5, eta=2.0)
        eff = std_gains.effective(geometry)
        assert eff.g_ab == pytest.approx(0.4 / 4.0)
        assert eff.g_ae == 0.3
        assert eff.g_aj == pytest.approx(0.2 / 0.25)
        assert eff.g_ja == pytest.approx(0.2 / 0.25)


class TestGeometry:
    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            Geometry(d_ab=0.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0)

    def test_eta_below_one_rejected(self):
        with pytest.raises(ValueError):
            Geometry(d_ab=1.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0, eta=0.5)

    def test_with_eve_at_moves_only_eve(self, unit_geometry):
        moved = unit_geometry.with_eve_at(2.5, 3.0)
        assert moved.d_ae == 2.5
        assert moved.d_je == 3.0
        assert moved.d_ab == unit_geometry.d_ab
        assert moved.d_aj == unit_geometry.d_aj

    def test_default_eta_is_square_law(self, unit_geometry):
        assert unit_geometry.eta == 2.0


class TestScalarWrappers:
    def test_noise_must_be_positive(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0)

    def test_budget_allows_zero(self):
        budget = PowerBudget(p_a_max=0.0, p_j_max=0.0)
        assert budget.p_a_max == 0.0

    def test_budget_rejects_negative(self):
        with pytest.raises(ValueError):
            PowerBudget(p_a_max=-1.0, p_j_max=5.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_cooperation_level_range(self, bad):
        with pytest.raises(ValueError):
            CooperationLevel(bad)

    def test_cooperation_level_floats(self):
        assert float(CooperationLevel(0.8)) == 0.8


class TestSnrDirect:
    def test_anchor(self):
        assert snr_direct(0.4, 5.0, 1.0) == pytest.approx(2.0)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            snr_direct(0.4, 5.0, 0.0)

    @given(gain=finite_gain, power=positive_power, sigma2=noise_var)
    def test_linear_in_power(self, gain, power, sigma2):
        assert snr_direct(gain, 2.0 * power, sigma2) == pytest.approx(
            2.0 * snr_direct(gain, power, sigma2)
        )


class TestSnrRelayPath:
    def test_anchor(self):
        # 0.2*0.5*5*5 / (1*(0.2*5 + 0.5*5 + 1)) = 2.5/4.5
        assert snr_relay_path(0.2, 0.5, 5.0, 5.0, 1.0) == pytest.approx(0.5555555555555556)

    def test_zero_power_kills_path(self):
        assert snr_relay_path(0.2, 0.5, 0.0, 5.0, 1.0) == 0.0
        assert snr_relay_path(0.2, 0.5, 5.0, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "args", [(0.2, 0.5, 0.0, 0.0), (0.0, 0.0, 5.0, 5.0), (0.2, 0.5, 1e-30, 0.0)]
    )
    def test_zero_hop_with_underflowing_denominator(self, args):
        # sigma2 * (hop_i + hop_k + sigma2) underflows to zero at sigma2 = 1e-300
        assert snr_relay_path(*args, 1e-300) == 0.0

    def test_tiny_hops_with_underflowing_denominator(self):
        # sigma2 * (hop_i + hop_k + sigma2) underflows, but neither hop is zero
        value = snr_relay_path(0.2, 0.5, 1e-30, 1e-30, 1e-300)
        assert value == pytest.approx((2e-31 / 1e-300) * (5e-31 / 7e-31), rel=1e-12)
        assert snr_relay_path(0.5, 0.2, 1e-30, 1e-30, 1e-300) == pytest.approx(value, rel=1e-15)

    @given(
        g1=st.floats(min_value=0.01, max_value=10.0),
        g2=st.floats(min_value=0.01, max_value=10.0),
        p1=st.floats(min_value=0.01, max_value=100.0),
        p2=st.floats(min_value=0.01, max_value=100.0),
        sigma2=noise_var,
    )
    def test_below_both_hops(self, g1, g2, p1, p2, sigma2):
        combined = snr_relay_path(g1, g2, p1, p2, sigma2)
        assert combined < snr_direct(g1, p1, sigma2)
        assert combined < snr_direct(g2, p2, sigma2)

    @given(
        g1=finite_gain,
        g2=finite_gain,
        p1=positive_power,
        p2=positive_power,
        sigma2=noise_var,
    )
    def test_hop_symmetry(self, g1, g2, p1, p2, sigma2):
        forward = snr_relay_path(g1, g2, p1, p2, sigma2)
        backward = snr_relay_path(g2, g1, p2, p1, sigma2)
        assert forward == pytest.approx(backward, rel=1e-12, abs=1e-15)

    @given(
        g1=st.floats(min_value=0.01, max_value=10.0),
        g2=st.floats(min_value=0.01, max_value=10.0),
        p1=st.floats(min_value=0.01, max_value=100.0),
        sigma2=noise_var,
    )
    def test_monotone_in_relay_power(self, g1, g2, p1, sigma2):
        low = snr_relay_path(g1, g2, p1, 1.0, sigma2)
        high = snr_relay_path(g1, g2, p1, 2.0, sigma2)
        assert high > low


class TestEffectiveGain:
    def test_matches_path_loss_snr(self):
        # gain/d^eta into the flat-SNR form equals the explicit path-loss SNR
        direct = snr_direct(effective_gain(0.4, 2.0, 2.0), 5.0, 1.0)
        assert direct == pytest.approx(0.4 * 5.0 / (2.0**2 * 1.0))

    @given(gain=st.floats(min_value=0.01, max_value=10.0), d=distance)
    def test_decreasing_in_distance(self, gain, d):
        nearer = effective_gain(gain, d, 2.0)
        farther = effective_gain(gain, 2.0 * d, 2.0)
        assert farther < nearer

    def test_unit_distance_is_identity(self):
        assert effective_gain(0.37, 1.0, 3.1) == 0.37
