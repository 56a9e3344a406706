"""Secrecy-rate expressions for the four operating modes."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopsec import (
    ChannelGains,
    NoiseModel,
    RatePair,
    ScenarioKind,
    SecrecyRegion,
    mac_secrecy_region,
    rate_mrc_relay,
    rate_p2p,
    secrecy_rate,
    snr_direct,
    snr_relay_path,
)

gain = st.floats(min_value=0.01, max_value=2.0)
power = st.floats(min_value=0.0, max_value=50.0)

# hypothesis tests need module-level parameters: function-scoped fixtures
# are not reset between generated examples
STD_GAINS = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
STD_NOISE = NoiseModel(1.0)


class TestRatePair:
    def test_clamped_zeroes_negatives(self):
        pair = RatePair(-0.5, 0.3)
        assert pair.clamped() == RatePair(0.0, 0.3)


class TestScalarRates:
    def test_rate_p2p_is_log1p(self):
        assert rate_p2p(1.0) == pytest.approx(math.log(2.0))

    def test_rate_p2p_rejects_negative(self):
        with pytest.raises(ValueError):
            rate_p2p(-0.1)

    def test_mrc_adds_snrs_inside_log(self):
        assert rate_mrc_relay(1.0, 2.0) == pytest.approx(math.log(4.0))

    @given(s1=st.floats(min_value=0, max_value=100), s2=st.floats(min_value=0.01, max_value=100))
    def test_mrc_beats_direct_alone(self, s1, s2):
        assert rate_mrc_relay(s1, s2) > rate_p2p(s1)


class TestSecrecyRateNonCoop:
    def test_standard_point(self, std_gains, std_noise):
        pair = secrecy_rate(ScenarioKind.NON_COOP, std_gains, std_noise, p_a=5.0, p_j=5.0)
        assert pair.cs1 == pytest.approx(math.log1p(2.0) - math.log1p(1.5))
        assert pair.cs2 == pytest.approx(math.log1p(2.5) - math.log1p(1.5))

    def test_zero_power_zero_rate(self, std_gains, std_noise):
        pair = secrecy_rate(ScenarioKind.NON_COOP, std_gains, std_noise, p_a=0.0, p_j=0.0)
        assert pair == RatePair(0.0, 0.0)

    def test_eavesdropper_advantage_goes_negative(self, std_noise):
        gains = ChannelGains(g_ab=0.1, g_ae=0.4, g_jb=0.5, g_je=0.3, g_aj=0.2)
        pair = secrecy_rate(ScenarioKind.NON_COOP, gains, std_noise, p_a=5.0, p_j=0.0)
        assert pair.cs1 < 0
        assert pair.clamped().cs1 == 0.0

    def test_rejects_negative_power(self, std_gains, std_noise):
        with pytest.raises(ValueError):
            secrecy_rate(ScenarioKind.NON_COOP, std_gains, std_noise, p_a=-1.0, p_j=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["p_a", "p_j", "p_ab", "p_jb"])
    @pytest.mark.parametrize("kind", list(ScenarioKind))
    def test_rejects_non_finite_power(self, std_gains, std_noise, kind, name, bad):
        powers = {"p_a": 1.0, "p_j": 1.0, "p_ab": 0.5, "p_jb": 0.5, name: bad}
        with pytest.raises(ValueError, match="powers must be finite"):
            secrecy_rate(kind, std_gains, std_noise, alpha=0.8, **powers)

    @given(p=st.floats(min_value=0.0, max_value=50.0))
    def test_monotone_when_main_link_stronger(self, p):
        lower = secrecy_rate(ScenarioKind.NON_COOP, STD_GAINS, STD_NOISE, p_a=p, p_j=0.0)
        higher = secrecy_rate(ScenarioKind.NON_COOP, STD_GAINS, STD_NOISE, p_a=p + 1.0, p_j=0.0)
        assert higher.cs1 > lower.cs1


class TestSecrecyRateOneSide:
    def test_donated_power_carries_second_message(self, std_gains, std_noise):
        pair = secrecy_rate(
            ScenarioKind.ONE_SIDE_COOP, std_gains, std_noise, p_a=5.0, p_j=5.0, alpha=0.8
        )
        # message 2 rides alpha*p_j = 4 over a's links
        assert pair.cs2 == pytest.approx(math.log1p(0.4 * 4.0) - math.log1p(0.3 * 4.0))
        # message 1 is the plain direct rate
        assert pair.cs1 == pytest.approx(math.log1p(2.0) - math.log1p(1.5))

    def test_requires_alpha(self, std_gains, std_noise):
        with pytest.raises(ValueError):
            secrecy_rate(ScenarioKind.ONE_SIDE_COOP, std_gains, std_noise, p_a=5.0, p_j=5.0)


class TestSecrecyRateMac:
    def test_power_swap_sides(self, std_gains, std_noise):
        pair = secrecy_rate(
            ScenarioKind.MAC_COOP, std_gains, std_noise, p_a=5.0, p_j=5.0, alpha=0.8
        )
        # message 1 on a's links with borrowed 0.8*5 = 4
        assert pair.cs1 == pytest.approx(math.log1p(0.4 * 4.0) - math.log1p(0.3 * 4.0))
        # message 2 on j's links with 5/0.8 = 6.25
        assert pair.cs2 == pytest.approx(math.log1p(0.5 * 6.25) - math.log1p(0.3 * 6.25))

    def test_rejects_zero_alpha(self, std_gains, std_noise):
        with pytest.raises(ValueError):
            secrecy_rate(
                ScenarioKind.MAC_COOP, std_gains, std_noise, p_a=5.0, p_j=5.0, alpha=0.0
            )

    def test_alpha_one_matches_noncoop_when_links_shared(self, std_noise):
        # with alpha = 1 the swap moves each message onto the partner's
        # links at the partner's budget; on a symmetric channel that is
        # indistinguishable from no cooperation
        gains = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.4, g_je=0.3, g_aj=0.2)
        swap = secrecy_rate(ScenarioKind.MAC_COOP, gains, std_noise, p_a=5.0, p_j=5.0, alpha=1.0)
        plain = secrecy_rate(ScenarioKind.NON_COOP, gains, std_noise, p_a=5.0, p_j=5.0)
        assert swap.cs1 == pytest.approx(plain.cs1)
        assert swap.cs2 == pytest.approx(plain.cs2)


class TestSecrecyRateRelay:
    def test_standard_point(self, std_gains, std_noise):
        pair = secrecy_rate(
            ScenarioKind.RELAY_COOP, std_gains, std_noise, p_a=5.0, p_j=5.0, p_ab=4.0, p_jb=5.0
        )
        assert pair.cs1 == pytest.approx(0.3522205935893521)

    def test_zero_relay_power_collapses_to_noncoop(self, std_gains, std_noise):
        relay = secrecy_rate(
            ScenarioKind.RELAY_COOP, std_gains, std_noise, p_a=5.0, p_j=5.0, p_ab=0.0, p_jb=0.0
        )
        plain = secrecy_rate(ScenarioKind.NON_COOP, std_gains, std_noise, p_a=5.0, p_j=5.0)
        assert relay == plain

    def test_rejects_negative_relay_power(self, std_gains, std_noise):
        with pytest.raises(ValueError):
            secrecy_rate(
                ScenarioKind.RELAY_COOP,
                std_gains,
                std_noise,
                p_a=5.0,
                p_j=5.0,
                p_ab=-0.1,
                p_jb=0.0,
            )

    @given(p_jb=st.floats(min_value=0.001, max_value=50.0))
    def test_relaying_never_hurts_first_message(self, p_jb):
        # the eavesdropper hears only the direct link, so any relaying power
        # spent on message 1 adds a non-negative term inside its logarithm
        with_relay = secrecy_rate(
            ScenarioKind.RELAY_COOP, STD_GAINS, STD_NOISE, p_a=5.0, p_j=5.0, p_jb=p_jb
        )
        without = secrecy_rate(
            ScenarioKind.RELAY_COOP, STD_GAINS, STD_NOISE, p_a=5.0, p_j=5.0, p_jb=0.0
        )
        assert with_relay.cs1 > without.cs1
        assert with_relay.cs2 == pytest.approx(without.cs2)

    def test_string_kind_accepted(self, std_gains, std_noise):
        pair = secrecy_rate("relay_coop", std_gains, std_noise, p_a=5.0, p_j=5.0, p_jb=5.0)
        assert pair.cs1 > 0


def composed_rates(kind, gains, s2, p_a, p_j, alpha, p_ab, p_jb):
    """Secrecy rates spelled with the model's public SNR and rate functions."""

    def gap(main, eve, power):
        return rate_p2p(snr_direct(main, power, s2)) - rate_p2p(snr_direct(eve, power, s2))

    def relayed(direct, eve, hop1, hop2, own, slice_):
        combined = rate_mrc_relay(
            snr_direct(direct, own, s2), snr_relay_path(hop1, hop2, own, slice_, s2)
        )
        return combined - rate_p2p(snr_direct(eve, own, s2))

    g = gains
    if kind is ScenarioKind.NON_COOP:
        return gap(g.g_ab, g.g_ae, p_a), gap(g.g_jb, g.g_je, p_j)
    if kind is ScenarioKind.ONE_SIDE_COOP:
        return gap(g.g_ab, g.g_ae, p_a), gap(g.g_ab, g.g_ae, alpha * p_j)
    if kind is ScenarioKind.MAC_COOP:
        return gap(g.g_ab, g.g_ae, alpha * p_j), gap(g.g_jb, g.g_je, p_a / alpha)
    return (
        relayed(g.g_ab, g.g_ae, g.g_aj, g.g_jb, p_a, p_jb),
        relayed(g.g_jb, g.g_je, g.g_ja, g.g_ab, p_j, p_ab),
    )


def assert_rates_compose(kind, gains, s2, p_a, p_j, alpha, p_ab, p_jb):
    pair = secrecy_rate(
        kind, gains, NoiseModel(s2), p_a=p_a, p_j=p_j, alpha=alpha, p_ab=p_ab, p_jb=p_jb
    )
    assert (pair.cs1, pair.cs2) == composed_rates(kind, gains, s2, p_a, p_j, alpha, p_ab, p_jb)


class TestSecrecyRateKernel:
    """``secrecy_rate`` computes its SNRs itself; the bits are those of the
    public building blocks."""

    @given(
        kind=st.sampled_from(list(ScenarioKind)),
        gains=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=6, max_size=6),
        s2=st.one_of(st.just(1e-300), st.floats(min_value=0.01, max_value=10.0)),
        powers=st.lists(power, min_size=4, max_size=4),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_equals_the_composition(self, kind, gains, s2, powers, alpha):
        assert_rates_compose(kind, ChannelGains(*gains), s2, *powers[:2], alpha, *powers[2:])

    @pytest.mark.parametrize(
        "g_aj, g_jb, p_a, p_jb",
        [
            (0.2, 0.5, 0.0, 0.0),
            (0.0, 0.0, 5.0, 5.0),
            (0.2, 0.5, 1e-30, 0.0),
            (0.2, 0.5, 1e-30, 1e-30),
            (0.5, 0.2, 1e-30, 1e-30),
        ],
    )
    def test_relay_hops_with_underflowing_denominator(self, g_aj, g_jb, p_a, p_jb):
        # the relay hops of test_model's snr_relay_path cases at sigma2 = 1e-300
        gains = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=g_jb, g_je=0.3, g_aj=g_aj, g_ja=g_aj)
        assert_rates_compose(ScenarioKind.RELAY_COOP, gains, 1e-300, p_a, p_a, None, p_jb, p_jb)


class TestSecrecyRateOverflow:
    @pytest.mark.parametrize("g_ae", [0.3, 1e300])
    @pytest.mark.parametrize("kind", list(ScenarioKind))
    def test_overflowing_snr_names_the_mode(self, kind, g_ae):
        # g_ab alone overflows to cs1 = inf; both gains give inf - inf = nan
        gains = ChannelGains(g_ab=1e300, g_ae=g_ae, g_jb=0.5, g_je=0.3, g_aj=0.2)
        with pytest.raises(ValueError, match=f"^{kind.value} secrecy rates are not finite") as info:
            secrecy_rate(kind, gains, NoiseModel(1e-300), p_a=1.0, p_j=1.0, alpha=0.8)
        assert "\n" not in str(info.value)


class TestSecrecyRegion:
    def test_standard_point(self, std_gains, std_noise):
        region = mac_secrecy_region(std_gains, std_noise, p_a=5.0, p_j=5.0)
        assert region.r1_max == pytest.approx(0.18232155679395445)
        assert region.r2_max == pytest.approx(0.33647223662121295)
        assert region.sum_max == pytest.approx(0.3184537311185347)

    def test_sum_cap_constrains_membership(self, std_gains, std_noise):
        region = mac_secrecy_region(std_gains, std_noise, p_a=5.0, p_j=5.0)
        # at this point the sum cap sits between the two individual caps
        assert region.r1_max < region.sum_max < region.r2_max
        assert region.contains(RatePair(region.r1_max, 0.0))
        assert not region.contains(RatePair(0.0, region.r2_max))
        assert region.contains(RatePair(0.0, region.sum_max))
        assert not region.contains(RatePair(region.r1_max, region.r2_max))

    def test_vertices_trace_cut_rectangle(self, std_gains, std_noise):
        region = mac_secrecy_region(std_gains, std_noise, p_a=5.0, p_j=5.0)
        vertices = region.vertices()
        assert vertices[0] == (0.0, 0.0)
        for x, y in vertices:
            assert region.contains(RatePair(x, y))

    def test_one_side_keeps_full_rate_for_helper(self, std_gains, std_noise):
        one_side = mac_secrecy_region(std_gains, std_noise, p_a=5.0, p_j=5.0, one_side=True)
        both = mac_secrecy_region(std_gains, std_noise, p_a=5.0, p_j=5.0)
        assert one_side.r2_max == pytest.approx(math.log1p(2.5))
        assert one_side.r2_max > both.r2_max
        assert one_side.sum_max > both.sum_max

    def test_adverse_channel_degenerates(self, std_noise):
        gains = ChannelGains(g_ab=0.1, g_ae=0.4, g_jb=0.1, g_je=0.4, g_aj=0.2)
        region = mac_secrecy_region(gains, std_noise, p_a=5.0, p_j=5.0)
        assert region.r1_max == 0.0
        assert region.r2_max == 0.0
        assert region.sum_max == 0.0

    def test_rejects_negative_caps(self):
        with pytest.raises(ValueError):
            SecrecyRegion(r1_max=-0.1, r2_max=0.1, sum_max=0.1)

    @given(
        g_ab=gain, g_ae=gain, g_jb=gain, g_je=gain, p_a=power, p_j=power
    )
    def test_sum_cap_never_exceeds_individual_sum(self, g_ab, g_ae, g_jb, g_je, p_a, p_j):
        gains = ChannelGains(g_ab=g_ab, g_ae=g_ae, g_jb=g_jb, g_je=g_je, g_aj=0.2)
        region = mac_secrecy_region(gains, NoiseModel(1.0), p_a=p_a, p_j=p_j)
        assert region.sum_max <= region.r1_max + region.r2_max + 1e-9
