"""Secrecy-rate expressions for the four operating modes."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsec import (
    ChannelGains,
    NoiseModel,
    RatePair,
    PowerBudget,
    ScenarioKind,
    rate_mrc_relay,
    rate_p2p,
    secrecy_rate,
    snr_direct,
    noncoop_allocation,
    snr_relay_path,
)
from coopsec.rates import _DIRECT_LINKS, _RELAY_LINKS, _secrecy_rate

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
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
            secrecy_rate(kind, std_gains, std_noise, alpha=0.8, **powers)

    @pytest.mark.parametrize("bad", [True, "1", None])
    @pytest.mark.parametrize("name", ["p_a", "p_j", "p_ab", "p_jb"])
    def test_rejects_a_power_that_is_no_number(self, std_gains, std_noise, name, bad):
        powers = {"p_a": 1.0, "p_j": 1.0, "p_ab": 0.5, "p_jb": 0.5, name: bad}
        message = f"^{name} must be a number, got {re.escape(repr(bad))}$"
        for kind in ScenarioKind:
            with pytest.raises(ValueError, match=message):
                secrecy_rate(kind, std_gains, std_noise, alpha=0.8, **powers)

    @pytest.mark.parametrize("kind", list(ScenarioKind))
    def test_any_real_number_is_a_power(self, std_gains, std_noise, kind):
        floats = secrecy_rate(kind, std_gains, std_noise, alpha=0.8, p_a=5.0, p_j=3.0, p_jb=1.0)
        others = secrecy_rate(
            kind, std_gains, std_noise, alpha=0.8, p_a=5, p_j=np.float64(3.0), p_jb=1
        )
        assert (others.cs1.hex(), others.cs2.hex()) == (floats.cs1.hex(), floats.cs2.hex())

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
        return gap(g.g_ab, g.g_ae, alpha * p_j), gap(g.g_jb, g.g_je, (1.0 / alpha) * p_a)
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

    # a bit-for-bit property over rounding choices needs many examples
    @settings(max_examples=1000)
    @given(
        kind=st.sampled_from(list(ScenarioKind)),
        gains=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=6, max_size=6),
        s2=st.one_of(st.just(1e-300), st.floats(min_value=0.01, max_value=10.0)),
        powers=st.lists(power, min_size=4, max_size=4),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_equals_the_composition(self, kind, gains, s2, powers, alpha):
        assert_rates_compose(kind, ChannelGains(*gains), s2, *powers[:2], alpha, *powers[2:])

    @settings(max_examples=1000)
    @given(
        kind=st.sampled_from(list(ScenarioKind)),
        gains=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=6, max_size=6),
        s2=st.one_of(st.just(1e-300), st.floats(min_value=0.01, max_value=10.0)),
        powers=st.lists(power, min_size=4, max_size=4),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_private_kernel_gives_the_public_bits(self, kind, gains, s2, powers, alpha):
        gains = ChannelGains(*gains)
        p_a, p_j, p_ab, p_jb = powers
        public = secrecy_rate(
            kind, gains, NoiseModel(s2), p_a=p_a, p_j=p_j, alpha=alpha, p_ab=p_ab, p_jb=p_jb
        )
        private = _secrecy_rate(kind, gains, s2, p_a, p_j, alpha, p_ab, p_jb)
        assert (private.cs1.hex(), private.cs2.hex()) == (public.cs1.hex(), public.cs2.hex())
        assert private == public and repr(private) == repr(public)

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
        # the private kernel keeps the message: the CLI prints it as its one line
        with pytest.raises(ValueError) as kernel_info:
            _secrecy_rate(kind, gains, 1e-300, 1.0, 1.0, 0.8, 0.0, 0.0)
        assert str(kernel_info.value) == str(info.value)


GAIN_FIELDS = ("g_ab", "g_ae", "g_jb", "g_je", "g_aj", "g_ja")
six_gains = st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=6, max_size=6)
two_powers = st.lists(power, min_size=2, max_size=2)


class TestMessagesDoNotInterfere:
    """One rate model: each message's rate is the gap on its own link pair,
    at its own power, whatever the other message does."""

    @pytest.mark.parametrize("kind", list(_DIRECT_LINKS))
    @given(
        gains=six_gains,
        other_gains=six_gains,
        powers=two_powers,
        other_powers=two_powers,
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_a_rate_reads_only_its_own_link(
        self, kind, gains, other_gains, powers, other_powers, alpha
    ):
        ours = dict(zip(GAIN_FIELDS, gains))
        own_powers = dict(zip(("p_a", "p_j"), powers))
        rates = secrecy_rate(kind, ChannelGains(**ours), STD_NOISE, alpha=alpha, **own_powers)
        for name, link in zip(("cs1", "cs2"), _DIRECT_LINKS[kind]):
            # everything this message's link does not read comes from the other draw
            moved = dict(zip(GAIN_FIELDS, other_gains))
            moved.update({field: ours[field] for field in (link.main, link.eve)})
            moved_powers = dict(zip(("p_a", "p_j"), other_powers))
            moved_powers[link.power] = own_powers[link.power]
            again = secrecy_rate(
                kind, ChannelGains(**moved), STD_NOISE, alpha=alpha, **moved_powers
            )
            assert getattr(again, name).hex() == getattr(rates, name).hex()

    @given(
        gains=six_gains,
        g_jb=st.floats(min_value=0.0, max_value=10.0),
        g_je=st.floats(min_value=0.0, max_value=10.0),
        budgets=st.lists(power, min_size=3, max_size=3),
        price=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_noncoop_allocation_of_a_ignores_j(self, gains, g_jb, g_je, budgets, price):
        p_a_max, p_j_max, other_p_j_max = budgets
        fields = dict(zip(GAIN_FIELDS, gains))
        before = noncoop_allocation(
            ChannelGains(**fields), STD_NOISE, PowerBudget(p_a_max, p_j_max), price=price
        )
        fields.update(g_jb=g_jb, g_je=g_je)
        after = noncoop_allocation(
            ChannelGains(**fields), STD_NOISE, PowerBudget(p_a_max, other_p_j_max), price=price
        )
        assert after.p_a.hex() == before.p_a.hex()
        assert after.provenance["p_a"] is before.provenance["p_a"]
        assert after.cs.cs1.hex() == before.cs.cs1.hex()


# a <-> j: the name of each gain and power on the other side
MIRROR = {
    "g_ab": "g_jb", "g_jb": "g_ab", "g_ae": "g_je", "g_je": "g_ae", "g_aj": "g_ja", "g_ja": "g_aj",
    "p_a": "p_j", "p_j": "p_a", "p_ab": "p_jb", "p_jb": "p_ab",
}


class TestRelayMirror:
    """Relay mode's two messages are each other's mirror image."""

    @settings(derandomize=True, max_examples=300)
    @given(
        gains=six_gains,
        powers=st.lists(power, min_size=4, max_size=4),
        s2=st.one_of(st.just(1e-300), st.floats(min_value=0.01, max_value=10.0)),
    )
    def test_swapping_a_and_j_swaps_the_rates(self, gains, powers, s2):
        fields = dict(zip(GAIN_FIELDS, gains))
        spent = dict(zip(("p_a", "p_j", "p_ab", "p_jb"), powers))
        relay, noise = ScenarioKind.RELAY_COOP, NoiseModel(s2)
        rates = secrecy_rate(relay, ChannelGains(**fields), noise, **spent)
        swapped = secrecy_rate(
            relay,
            ChannelGains(**{MIRROR[name]: value for name, value in fields.items()}),
            noise,
            **{MIRROR[name]: value for name, value in spent.items()},
        )
        assert (swapped.cs1.hex(), swapped.cs2.hex()) == (rates.cs2.hex(), rates.cs1.hex())

    def test_every_mode_is_in_exactly_one_link_table(self):
        for kind in ScenarioKind:
            assert (kind in _DIRECT_LINKS) + (kind in _RELAY_LINKS) == 1, kind
        assert len(_DIRECT_LINKS) + len(_RELAY_LINKS) == len(ScenarioKind)
