"""Link-level primitives: gains, geometry, SNR building blocks, and the one
check of every number at every entry point."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopsec import (
    ChannelGains,
    Geometry,
    NoiseModel,
    PowerBudget,
    effective_gain,
    snr_direct,
    snr_relay_path,
)
from coopsec import model
from coopsec.allocator import (
    OptimalAllocation,
    Provenance,
    bisect_price_for_budget,
    mac_allocation,
    noncoop_allocation,
    noncoop_quadratic,
    one_side_allocation,
    penalized_objective,
    relay_allocation,
    relay_cubic_for_a,
)
from coopsec.harness import ExperimentConfig
from coopsec.oracle import (
    finite_diff_derivative,
    grid_search_optimum,
    relay_cubic_for_j,
    validate_scenario,
)
from coopsec.protocol import (
    ConstraintVerdict,
    NegotiationPolicy,
    distance_constraints_met,
    negotiate,
)
from coopsec.rates import RatePair, ScenarioKind, rate_mrc_relay, rate_p2p, secrecy_rate

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
        "value",
        ["0.4", b"0.4", True, False, None, [0.4]],
        ids=["str", "bytes", "true", "false", "none", "list"],
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

    @given(
        gains=st.lists(finite_gain, min_size=6, max_size=6),
        distances=st.lists(distance, min_size=5, max_size=5),
        eta=st.floats(min_value=1.0, max_value=4.0),
    )
    def test_effective_is_effective_gain_per_link(self, gains, distances, eta):
        """The kernel gives the bits of ``effective_gain`` on every link."""

        original = ChannelGains(*gains)
        geometry = Geometry(*distances, eta=eta)
        link_distances = distances + [distances[-1]]  # d_aj serves g_aj and g_ja
        expected = ChannelGains(
            *(effective_gain(g, d, eta) for g, d in zip(gains, link_distances))
        )
        got = original.effective(geometry)
        assert type(got) is ChannelGains
        for field in dataclasses.fields(ChannelGains):
            assert repr(getattr(got, field.name)) == repr(getattr(expected, field.name))
        assert got == expected
        assert hash(got) == hash(expected)
        assert repr(got) == repr(expected)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.g_ab = 1.0

    @pytest.mark.parametrize(
        "distances, name",
        [((1e-5, 1.0, 1.0, 1.0, 1.0), "g_ab"), ((1.0, 1.0, 1.0, 1.0, 1e-5), "g_aj")],
    )
    def test_effective_overflow_names_the_gain(self, distances, name):
        gains = ChannelGains(g_ab=1e300, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=1e300)
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got inf$"):
            gains.effective(Geometry(*distances))


class TestGeometry:
    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            Geometry(d_ab=0.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0)

    def test_eta_below_one_rejected(self):
        with pytest.raises(ValueError):
            Geometry(d_ab=1.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0, eta=0.5)

    @pytest.mark.parametrize(
        "name, value, eta, message",
        [
            ("d_ab", 1e200, 2.0, "d_ab**2 is out of the float range, got d_ab=1e+200"),
            ("d_ab", 1e-200, 2.0, "d_ab**2 is out of the float range, got d_ab=1e-200"),
            # the gating inequalities square d_aj whatever eta is
            ("d_aj", 1e200, 1.0, "d_aj**2 is out of the float range, got d_aj=1e+200"),
            ("d_je", 1e120, 3.0, "d_je**3 is out of the float range, got d_je=1e+120"),
            ("d_ae", 1e-160, 2.0, "d_ae**2 is out of the float range, got d_ae=1e-160"),
        ],
    )
    def test_distance_powers_must_stay_in_float_range(self, name, value, eta, message):
        distances = dict(d_ab=1.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0)
        distances[name] = value
        with pytest.raises(ValueError) as info:
            Geometry(**distances, eta=eta)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [1e-150, 1e150])
    def test_distance_powers_inside_float_range_accepted(self, value):
        geometry = Geometry(d_ab=value, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=value)
        gains = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
        assert gains.effective(geometry).g_ab == 0.4 / value**2

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

    @pytest.mark.parametrize(
        "gain, distance, eta, message",
        [
            (0.4, 1e-200, 2.0, "distance**2 is out of the float range, got distance=1e-200"),
            (0.4, 1e200, 2.0, "distance**2 is out of the float range, got distance=1e+200"),
            (0.4, 1e-100, 3.5, "distance**3.5 is out of the float range, got distance=1e-100"),
            (1e300, 1e-10, 2.0, "gain / distance**2 must be finite, got inf"),
        ],
    )
    def test_out_of_range_path_loss_is_one_line(self, gain, distance, eta, message):
        with pytest.raises(ValueError) as info:
            effective_gain(gain, distance, eta)
        assert str(info.value) == message


# Per free function: valid arguments, and the name an error on each argument gives.
NAN_CHECKS = {
    effective_gain: ((0.4, 2.0, 2.0), ("gain", "distance", "eta")),
    snr_direct: ((0.4, 5.0, 1.0), ("gain", "power", "sigma2")),
    snr_relay_path: ((0.2, 0.5, 1.0, 1.0, 1.0), ("g_ir", "g_rk", "p_i", "p_rk", "sigma2")),
}


@pytest.mark.parametrize(
    "function, position",
    [
        pytest.param(function, position, id=f"{function.__name__}-{position}")
        for function, (args, _) in NAN_CHECKS.items()
        for position in range(len(args))
    ],
)
def test_nan_argument_is_rejected(function, position):
    args, names = NAN_CHECKS[function]
    args = list(args)
    args[position] = math.nan
    with pytest.raises(ValueError, match=f"^{names[position]} must be finite, got nan$"):
        function(*args)


GAINS = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
UNIT = Geometry(d_ab=1.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0)
BUDGETS = PowerBudget(5.0, 5.0)

# Every entry point that takes a plain number: (the quantities checked
# here, a call given alpha, price, sigma2 and the quantity under test).
ENTRY_POINTS = {
    "ExperimentConfig": (
        ("alpha", "price", "sigma2"),
        lambda alpha, price, sigma2: ExperimentConfig(sigma2=sigma2, alpha=alpha, price=price),
    ),
    "NoiseModel": (("sigma2",), lambda alpha, price, sigma2: NoiseModel(sigma2)),
    "NegotiationPolicy": (("alpha",), lambda alpha, price, sigma2: NegotiationPolicy(alpha=alpha)),
    "negotiate": (
        ("price", "sigma2"),
        lambda alpha, price, sigma2: negotiate(
            NegotiationPolicy(), GAINS, UNIT, sigma2, price, BUDGETS
        ),
    ),
    "noncoop_allocation": (
        ("price",),
        lambda alpha, price, sigma2: noncoop_allocation(
            GAINS, NoiseModel(1.0), BUDGETS, price=price
        ),
    ),
    **{
        allocation.__name__: (
            ("alpha", "price"),
            lambda alpha, price, sigma2, allocation=allocation: allocation(
                GAINS, NoiseModel(1.0), BUDGETS, alpha=alpha, price=price
            ),
        )
        for allocation in (one_side_allocation, mac_allocation, relay_allocation)
    },
    "penalized_objective": (
        ("alpha", "price"),
        lambda alpha, price, sigma2: penalized_objective(
            ScenarioKind.MAC_COOP, "p_a", GAINS, NoiseModel(1.0), price=price, alpha=alpha
        ),
    ),
    "noncoop_quadratic": (
        ("price", "sigma2"),
        lambda alpha, price, sigma2: noncoop_quadratic(0.4, 0.3, sigma2, price),
    ),
    "distance_constraints_met": (
        ("alpha", "sigma2"),
        lambda alpha, price, sigma2: distance_constraints_met(
            GAINS, UNIT, sigma2, alpha, 5.0, 5.0
        ),
    ),
    "validate_scenario": (
        ("alpha", "price", "sigma2"),
        lambda alpha, price, sigma2: validate_scenario(
            ScenarioKind.NON_COOP, GAINS, UNIT, sigma2, alpha, price, BUDGETS
        ),
    ),
    "secrecy_rate": (
        ("alpha",),
        lambda alpha, price, sigma2: secrecy_rate(
            ScenarioKind.MAC_COOP, GAINS, NoiseModel(1.0), p_a=5.0, p_j=5.0, alpha=alpha
        ),
    ),
    "snr_direct": (
        ("gain", "power"),
        lambda gain=0.4, power=5.0, sigma2=1.0, **_: snr_direct(gain, power, sigma2),
    ),
    "snr_relay_path": (
        ("g_ir", "g_rk", "p_i", "p_rk"),
        lambda g_ir=0.2, g_rk=0.5, p_i=1.0, p_rk=1.0, sigma2=1.0, **_: snr_relay_path(
            g_ir, g_rk, p_i, p_rk, sigma2
        ),
    ),
    "effective_gain": (
        ("gain", "distance", "eta"),
        lambda gain=0.4, distance=2.0, eta=2.0, **_: effective_gain(gain, distance, eta),
    ),
    "rate_p2p": (("snr",), lambda snr=1.0, **_: rate_p2p(snr)),
    "rate_mrc_relay": (
        ("snr_direct_path", "snr_relayed_path"),
        lambda snr_direct_path=1.0, snr_relayed_path=0.5, **_: rate_mrc_relay(
            snr_direct_path, snr_relayed_path
        ),
    ),
    "secrecy_rate-powers": (
        ("p_a", "p_j"),
        lambda p_a=5.0, p_j=5.0, **_: secrecy_rate(
            ScenarioKind.NON_COOP, GAINS, NoiseModel(1.0), p_a=p_a, p_j=p_j
        ),
    ),
    "secrecy_rate-slices": (
        ("p_ab", "p_jb"),
        lambda p_ab=0.5, p_jb=0.5, **_: secrecy_rate(
            ScenarioKind.RELAY_COOP, GAINS, NoiseModel(1.0), p_a=5.0, p_j=5.0, p_ab=p_ab, p_jb=p_jb
        ),
    ),
    "distance_constraints_met-powers": (
        ("p_a", "p_j"),
        lambda p_a=5.0, p_j=5.0, **_: distance_constraints_met(GAINS, UNIT, 1.0, 0.8, p_a, p_j),
    ),
    "relay_cubic_for_a": (
        ("p_a",),
        lambda p_a=2.5, **_: relay_cubic_for_a(
            GAINS, NoiseModel(1.0), p_a=p_a, alpha=0.8, price=0.01
        ),
    ),
    "relay_cubic_for_j": (
        ("p_j",),
        lambda p_j=2.5, **_: relay_cubic_for_j(
            GAINS, NoiseModel(1.0), p_j=p_j, alpha=0.8, price=0.01
        ),
    ),
    "noncoop_quadratic-gains": (
        ("g_main", "g_eve"),
        lambda g_main=0.4, g_eve=0.3, **_: noncoop_quadratic(g_main, g_eve, 1.0, 0.01),
    ),
    "bisect_price_for_budget": (
        ("target", "price_lo"),
        lambda target=5.0, price_lo=0.0, **_: bisect_price_for_budget(
            lambda lam: 10.0 / (1.0 + lam), target, price_lo=price_lo
        ),
    ),
    "grid_search_optimum": (
        ("lo", "hi", "resolution"),
        lambda lo=0.0, hi=1.0, resolution=11, **_: grid_search_optimum(
            lambda x: -((x - 0.5) ** 2), lo, hi, resolution
        ),
    ),
    "finite_diff_derivative": (
        ("x", "h"),
        lambda x=0.5, h=1e-6, **_: finite_diff_derivative(lambda x: x * x, x, h),
    ),
}


def bad_numbers(name, out_of_range=(), rule=""):
    """A number's bad values and their messages: no number, not finite, out of range."""

    return [
        ("1", f"{name} must be a number, got '1'"),
        (True, f"{name} must be a number, got True"),
        (None, f"{name} must be a number, got None"),
        (math.nan, f"{name} must be finite, got nan"),
        (math.inf, f"{name} must be finite, got inf"),
        (-math.inf, f"{name} must be finite, got -inf"),
    ] + [(value, rule.format(value)) for value in out_of_range]


def bad_counts(name, too_small, rule):
    """A count's bad values: anything but an integer or an integral float."""

    values = ["1", True, None, math.nan, math.inf, -math.inf, 2.7]
    return [(value, f"{name} must be an integer, got {value!r}") for value in values] + [
        (too_small, rule)
    ]


# Quantities that must be non-negative.
NON_NEGATIVE = (
    "gain", "power", "g_ir", "g_rk", "p_i", "p_rk", "snr", "snr_direct_path", "snr_relayed_path",
    "p_a", "p_j", "p_ab", "p_jb", "g_main", "g_eve", "target", "price_lo",
)

# Per quantity: a bad value and the start of the one line it raises.
BAD_VALUES = {
    "alpha": [
        ("0.8", "alpha must be a number, got '0.8'"),
        (True, "alpha must be a number, got True"),
        (None, "alpha must be a number, got None"),
        (math.nan, "alpha must be finite"),
        (0.0, "cooperative modes need alpha in (0, 1]"),
        (1.5, "cooperative modes need alpha in (0, 1]"),
    ],
    "price": [
        ("0.01", "price must be a number, got '0.01'"),
        (False, "price must be a number, got False"),
        (None, "price must be a number, got None"),
        (math.inf, "price must be finite"),
        (-0.01, "price must be non-negative"),
    ],
    "sigma2": [
        ("1.0", "sigma2 must be a number, got '1.0'"),
        (True, "sigma2 must be a number, got True"),
        (None, "sigma2 must be a number, got None"),
        (math.nan, "sigma2 must be finite"),
        (0.0, "sigma2 must be positive"),
    ],
    **{name: bad_numbers(name, [-1.0], f"{name} must be non-negative, got {{!r}}")
       for name in NON_NEGATIVE},
    "distance": bad_numbers("distance", [0.0, -1.0], "distance must be positive, got {!r}") + [
        (1e-200, "distance**2 is out of the float range, got distance=1e-200"),
        (1e200, "distance**2 is out of the float range, got distance=1e+200"),
        # a subnormal distance**2: the quotient overflows
        (1e-155, "gain / distance**2 must be finite, got inf"),
    ],
    "h": bad_numbers("h", [0.0], "h must be positive, got {!r}"),
    "eta": bad_numbers("eta", [0.5], "eta must be at least 1, got {!r}"),
    "lo": bad_numbers("lo", [2.0], "hi must be >= lo"),
    "hi": bad_numbers("hi", [-1.0], "hi must be >= lo"),
    "x": bad_numbers("x"),
    "resolution": bad_counts("resolution", 1, "resolution must be at least 2 samples"),
}

# Where ``None`` means "not given", the entry's own message stands.
NOT_GIVEN = {("secrecy_rate", "alpha"): "mac_coop requires alpha"}


class TestOneCheckPerInput:
    @pytest.mark.parametrize(
        "entry, quantity, value, message",
        [
            pytest.param(
                entry,
                quantity,
                value,
                NOT_GIVEN.get((entry, quantity), message) if value is None else message,
                id=f"{entry}-{quantity}-{value!r}",
            )
            for entry, (quantities, _) in ENTRY_POINTS.items()
            for quantity in quantities
            for value, message in BAD_VALUES[quantity]
        ],
    )
    def test_bad_value_is_one_line(self, entry, quantity, value, message):
        inputs = {"alpha": 0.8, "price": 0.01, "sigma2": 1.0, quantity: value}
        with pytest.raises(ValueError) as info:
            ENTRY_POINTS[entry][1](**inputs)
        text = str(info.value)
        assert text.startswith(message) and "\n" not in text


@pytest.fixture
def checks(monkeypatch):
    """Names passed to ``model._require_finite``, in call order."""

    names = []
    check = model._require_finite

    def counting(name, value):
        names.append(name)
        return check(name, value)

    monkeypatch.setattr(model, "_require_finite", counting)
    return names


class TestCheckCount:
    """Past its entry point, the negotiate path passes checked floats on."""

    def test_relay_allocation_checks_alpha_and_price_once(self, checks):
        noise = NoiseModel(1.0)
        checks.clear()
        relay_allocation(GAINS, noise, BUDGETS, alpha=0.8, price=0.01)
        assert sorted(checks) == ["alpha", "price"]

    @pytest.mark.parametrize(
        "geometry, switches, mode",
        [
            (UNIT, {}, ScenarioKind.RELAY_COOP),
            (UNIT, {"john_accepts_relay": False}, ScenarioKind.MAC_COOP),
            (UNIT, {"john_accepts_relay": False, "john_accepts_mac": False},
             ScenarioKind.ONE_SIDE_COOP),
            (UNIT, {"john_accepts_relay": False, "john_accepts_mac": False,
                    "john_accepts_one_side": False}, ScenarioKind.NON_COOP),
            (UNIT.with_eve_at(3.0, 3.0), {}, ScenarioKind.NON_COOP),
        ],
        ids=["relay", "mac", "one-side", "declined", "gated"],
    )
    def test_negotiate_checks_at_most_six_times(self, checks, geometry, switches, mode):
        policy = NegotiationPolicy(**switches)
        checks.clear()
        kind, _ = negotiate(policy, GAINS, geometry, 1.0, 0.01, BUDGETS)
        assert kind is mode
        assert len(checks) <= 6, checks


class TestFromChecked:
    """A result built from checked fields is the constructed one."""

    @pytest.mark.parametrize(
        "cls, fields, change",
        [
            (RatePair, {"cs1": 0.25, "cs2": -0.5}, {"cs2": 1}),
            (
                ChannelGains,
                {"g_ab": 0.4, "g_ae": 0.3, "g_jb": 0.5, "g_je": 0.3, "g_aj": 0.2, "g_ja": 0.25},
                {"g_ja": None},
            ),
            (
                ConstraintVerdict,
                {
                    "snr_condition_alice": True,
                    "snr_condition_john": False,
                    "distance_alice_eve": True,
                    "distance_john_eve": True,
                    "all_met": False,
                },
                {"snr_condition_john": True},
            ),
            (
                OptimalAllocation,
                {
                    "mode": ScenarioKind.RELAY_COOP,
                    "p_a": 4.5,
                    "p_j": 4.0,
                    "p_ab": 0.5,
                    "p_jb": 1.0,
                    "cs": RatePair(0.1, 0.2),
                    "provenance": {"p_jb": Provenance.INTERIOR},
                },
                {"p_jb": 2.0},
            ),
        ],
        ids=["RatePair", "ChannelGains", "ConstraintVerdict", "OptimalAllocation"],
    )
    def test_equals_hashes_and_prints_like_the_constructed(self, cls, fields, change):
        built, constructed = model._from_checked(cls, fields), cls(**fields)
        assert type(built) is cls
        assert built == constructed and repr(built) == repr(constructed)
        if cls is OptimalAllocation:
            # its provenance is a dict, so neither object hashes
            with pytest.raises(TypeError):
                hash(built)
        else:
            assert hash(built) == hash(constructed)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, next(iter(fields)), 0.0)
        # replace builds the copy through __init__ and __post_init__
        assert dataclasses.replace(built) == constructed
        assert dataclasses.replace(built, **change) == dataclasses.replace(constructed, **change)
