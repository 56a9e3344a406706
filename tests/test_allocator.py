"""Stationarity polynomials, root solvers, and priced allocations."""

from __future__ import annotations

import collections
import math
import random
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsec import (
    ChannelGains,
    ConstraintMode,
    NegotiationPolicy,
    NoiseModel,
    PowerBudget,
    Provenance,
    RatePair,
    ScenarioKind,
    bisect_price_for_budget,
    evaluate_closed_forms,
    finite_diff_derivative,
    mac_allocation,
    negotiate,
    noncoop_allocation,
    one_side_allocation,
    penalized_objective,
    relay_allocation,
    secrecy_rate,
    validate_scenario,
)
from coopsec import allocator
from coopsec.allocator import (
    noncoop_quadratic,
    relay_cubic_for_a,
    solve_cubic_real,
    solve_quadratic_real,
)
from coopsec.oracle import (
    distance_mac_quadratic_pa,
    distance_mac_quadratic_pa_variant,
    distance_mac_quadratic_pj,
    distance_mac_quadratic_pj_variant,
    mac_quadratic_pa,
    mac_quadratic_pj,
    noncoop_quadratic_pj_variant,
    one_side_quadratic_pa,
    relay_cubic_for_j,
)
from coopsec.model import Geometry
from coopsec.rates import _DIRECT_LINKS, _RELAY_LINKS


# module-level parameters for hypothesis tests (fixtures are not reset
# between generated examples)
STD_GAINS = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
STD_NOISE = NoiseModel(1.0)


def poly_residual(coeffs, x) -> float:
    """Relative residual |p(x)| scaled by the evaluation's own magnitude."""

    value = abs(float(np.polyval(coeffs, x)))
    scale = sum(abs(c) * max(1.0, abs(x)) ** k for k, c in enumerate(reversed(coeffs)))
    return value / max(scale, 1e-300)


class TestSolveQuadratic:
    def test_known_roots(self):
        roots = solve_quadratic_real([1.0, -3.0, 2.0])
        assert roots == pytest.approx([1.0, 2.0])

    def test_no_real_roots(self):
        assert solve_quadratic_real([1.0, 0.0, 1.0]) == []

    @pytest.mark.parametrize("c", [1e-20, 1e-40, 1e-200])
    def test_a_small_complex_pair_is_no_root(self, c):
        # the pair +-i sqrt(c) has modulus far below one, but it is far from real
        assert solve_quadratic_real([1.0, 0.0, c]) == []
        assert solve_cubic_real([1.0, 0.0, c, 0.0]) == [0.0]

    def test_a_nearly_real_pair_is_one_root(self):
        # 1 +- 1e-10 i: the imaginary part is 1e-10 of the modulus
        assert solve_quadratic_real([1.0, -2.0, 1.0 + 1e-20]) == [1.0]
        assert solve_quadratic_real([1e-30, -2e-45, 1e-60 + 1e-80]) == [pytest.approx(1e-15)]

    def test_double_root_merges(self):
        roots = solve_quadratic_real([1.0, -2.0, 1.0])
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.0)

    def test_degrades_to_linear(self):
        assert solve_quadratic_real([0.0, 2.0, -4.0]) == pytest.approx([2.0])

    def test_constant_has_no_roots(self):
        assert solve_quadratic_real([0.0, 0.0, 5.0]) == []

    def test_negligible_leading_coefficient_degrades(self):
        # the dropped roots lie near -2e323 and -4e323, beyond the float range
        assert solve_quadratic_real([5e-324, 1.0, 0.0]) == [0.0]
        assert solve_quadratic_real([5e-324, 5e-324, 2.0]) == []

    def test_identically_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_quadratic_real([0.0, 0.0, 0.0])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            solve_quadratic_real([1.0, 2.0])

    @given(
        r1=st.floats(min_value=-10, max_value=10),
        r2=st.floats(min_value=-10, max_value=10),
        lead=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_residuals_near_machine_level(self, r1, r2, lead):
        coeffs = [lead, -lead * (r1 + r2), lead * r1 * r2]
        for root in solve_quadratic_real(coeffs):
            assert poly_residual(coeffs, root) <= 1e-12


class TestSolveCubic:
    def test_known_roots(self):
        roots = solve_cubic_real([1.0, -6.0, 11.0, -6.0])
        assert roots == pytest.approx([1.0, 2.0, 3.0])

    def test_single_real_root(self):
        # x^3 + x + 10 = 0 has one real root at -2 (since -8 - 2 + 10 = 0)
        roots = solve_cubic_real([1.0, 0.0, 1.0, 10.0])
        assert roots == pytest.approx([-2.0])

    def test_degrades_to_quadratic(self):
        assert solve_cubic_real([0.0, 1.0, -3.0, 2.0]) == pytest.approx([1.0, 2.0])

    def test_roots_ascending(self):
        roots = solve_cubic_real([2.0, -2.0, -8.0, 8.0])
        assert roots == sorted(roots)

    @given(
        r1=st.floats(min_value=-10, max_value=10),
        r2=st.floats(min_value=-10, max_value=10),
        r3=st.floats(min_value=-10, max_value=10),
        lead=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=200)
    def test_residuals_near_machine_level(self, r1, r2, r3, lead):
        coeffs = [
            lead,
            -lead * (r1 + r2 + r3),
            lead * (r1 * r2 + r1 * r3 + r2 * r3),
            -lead * r1 * r2 * r3,
        ]
        for root in solve_cubic_real(coeffs):
            assert poly_residual(coeffs, root) <= 1e-10

    @pytest.mark.parametrize("c", [-3.0, 0.5, -1.5, 2.0, 7.25])
    def test_exact_double_root_comes_back_once(self, c):
        # companion-matrix eigenvalues lose this pair to an imaginary part
        # of ~3e-8 at -3, 0.5 and -1.5, and split it ~3e-8 apart at 2 and 7.25
        roots = solve_cubic_real(np.poly([1.0, c, c]))
        assert len(roots) == 2
        for found, expected in zip(roots, sorted([1.0, c])):
            assert abs(found - expected) <= 1e-7

    def test_rounded_double_roots_come_back_once(self):
        # double roots that binary floats cannot hold: the cubic then
        # vanishes at its critical point only to rounding
        rng = np.random.default_rng(7)
        for _ in range(300):
            c, other = (float(v) for v in rng.uniform(-10.0, 10.0, size=2))
            if abs(c - other) < 0.5:
                continue
            roots = solve_cubic_real(rng.uniform(0.1, 10.0) * np.poly([other, c, c]))
            assert len(roots) == 2
            for found, expected in zip(roots, sorted([other, c])):
                assert abs(found - expected) <= 1e-11 * max(1.0, abs(expected))

    @pytest.mark.parametrize("c", [-3.0, 0.5, -1.5, 2.0, 7.25])
    def test_roots_1e6_apart_stay_distinct(self, c):
        expected = sorted([1.0, c, c + 1e-6])
        roots = solve_cubic_real(np.poly(expected))
        assert len(roots) == 3
        for found, root in zip(roots, expected):
            assert abs(found - root) <= 1e-7

    def test_triple_root(self):
        assert solve_cubic_real([2.0, -30.0, 150.0, -250.0]) == [5.0]

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            # beside a root of 1e20 a closed form alone puts 1 and 2 near 3.6e10
            ([1e-20, 1.0, -3.0, 2.0], [-1e20, 1.0, 2.0]),
            # Cardano's real root is the smallest one, next to a double root
            (
                [0.1015625, -0.8721381841525535, 1.8723077224785563, -4.381071620702211e-302],
                [2.3399313948791275e-302, 4.293603368135648],
            ),
            # a subnormal leading coefficient: the root is -(d / a) ** (1 / 3)
            ([5e-324, 0.0, 0.0, 7.11168308072375e-50], [-2.4325545008428476e91]),
        ],
    )
    def test_roots_of_very_different_sizes(self, coeffs, expected):
        assert solve_cubic_real(coeffs) == pytest.approx(expected, rel=1e-14)

    def test_extreme_coefficient_scales(self):
        for scale in (1e-300, 1e300):
            roots = solve_cubic_real([scale, -6.0 * scale, 11.0 * scale, -6.0 * scale])
            assert roots == pytest.approx([1.0, 2.0, 3.0], rel=1e-14)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError, match="4 coefficients"):
            solve_cubic_real([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="identically zero"):
            solve_cubic_real([0.0, 0.0, 0.0, 0.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_cubic_real([1.0, bad, 0.0, 1.0])

    def test_leading_zeros_lower_the_degree(self):
        assert solve_cubic_real([0.0, 0.0, 2.0, -4.0]) == [2.0]
        assert solve_cubic_real([0.0, 0.0, 0.0, 5.0]) == []
        # the dropped roots, near -2e323, lie beyond the float range
        assert solve_cubic_real([0.0, 5e-324, 1.0, 0.0]) == [0.0]
        assert solve_cubic_real([0.0, 0.0, 5e-324, 1.0]) == []


class TestPolynomialAnchors:
    """Coefficients and roots at the standard parameter block, frozen."""

    def test_relay_cubic_a_side(self, std_gains, std_noise):
        coeffs = relay_cubic_for_a(std_gains, std_noise, p_a=5.0, alpha=0.8, price=1.0)
        assert coeffs == pytest.approx([0.192, 3.0464, 11.472, 24.74])

    def test_relay_cubic_j_side(self, std_gains, std_noise):
        coeffs = relay_cubic_for_j(std_gains, std_noise, p_j=5.0, alpha=0.8, price=1.0)
        assert coeffs == pytest.approx([0.216, 2.9568, 13.224, 19.392])

    def test_relay_cubics_have_no_positive_roots_at_unit_price(self, std_gains, std_noise):
        for coeffs in (
            relay_cubic_for_a(std_gains, std_noise, p_a=5.0, alpha=0.8, price=1.0),
            relay_cubic_for_j(std_gains, std_noise, p_j=5.0, alpha=0.8, price=1.0),
        ):
            assert all(root < 0 for root in solve_cubic_real(coeffs))

    def test_noncoop_a_root(self):
        roots = solve_quadratic_real(noncoop_quadratic(0.4, 0.3, 1.0, 0.01))
        assert max(roots) == pytest.approx(6.2215467497755474, abs=1e-9)

    def test_noncoop_j_root(self):
        roots = solve_quadratic_real(noncoop_quadratic(0.5, 0.3, 1.0, 0.01))
        assert max(roots) == pytest.approx(8.89956771526498, abs=1e-9)

    def test_noncoop_j_variant_differs(self, std_gains, std_noise):
        main = max(solve_quadratic_real(noncoop_quadratic(0.5, 0.3, 1.0, 0.01)))
        variant = max(
            solve_quadratic_real(noncoop_quadratic_pj_variant(std_gains, std_noise, price=0.01))
        )
        assert variant == pytest.approx(9.160626433044445, abs=1e-9)
        assert abs(variant - main) > 0.2

    def test_mac_pj_root(self, std_gains, std_noise):
        roots = solve_quadratic_real(mac_quadratic_pj(std_gains, std_noise, alpha=0.8, price=0.01))
        assert max(roots) == pytest.approx(7.776933437219434, abs=1e-9)

    def test_mac_pa_root(self, std_gains, std_noise):
        roots = solve_quadratic_real(mac_quadratic_pa(std_gains, std_noise, alpha=0.8, price=0.01))
        assert max(roots) == pytest.approx(7.119654172211987, abs=1e-8)

    def test_one_side_pa_matches_noncoop_quadratic(self, std_gains, std_noise):
        direct = one_side_quadratic_pa(std_gains, std_noise, price=0.01)
        generic = noncoop_quadratic(0.4, 0.3, 1.0, 0.01)
        assert direct == pytest.approx(generic)

    def test_unit_price_quadratic_has_no_positive_root(self):
        roots = solve_quadratic_real(noncoop_quadratic(0.4, 0.3, 1.0, 1.0))
        assert all(root < 0 for root in roots)


def symbolic_stationarity_coeffs(scale_expr, g_main_val, g_eve_val, s2_val, lam_val, scale_val):
    """Stationarity polynomial of the donated-power objective, via sympy.

    The objective in the decision power p, with the message riding
    ``scale * p``, is ``log(1 + g_main scale p / s2) - log(1 + g_eve scale p
    / s2) - lam scale p``.  Returns the numerator polynomial of its
    derivative, normalised to a monic leading coefficient.
    """

    p, g1, g2, s2, lam, scale = sp.symbols("p g1 g2 s2 lam scale", positive=True)
    objective = (
        sp.log(1 + g1 * scale * p / s2) - sp.log(1 + g2 * scale * p / s2) - lam * scale * p
    )
    numerator = sp.together(sp.diff(objective, p)).as_numer_denom()[0]
    poly = sp.Poly(sp.expand(numerator), p)
    subs = {g1: g_main_val, g2: g_eve_val, s2: s2_val, lam: lam_val, scale: scale_val}
    coeffs = [float(c.subs(subs)) for c in poly.all_coeffs()]
    return [c / coeffs[0] for c in coeffs]


class TestSymbolicCrossCheck:
    """The quadratics must be exact stationarity conditions of their objectives."""

    @pytest.mark.parametrize(
        "g_main,g_eve,s2,lam,scale",
        [
            (0.4, 0.3, 1.0, 0.01, 1.0),
            (0.5, 0.3, 1.3, 0.02, 1.0),
            (0.45, 0.2, 0.7, 0.005, 1.0),
        ],
    )
    def test_noncoop_quadratic(self, g_main, g_eve, s2, lam, scale):
        impl = noncoop_quadratic(g_main, g_eve, s2, lam)
        normalized = [c / impl[0] for c in impl]
        symbolic = symbolic_stationarity_coeffs(None, g_main, g_eve, s2, lam, scale)
        assert normalized == pytest.approx(symbolic, rel=1e-12)

    def test_mac_pj_quadratic(self, std_gains, std_noise):
        impl = mac_quadratic_pj(std_gains, std_noise, alpha=0.8, price=0.01)
        normalized = [c / impl[0] for c in impl]
        symbolic = symbolic_stationarity_coeffs(None, 0.4, 0.3, 1.0, 0.01, 0.8)
        assert normalized == pytest.approx(symbolic, rel=1e-12)

    def test_mac_pa_quadratic(self, std_gains, std_noise):
        impl = mac_quadratic_pa(std_gains, std_noise, alpha=0.8, price=0.01)
        normalized = [c / impl[0] for c in impl]
        symbolic = symbolic_stationarity_coeffs(None, 0.5, 0.3, 1.0, 0.01, 1.0 / 0.8)
        assert normalized == pytest.approx(symbolic, rel=1e-12)

    @given(
        g_main=st.floats(min_value=0.1, max_value=0.6),
        g_eve=st.floats(min_value=0.05, max_value=0.5),
        lam=st.floats(min_value=1e-3, max_value=0.05),
        scale=st.floats(min_value=0.3, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_root_is_stationary_point(self, g_main, g_eve, lam, scale):
        gains = ChannelGains(g_ab=g_main, g_ae=g_eve, g_jb=0.5, g_je=0.3, g_aj=0.2)
        noise = NoiseModel(1.0)
        roots = solve_quadratic_real(mac_quadratic_pj(gains, noise, alpha=scale, price=lam))
        positive = [r for r in roots if r > 1e-6]
        objective = penalized_objective(
            ScenarioKind.MAC_COOP, "p_j", gains, noise, price=lam, alpha=scale
        )
        for root in positive:
            h = 1e-6 * max(1.0, abs(root))
            assert abs(finite_diff_derivative(objective, root, h)) <= 1e-6


class TestDistanceQuadratics:
    def test_substitution_route_matches_effective_gains(self, std_gains, std_noise):
        geometry = Geometry(d_ab=1.5, d_ae=2.0, d_jb=0.8, d_je=2.5, d_aj=1.0, eta=2.0)
        effective = std_gains.effective(geometry)
        for dist_builder, flat_builder in (
            (distance_mac_quadratic_pj, mac_quadratic_pj),
            (distance_mac_quadratic_pa, mac_quadratic_pa),
        ):
            dist_roots = solve_quadratic_real(
                dist_builder(std_gains, std_noise, geometry, alpha=0.8, price=0.01)
            )
            flat_roots = solve_quadratic_real(
                flat_builder(effective, std_noise, alpha=0.8, price=0.01)
            )
            assert dist_roots == pytest.approx(flat_roots, rel=1e-9)

    def test_variants_agree_at_unit_distances(self, std_gains, std_noise, unit_geometry):
        for main, variant in (
            (distance_mac_quadratic_pj, distance_mac_quadratic_pj_variant),
            (distance_mac_quadratic_pa, distance_mac_quadratic_pa_variant),
        ):
            assert main(
                std_gains, std_noise, unit_geometry, alpha=0.8, price=0.01
            ) == pytest.approx(
                variant(std_gains, std_noise, unit_geometry, alpha=0.8, price=0.01)
            )

    def test_variants_differ_off_unit_distances(self, std_gains, std_noise):
        geometry = Geometry(d_ab=2.0, d_ae=1.0, d_jb=1.5, d_je=0.5, d_aj=1.0, eta=2.0)
        main_pj = distance_mac_quadratic_pj(
            std_gains, std_noise, geometry, alpha=0.8, price=0.01
        )
        var_pj = distance_mac_quadratic_pj_variant(
            std_gains, std_noise, geometry, alpha=0.8, price=0.01
        )
        # the two routes pair gains and distances differently, so off unit
        # distances the normalised linear coefficients must split
        assert main_pj[1] / main_pj[0] != pytest.approx(var_pj[1] / var_pj[0], rel=1e-6)


class TestClosedForms:
    """The compact square-root expressions, transcribed exactly as printed."""

    def test_standard_point_values(self, std_gains, std_noise):
        forms = evaluate_closed_forms(std_gains, std_noise, alpha=0.8, price=0.01)
        assert set(forms) == {
            "mac_pa",
            "mac_pj",
            "one_side_pa",
            "one_side_pj",
            "noncoop_pa",
            "noncoop_pj",
        }
        assert forms["noncoop_pa"] == pytest.approx(3.3048800831088805)
        assert forms["one_side_pa"] == pytest.approx(3.3048800831088805)
        assert forms["mac_pa"] == pytest.approx(3.9196541722119846)
        assert forms["mac_pj"] == pytest.approx(358.9106788785801)
        assert forms["one_side_pj"] == pytest.approx(358.9106788785801)
        assert forms["noncoop_pj"] == pytest.approx(6.232901048598315)

    def test_printed_forms_disagree_with_roots(self, std_gains, std_noise):
        # the compact expressions are kept verbatim; none of them lands on
        # the corresponding polynomial root at this point
        forms = evaluate_closed_forms(std_gains, std_noise, alpha=0.8, price=0.01)
        assert abs(forms["noncoop_pa"] - 6.2215467497755474) > 1.0
        assert abs(forms["mac_pa"] - 7.119654172211987) > 1.0
        assert abs(forms["mac_pj"] - 7.776933437219434) > 100.0
        assert abs(forms["noncoop_pj"] - 8.89956771526498) > 1.0

    def test_negative_radicand_yields_nan(self, std_noise):
        gains = ChannelGains(g_ab=0.1, g_ae=0.5, g_jb=0.5, g_je=0.3, g_aj=0.2)
        forms = evaluate_closed_forms(gains, std_noise, alpha=0.8, price=0.1)
        assert math.isnan(forms["noncoop_pa"])
        assert math.isnan(forms["one_side_pa"])

    def test_rejects_zero_price(self, std_gains, std_noise):
        with pytest.raises(ValueError):
            evaluate_closed_forms(std_gains, std_noise, alpha=0.8, price=0.0)

    def test_rejects_zero_gain(self, std_noise):
        gains = ChannelGains(g_ab=0.0, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
        with pytest.raises(ValueError):
            evaluate_closed_forms(gains, std_noise, alpha=0.8, price=0.01)

    def test_huge_gain_raises_overflow_error(self, std_noise):
        # both docstrings name this exception; oracle.validate_scenario catches it
        gains = ChannelGains(g_ab=1e160, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
        with pytest.raises(OverflowError):
            evaluate_closed_forms(gains, std_noise, alpha=0.8, price=0.01)
        with pytest.raises(OverflowError):
            relay_cubic_for_j(gains, std_noise, p_j=1.0, alpha=0.8, price=0.01)


class TestNoncoopAllocation:
    def test_unit_price_goes_all_in(self, std_gains, std_noise, std_budgets):
        allocation = noncoop_allocation(std_gains, std_noise, std_budgets, price=1.0)
        assert allocation.p_a == 5.0
        assert allocation.p_j == 5.0
        assert allocation.provenance["p_a"] is Provenance.BUDGET
        assert allocation.provenance["p_j"] is Provenance.BUDGET
        assert allocation.mode is ScenarioKind.NON_COOP
        assert allocation.p_ab == 0.0 and allocation.p_jb == 0.0

    def test_interior_when_budget_allows(self, std_gains, std_noise):
        allocation = noncoop_allocation(
            std_gains, std_noise, PowerBudget(10.0, 10.0), price=0.01
        )
        assert allocation.p_a == pytest.approx(6.2215467497755474, abs=1e-9)
        assert allocation.p_j == pytest.approx(8.89956771526498, abs=1e-9)
        assert allocation.provenance["p_a"] is Provenance.INTERIOR
        assert allocation.provenance["p_j"] is Provenance.INTERIOR

    def test_budget_caps_interior_root(self, std_gains, std_noise, std_budgets):
        # the stationary points sit above 5, so both sides clamp
        allocation = noncoop_allocation(std_gains, std_noise, std_budgets, price=0.01)
        assert allocation.p_a == 5.0
        assert allocation.p_j == 5.0
        assert allocation.provenance["p_a"] is Provenance.BUDGET

    def test_eavesdropper_advantage_transmits_nothing(self, std_noise, std_budgets):
        gains = ChannelGains(g_ab=0.2, g_ae=0.5, g_jb=0.5, g_je=0.3, g_aj=0.2)
        allocation = noncoop_allocation(gains, std_noise, std_budgets, price=0.01)
        assert allocation.p_a == 0.0
        assert allocation.provenance["p_a"] is Provenance.ZERO
        assert allocation.p_j == 5.0

    def test_zero_budget_zero_power(self, std_gains, std_noise):
        allocation = noncoop_allocation(
            std_gains, std_noise, PowerBudget(0.0, 0.0), price=0.01
        )
        assert allocation.p_a == 0.0
        assert allocation.p_j == 0.0
        assert allocation.cs == RatePair(0.0, 0.0)

    @given(
        budget=st.floats(min_value=0.0, max_value=20.0),
        lam=st.floats(min_value=1e-3, max_value=2.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_respects_budget(self, budget, lam):
        allocation = noncoop_allocation(
            STD_GAINS, STD_NOISE, PowerBudget(budget, budget), price=lam
        )
        assert 0.0 <= allocation.p_a <= budget
        assert 0.0 <= allocation.p_j <= budget


class TestCooperativeAllocations:
    def test_mac_interior_point(self, std_gains, std_noise):
        allocation = mac_allocation(
            std_gains, std_noise, PowerBudget(10.0, 10.0), alpha=0.8, price=0.01
        )
        assert allocation.p_j == pytest.approx(7.776933437219434, abs=1e-9)
        assert allocation.p_a == pytest.approx(7.119654172211987, abs=1e-8)
        assert allocation.provenance["p_j"] is Provenance.INTERIOR
        assert allocation.mode is ScenarioKind.MAC_COOP

    def test_one_side_interior_point(self, std_gains, std_noise):
        allocation = one_side_allocation(
            std_gains, std_noise, PowerBudget(10.0, 10.0), alpha=0.8, price=0.01
        )
        assert allocation.p_a == pytest.approx(6.2215467497755474, abs=1e-9)
        assert allocation.p_j == pytest.approx(7.776933437219434, abs=1e-9)
        assert allocation.mode is ScenarioKind.ONE_SIDE_COOP

    def test_distance_adjusted_equals_mac_at_unit_distances(
        self, std_gains, std_noise, unit_geometry
    ):
        flat = mac_allocation(std_gains, std_noise, PowerBudget(10.0, 10.0), alpha=0.8, price=0.01)
        adjusted = mac_allocation(
            std_gains.effective(unit_geometry),
            std_noise,
            PowerBudget(10.0, 10.0),
            alpha=0.8,
            price=0.01,
        )
        assert adjusted == flat

    def test_distance_adjusted_shifts_with_geometry(self, std_gains, std_noise):
        geometry = Geometry(d_ab=1.0, d_ae=2.0, d_jb=1.0, d_je=2.0, d_aj=1.0, eta=2.0)
        near = mac_allocation(std_gains, std_noise, PowerBudget(50.0, 50.0), alpha=0.8, price=0.01)
        far = mac_allocation(
            std_gains.effective(geometry), std_noise, PowerBudget(50.0, 50.0), alpha=0.8, price=0.01
        )
        # a receding eavesdropper makes larger powers worthwhile
        assert far.p_j > near.p_j
        assert far.p_a > near.p_a

    def test_mac_rejects_zero_alpha(self, std_gains, std_noise, std_budgets):
        with pytest.raises(ValueError):
            mac_allocation(std_gains, std_noise, std_budgets, alpha=0.0, price=0.01)


class TestZeroPrice:
    """No price over identical links: the objective is flat, so nothing is spent."""

    FLAT = ChannelGains(g_ab=0.3, g_ae=0.3, g_jb=0.3, g_je=0.3, g_aj=0.2)

    @pytest.mark.parametrize(
        "allocate",
        [
            lambda g, n, b: noncoop_allocation(g, n, b, price=0.0),
            lambda g, n, b: one_side_allocation(g, n, b, alpha=0.8, price=0.0),
            lambda g, n, b: mac_allocation(g, n, b, alpha=0.8, price=0.0),
        ],
        ids=["non_coop", "one_side_coop", "mac_coop"],
    )
    def test_flat_objective_spends_nothing(self, allocate, std_noise, std_budgets):
        allocation = allocate(self.FLAT, std_noise, std_budgets)
        assert (allocation.p_a, allocation.p_j) == (0.0, 0.0)
        assert allocation.provenance == {"p_a": Provenance.ZERO, "p_j": Provenance.ZERO}
        assert allocation.cs == RatePair(0.0, 0.0)

    def test_stronger_link_still_spends_the_budget(self, std_noise, std_budgets):
        gains = ChannelGains(g_ab=0.3, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
        allocation = noncoop_allocation(gains, std_noise, std_budgets, price=0.0)
        assert (allocation.p_a, allocation.p_j) == (0.0, 5.0)
        assert allocation.provenance == {"p_a": Provenance.ZERO, "p_j": Provenance.BUDGET}


class TestRelayAllocation:
    def test_unit_price_declines_relaying(self, std_gains, std_noise, std_budgets):
        allocation = relay_allocation(std_gains, std_noise, std_budgets, alpha=0.8, price=1.0)
        assert allocation.p_jb == 0.0
        assert allocation.p_ab == 0.0
        assert allocation.p_a == 5.0
        assert allocation.p_j == 5.0
        assert allocation.provenance["p_jb"] is Provenance.ZERO
        assert allocation.cs.cs1 == pytest.approx(0.18232155679395445)

    def test_cheap_power_fills_the_slice(self, std_gains, std_noise, std_budgets):
        allocation = relay_allocation(std_gains, std_noise, std_budgets, alpha=0.8, price=0.01)
        # half-budget seeds leave min(2.5, 2.5/0.8) = 2.5 of relaying headroom
        assert allocation.p_jb == pytest.approx(2.5)
        assert allocation.p_ab == pytest.approx(2.0)
        assert allocation.p_a == pytest.approx(3.0)
        assert allocation.p_j == pytest.approx(2.5)
        assert allocation.provenance["p_jb"] is Provenance.BUDGET

    def test_exchange_ratio_pins_return_slice(self, std_gains, std_noise, std_budgets):
        allocation = relay_allocation(std_gains, std_noise, std_budgets, alpha=0.8, price=0.01)
        assert allocation.p_ab == pytest.approx(0.8 * allocation.p_jb)

    def test_a_zero_divisor_at_zero_power_is_skipped(self, std_gains):
        # sigma2 * (first hop + sigma2) underflows to zero at p_jb = 0: 0 / 0 in
        # float arithmetic, where an array evaluation gives NaN
        allocation = relay_allocation(
            std_gains, NoiseModel(1e-200), PowerBudget(0.0, 5.0), alpha=0.8, price=0.01
        )
        assert allocation.p_jb == 0.0
        assert allocation.provenance["p_jb"] is Provenance.ZERO

    def test_exhausted_seeds_leave_no_headroom(self, std_gains, std_noise):
        # j's half-budget seed is its whole (zero) budget: nothing is left to relay
        allocation = relay_allocation(
            std_gains, std_noise, PowerBudget(5.0, 0.0), alpha=0.8, price=0.01
        )
        assert allocation.p_jb == 0.0
        assert allocation.provenance["p_jb"] is Provenance.ZERO

    def test_powers_stay_within_budgets(self, std_gains, std_noise):
        for lam in (0.001, 0.01, 0.1, 1.0):
            allocation = relay_allocation(
                std_gains, std_noise, PowerBudget(5.0, 5.0), alpha=0.8, price=lam
            )
            assert 0.0 <= allocation.p_ab + allocation.p_a <= 5.0 + 1e-12
            assert 0.0 <= allocation.p_jb + allocation.p_j <= 5.0 + 1e-12


class TestBisectPrice:
    def test_finds_threshold_price(self):
        price = bisect_price_for_budget(lambda lam: 10.0 / (1.0 + lam), 5.0)
        assert price == pytest.approx(1.0, rel=1e-8)

    def test_returns_lo_when_already_met(self):
        assert bisect_price_for_budget(lambda lam: 1.0, 2.0, price_lo=0.0) == 0.0

    def test_unreachable_target_rejected(self):
        # constant consumption never rises, so it is the bracket that gives up
        with pytest.raises(ValueError, match="^no price within range brings consumption"):
            bisect_price_for_budget(lambda lam: 10.0, 5.0)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            bisect_price_for_budget(lambda lam: 10.0 / (1.0 + lam), -1.0)

    def test_rising_consumption_while_the_bracket_grows(self, std_gains, std_noise, std_budgets):
        # the threshold rule spends 3.73 at price 0.05 but goes all-in (10)
        # once no interior root is left, although a price near 0.08 meets 2
        def spend(lam: float) -> float:
            allocation = noncoop_allocation(std_gains, std_noise, std_budgets, price=lam)
            return allocation.p_a + allocation.p_j

        message = (
            r"^consumption rises with price: 3\.727\d* at price 0\.05 but 10\.0 at price 1\.0$"
        )
        with pytest.raises(ValueError, match=message):
            bisect_price_for_budget(spend, 2.0, price_lo=0.05)

    def test_rising_consumption_during_the_bisection(self):
        # the bracket [0, 1] is sound, but its midpoints see a bump
        def bumped(lam: float) -> float:
            return 10.0 / (1.0 + lam) + (3.0 if 0.7 < lam < 0.8 else 0.0)

        with pytest.raises(ValueError, match=r" at price 0\.5 but [\d.]+ at price 0\.75$"):
            bisect_price_for_budget(bumped, 5.0)

    def test_prices_swap_consumption_to_budget(self, std_gains, std_noise):
        # drive both stationary powers of the swap mode down to a joint cap
        # (the swap allocator's consumption decays to zero as the price
        # grows, which the bisection's monotonicity precondition needs)
        def consumed(lam: float) -> float:
            if lam <= 0:
                return math.inf
            allocation = mac_allocation(
                std_gains, std_noise, PowerBudget(1e6, 1e6), alpha=0.8, price=lam
            )
            return allocation.p_a + allocation.p_j

        price = bisect_price_for_budget(consumed, 10.0, price_lo=1e-6)
        assert consumed(price) <= 10.0
        assert consumed(price) >= 9.9


class TestScalarPathsAvoidNumpyRootFinding:
    """Allocation and audit solve their polynomials without ``np.roots``, and
    negotiation calls no numpy function at all."""

    def test_negotiate_and_validate_in_every_mode(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy root finding on a scalar path")

        monkeypatch.setattr(np, "roots", forbidden)
        monkeypatch.setattr(np, "polyval", forbidden)
        geometry = Geometry(d_ab=1.0, d_ae=2.0, d_jb=1.0, d_je=2.0, d_aj=2.0, eta=2.0)
        budgets = PowerBudget(p_a_max=5.0, p_j_max=5.0)
        ladder = [
            (NegotiationPolicy(), ScenarioKind.RELAY_COOP),
            (NegotiationPolicy(john_accepts_relay=False), ScenarioKind.MAC_COOP),
            (
                NegotiationPolicy(john_accepts_relay=False, john_accepts_mac=False),
                ScenarioKind.ONE_SIDE_COOP,
            ),
            (
                NegotiationPolicy(
                    john_accepts_relay=False, john_accepts_mac=False, john_accepts_one_side=False
                ),
                ScenarioKind.NON_COOP,
            ),
        ]
        for policy, expected in ladder:
            mode, _ = negotiate(
                policy, STD_GAINS, geometry, 1.0, 0.01, budgets, ConstraintMode.CORRECTED
            )
            assert mode is expected
        for kind in ScenarioKind:
            report = validate_scenario(kind, STD_GAINS, geometry, 1.0, 0.8, 0.01, budgets)
            assert report.entries

    def test_negotiate_calls_no_numpy_function(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy on the decision path")

        geometry = Geometry(d_ab=1.0, d_ae=2.0, d_jb=1.0, d_je=2.0, d_aj=2.0, eta=2.0)
        budgets = PowerBudget(p_a_max=5.0, p_j_max=5.0)
        switches = ("john_accepts_relay", "john_accepts_mac", "john_accepts_one_side")
        policies = [
            NegotiationPolicy(**{name: False for name in switches[:declined]})
            for declined in range(4)
        ]
        for name, value in list(vars(np).items()):
            if callable(value) and not isinstance(value, type) and not name.startswith("_"):
                monkeypatch.setattr(np, name, forbidden)
        modes = {
            negotiate(policy, STD_GAINS, geometry, 1.0, price, budgets, ConstraintMode.CORRECTED)[0]
            for policy in policies
            for price in (0.0, 0.01, 1.0)
        }
        monkeypatch.undo()
        assert modes == set(ScenarioKind)


@st.composite
def decision(draw):
    """One allocation decision over the relay audit's ranges (gains 0.05 to 1,
    sigma2 0.1 to 2, prices log-uniform from 1e-5 to 10**0.5, alpha 0.2 to 1,
    budgets 1 to 10): an objective's form, the roots the allocation compares
    and the bound ``hi``.  Relay decisions also compare the slice's exact
    stationary point."""

    g_ab, g_ae, g_aj, g_jb = (draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(4))
    s2 = draw(st.floats(min_value=0.1, max_value=2.0))
    lam = 10.0 ** draw(st.floats(min_value=-5.0, max_value=0.5))
    alpha = draw(st.floats(min_value=0.2, max_value=1.0))
    budget = PowerBudget(*(draw(st.floats(min_value=1.0, max_value=10.0)) for _ in range(2)))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1.0, alpha, 1.0 / alpha]))
        coeffs = allocator._gap_quadratic(g_ab, g_ae, s2, lam)
        roots = [x / scale for x in solve_quadratic_real(coeffs)]
        return allocator._Gap(g_ab, g_ae, s2, lam, scale), roots, budget.p_a_max
    seed_a, _, hi, _ = allocator._relay_seeds(budget, alpha)
    gains = ChannelGains(g_ab=g_ab, g_ae=g_ae, g_jb=g_jb, g_je=g_ae, g_aj=g_aj)
    roots = solve_cubic_real(allocator._relay_cubic(gains, s2, seed_a, alpha, lam))
    form = allocator._RelaySlice(g_ab, g_ae, g_aj, g_jb, s2, lam, seed_a, alpha)
    exact = form.argmax(hi)
    return form, roots + ([] if exact is None else [exact]), hi


def largest_term(form, p):
    """The largest of an objective's three terms at ``p``, all non-negative."""

    if isinstance(form, allocator._Gap):
        g_main, g_eve, s2, lam, scale = form
        x = scale * p
        return max(math.log1p(g_main * x / s2), math.log1p(g_eve * x / s2), lam * x)
    g_direct, g_eve, g_hop1, g_hop2, s2, lam, own, pay_scale = form
    first_hop, second_hop = g_hop1 * own, g_hop2 * p
    relayed = first_hop * second_hop / (s2 * (first_hop + second_hop + s2))
    return max(
        math.log1p(g_direct * own / s2 + relayed),
        math.log1p(g_eve * own / s2),
        lam * pay_scale * p,
    )


class TestDecisionsInPlainFloats:
    """A form evaluates a Python float with ``math.log1p``, as the allocations
    do, and anything else with ``np.log1p``; both pick the same candidate."""

    @settings(max_examples=300, deadline=None)
    @given(decision())
    def test_math_and_numpy_objectives_pick_alike(self, drawn):
        form, roots, hi = drawn

        def with_numpy(p):
            return form(np.float64(p))

        picked = allocator._argmax_candidate(form.__call__, roots, hi)
        assert picked == allocator._argmax_candidate(with_numpy, roots, hi)
        for p in [0.0, hi, *(r for r in roots if 0.0 < r < hi)]:
            value, reference = form(p), with_numpy(p)
            assert type(value) is float and type(reference) is np.float64
            magnitude = max(largest_term(form, p), abs(value))
            assert abs(value - reference) <= 2.0 * math.ulp(magnitude), (form, p)

    def test_a_float_takes_math_log1p_and_anything_else_np_log1p(self, monkeypatch):
        calls = []
        for module, name in ((math, "math"), (np, "numpy")):
            log1p = module.log1p
            monkeypatch.setattr(
                module, "log1p", lambda x, log1p=log1p, name=name: calls.append(name) or log1p(x)
            )
        gap = allocator._Gap(0.4, 0.3, 1.0, 0.01, 0.8)
        relay = allocator._RelaySlice(0.4, 0.3, 0.2, 0.5, 1.0, 0.01, 2.5, 0.8)
        for p in (2.5, np.float64(2.5), np.array(2.5), np.linspace(0.0, 5.0, 3)):
            want = "math" if type(p) is float else "numpy"
            calls.clear()
            gap(p)
            assert calls == [want, want], p
            calls.clear()
            relay(p)
            # the eavesdropper's term does not depend on p: always one math.log1p
            assert calls == ["math", want], p
        # below the logarithm's domain a float raises, where numpy would give NaN
        with pytest.raises(ValueError, match="math domain error"):
            gap(-1e3)

    def test_every_compared_value_is_a_float(self):
        values = []
        argmax = allocator._argmax_candidate

        def recording(objective, roots, hi):
            def evaluated(p):
                values.append(objective(p))
                return values[-1]

            return argmax(evaluated, roots, hi)

        noise, budgets = NoiseModel(1.0), PowerBudget(5.0, 5.0)
        with mock.patch.object(allocator, "_argmax_candidate", recording):
            for price in (0.0, 1e-4, 0.01, 0.1, 1.0):
                for allocate in (one_side_allocation, mac_allocation, relay_allocation):
                    before = len(values)
                    allocate(STD_GAINS, noise, budgets, alpha=0.8, price=price)
                    assert len(values) > before
        assert {type(v) for v in values} == {float}


class TestRelayObjectiveMirror:
    """The two relay slices' objectives are each other's mirror image."""

    @settings(derandomize=True, max_examples=200)
    @given(
        gains=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=6, max_size=6),
        seed=st.floats(min_value=0.0, max_value=50.0),
        alpha=st.floats(min_value=0.01, max_value=1.0),
        price=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_p_ab_key_is_the_mirrored_p_jb_key(self, gains, seed, alpha, price):
        g_ab, g_ae, g_jb, g_je, g_aj, g_ja = gains
        original = ChannelGains(g_ab, g_ae, g_jb, g_je, g_aj, g_ja)
        swapped = ChannelGains(g_jb, g_je, g_ab, g_ae, g_ja, g_aj)
        key = allocator._objective_key
        relay, terms = ScenarioKind.RELAY_COOP, (STD_NOISE, price, alpha)
        key_ab = key(relay, "p_ab", original, *terms, p_j=seed)
        key_jb = key(relay, "p_jb", swapped, *terms, p_a=seed)
        # the same floats but the billing: p_ab / alpha against alpha * p_jb
        assert key_ab[:-1] == key_jb[:-1]
        assert (key_ab[-1], key_jb[-1]) == (1.0 / alpha, alpha)


def price_zero_objectives(kind, gains, noise, alpha, powers):
    """``{variable: value}`` of the objective of the variable that funds each
    message, message 1 (a's) first, at price zero and at ``powers``."""

    rows = _DIRECT_LINKS.get(kind) or _RELAY_LINKS[kind]
    values = {}
    for row in rows:
        variable = row.power if kind in _DIRECT_LINKS else row.slice
        own = {"p_a": powers["p_a"], "p_j": powers["p_j"], "alpha": alpha}
        objective = penalized_objective(kind, variable, gains, noise, price=0.0, **own)
        values[variable] = objective(powers[variable])
    return values


def parent_relay_seeds(budget, alpha):
    """``_relay_seeds`` as it spelled ``alpha`` itself, before it read the link row."""

    seed_a, seed_j = 0.5 * budget.p_a_max, 0.5 * budget.p_j_max
    free_a, free_j = budget.p_a_max - seed_a, budget.p_j_max - seed_j
    return (
        seed_a,
        seed_j,
        max(min(free_j, free_a / alpha), 0.0),
        max(min(free_a, alpha * free_j), 0.0),
    )


class TestObjectiveAtPriceZeroIsTheRate:
    """The rates and the objectives read the same link rows and scale a power
    by ``alpha`` through one rule, ``rates._scale``: at price zero each
    objective is its message's secrecy rate, bit for bit."""

    def test_every_decision_variable_on_random_draws(self):
        rng = random.Random(0)
        misses = collections.Counter()
        checked = collections.Counter()
        for _ in range(2500):
            gains = ChannelGains(*(rng.uniform(0.05, 1.0) for _ in range(6)))
            noise = NoiseModel(rng.uniform(0.1, 2.0))
            alpha = rng.uniform(0.2, 1.0)
            powers = {name: rng.uniform(0.0, 10.0) for name in ("p_a", "p_j", "p_ab", "p_jb")}
            for kind in ScenarioKind:
                pair = secrecy_rate(kind, gains, noise, alpha=alpha, **powers)
                values = price_zero_objectives(kind, gains, noise, alpha, powers)
                for (variable, value), rate in zip(values.items(), (pair.cs1, pair.cs2)):
                    checked[kind.value, variable] += 1
                    misses[kind.value, variable] += value.hex() != rate.hex()
        assert len(checked) == 8
        assert +misses == collections.Counter()

    def test_relay_pin_is_the_row_scale_times_p_jb(self):
        rng = random.Random(1)
        row = _RELAY_LINKS[ScenarioKind.RELAY_COOP][0]
        for _ in range(500):
            gains = ChannelGains(*(rng.uniform(0.05, 1.0) for _ in range(6)))
            budget = PowerBudget(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
            alpha = rng.choice([1.0, rng.uniform(0.05, 1.0)])
            price = 10.0 ** rng.uniform(-3.0, 0.0)
            allocation = relay_allocation(
                gains, NoiseModel(rng.uniform(0.1, 2.0)), budget, alpha=alpha, price=price
            )
            pinned = allocator._scale(row.alpha_power, alpha) * allocation.p_jb
            assert allocation.p_ab.hex() == pinned.hex() == (alpha * allocation.p_jb).hex()

    def test_relay_seeds_keep_their_floats(self):
        rng = random.Random(2)
        for _ in range(2000):
            budget = PowerBudget(
                rng.choice([0.0, rng.uniform(0.0, 10.0), 10.0 ** rng.uniform(-300, 300)]),
                rng.choice([0.0, rng.uniform(0.0, 10.0), 10.0 ** rng.uniform(-300, 300)]),
            )
            alpha = rng.choice([1.0, rng.uniform(1e-6, 1.0), 10.0 ** rng.uniform(-300, 0)])
            got = allocator._relay_seeds(budget, alpha)
            want = parent_relay_seeds(budget, alpha)
            assert [x.hex() for x in got] == [x.hex() for x in want]


DIRECT_ALLOCATIONS = {
    "non_coop": lambda gains, noise, budget, alpha, price: noncoop_allocation(
        gains, noise, budget, price=price
    ),
    "one_side_coop": lambda gains, noise, budget, alpha, price: one_side_allocation(
        gains, noise, budget, alpha=alpha, price=price
    ),
    "mac_coop": lambda gains, noise, budget, alpha, price: mac_allocation(
        gains, noise, budget, alpha=alpha, price=price
    ),
}


def zero_or(lo, hi):
    return st.one_of(st.just(0.0), st.floats(min_value=lo, max_value=hi))


@st.composite
def direct_decision(draw):
    """A direct-mode allocation's inputs and a power-of-two change of unit.

    Every input is zero or far from the float range's ends, so that the
    change of unit is exact: a subnormal budget scaled by ``2**-7`` would
    change the problem, not its unit."""

    return (
        DIRECT_ALLOCATIONS[draw(st.sampled_from(sorted(DIRECT_ALLOCATIONS)))],
        [draw(zero_or(1e-3, 10.0)) for _ in range(6)],
        draw(st.floats(min_value=0.05, max_value=5.0)),
        [draw(zero_or(1e-3, 20.0)) for _ in range(2)],
        draw(st.floats(min_value=0.05, max_value=1.0)),
        draw(st.one_of(st.just(0.0), st.floats(-4.0, 0.5).map(lambda e: 10.0**e))),
        draw(st.sampled_from([2.0**-7, 2.0**20])),
    )


# A noise power whose square C ``pow`` rounds differently once scaled by 2**-7.
POW_S2 = 1.2800312649519106


class TestUnitInvariance:
    """A change of unit, by a power of two, changes no direct-mode decision.
    (The relay half waits for an exact relay optimum.)"""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(direct_decision())
    def test_noise_unit_leaves_every_bit(self, drawn):
        # gains and sigma2 in a noise unit k times smaller
        allocate, gains, sigma2, budgets, alpha, price, k = drawn
        budget = PowerBudget(*budgets)
        base = allocate(ChannelGains(*gains), NoiseModel(sigma2), budget, alpha, price)
        scaled = ChannelGains(*(g * k for g in gains))
        assert allocate(scaled, NoiseModel(sigma2 * k), budget, alpha, price) == base

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(direct_decision())
    def test_power_unit_scales_the_powers_alone(self, drawn):
        # budgets in a power unit k times smaller; gains and the price per unit follow
        allocate, gains, sigma2, budgets, alpha, price, k = drawn
        noise = NoiseModel(sigma2)
        base = allocate(ChannelGains(*gains), noise, PowerBudget(*budgets), alpha, price)
        scaled = allocate(
            ChannelGains(*(g / k for g in gains)),
            noise,
            PowerBudget(*(b * k for b in budgets)),
            alpha,
            price / k,
        )
        powers = ("p_a", "p_j", "p_ab", "p_jb")
        assert [getattr(scaled, p) for p in powers] == [getattr(base, p) * k for p in powers]
        assert (scaled.mode, scaled.cs, scaled.provenance) == (base.mode, base.cs, base.provenance)

    def test_noise_unit_where_pow_rounds_apart(self):
        # C pow may round (s2 * k)**2 apart from k**2 * s2**2, which would move the
        # quadratic's constant coefficient by one ulp, and with it mac_coop's p_j;
        # the kernel squares by a product, which a power of two leaves exact
        gains = [
            2.7799286811727435,
            0.4525122299659921,
            0.15299722646333735,
            0.0,
            0.0034769195063529394,
            0.02753419424720606,
        ]
        sigma2, k = POW_S2, 2.0**-7
        budget = PowerBudget(11.70456825645865, 7.263582950469003)
        terms = dict(alpha=0.7871150051293961, price=1.1584969052784067)
        base = mac_allocation(ChannelGains(*gains), NoiseModel(sigma2), budget, **terms)
        scaled = ChannelGains(*(g * k for g in gains))
        assert mac_allocation(scaled, NoiseModel(sigma2 * k), budget, **terms) == base
