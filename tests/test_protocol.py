"""Tests for the cooperation gate and the negotiation ladder."""

from __future__ import annotations

import collections
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsec import (
    ChannelGains,
    ConstraintMode,
    Geometry,
    NegotiationPolicy,
    NoiseModel,
    PowerBudget,
    ExperimentConfig,
    ScenarioKind,
    distance_constraints_met,
    mac_allocation,
    negotiate,
    noncoop_allocation,
    one_side_allocation,
    relay_allocation,
    run_mobility,
)

STD_GAINS = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
STD_BUDGETS = PowerBudget(p_a_max=5.0, p_j_max=5.0)


def geometry_with_eve_at(d_ae: float) -> Geometry:
    return Geometry(d_ab=1.0, d_ae=d_ae, d_jb=1.0, d_je=2.0, d_aj=2.0, eta=2.0)


class TestConstraintPredicate:
    """The gate holds while the eavesdropper is close and breaks as she leaves."""

    @pytest.mark.parametrize(
        "d_ae, expected",
        [(2.0, True), (math.sqrt(6.0), True), (3.0, False)],
    )
    def test_corrected_gate_over_eavesdropper_distance(self, d_ae, expected):
        verdict = distance_constraints_met(
            STD_GAINS,
            geometry_with_eve_at(d_ae),
            sigma2=1.0,
            alpha=0.8,
            p_a=5.0,
            p_j=5.0,
            mode=ConstraintMode.CORRECTED,
        )
        assert verdict.all_met is expected

    def test_boundary_square_counts_as_satisfied(self):
        # sqrt(6)**2 lands at 6.000000000000001; the comparison must not
        # flip on that last-bit excess
        verdict = distance_constraints_met(
            STD_GAINS,
            geometry_with_eve_at(math.sqrt(6.0)),
            1.0,
            0.8,
            5.0,
            5.0,
            mode="corrected",
        )
        assert verdict.distance_alice_eve
        assert verdict.snr_condition_alice

    def test_published_and_corrected_modes_diverge_when_pair_distances_differ(self):
        # d_ab=1 while d_aj=2: the published pair term is much tighter
        geometry = geometry_with_eve_at(2.0)
        published = distance_constraints_met(
            STD_GAINS, geometry, 1.0, 0.8, 5.0, 5.0, mode=ConstraintMode.AS_PUBLISHED
        )
        corrected = distance_constraints_met(
            STD_GAINS, geometry, 1.0, 0.8, 5.0, 5.0, mode=ConstraintMode.CORRECTED
        )
        assert not published.snr_condition_alice
        assert corrected.snr_condition_alice
        assert not published.all_met
        assert corrected.all_met

    def test_modes_coincide_when_pair_distances_match(self):
        geometry = Geometry(d_ab=2.0, d_ae=2.0, d_jb=1.0, d_je=2.0, d_aj=2.0, eta=2.0)
        published = distance_constraints_met(
            STD_GAINS, geometry, 1.0, 0.8, 5.0, 5.0, mode="paper"
        )
        corrected = distance_constraints_met(
            STD_GAINS, geometry, 1.0, 0.8, 5.0, 5.0, mode="corrected"
        )
        assert published == corrected

    def test_corrected_snr_conditions_match_distance_conditions_at_square_law(self):
        # with the pair term corrected and eta=2 the noise terms are the only
        # survivors of cross-multiplication, so the two condition families
        # must agree flag for flag
        for d_ae in (1.0, 2.0, 2.6, 3.5):
            for d_je in (1.0, 2.4, 3.0):
                geometry = Geometry(
                    d_ab=1.5, d_ae=d_ae, d_jb=1.0, d_je=d_je, d_aj=2.0, eta=2.0
                )
                verdict = distance_constraints_met(
                    STD_GAINS, geometry, 1.3, 0.7, 4.0, 6.0, mode="corrected"
                )
                assert verdict.snr_condition_alice == verdict.distance_alice_eve
                assert verdict.snr_condition_john == verdict.distance_john_eve

    @settings(max_examples=60, deadline=None)
    @given(
        p_a=st.floats(min_value=0.0, max_value=50.0),
        p_j=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_verdict_does_not_depend_on_main_powers(self, p_a, p_j):
        # both spellings put the same gain product on the power term of each
        # side, so cross-multiplication cancels it exactly
        geometry = geometry_with_eve_at(2.3)
        for mode in ConstraintMode:
            base = distance_constraints_met(
                STD_GAINS, geometry, 1.0, 0.8, 5.0, 5.0, mode=mode
            )
            moved = distance_constraints_met(
                STD_GAINS, geometry, 1.0, 0.8, p_a, p_j, mode=mode
            )
            assert base == moved

    def test_flags_are_the_printed_inequalities(self):
        # gains 10^U(-2, 1), distances U(0.3, 3), eta U(1, 4), sigma2 10^U(-2, 1),
        # alpha U(0.05, 1), main powers 10^U(-2, 2); a side within 1e-8 of its
        # bound is skipped, where the guard for boundary equality may decide
        rng = random.Random(31)
        seen = collections.Counter()
        for _ in range(2000):
            g_ab, g_ae, g_jb, g_je, g_aj, g_ja = (10.0 ** rng.uniform(-2.0, 1.0) for _ in range(6))
            gains = ChannelGains(g_ab, g_ae, g_jb, g_je, g_aj, g_ja)
            d_ab, d_ae, d_jb, d_je, d_aj = (rng.uniform(0.3, 3.0) for _ in range(5))
            eta = rng.uniform(1.0, 4.0)
            geometry = Geometry(d_ab, d_ae, d_jb, d_je, d_aj, eta)
            s2, a = 10.0 ** rng.uniform(-2.0, 1.0), rng.uniform(0.05, 1.0)
            p_a, p_j = (10.0 ** rng.uniform(-2.0, 2.0) for _ in "aj")
            for mode, d in ((ConstraintMode.AS_PUBLISHED, d_ab), (ConstraintMode.CORRECTED, d_aj)):
                printed = {
                    "snr_condition_alice": (
                        a * g_aj / (d**2 * s2 + a * g_aj * p_j),
                        a * g_ae / (d_ae**2 * s2 + a * g_ae * p_j),
                    ),
                    "snr_condition_john": (
                        g_ja / (a * d**2 * s2 + g_ja * p_a),
                        g_je / (a * d_je**2 * s2 + g_je * p_a),
                    ),
                    "distance_alice_eve": (d_ae**eta, g_ae / g_aj * d_aj**eta),
                    "distance_john_eve": (d_je**eta, g_je / g_ja * d_aj**eta),
                }
                verdict = distance_constraints_met(gains, geometry, s2, a, p_a, p_j, mode)
                for flag, (lhs, rhs) in printed.items():
                    if not math.isclose(lhs, rhs, rel_tol=1e-8):
                        assert getattr(verdict, flag) is (lhs <= rhs), (flag, lhs, rhs)
                        seen[flag, lhs <= rhs] += 1
                flags = [getattr(verdict, flag) for flag in printed]
                assert verdict.all_met is all(flags)
        # every flag both holds and fails
        assert len(seen) == 4 * 2, seen

    def test_as_dict_keys_and_conjunction(self):
        verdict = distance_constraints_met(
            STD_GAINS, geometry_with_eve_at(2.0), 1.0, 0.8, 5.0, 5.0, "corrected"
        )
        payload = verdict.as_dict()
        assert list(payload) == [
            "snr_condition_alice",
            "snr_condition_john",
            "distance_alice_eve",
            "distance_john_eve",
            "all_met",
        ]
        assert payload["all_met"] == all(
            payload[k] for k in payload if k != "all_met"
        )

    def test_rejects_bad_inputs(self):
        geometry = geometry_with_eve_at(2.0)
        with pytest.raises(ValueError):
            distance_constraints_met(STD_GAINS, geometry, 0.0, 0.8, 5.0, 5.0)
        with pytest.raises(ValueError):
            distance_constraints_met(STD_GAINS, geometry, 1.0, 0.0, 5.0, 5.0)
        with pytest.raises(ValueError):
            distance_constraints_met(STD_GAINS, geometry, 1.0, 0.8, -1.0, 5.0)


class TestNegotiationLadder:
    GEOMETRY = geometry_with_eve_at(2.0)

    def run(self, policy: NegotiationPolicy, geometry: Geometry | None = None):
        return negotiate(
            policy,
            STD_GAINS,
            geometry or self.GEOMETRY,
            sigma2=1.0,
            price=0.01,
            budgets=STD_BUDGETS,
            mode=ConstraintMode.CORRECTED,
        )

    def test_full_agreement_lands_on_mutual_relaying(self):
        mode, allocation = self.run(NegotiationPolicy())
        assert mode is ScenarioKind.RELAY_COOP
        assert allocation.mode is ScenarioKind.RELAY_COOP

    def test_relay_refusal_falls_back_to_power_cooperation(self):
        mode, _ = self.run(NegotiationPolicy(john_accepts_relay=False))
        assert mode is ScenarioKind.MAC_COOP
        mode, _ = self.run(NegotiationPolicy(alice_accepts_relay=False))
        assert mode is ScenarioKind.MAC_COOP

    def test_next_refusal_falls_back_to_one_sided_help(self):
        policy = NegotiationPolicy(john_accepts_relay=False, john_accepts_mac=False)
        mode, allocation = self.run(policy)
        assert mode is ScenarioKind.ONE_SIDE_COOP
        assert allocation.mode is ScenarioKind.ONE_SIDE_COOP

    def test_refusing_everything_means_no_cooperation(self):
        policy = NegotiationPolicy(
            john_accepts_relay=False,
            john_accepts_mac=False,
            john_accepts_one_side=False,
        )
        mode, allocation = self.run(policy)
        assert mode is ScenarioKind.NON_COOP
        assert allocation.mode is ScenarioKind.NON_COOP

    def test_failed_gate_skips_the_ladder_entirely(self):
        mode, allocation = self.run(NegotiationPolicy(), geometry_with_eve_at(3.0))
        assert mode is ScenarioKind.NON_COOP
        assert allocation.mode is ScenarioKind.NON_COOP

    def test_allocations_are_computed_over_attenuated_gains(self):
        noise = NoiseModel(1.0)
        attenuated = STD_GAINS.effective(self.GEOMETRY)
        cases = [
            (NegotiationPolicy(), relay_allocation(
                attenuated, noise, STD_BUDGETS, alpha=0.8, price=0.01
            )),
            (NegotiationPolicy(john_accepts_relay=False), mac_allocation(
                attenuated, noise, STD_BUDGETS, alpha=0.8, price=0.01
            )),
            (NegotiationPolicy(john_accepts_relay=False, john_accepts_mac=False),
             one_side_allocation(attenuated, noise, STD_BUDGETS, alpha=0.8, price=0.01)),
        ]
        for policy, expected in cases:
            _, allocation = self.run(policy)
            assert allocation == expected
        _, allocation = self.run(NegotiationPolicy(), geometry_with_eve_at(3.0))
        far = STD_GAINS.effective(geometry_with_eve_at(3.0))
        assert allocation == noncoop_allocation(far, noise, STD_BUDGETS, price=0.01)

    def test_policy_rejects_cooperation_level_out_of_range(self):
        with pytest.raises(ValueError):
            NegotiationPolicy(alpha=1.5)
        with pytest.raises(ValueError):
            NegotiationPolicy(alpha=-0.1)
        # negotiate rejects alpha = 0 on every call, so the policy rejects it up front
        with pytest.raises(ValueError, match=r"alpha in \(0, 1\]"):
            NegotiationPolicy(alpha=0.0)

    @pytest.mark.parametrize("value", ["no", 0, 1, None, 1.0])
    @pytest.mark.parametrize(
        "switch",
        ["john_accepts_relay", "alice_accepts_relay", "john_accepts_mac", "john_accepts_one_side"],
    )
    def test_policy_switches_take_only_a_bool(self, switch, value):
        # a truthy "no" would otherwise accept the rung
        with pytest.raises(ValueError, match=rf"^{switch} must be a bool, got {value!r}$"):
            NegotiationPolicy(**{switch: value})


class TestAdaptiveStep:
    """Mobility re-negotiates at every step and flags each change of mode."""

    def walk(self, *d_ae):
        config = ExperimentConfig(
            gains=STD_GAINS,
            geometry=geometry_with_eve_at(d_ae[0]),
            price=0.01,
            budgets=STD_BUDGETS,
            constraint_mode="corrected",
            trajectory=[(d, 2.0) for d in d_ae],
        )
        return [(ScenarioKind(row.mode), row.changed) for row in run_mobility(config)]

    def test_unchanged_geometry_keeps_mode(self):
        assert self.walk(2.0, 2.0) == [
            (ScenarioKind.RELAY_COOP, False),
            (ScenarioKind.RELAY_COOP, False),
        ]

    def test_eavesdropper_leaving_flips_to_no_cooperation(self):
        # the corrected gate holds up to d_ae = sqrt(6) and fails beyond it
        assert self.walk(math.sqrt(6.0), 3.0) == [
            (ScenarioKind.RELAY_COOP, False),
            (ScenarioKind.NON_COOP, True),
        ]

    def test_eavesdropper_returning_flips_back(self):
        assert self.walk(3.0, 2.0) == [
            (ScenarioKind.NON_COOP, False),
            (ScenarioKind.RELAY_COOP, True),
        ]

    def test_first_step_is_never_flagged(self):
        assert self.walk(3.0) == [(ScenarioKind.NON_COOP, False)]
