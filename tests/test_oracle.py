"""Tests for the grid-search oracle and the formula validation report."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsec import (
    ChannelGains,
    ExperimentConfig,
    Geometry,
    NoiseModel,
    PowerBudget,
    ScenarioKind,
    finite_diff_derivative,
    grid_search_optimum,
    validate_scenario,
)
from coopsec import allocator, harness, oracle
from coopsec.oracle import (
    VERDICT_AGREE,
    VERDICT_INFEASIBLE,
    VERDICT_SUSPECTED_TYPO,
    _most_severe,
)

STD_GAINS = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
UNIT_GEOMETRY = Geometry(d_ab=1.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0)
STD_BUDGETS = PowerBudget(p_a_max=5.0, p_j_max=5.0)


class TestGridSearchOptimum:
    def test_finds_interior_parabola_peak(self):
        best_x, best_f = grid_search_optimum(lambda x: -((x - 3.7) ** 2), 0.0, 10.0)
        assert abs(best_x - 3.7) < 1e-4
        assert abs(best_f) < 1e-8

    def test_increasing_objective_picks_upper_bound(self):
        best_x, best_f = grid_search_optimum(lambda x: x, 0.0, 10.0)
        assert best_x == 10.0
        assert best_f == 10.0

    def test_decreasing_objective_picks_lower_bound(self):
        best_x, best_f = grid_search_optimum(lambda x: -x, 0.0, 10.0)
        assert best_x == 0.0
        assert best_f == 0.0

    def test_flat_objective_ties_toward_smaller_argument(self):
        best_x, best_f = grid_search_optimum(lambda x: 1.0, 2.0, 9.0)
        assert best_x == 2.0
        assert best_f == 1.0

    def test_degenerate_interval_returns_single_point(self):
        best_x, best_f = grid_search_optimum(lambda x: math.log1p(x), 2.5, 2.5)
        assert best_x == 2.5
        assert best_f == math.log1p(2.5)

    def test_a_zero_divisor_on_a_point_interval_is_not_finite(self):
        key = allocator._RelaySlice(0.4, 0.3, 1e-30, 1e-30, 1e-300, 0.01, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^objective is not finite at x=0\.0$"):
            grid_search_optimum(key, 0.0, 0.0)

    def test_a_scalar_only_objective_names_its_first_zero_divisor(self):
        def scalar_only(x):
            if isinstance(x, np.ndarray):
                raise TypeError
            return 1.0 / (x - 4.0) if x >= 4.0 else -x

        with pytest.raises(ValueError, match=r"^objective is not finite at x=4\.0$"):
            grid_search_optimum(scalar_only, 0.0, 10.0, 11)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            grid_search_optimum(lambda x: x, 1.0, 0.0)

    def test_rejects_resolution_below_two(self):
        with pytest.raises(ValueError):
            grid_search_optimum(lambda x: x, 0.0, 1.0, resolution=1)

    def test_non_finite_objective_reports_offending_point(self):
        def ragged(x):
            # scalar-only on purpose: array input trips the truth-value check
            return x if x < 5.0 else float("nan")

        with pytest.raises(ValueError, match="not finite at x="):
            grid_search_optimum(ragged, 0.0, 10.0)

    def test_scalar_only_objective_matches_vectorized(self):
        def vectorized(x):
            return -((x - 2.0) ** 2)

        def scalar_only(x):
            return -((float(x) - 2.0) ** 2) if np.isscalar(x) else (_ for _ in ()).throw(TypeError)

        xv, fv = grid_search_optimum(vectorized, 0.0, 6.0)
        xs, fs = grid_search_optimum(scalar_only, 0.0, 6.0)
        assert xv == pytest.approx(xs, abs=1e-12)
        assert fv == pytest.approx(fs, abs=1e-12)

    def test_tolerance_below_float_spacing_terminates(self):
        # the refinement width (1e-3 / 10001 / 100) is below the spacing near 1e10
        peak = 1e10 + 5e-4
        best_x, _ = grid_search_optimum(lambda x: -((x - peak) ** 2), 1e10, 1e10 + 1e-3)
        assert abs(best_x - peak) <= 1e-3 / 10000

    @settings(max_examples=40, deadline=None)
    @given(peak=st.floats(min_value=0.5, max_value=9.5))
    def test_parabola_peak_recovered_within_one_grid_step(self, peak):
        best_x, _ = grid_search_optimum(lambda x: -((x - peak) ** 2), 0.0, 10.0, resolution=2001)
        assert abs(best_x - peak) <= 10.0 / 2000.0


class TestFiniteDiffDerivative:
    def test_matches_known_derivative(self):
        value = finite_diff_derivative(lambda x: x**2, 3.0, 1e-6)
        assert value == pytest.approx(6.0, abs=1e-5)

    def test_log_derivative(self):
        value = finite_diff_derivative(math.log, 2.0, 1e-6)
        assert value == pytest.approx(0.5, abs=1e-6)

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            finite_diff_derivative(lambda x: x, 1.0, 0.0)

    def test_a_zero_divisor_is_not_finite(self):
        # s2 * (first hop + second hop + s2) underflows to zero in float arithmetic
        key = allocator._RelaySlice(0.4, 0.3, 1e-30, 1e-30, 1e-300, 0.01, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^objective is not finite at x=0\.501$"):
            finite_diff_derivative(key, 0.5, 1e-3)

    def test_a_domain_error_is_not_finite(self):
        # the upper stencil point is evaluated first
        with pytest.raises(ValueError, match=r"^objective is not finite at x=1\.0$"):
            finite_diff_derivative(lambda x: math.log1p(-2.0 * x), 0.75, 0.25)


EXPECTED_ENTRY_IDS = {
    ScenarioKind.NON_COOP: ["non_coop.p_a", "non_coop.p_j", "non_coop.p_j.variant"],
    ScenarioKind.ONE_SIDE_COOP: ["one_side_coop.p_a", "one_side_coop.p_j"],
    ScenarioKind.MAC_COOP: [
        "mac_coop.p_j",
        "mac_coop.p_a",
        "mac_coop.p_j.distance",
        "mac_coop.p_j.distance.variant",
        "mac_coop.p_a.distance",
        "mac_coop.p_a.distance.variant",
    ],
    ScenarioKind.RELAY_COOP: ["relay_coop.p_jb", "relay_coop.p_ab"],
}


def standard_report(kind, price):
    return validate_scenario(
        kind, STD_GAINS, UNIT_GEOMETRY, 1.0, 0.8, price, STD_BUDGETS
    )


class TestValidateScenario:
    @pytest.mark.parametrize("kind", list(ScenarioKind))
    def test_entry_ids_are_stable(self, kind):
        report = standard_report(kind, 0.01)
        assert [e.formula_id for e in report.entries] == EXPECTED_ENTRY_IDS[kind]

    def test_low_price_verdicts_at_standard_point(self):
        expected = {
            ScenarioKind.RELAY_COOP: {"agree": 2},
            ScenarioKind.MAC_COOP: {"agree": 4, "suspected-typo": 2},
            ScenarioKind.ONE_SIDE_COOP: {"suspected-typo": 2},
            ScenarioKind.NON_COOP: {"suspected-typo": 3},
        }
        for kind, summary in expected.items():
            assert standard_report(kind, 0.01).summary() == summary

    def test_high_price_everything_agrees_at_zero(self):
        for kind in ScenarioKind:
            report = standard_report(kind, 1.0)
            for entry in report.entries:
                assert entry.verdict == VERDICT_AGREE
                assert entry.root_value == 0.0
                assert entry.oracle_value == 0.0

    def test_transmitter_power_entry_flags_printed_value(self):
        entry = standard_report(ScenarioKind.NON_COOP, 0.01).entry("non_coop.p_a")
        assert entry.verdict == VERDICT_SUSPECTED_TYPO
        assert entry.closed_form_value == pytest.approx(3.3049, abs=1e-3)
        assert entry.root_value == pytest.approx(6.2215, abs=1e-3)
        assert entry.oracle_value == pytest.approx(6.2215, abs=1e-3)
        assert entry.derivative_residual is not None
        assert entry.derivative_residual <= 1e-6

    def test_variant_row_flags_through_oracle_not_closed_form(self):
        entry = standard_report(ScenarioKind.NON_COOP, 0.01).entry("non_coop.p_j.variant")
        assert entry.verdict == VERDICT_SUSPECTED_TYPO
        assert entry.closed_form_value is None
        assert entry.root_value == pytest.approx(9.1606, abs=1e-3)
        assert entry.oracle_value == pytest.approx(8.8996, abs=1e-3)
        assert entry.derivative_residual is not None
        assert entry.derivative_residual > 1e-6

    def test_distance_entries_agree_at_unit_distances(self):
        report = standard_report(ScenarioKind.MAC_COOP, 0.01)
        for suffix in ("p_j.distance", "p_j.distance.variant", "p_a.distance", "p_a.distance.variant"):
            assert report.entry(f"mac_coop.{suffix}").verdict == VERDICT_AGREE

    def test_nonreal_closed_form_marks_infeasible(self):
        gains = ChannelGains(g_ab=0.1, g_ae=0.5, g_jb=0.5, g_je=0.3, g_aj=0.2)
        report = validate_scenario(
            ScenarioKind.NON_COOP, gains, UNIT_GEOMETRY, 1.0, 0.8, 0.1, STD_BUDGETS
        )
        entry = report.entry("non_coop.p_a")
        assert entry.verdict == VERDICT_INFEASIBLE
        assert math.isnan(entry.closed_form_value)
        assert entry.root_value == 0.0
        assert "no real value" in entry.note

    def test_rejects_non_positive_price(self):
        with pytest.raises(ValueError):
            standard_report(ScenarioKind.NON_COOP, 0.0)


class TestZeroGains:
    @pytest.mark.parametrize("zero", ["g_ab", "g_ae", "g_aj"])
    def test_every_entry_stays_finite(self, zero):
        # the closed forms divide by g_ab, g_ae, g_jb and g_je, not by g_aj
        gains = ChannelGains(**{**dataclasses.asdict(STD_GAINS), zero: 0.0})
        for kind in ScenarioKind:
            report = validate_scenario(kind, gains, UNIT_GEOMETRY, 1.0, 0.8, 0.01, STD_BUDGETS)
            payload = json.loads(json.dumps(report.as_dict(), allow_nan=False))
            for entry in payload["entries"]:
                if zero != "g_aj":
                    assert entry["closed_form_value"] is None
                for key in ("root_value", "oracle_value", "abs_deviation", "rel_deviation"):
                    assert entry[key] is not None and math.isfinite(entry[key])


class TestOverflowingClosedForms:
    def test_closed_forms_are_reported_absent(self):
        # (s2*g_ab + s2*g_ae) ** 2 overflows a float power; the objectives stay finite
        gains = ChannelGains(g_ab=1e160, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
        for kind in (ScenarioKind.NON_COOP, ScenarioKind.ONE_SIDE_COOP, ScenarioKind.MAC_COOP):
            report = validate_scenario(kind, gains, UNIT_GEOMETRY, 1.0, 0.8, 0.01, STD_BUDGETS)
            payload = json.loads(json.dumps(report.as_dict(), allow_nan=False))
            for entry in payload["entries"]:
                assert entry["closed_form_value"] is None
                assert math.isfinite(entry["oracle_value"])

    def test_overflowing_relay_coefficients_are_a_value_error(self):
        gains = ChannelGains(g_ab=1e160, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
        with pytest.raises(ValueError, match="^relay_coop.p_ab: polynomial coefficients overflow$"):
            validate_scenario(
                ScenarioKind.RELAY_COOP, gains, UNIT_GEOMETRY, 1.0, 0.8, 0.01, STD_BUDGETS
            )


class TestValidationReport:
    def test_entry_lookup_raises_on_unknown_id(self):
        report = standard_report(ScenarioKind.NON_COOP, 0.01)
        with pytest.raises(KeyError):
            report.entry("non_coop.p_q")

    def test_worst_verdict_severity_order(self):
        # the CLI's worst verdict is the most severe key of the summary
        def worst(kind, price):
            return _most_severe(standard_report(kind, price).summary())

        assert worst(ScenarioKind.NON_COOP, 0.01) == VERDICT_SUSPECTED_TYPO
        assert worst(ScenarioKind.NON_COOP, 1.0) == VERDICT_AGREE
        assert worst(ScenarioKind.MAC_COOP, 0.01) == VERDICT_SUSPECTED_TYPO

    def test_summary_counts_cover_every_entry(self):
        for kind in ScenarioKind:
            report = standard_report(kind, 0.01)
            assert sum(report.summary().values()) == len(report.entries)

    def test_as_dict_is_json_safe_without_nan(self):
        gains = ChannelGains(g_ab=0.1, g_ae=0.5, g_jb=0.5, g_je=0.3, g_aj=0.2)
        report = validate_scenario(
            ScenarioKind.NON_COOP, gains, UNIT_GEOMETRY, 1.0, 0.8, 0.1, STD_BUDGETS
        )
        payload = json.dumps(report.as_dict(), allow_nan=False)
        decoded = json.loads(payload)
        assert decoded["kind"] == "non_coop"
        by_id = {e["formula_id"]: e for e in decoded["entries"]}
        assert by_id["non_coop.p_a"]["closed_form_value"] is None
        assert decoded["summary"] == report.summary()

    def test_a_check_is_built_like_a_constructed_one(self):
        # _check_formula skips __init__: each entry must still compare, hash, print
        # and copy like the one __init__ builds from the same fields
        for kind in ScenarioKind:
            for price in (0.01, 1.0):
                for entry in standard_report(kind, price).entries:
                    fields = {f.name: getattr(entry, f.name) for f in dataclasses.fields(entry)}
                    built = oracle.FormulaCheck(**fields)
                    assert entry == built and hash(entry) == hash(built)
                    assert repr(entry) == repr(built) and vars(entry) == vars(built)
                    assert list(vars(entry)) == list(vars(built))
                    assert dataclasses.replace(entry) == entry
                    noted = dataclasses.replace(entry, note="x")
                    assert noted == dataclasses.replace(built, note="x") and noted.note == "x"

    def test_verdict_strings_are_the_serialized_labels(self):
        assert VERDICT_AGREE == "agree"
        assert VERDICT_SUSPECTED_TYPO == "suspected-typo"
        assert VERDICT_INFEASIBLE == "infeasible"


def searched_points(search, *args):
    """Every input ``search`` evaluates its objective on, in order: each array
    copied, each scalar as given."""

    objective, *rest = args
    seen = []

    def recorded(x):
        seen.append(np.array(x, copy=True) if isinstance(x, np.ndarray) else x)
        return objective(x)

    search(recorded, *rest)
    return seen


def searched_arrays(search, *args):
    """The arrays ``search`` evaluates its objective on, in order."""

    return [x for x in searched_points(search, *args) if isinstance(x, np.ndarray)]


class TestExactGrid:
    """The search grid is ``np.linspace`` bit for bit."""

    @pytest.mark.parametrize(
        "lo,hi",
        [(0.0, 5e-324), (0.0, 1e-320), (-1e-321, 1e-321), (1e-310, 1e-310 + 1e-319)],
    )
    @pytest.mark.parametrize("n", [2, 3, 101, 10001])
    def test_subnormal_spans(self, lo, hi, n):
        (grid,) = searched_arrays(grid_search_optimum, lambda x: -(x / hi) ** 2, lo, hi, n)
        assert grid.tobytes() == np.linspace(lo, hi, n).tobytes()

    def test_huge_span(self):
        for lo, hi in ((-1e300, 1e300), (-8e307, 8e307), (1.0, 1.7e308)):
            for n in (2, 10001):
                (grid,) = searched_arrays(grid_search_optimum, lambda x: -(x / hi) ** 2, lo, hi, n)
                assert grid.tobytes() == np.linspace(lo, hi, n).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 101, 10001])
    def test_matches_linspace_on_random_intervals(self, n):
        # the audit's fallback searches [0, hi] for hi anywhere in the float range
        rng = np.random.default_rng(n)
        for _ in range(750):
            hi = float(10.0 ** rng.uniform(-300.0, 300.0))
            objective = Gap(0.4, 0.3, 1.0, 0.01, 10.0 / hi)
            (grid,) = searched_arrays(grid_search_optimum, objective, 0.0, hi, n)
            assert grid.tobytes() == np.linspace(0.0, hi, n).tobytes(), hi

    def test_search_evaluates_the_linspace_grid(self):
        (grid,) = searched_arrays(grid_search_optimum, lambda x: -((x - 0.3) ** 2), -2.5, 1.75, 517)
        assert grid.tobytes() == np.linspace(-2.5, 1.75, 517).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vectorized_non_finite_names_first_bad_point(self, bad):
        xs = np.linspace(0.0, 10.0, 101)

        def objective(x):
            return np.where(x > 4.0, bad, x) if isinstance(x, np.ndarray) else x

        with pytest.raises(ValueError, match=f"not finite at x={float(xs[41])!r}$"):
            grid_search_optimum(objective, 0.0, 10.0, resolution=101)

    def test_huge_finite_values_pass(self):
        # a sum over these overflows; the finiteness test must not use one
        def huge(x):
            return np.full_like(x, 1e308) if isinstance(x, np.ndarray) else 1e308

        best_x, best_f = grid_search_optimum(huge, 0.0, 1.0)
        assert best_x == 0.0 and best_f == 1e308


Gap, RelaySlice = allocator._Gap, allocator._RelaySlice
STD_GAP = Gap(0.4, 0.3, 1.0, 0.01, 0.8)
STD_RELAY = RelaySlice(0.4, 0.3, 0.2, 0.5, 1.0, 0.01, 2.5, 0.8)


def no_exact_point(monkeypatch):
    """Take every form's exact point away, so that each search falls back."""

    for form in (Gap, RelaySlice):
        monkeypatch.setattr(form, "argmax", lambda self, hi: None)


@pytest.fixture
def fallbacks(monkeypatch):
    """Record every call of the audit's exhaustive fallback."""

    calls = []
    original = oracle.grid_search_optimum

    def recording(objective, lo, hi, resolution=10001):
        calls.append((lo, hi, resolution))
        return original(objective, lo, hi, resolution)

    monkeypatch.setattr(oracle, "grid_search_optimum", recording)
    return calls


def verdicts(report):
    """Every entry's verdict in a ``run_validation`` report, in order."""

    points = [report["config_point"], *report["random_points"]]
    return [
        (entry["formula_id"], entry["verdict"])
        for point in points
        for scenario in point["reports"].values()
        for entry in scenario["entries"]
    ]


class TestOracleArgmax:
    """The audit's argmax is the certified exact point; the exhaustive grid
    search runs only where there is none or the certificate fails."""

    @pytest.mark.parametrize("key", [STD_GAP, STD_RELAY])
    @pytest.mark.parametrize("hi", [1.0, 7.5, 12.0, 1e4])
    def test_the_exact_point_is_certified(self, fallbacks, key, hi):
        got, ends = oracle._oracle_argmax(key, key, hi)
        assert got == key.argmax(hi) and fallbacks == []
        assert ends == (key(0.0), key(hi))
        want, _ = grid_search_optimum(key, 0.0, hi)
        assert abs(got - want) <= hi / 10000

    @pytest.mark.parametrize("hi", [1.0, 12.0, 1e4])
    def test_a_search_evaluates_the_ends_then_the_linspace_grid(self, monkeypatch, hi):
        # certified: no array, and first the floats 0.0 and hi; forced to fall
        # back, the exhaustive search's one array follows them, bit for bit
        for key in (STD_GAP, STD_RELAY):
            points = searched_points(oracle._oracle_argmax, key, key, hi)
            assert points == [0.0, hi]
            assert all(type(x) is float for x in points)
            with monkeypatch.context() as forced:
                no_exact_point(forced)
                points = searched_points(oracle._oracle_argmax, key, key, hi)
            assert points[:2] == [0.0, hi] and all(type(x) is float for x in points[:2])
            (grid,) = [x for x in points if isinstance(x, np.ndarray)]
            assert points[2] is grid
            assert grid.tobytes() == np.linspace(0.0, hi, 10001).tobytes()

    @pytest.mark.parametrize("resolution", [2, 3, 4, 7, 8, 101])
    @pytest.mark.parametrize("key", [STD_GAP, STD_RELAY])
    def test_within_a_step_of_coarse_exhaustive_searches(self, key, resolution):
        for hi in (1.0, 12.0):
            got = oracle._oracle_argmax(key, key, hi)[0]
            want, top = grid_search_optimum(key, 0.0, hi, resolution)
            assert abs(got - want) <= hi / (resolution - 1)
            assert float(key(got)) >= top - 2.0**-48 * (1.0 + abs(top))

    @pytest.mark.parametrize(
        "key,want",
        [
            (Gap(0.4, 0.3, 1.0, 0.0, 1.0), 12.0),  # no price: the gap rises
            (Gap(0.3, 0.4, 1.0, 0.01, 1.0), 0.0),  # the tapped link is stronger
            (RelaySlice(0.4, 0.3, 0.2, 0.5, 1.0, 0.0, 2.5, 0.8), 12.0),  # no price
            (RelaySlice(0.4, 0.3, 0.2, 0.5, 1.0, 10.0, 2.5, 0.8), 0.0),  # no relaying pays
        ],
    )
    def test_an_end_point_is_taken_without_a_fallback(self, fallbacks, key, want):
        assert oracle._oracle_argmax(key, key, 12.0)[0] == want and fallbacks == []
        assert grid_search_optimum(key, 0.0, 12.0)[0] == want

    def test_a_flat_priced_gap_is_certified_at_zero(self, fallbacks):
        # equal links and a price of 1e-12: the objective falls by 1e-12 over [0, 1]
        key = Gap(0.4, 0.4, 1.0, 1e-12, 1.0)
        assert oracle._oracle_argmax(key, key, 1.0)[0] == 0.0 and fallbacks == []
        assert grid_search_optimum(key, 0.0, 1.0)[0] == 0.0

    def test_an_overflowing_relay_key_falls_back(self, fallbacks):
        # g_hop1 * own_power * (g_hop1 * own_power + s2) overflows, so there is no
        # exact point, while the objective stays finite on [0, 1]
        key = RelaySlice(0.4, 0.3, 1e300, 1e-10, 1e-10, 0.01, 1.0, 1.0)
        assert key.argmax(1.0) is None
        got = oracle._oracle_argmax(key, key, 1.0)[0]
        assert fallbacks == [(0.0, 1.0, 10001)]
        assert got == grid_search_optimum(key, 0.0, 1.0)[0]

    @pytest.mark.parametrize("key", [STD_GAP, STD_RELAY])
    def test_a_subnormal_interval_is_within_its_one_step(self, key):
        # on [0, 5e-324] both ends carry the same value; whichever path decides,
        # the argmax is one of them
        got = oracle._oracle_argmax(key, key, 5e-324)[0]
        _, top = grid_search_optimum(key, 0.0, 5e-324)
        assert got in (0.0, 5e-324) and float(key(got)) == top

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_golden_draws_agree_with_the_exhaustive_search(self, monkeypatch, seed):
        searches = []
        original = oracle._oracle_argmax

        def recording(objective, key, hi):
            got = original(objective, key, hi)
            searches.append((objective, key, hi, got[0]))
            return got

        monkeypatch.setattr(oracle, "_oracle_argmax", recording)
        harness.run_validation(ExperimentConfig(seed=seed), samples=10)
        assert len(searches) == 11 * 13
        for objective, key, hi, got in searches:
            want, top = grid_search_optimum(objective, 0.0, hi)
            assert abs(got - want) <= hi / 10000, key
            assert float(objective(got)) >= top - 2.0**-48 * (1.0 + abs(top)), key

    @pytest.mark.parametrize("kind", list(ScenarioKind))
    def test_the_standard_point_never_falls_back(self, fallbacks, kind):
        for price in (1e-3, 1e-2, 0.1, 1.0):
            standard_report(kind, price)
        assert fallbacks == []

    def test_validation_never_falls_back_on_the_audit_draws(self, fallbacks):
        harness.run_validation(ExperimentConfig(seed=0), samples=10)
        assert fallbacks == []

    def test_the_audit_job_seeds_never_fall_back(self, fallbacks):
        # the benchmark's audit jobs at seed 1: 64 job seeds, one sample each
        rng = random.Random(1)
        for job_seed in [rng.randrange(2**31) for _ in range(64)]:
            harness.run_validation(ExperimentConfig(seed=job_seed), samples=1)
        assert fallbacks == []

    def test_the_audit_evaluates_no_array(self, monkeypatch):
        # the golden validate configs and the benchmark's audit jobs at seed 1:
        # every form's value is taken at a Python float
        inputs = []
        for form in (Gap, RelaySlice):

            def recorded(self, p, call=form.__call__):
                inputs.append(type(p))
                return call(self, p)

            monkeypatch.setattr(form, "__call__", recorded)
        for seed in (0, 1, 2):
            harness.run_validation(ExperimentConfig(seed=seed), samples=10)
        rng = random.Random(1)
        for job_seed in [rng.randrange(2**31) for _ in range(64)]:
            harness.run_validation(ExperimentConfig(seed=job_seed), samples=1)
        assert inputs and set(inputs) == {float}

    @pytest.mark.parametrize("forced", ["no exact point", "failed certificate"])
    def test_a_forced_fallback_gives_the_same_verdicts(self, monkeypatch, fallbacks, forced):
        config = ExperimentConfig(seed=0)
        want = harness.run_validation(config, samples=10)
        if forced == "no exact point":
            no_exact_point(monkeypatch)
        else:
            monkeypatch.setattr(oracle, "_certified", lambda key, p, hi: False)
        got = harness.run_validation(config, samples=10)
        # every entry of the 11 points searched the whole grid
        assert len(fallbacks) == 11 * 13
        assert verdicts(got) == verdicts(want) and got["summary"] == want["summary"]

    @pytest.mark.parametrize("key", [STD_GAP, STD_RELAY])
    def test_a_point_off_the_optimum_is_not_certified(self, key):
        p = key.argmax(12.0)
        assert 0.0 < p < 12.0 and oracle._certified(key, p, 12.0)
        for wrong in (p * (1.0 + 1e-9), p * (1.0 - 1e-9), 0.0, 12.0):
            assert not oracle._certified(key, wrong, 12.0), wrong

    def test_an_end_takes_a_one_sided_test(self):
        # without a price the priced gap rises everywhere: the argmax is the budget
        rising = Gap(0.4, 0.3, 1.0, 0.0, 1.0)
        assert oracle._certified(rising, 12.0, 12.0)
        assert not oracle._certified(rising, 0.0, 12.0)
        # a tapped link stronger than the legitimate one: the argmax is zero
        falling = Gap(0.3, 0.4, 1.0, 0.01, 1.0)
        assert oracle._certified(falling, 0.0, 12.0)
        assert not oracle._certified(falling, 12.0, 12.0)

    def test_a_slope_that_is_not_finite_certifies_nothing(self, fallbacks):
        # s2 * d * d underflows to zero at p = 0, where s2 * d does not; a price
        # above the slope next to zero puts the exact argmax there
        key = RelaySlice(0.4, 0.3, 1.0, 1.0, 1e-160, 1e151, 1e-150, 1.0)
        assert math.isnan(key.slope(0.0)[0])
        assert key.argmax(1.0) == 0.0 and not oracle._certified(key, 0.0, 1.0)
        assert oracle._oracle_argmax(key, key, 1.0)[0] == grid_search_optimum(key, 0.0, 1.0)[0]
        assert len(fallbacks) == 1

    def test_a_stationary_point_next_to_zero_is_certified(self, fallbacks):
        # the slice's quadratic has roots of opposite sign 1e-74 apart; its
        # positive one is the argmax, above every grid point's value
        key = RelaySlice(0.4, 0.3, 1.0, 1.0, 1e-160, 0.01, 1e-150, 1.0)
        p = oracle._oracle_argmax(key, key, 1.0)[0]
        assert 0.0 < p < 1e-74 and oracle._certified(key, p, 1.0)
        assert key(p) > grid_search_optimum(key, 0.0, 1.0)[1]
        assert fallbacks == []

    def test_an_infinite_slope_certifies_nothing(self):
        # g_main / s2 overflows at p = 0: the slope and its terms are inf there
        key = Gap(1e10, 0.0, 1e-300, 0.01, 1.0)
        assert key.slope(0.0) == (math.inf, math.inf)
        assert not oracle._certified(key, 0.0, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "key,hi,where",
        [
            # sigma2 * (first hop + sigma2) underflows to zero: 0 / 0 at p = 0
            (RelaySlice(0.4, 0.3, 1e-200, 0.5, 1e-200, 0.01, 1.0, 1.0), 12.0, "0.0"),
            # the second hop g_hop2 * p overflows from p = 17.97 on: inf / inf
            (RelaySlice(0.4, 0.3, 0.2, 1e307, 1.0, 0.01, 1.0, 1.0), 100.0, "100.0"),
            # sigma2 = 1e-300 and a gain of 1e300 overflow the priced gap at hi
            (Gap(1e300, 0.3, 1e-300, 1.0, 1.0), 12.0, "12.0"),
            # scale * p overflows near hi, where 0 * inf is NaN without a legitimate link
            (Gap(0.0, 0.3, 1.0, 1e-300, 1e10), 1e300, "1e+300"),
        ],
    )
    def test_a_non_finite_end_keeps_its_message(self, fallbacks, key, hi, where):
        with pytest.raises(ValueError, match=f"^objective is not finite at x={re.escape(where)}$"):
            oracle._oracle_argmax(key, key, hi)
        assert fallbacks == []

    @pytest.mark.parametrize(
        "objective,where",
        [
            (lambda p: 1.0 / (12.0 - p), "12.0"),  # a zero divisor at hi only
            (lambda p: 1.0 / p, "0.0"),  # at 0 only
            (lambda p: 1.0 / (p * (12.0 - p)), "0.0"),  # at both: 0 is checked first
            (lambda p: math.log1p(p - 2.0), "0.0"),  # below log1p's domain at 0
        ],
        ids=["divisor-at-hi", "divisor-at-0", "divisor-at-both", "log1p-domain"],
    )
    def test_a_raising_end_is_not_finite(self, fallbacks, objective, where):
        with pytest.raises(ValueError, match=f"^objective is not finite at x={re.escape(where)}$"):
            oracle._oracle_argmax(objective, STD_GAP, 12.0)
        assert fallbacks == []

    def test_the_residual_is_the_objective_slope(self):
        entry = standard_report(ScenarioKind.NON_COOP, 0.01).entry("non_coop.p_j.variant")
        objective = allocator.penalized_objective(
            ScenarioKind.NON_COOP, "p_j", STD_GAINS, NoiseModel(1.0), price=0.01
        )
        slope = finite_diff_derivative(objective, entry.root_value, 1e-6)
        assert entry.derivative_residual == pytest.approx(abs(slope), rel=1e-6)

    def test_the_slope_matches_the_tests_own_spelling(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g_main, g_eve, g_hop1, g_hop2 = map(float, rng.uniform(0.05, 1.0, 4))
            s2, own, scale, p = map(float, rng.uniform((0.1, 0.0, 0.2, 0.0), (2.0, 5.0, 5.0, 20.0)))
            lam = float(10.0 ** rng.uniform(-5.0, 0.5))
            relay = RelaySlice(g_main, g_eve, g_hop1, g_hop2, s2, lam, own, scale)
            want = relay_slope(relay, p)
            assert relay.slope(p)[0] == pytest.approx(want, rel=1e-12, abs=1e-15)
            gap = Gap(g_main, g_eve, s2, lam, scale)
            h = 1e-6 * max(1.0, p)
            want = finite_diff_derivative(gap, p, h)
            assert gap.slope(p)[0] == pytest.approx(want, abs=1e-8)


def audit_configs():
    yield ExperimentConfig()
    yield ExperimentConfig(price=0.01)
    yield ExperimentConfig(price=0.02, alpha=0.5, budgets=PowerBudget(p_a_max=8.0, p_j_max=3.0))


def scenario_reports(config, kinds):
    return {
        kind.value: validate_scenario(
            kind,
            config.gains,
            config.geometry,
            config.sigma2,
            config.alpha,
            config.price,
            config.budgets,
        ).as_dict()
        for kind in kinds
    }


class TestAuditPoint:
    """Each entry searches once, and no search outlives its entry."""

    @pytest.mark.parametrize("config", list(audit_configs()))
    def test_one_search_per_entry(self, monkeypatch, config):
        calls = []
        original = oracle._oracle_argmax

        def counting(objective, key, hi):
            calls.append(key)
            return original(objective, key, hi)

        monkeypatch.setattr(oracle, "_oracle_argmax", counting)
        first = harness._audit_point(config)
        assert len(calls) == 13
        # a repeated point searches again, and reports the same
        assert harness._audit_point(config) == first and len(calls) == 26

    @pytest.mark.parametrize("config", list(audit_configs()))
    def test_one_form_per_entry(self, monkeypatch, config):
        # every form the point builds, through the allocator's builder or the
        # oracle's binding of it
        built = []
        for module in (allocator, oracle):

            def counting(*args, build=module._objective_key, **kwargs):
                built.append(args[0])
                return build(*args, **kwargs)

            monkeypatch.setattr(module, "_objective_key", counting)
        harness._audit_point(config)
        assert len(built) == 13

    @pytest.mark.parametrize("kind", list(ScenarioKind))
    @pytest.mark.parametrize("config", list(audit_configs()))
    def test_each_end_is_evaluated_once(self, monkeypatch, kind, config):
        # the points each entry's form is evaluated at, entry by entry
        per_entry = []
        check = oracle._check_formula

        def entry(*args, **kwargs):
            per_entry.append([])
            return check(*args, **kwargs)

        monkeypatch.setattr(oracle, "_check_formula", entry)
        for form in (Gap, RelaySlice):

            def recorded(self, p, call=form.__call__):
                per_entry[-1].append(p)
                return call(self, p)

            monkeypatch.setattr(form, "__call__", recorded)
        report = scenario_reports(config, [kind])[kind.value]
        assert len(per_entry) == len(report["entries"])
        for points in per_entry:
            hi = max(points)
            assert points[:2] == [0.0, hi]
            assert points.count(0.0) == 1 and points.count(hi) == 1, points

    @pytest.mark.parametrize("config", list(audit_configs()))
    def test_reports_do_not_depend_on_the_order_of_scenarios(self, config):
        forward = scenario_reports(config, list(ScenarioKind))
        backward = scenario_reports(config, reversed(list(ScenarioKind)))
        assert forward == backward == harness._audit_point(config)["reports"]


def planted_gap_quadratic(g_main, g_eve, sigma2, lam):
    """The priced-gap quadratic without the ``- lam * sigma2**2`` term."""

    return [
        lam * g_main * g_eve,
        lam * sigma2 * (g_main + g_eve),
        -(sigma2 * g_main - sigma2 * g_eve),
    ]


PLANTED = ("non_coop.p_a", "non_coop.p_j", "one_side_coop.p_a")


def flagged_direct_entries():
    """``(seed, point, formula)`` of every direct entry whose implied decision
    disagrees with the oracle argmax, over three seeded audits at price 0.05."""

    flagged = set()
    for seed in range(3):
        report = harness.run_validation(ExperimentConfig(seed=seed, price=0.05), samples=30)
        for point in [report["config_point"], *report["random_points"]]:
            for kind in ("non_coop", "one_side_coop"):
                for entry in point["reports"][kind]["entries"]:
                    if entry["formula_id"] in PLANTED and "disagrees" in entry["note"]:
                        flagged.add((seed, point.get("sample"), entry["formula_id"]))
    return flagged


class TestPlantedKernelDefect:
    """A defect in the allocator's kernel reaches both the audited
    ``non_coop`` quadratic and the gap keys' exact point; the certificate
    keeps the audit from inheriting it."""

    def test_the_audit_flags_what_the_exhaustive_oracle_flags(self, monkeypatch):
        monkeypatch.setattr(allocator, "_gap_quadratic", planted_gap_quadratic)
        certified = flagged_direct_entries()
        with monkeypatch.context() as forced:
            no_exact_point(forced)
            assert flagged_direct_entries() == certified
        # 81 of the 279 direct entries; one_side_coop.p_a audits its own quadratic,
        # so only the planted non_coop ones disagree
        assert len(certified) == 81
        assert {formula for _, _, formula in certified} == {"non_coop.p_a", "non_coop.p_j"}
        # an oracle that trusted the exact point blindly would flag only 47: the
        # point takes the planted root wherever the planted constant term is
        # negative, while the audit still scores that root against the ends
        monkeypatch.setattr(oracle, "_certified", lambda key, p, hi: True)
        assert len(flagged_direct_entries()) == 47


def relay_slope(key, p):
    """The relay objective's derivative in ``p``, written out term by term."""

    g_direct, _, g_hop1, g_hop2, s2, lam, own, pay_scale = key
    h1, second_hop = g_hop1 * own, g_hop2 * p
    d = h1 + second_hop + s2
    relayed = h1 * second_hop / (s2 * d)
    gain = h1 * g_hop2 * (h1 + s2) / (s2 * d * d)
    return gain / (1.0 + g_direct * own / s2 + relayed) - lam * pay_scale


class TestExactArgmax:
    """A form's ``argmax`` is the argmax of its objective on ``[0, hi]``."""

    def test_relay_slope_vanishes_at_interior_points(self):
        rng = np.random.default_rng(17)
        interior = 0
        for _ in range(500):
            g = rng.uniform(0.05, 1.0, 4)
            s2, alpha = rng.uniform(0.1, 2.0), rng.uniform(0.2, 1.0)
            lam = 10.0 ** rng.uniform(-5.0, 0.5)
            own = 0.5 * rng.uniform(1.0, 10.0)
            key = RelaySlice(*map(float, g), s2, lam, own, float(rng.choice([alpha, 1 / alpha])))
            hi = 1e6
            p = key.argmax(hi)
            price = lam * key.pay_scale
            if 0.0 < p < hi:
                interior += 1
                assert abs(relay_slope(key, p)) <= 1e-9 * price, key
            else:
                # an end: the slope points out of the interval there
                assert p == 0.0 and relay_slope(key, 0.0) <= 0.0, key
        assert interior > 300

    @pytest.mark.parametrize("hi", [1.0, 12.0])
    def test_relay_point_is_the_grid_argmax_to_a_grid_step(self, hi):
        want, _ = grid_search_optimum(STD_RELAY, 0.0, hi)
        assert STD_RELAY.argmax(hi) == pytest.approx(want, abs=hi / 10000)

    def test_gap_keys_take_the_allocator_kernel(self):
        for hi in (1.0, 12.0):
            want = allocator._priced_gap_optimum(*STD_GAP, hi)
            assert STD_GAP.argmax(hi) == want

    @pytest.mark.parametrize(
        "key,want",
        [
            (RelaySlice(0.4, 0.3, 0.2, 0.5, 1.0, 0.01, 0.0, 0.8), 0.0),  # no first hop
            (RelaySlice(0.4, 0.3, 0.2, 0.0, 1.0, 0.01, 2.5, 0.8), 0.0),  # no second hop
            (RelaySlice(0.4, 0.3, 0.2, 0.5, 1.0, 0.0, 2.5, 0.8), 12.0),  # no price
            (RelaySlice(0.4, 0.3, 1e300, 1e300, 1.0, 0.01, 1e10, 0.8), None),  # K overflows
        ],
    )
    def test_degenerate_relay_keys(self, key, want):
        assert key.argmax(12.0) == want

    def test_overflowing_gap_quadratic_has_no_exact_point(self):
        # price * sigma2 * sigma2 overflows, or sigma2 vanishes beside the main gain
        assert Gap(0.4, 0.3, 1.5, 1e308, 1.0).argmax(12.0) is None
        assert Gap(1e300, 0.3, 1e-300, 0.01, 1.0).argmax(12.0) is None
        # a noise that squares past the float range no longer overflows
        assert Gap(0.4, 0.3, 1e200, 0.01, 1.0).argmax(12.0) == 0.0


class TestTinyInputs:
    """Positive inputs small enough that a product or power underflows to zero."""

    @pytest.mark.parametrize(
        "gains,price",
        [(STD_GAINS, 1e-300), (dataclasses.replace(STD_GAINS, g_ab=1e-300), 0.01)],
    )
    def test_underflowing_closed_forms_are_reported_absent(self, gains, price):
        with pytest.raises(ZeroDivisionError):
            allocator.evaluate_closed_forms(gains, NoiseModel(1.0), alpha=0.8, price=price)
        for kind in ScenarioKind:
            report = validate_scenario(kind, gains, UNIT_GEOMETRY, 1.0, 0.8, price, STD_BUDGETS)
            payload = json.loads(json.dumps(report.as_dict(), allow_nan=False))
            for entry in payload["entries"]:
                assert entry["closed_form_value"] is None
                assert math.isfinite(entry["oracle_value"])

    def test_underflowing_polynomial_is_a_value_error(self):
        # mac_quadratic_pa divides by alpha ** 2, which is 0.0 at alpha = 1e-300
        with pytest.raises(
            ValueError, match="^mac_coop.p_a: a polynomial coefficient's divisor underflows$"
        ):
            validate_scenario(
                ScenarioKind.MAC_COOP, STD_GAINS, UNIT_GEOMETRY, 1.0, 1e-300, 0.01, STD_BUDGETS
            )
