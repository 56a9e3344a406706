"""Tests for the grid-search oracle and the formula validation report."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsec import (
    ChannelGains,
    ExperimentConfig,
    Geometry,
    PowerBudget,
    ScenarioKind,
    finite_diff_derivative,
    grid_search_optimum,
    validate_scenario,
)
from coopsec import harness, oracle
from coopsec.oracle import VERDICT_AGREE, VERDICT_INFEASIBLE, VERDICT_SUSPECTED_TYPO

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


class TestValidationReport:
    def test_entry_lookup_raises_on_unknown_id(self):
        report = standard_report(ScenarioKind.NON_COOP, 0.01)
        with pytest.raises(KeyError):
            report.entry("non_coop.p_q")

    def test_worst_verdict_severity_order(self):
        assert standard_report(ScenarioKind.NON_COOP, 0.01).worst_verdict() == VERDICT_SUSPECTED_TYPO
        assert standard_report(ScenarioKind.NON_COOP, 1.0).worst_verdict() == VERDICT_AGREE
        assert standard_report(ScenarioKind.MAC_COOP, 0.01).worst_verdict() == VERDICT_SUSPECTED_TYPO

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

    def test_verdict_strings_are_the_serialized_labels(self):
        assert VERDICT_AGREE == "agree"
        assert VERDICT_SUSPECTED_TYPO == "suspected-typo"
        assert VERDICT_INFEASIBLE == "infeasible"


def random_intervals(rng, count):
    """Intervals with ``lo != 0`` of either sign, with spans relative to
    ``|lo|`` (1e-12 to 1e3) or absolute (1e-12 to 1e300)."""

    intervals = []
    while len(intervals) < count:
        lo = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0))
        if rng.random() < 0.5:
            hi = lo + abs(lo) * float(10.0 ** rng.uniform(-12.0, 3.0))
        else:
            hi = lo + float(10.0 ** rng.uniform(-12.0, 300.0))
        if math.isfinite(hi) and hi > lo:
            intervals.append((lo, hi))
    return intervals


class TestExactGrid:
    """The search grid is ``np.linspace`` bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 101, 10001])
    def test_matches_linspace_on_random_intervals(self, n):
        for lo, hi in random_intervals(np.random.default_rng(n), 750):
            assert oracle._grid(lo, hi, n).tobytes() == np.linspace(lo, hi, n).tobytes(), (lo, hi)

    @pytest.mark.parametrize(
        "lo,hi",
        [(0.0, 5e-324), (0.0, 1e-320), (-1e-321, 1e-321), (1e-310, 1e-310 + 1e-319)],
    )
    @pytest.mark.parametrize("n", [2, 3, 101, 10001])
    def test_subnormal_spans(self, lo, hi, n):
        assert oracle._grid(lo, hi, n).tobytes() == np.linspace(lo, hi, n).tobytes()

    def test_huge_span(self):
        for lo, hi in ((-1e300, 1e300), (-8e307, 8e307), (1.0, 1.7e308)):
            for n in (2, 10001):
                assert oracle._grid(lo, hi, n).tobytes() == np.linspace(lo, hi, n).tobytes()

    def test_cached_index_is_read_only(self):
        first = oracle._grid(1.0, 2.0, 101)
        first[:] = -1.0
        assert oracle._grid(1.0, 2.0, 101).tobytes() == np.linspace(1.0, 2.0, 101).tobytes()
        with pytest.raises(ValueError):
            oracle._grid_index(101)[0] = 5.0

    def test_search_evaluates_the_linspace_grid(self):
        seen = []

        def objective(x):
            seen.append(np.array(x, copy=True))
            return -((x - 0.3) ** 2)

        grid_search_optimum(objective, -2.5, 1.75, resolution=517)
        assert seen[0].tobytes() == np.linspace(-2.5, 1.75, 517).tobytes()

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


class _NoStore(dict):
    """A search table that forgets every store: each lookup misses."""

    def __setitem__(self, key, value):
        pass


def config_point_reports(config, searches_factory):
    return {
        kind.value: validate_scenario(
            kind,
            config.gains,
            config.geometry,
            config.sigma2,
            config.alpha,
            config.price,
            config.budgets,
            _searches=searches_factory(),
        ).as_dict()
        for kind in ScenarioKind
    }


@pytest.fixture
def counted_searches(monkeypatch):
    """Record ``(objective values on a probe grid, hi)`` for every grid search."""

    calls = []
    original = oracle.grid_search_optimum
    probe = np.linspace(0.0, 3.0, 7)

    def counting(objective, lo, hi, resolution=10001):
        calls.append((objective(probe).tobytes(), hi))
        return original(objective, lo, hi, resolution)

    monkeypatch.setattr(oracle, "grid_search_optimum", counting)
    return calls


def audit_configs():
    yield ExperimentConfig()
    yield ExperimentConfig(price=0.01)
    yield ExperimentConfig(price=0.02, alpha=0.5, budgets=PowerBudget(p_a_max=8.0, p_j_max=3.0))


class TestSharedSearches:
    @pytest.mark.parametrize("config", list(audit_configs()))
    def test_one_search_per_distinct_objective_and_interval(self, counted_searches, config):
        config_point_reports(config, _NoStore)
        assert len(counted_searches) == 13
        distinct = len(set(counted_searches))
        assert distinct < 13
        # a repeated point searches again: nothing outlives one point
        for _ in range(2):
            counted_searches.clear()
            harness._audit_point(config)
            assert len(counted_searches) == distinct

    def test_lone_scenario_shares_within_itself_only(self, counted_searches):
        point = (STD_GAINS, UNIT_GEOMETRY, 1.0, 0.8, 1.0, STD_BUDGETS)
        validate_scenario(ScenarioKind.NON_COOP, *point)
        validate_scenario(ScenarioKind.ONE_SIDE_COOP, *point)
        # at price 1 every root is negative: the variant shares its base's search,
        # and one_side_coop.p_a searches again what non_coop.p_a searched
        assert len(counted_searches) == 2 + 2

    @pytest.mark.parametrize("config", list(audit_configs()))
    def test_reports_equal_without_sharing(self, config):
        shared = harness._audit_point(config)["reports"]
        assert shared == config_point_reports(config, _NoStore)

    def test_validation_report_equal_without_sharing(self, monkeypatch):
        config = ExperimentConfig(seed=5)
        shared = harness.run_validation(config, samples=3)
        original = harness.validate_scenario

        def never_shared(*args, _searches=None, **kwargs):
            return original(*args, _searches=_NoStore(), **kwargs)

        monkeypatch.setattr(harness, "validate_scenario", never_shared)
        assert json.dumps(harness.run_validation(config, samples=3)) == json.dumps(shared)
