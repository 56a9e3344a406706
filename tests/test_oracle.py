"""Tests for the grid-search oracle and the formula validation report."""

from __future__ import annotations

import dataclasses
import json
import math
import random

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

    def test_verdict_strings_are_the_serialized_labels(self):
        assert VERDICT_AGREE == "agree"
        assert VERDICT_SUSPECTED_TYPO == "suspected-typo"
        assert VERDICT_INFEASIBLE == "infeasible"


def searched_arrays(search, *args):
    """The arrays ``search`` evaluates its objective on, in order."""

    objective, *rest = args
    seen = []

    def recorded(x):
        if isinstance(x, np.ndarray):
            seen.append(np.array(x, copy=True))
        return objective(x)

    search(recorded, *rest)
    return seen


class TestExactGrid:
    """The search grid is ``np.linspace`` bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 101, 10001])
    def test_matches_linspace_on_random_intervals(self, fallbacks, n):
        # the windowed search on [0, hi] evaluates only np.linspace(0, hi, n)'s points
        rng = np.random.default_rng(n)
        for _ in range(750):
            hi = float(10.0 ** rng.uniform(-300.0, 300.0))
            objective, key = keyed_objective("gap", 0.4, 0.3, 1.0, 0.01, 10.0 / hi)
            grid = np.linspace(0.0, hi, n)
            for points in searched_arrays(oracle._windowed_search, objective, key, hi, n):
                # every point is one of the grid's, bit for bit
                assert np.isin(points.view(np.int64), grid.view(np.int64)).all(), hi
        assert fallbacks == []

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
    """Record ``(objective values on a probe grid, hi)`` for every oracle search."""

    calls = []
    original = oracle._windowed_search
    probe = np.linspace(0.0, 3.0, 7)

    def counting(objective, objective_key, hi, resolution=10001, hint=None):
        calls.append((objective(probe).tobytes(), hi))
        return original(objective, objective_key, hi, resolution, hint)

    monkeypatch.setattr(oracle, "_windowed_search", counting)
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


def keyed_objective(*key):
    return allocator._OBJECTIVE_FORMS[key[0]](*key[1:]), key


STD_GAP = ("gap", 0.4, 0.3, 1.0, 0.01, 0.8)
STD_RELAY = ("relay", 0.4, 0.3, 0.2, 0.5, 1.0, 0.01, 2.5, 0.8)


def parabola(x):
    return -((x - 3.7) ** 2)


@pytest.fixture
def fallbacks(monkeypatch):
    """Record every call of the windowed search's exhaustive fallback."""

    calls = []
    original = oracle.grid_search_optimum

    def recording(objective, lo, hi, resolution=10001):
        calls.append((lo, hi, resolution))
        return original(objective, lo, hi, resolution)

    monkeypatch.setattr(oracle, "grid_search_optimum", recording)
    return calls


def search_outcome(search, *args):
    """A search's result, or the message of the ``ValueError`` it raised."""

    try:
        return search(*args)
    except ValueError as exc:
        return str(exc)


class TestWindowedSearch:
    """``_windowed_search`` returns exactly what the exhaustive search returns."""

    @pytest.mark.parametrize("key", [STD_GAP, STD_RELAY])
    @pytest.mark.parametrize("hi", [1.0, 7.5, 12.0, 1e4])
    def test_matches_the_exhaustive_search_without_falling_back(self, fallbacks, key, hi):
        objective, key = keyed_objective(*key)
        want = grid_search_optimum(objective, 0.0, hi)
        fallbacks.clear()
        assert oracle._windowed_search(objective, key, hi) == want
        assert fallbacks == []

    def test_validation_never_falls_back_on_the_audit_draws(self, fallbacks):
        harness.run_validation(ExperimentConfig(seed=0), samples=10)
        assert fallbacks == []

    @pytest.mark.parametrize("hi", [1.0, 12.0, 1e4])
    def test_evaluates_the_exact_grid_points(self, fallbacks, hi):
        # a hint on the wrong side misses: two windows, each a run of grid points
        # followed by the grid's two ends
        grid = np.linspace(0.0, hi, 10001)
        for key in (STD_GAP, STD_RELAY):
            objective, key = keyed_objective(*key)
            want = grid_search_optimum(objective, 0.0, hi)
            hint = 0.0 if want[0] > 0.5 * hi else hi
            arrays = searched_arrays(oracle._windowed_search, objective, key, hi, 10001, hint)
            assert len(arrays) == 2 and fallbacks == []
            for window in arrays:
                run, ends = window[:-2], window[-2:]
                start = int(np.flatnonzero(grid == run[0])[0])
                assert run.tobytes() == grid[start : start + len(run)].tobytes()
                assert ends.tobytes() == grid[[0, -1]].tobytes()
                assert len(run) <= 2 * 70 + 1

    def test_step_zero_falls_back(self, fallbacks):
        objective, key = keyed_objective(*STD_GAP)
        got = oracle._windowed_search(objective, key, 5e-324)
        assert fallbacks == [(0.0, 5e-324, 10001)]
        assert got == grid_search_optimum(objective, 0.0, 5e-324)

    @pytest.mark.parametrize("hi", [-1.0, math.inf, math.nan])
    def test_malformed_interval_keeps_the_exhaustive_message(self, fallbacks, hi):
        objective, key = keyed_objective(*STD_GAP)
        want = search_outcome(grid_search_optimum, objective, 0.0, hi)
        assert want in ("hi must be >= lo", "interval endpoints must be finite")
        assert search_outcome(oracle._windowed_search, objective, key, hi) == want
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("resolution", [2, 3, 4, 7, 8, 101])
    @pytest.mark.parametrize("key", [STD_GAP, STD_RELAY])
    def test_small_resolutions_match_the_exhaustive_search(self, fallbacks, key, resolution):
        # the window radius isqrt(resolution // 2) is at least one grid step; on a
        # coarse grid the argmax may sit on a window's inner edge, which falls back
        objective, key = keyed_objective(*key)
        for hi in (1.0, 12.0):
            want = grid_search_optimum(objective, 0.0, hi, resolution)
            for hint in (None, 0.0, hi):
                assert oracle._windowed_search(objective, key, hi, resolution, hint) == want
        assert all(n == resolution for _, _, n in fallbacks)
        assert fallbacks == [] or resolution < 101

    def test_non_finite_error_bound_falls_back(self, fallbacks):
        # g_hop1 * own_power / s2 overflows while the relayed SNR stays finite
        objective, key = keyed_objective("relay", 0.4, 0.3, 1e300, 1e-10, 1e-10, 0.01, 1.0, 1.0)
        got = oracle._windowed_search(objective, key, 1.0)
        assert len(fallbacks) == 1
        assert got == grid_search_optimum(objective, 0.0, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "key,hi",
        [
            (("gap", 1e300, 0.3, 1e-300, 1.0, 1.0), 12.0),  # the bound overflows
            (("gap", 0.0, 0.3, 1.0, 1e-300, 1e10), 1e300),  # 0 * inf: the bound is NaN
        ],
    )
    def test_non_finite_bound_keeps_the_exhaustive_message(self, fallbacks, key, hi):
        objective, key = keyed_objective(*key)
        want = search_outcome(grid_search_optimum, objective, 0.0, hi)
        assert want.startswith("objective is not finite at x=")
        assert search_outcome(oracle._windowed_search, objective, key, hi) == want
        assert len(fallbacks) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_value_at_zero_falls_back(self, fallbacks):
        # sigma2 * (first hop + sigma2) underflows to zero: 0 / 0 at p = 0
        objective, key = keyed_objective("relay", 0.4, 0.3, 1e-200, 0.5, 1e-200, 0.01, 1.0, 1.0)
        want = search_outcome(grid_search_optimum, objective, 0.0, 12.0)
        assert want == "objective is not finite at x=0.0"
        assert search_outcome(oracle._windowed_search, objective, key, 12.0) == want
        assert len(fallbacks) == 1

    def test_non_finite_window_value_falls_back(self, fallbacks):
        grid = np.linspace(0.0, 10.0, 10001)
        bad = float(grid[3705])

        def objective(x):
            return np.where(x == bad, np.nan, parabola(x))

        want = search_outcome(grid_search_optimum, objective, 0.0, 10.0)
        assert want == f"objective is not finite at x={bad!r}"
        assert search_outcome(oracle._windowed_search, objective, STD_GAP, 10.0) == want
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("objective", [lambda x: 0.0 * x, lambda x: -1e-12 * x])
    def test_wide_window_falls_back(self, fallbacks, objective):
        # flat to within the error bound: no inner edge computes far enough below the top
        got = oracle._windowed_search(objective, STD_GAP, 12.0)
        assert len(fallbacks) == 1
        assert got == grid_search_optimum(objective, 0.0, 12.0)

    def test_flat_priced_gap_falls_back(self, fallbacks):
        objective, key = keyed_objective("gap", 0.4, 0.4, 1.0, 1e-12, 1.0)
        assert oracle._windowed_search(objective, key, 1.0) == grid_search_optimum(
            objective, 0.0, 1.0
        )
        assert len(fallbacks) == 1

    def test_a_peak_outside_both_windows_falls_back(self, fallbacks):
        # the hint sits on the falling flank of the lower peak, and the key's
        # stationary point, 7.78, on the rising flank of the higher one
        def bimodal(x):
            return np.maximum(-((x - 2.0) ** 2), 0.5 - (x - 8.0) ** 2)

        got = oracle._windowed_search(bimodal, STD_GAP, 10.0, hint=2.5)
        assert len(fallbacks) == 1
        assert got == grid_search_optimum(bimodal, 0.0, 10.0)

    def test_window_argmax_on_an_inner_edge_falls_back(self, fallbacks):
        objective, key = keyed_objective(*STD_GAP)
        arrays = []

        def shifty(x):
            values = objective(x)
            if isinstance(x, np.ndarray):
                arrays.append(len(x))
                if len(arrays) == 2:
                    values[0] += 100.0  # the stationary window's inner left edge
            return values

        # the hint misses, and the stationary window would hold the argmax
        got = oracle._windowed_search(shifty, key, 10.0, hint=0.0)
        assert len(fallbacks) == 1 and arrays[-1] == 10001
        assert got == grid_search_optimum(objective, 0.0, 10.0)


def array_calls(objective):
    """``objective`` and the list of arrays it is called on, in order."""

    arrays = []

    def recorded(x):
        if isinstance(x, np.ndarray):
            arrays.append(np.array(x, copy=True))
        return objective(x)

    return recorded, arrays


class TestHintedSearch:
    """The hint says where to look first; the result is the exhaustive search's."""

    @pytest.mark.parametrize("key", [STD_GAP, STD_RELAY])
    @pytest.mark.parametrize("hi", [1.0, 12.0, 1e4])
    def test_a_hit_evaluates_one_array_of_grid_points(self, fallbacks, key, hi):
        objective, key = keyed_objective(*key)
        want = grid_search_optimum(objective, 0.0, hi)
        recorded, arrays = array_calls(objective)
        assert oracle._windowed_search(recorded, key, hi, hint=want[0]) == want
        assert fallbacks == [] and len(arrays) == 1
        grid = np.linspace(0.0, hi, 10001)
        (points,) = arrays
        assert np.isin(points.view(np.int64), grid.view(np.int64)).all()
        # the window of 2 * 70 + 1 points, or fewer at an end, and the grid's ends
        assert len(points) <= 2 * 70 + 1 + 2
        assert points[-2:].tolist() == [0.0, hi]

    @pytest.mark.parametrize("objective,hint", [(lambda x: -x, 0.0), (lambda x: x * 1.0, 12.0)])
    def test_a_hint_at_an_end_hits(self, fallbacks, objective, hint):
        recorded, arrays = array_calls(objective)
        got = oracle._windowed_search(recorded, STD_GAP, 12.0, hint=hint)
        assert got == grid_search_optimum(objective, 0.0, 12.0)
        assert len(arrays) == 1 and fallbacks == []

    @pytest.mark.parametrize("key", [STD_GAP, STD_RELAY])
    def test_a_wrong_side_hint_goes_on_to_the_stationary_window(self, fallbacks, key):
        objective, key = keyed_objective(*key)
        want = grid_search_optimum(objective, 0.0, 12.0)
        # the argmax is interior, at 7.78 (gap) or 5.97 (relay), and the hint at the far end
        hint = 0.0 if want[0] > 6.0 else 12.0
        assert 5.0 < want[0] < 8.0
        recorded, arrays = array_calls(objective)
        assert oracle._windowed_search(recorded, key, 12.0, hint=hint) == want
        assert fallbacks == [] and len(arrays) == 2
        # the second window is centred on the grid point nearest the stationary hint
        grid = np.linspace(0.0, 12.0, 10001)
        at = round(oracle._stationary_hint(key, 12.0) / grid[1])
        assert arrays[1][:-2].tobytes() == grid[at - 70 : at + 71].tobytes()

    def test_a_hint_on_the_stationary_point_is_not_tried_twice(self, fallbacks):
        # the flat objective is no window anywhere: one window, then the full grid
        stationary = oracle._stationary_hint(STD_GAP, 12.0)
        recorded, arrays = array_calls(lambda x: 0.0 * x)
        oracle._windowed_search(recorded, STD_GAP, 12.0, hint=stationary)
        assert [len(a) for a in arrays] == [2 * 70 + 1 + 2, 10001]
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("objective", [lambda x: 0.0 * x, lambda x: -1e-12 * x])
    def test_a_flat_objective_reaches_the_exhaustive_search(self, fallbacks, objective):
        got = oracle._windowed_search(objective, STD_GAP, 12.0, hint=6.0)
        assert fallbacks == [(0.0, 12.0, 10001)]
        assert got == grid_search_optimum(objective, 0.0, 12.0)

    def test_a_non_finite_value_in_the_hint_window_keeps_the_message(self, fallbacks):
        grid = np.linspace(0.0, 10.0, 10001)
        bad = float(grid[3705])

        def objective(x):
            return np.where(x == bad, np.nan, parabola(x))

        want = search_outcome(grid_search_optimum, objective, 0.0, 10.0)
        assert want == f"objective is not finite at x={bad!r}"
        got = search_outcome(oracle._windowed_search, objective, STD_GAP, 10.0, 10001, 3.7)
        assert got == want
        assert len(fallbacks) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_far_end_keeps_the_message(self, fallbacks):
        # the second hop g_hop2 * p overflows from p = 17.97 on, where the relayed SNR
        # is inf / inf; the error bound does not see it, and the argmax is at 0.01
        objective, key = keyed_objective("relay", 0.4, 0.3, 0.2, 1e307, 1.0, 0.01, 1.0, 1.0)
        want = search_outcome(grid_search_optimum, objective, 0.0, 100.0)
        assert want.startswith("objective is not finite at x=17.9")
        recorded, arrays = array_calls(objective)
        got = search_outcome(oracle._windowed_search, recorded, key, 100.0, 10001, 0.0)
        assert got == want
        # the hint window alone is a window: only its evaluation of the far end stops it
        assert np.isfinite(objective(arrays[0][:-1])).all()
        assert len(fallbacks) == 1

    def test_an_inner_edge_within_the_error_bound_is_no_window(self, fallbacks):
        # a slow rise whose inner edge computes a rounding error (far below delta) low:
        # the edge is below the top, but not by 2 delta, so the rise may go on past it
        grid = np.linspace(0.0, 12.0, 10001)
        edge = float(grid[5000 + 70])

        def objective(x):
            return 1e-12 * x - np.where(x == edge, 1e-10, 0.0)

        want = grid_search_optimum(objective, 0.0, 12.0)
        assert want[0] == 12.0
        got = oracle._windowed_search(objective, STD_GAP, 12.0, hint=float(grid[5000]))
        assert got == want and len(fallbacks) == 1

    @pytest.mark.parametrize("seed,hits,misses", [(0, 91, 6), (1, 87, 6), (2, 92, 10)])
    def test_hint_windows_on_the_golden_draws(
        self, arrays_per_search, fallbacks, seed, hits, misses
    ):
        # the validate goldens' draws: most searches end on the hint window, the
        # rest on the stationary window, so the goldens cover both; none on the full grid
        harness.run_validation(ExperimentConfig(seed=seed), samples=10)
        assert arrays_per_search.count(1) == hits
        assert arrays_per_search.count(2) == misses
        assert len(arrays_per_search) == hits + misses and fallbacks == []

    def test_hint_windows_on_the_audit_job_seeds(self, arrays_per_search, fallbacks):
        # the benchmark's audit jobs at seed 1: 64 job seeds, one sample each
        rng = random.Random(1)
        for job_seed in [rng.randrange(2**31) for _ in range(64)]:
            harness.run_validation(ExperimentConfig(seed=job_seed), samples=1)
        assert arrays_per_search.count(1) == 916
        assert arrays_per_search.count(2) == 58
        assert len(arrays_per_search) == 974 and fallbacks == []


@pytest.fixture
def arrays_per_search(monkeypatch):
    """The number of arrays each oracle search evaluates, in order."""

    counts = []
    original = oracle._windowed_search

    def counting(objective, objective_key, hi, resolution=10001, hint=None):
        recorded, arrays = array_calls(objective)
        result = original(recorded, objective_key, hi, resolution, hint)
        counts.append(len(arrays))
        return result

    monkeypatch.setattr(oracle, "_windowed_search", counting)
    return counts


def relay_slope(key, p):
    """The relay objective's derivative in ``p``, written out term by term."""

    _, g_direct, _, g_hop1, g_hop2, s2, lam, own, pay_scale = key
    h1, second_hop = g_hop1 * own, g_hop2 * p
    d = h1 + second_hop + s2
    relayed = h1 * second_hop / (s2 * d)
    gain = h1 * g_hop2 * (h1 + s2) / (s2 * d * d)
    return gain / (1.0 + g_direct * own / s2 + relayed) - lam * pay_scale


class TestStationaryHint:
    """``_stationary_hint`` is the argmax of the key's objective on ``[0, hi]``."""

    def test_relay_slope_vanishes_at_interior_points(self):
        rng = np.random.default_rng(17)
        interior = 0
        for _ in range(500):
            g = rng.uniform(0.05, 1.0, 4)
            s2, alpha = rng.uniform(0.1, 2.0), rng.uniform(0.2, 1.0)
            lam = 10.0 ** rng.uniform(-5.0, 0.5)
            own = 0.5 * rng.uniform(1.0, 10.0)
            key = ("relay", *map(float, g), s2, lam, own, float(rng.choice([alpha, 1 / alpha])))
            hi = 1e6
            p = oracle._stationary_hint(key, hi)
            price = lam * key[-1]
            if 0.0 < p < hi:
                interior += 1
                assert abs(relay_slope(key, p)) <= 1e-9 * price, key
            else:
                # an end: the slope points out of the interval there
                assert p == 0.0 and relay_slope(key, 0.0) <= 0.0, key
        assert interior > 300

    @pytest.mark.parametrize("hi", [1.0, 12.0])
    def test_relay_hint_is_the_grid_argmax_to_a_grid_step(self, hi):
        objective, key = keyed_objective(*STD_RELAY)
        want, _ = grid_search_optimum(objective, 0.0, hi)
        assert oracle._stationary_hint(key, hi) == pytest.approx(want, abs=hi / 10000)

    def test_gap_keys_take_the_allocator_kernel(self):
        for hi in (1.0, 12.0):
            want = allocator._priced_gap_optimum(*STD_GAP[1:], hi, allocator._ARGMAX)[0]
            assert oracle._stationary_hint(STD_GAP, hi) == want

    @pytest.mark.parametrize(
        "key,want",
        [
            (("relay", 0.4, 0.3, 0.2, 0.5, 1.0, 0.01, 0.0, 0.8), 0.0),  # no first hop
            (("relay", 0.4, 0.3, 0.2, 0.0, 1.0, 0.01, 2.5, 0.8), 0.0),  # no second hop
            (("relay", 0.4, 0.3, 0.2, 0.5, 1.0, 0.0, 2.5, 0.8), 12.0),  # no price
            (("relay", 0.4, 0.3, 1e300, 1e300, 1.0, 0.01, 1e10, 0.8), None),  # K overflows
        ],
    )
    def test_degenerate_relay_keys(self, key, want):
        assert oracle._stationary_hint(key, 12.0) == want

    def test_overflowing_gap_quadratic_is_no_hint(self):
        # sigma2 ** 2 overflows in the priced-gap quadratic
        assert oracle._stationary_hint(("gap", 0.4, 0.3, 1e200, 0.01, 1.0), 12.0) is None


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
