"""Tests for experiment configs, sweeps, presets, validation and mobility runs."""

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
    ConstraintMode,
    ExperimentConfig,
    Geometry,
    PowerBudget,
    ScenarioKind,
    SweepAxis,
    load_config,
    mobility_default_config,
    preset_config,
    read_sweep_csv,
    run_mobility,
    run_negotiation,
    run_sweep,
    run_validation,
    write_json,
    write_mobility_csv,
    write_sweep_csv,
)
from coopsec import harness
from coopsec.harness import DEFAULT_GAINS, PRESETS


class TestSweepAxis:
    def test_values_include_endpoints(self):
        axis = SweepAxis("p_a", 0.0, 10.0, 41)
        values = axis.values()
        assert len(values) == 41
        assert values[0] == 0.0
        assert values[-1] == 10.0

    def test_degenerate_interval_collapses_to_single_point(self):
        axis = SweepAxis("p_a", 0.0, 0.0, 1)
        assert axis.values() == [0.0]

    def test_rejects_unknown_axis_name(self):
        with pytest.raises(ValueError, match="unknown axis"):
            SweepAxis("p_x", 0.0, 1.0, 3)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            SweepAxis("p_a", 2.0, 1.0, 3)

    def test_rejects_single_step_on_real_interval(self):
        with pytest.raises(ValueError):
            SweepAxis("p_a", 0.0, 1.0, 1)

    def test_as_dict_round_trips(self):
        axis = SweepAxis("d_ae", 0.5, 3.0, 11)
        assert SweepAxis(**axis.as_dict()) == axis

    def test_steps_must_be_integral(self):
        axis = SweepAxis("p_a", 0.0, 1.0, 3.0)
        assert axis.steps == 3 and type(axis.steps) is int
        for steps in (2.9, True, "3", math.inf):
            with pytest.raises(ValueError, match="steps must be an integer"):
                SweepAxis("p_a", 0.0, 0.0, steps)


class TestExperimentConfig:
    def test_defaults_match_standard_parameter_block(self):
        config = ExperimentConfig()
        assert config.gains.g_ab == 0.4
        assert config.gains.g_aj == 0.2
        assert config.alpha == 0.8
        assert config.price == 1.0
        assert config.budgets == PowerBudget(5.0, 5.0)
        assert config.constraint_mode is ConstraintMode.CORRECTED
        assert config.log_base == "e"

    def test_to_dict_spells_the_price_as_lambda(self):
        payload = ExperimentConfig(price=0.01).to_dict()
        assert payload["lambda"] == 0.01
        assert "price" not in payload

    def test_round_trip_preserves_everything(self):
        config = ExperimentConfig(
            gains=ChannelGains(0.5, 0.2, 0.6, 0.25, 0.15),
            geometry=Geometry(1.5, 2.0, 1.0, 2.0, 2.0, eta=3.0),
            sigma2=1.3,
            alpha=0.6,
            price=0.02,
            budgets=PowerBudget(4.0, 7.0),
            scenarios=(ScenarioKind.MAC_COOP, ScenarioKind.NON_COOP),
            axis=SweepAxis("p_j", 0.0, 8.0, 17),
            constraint_mode="paper",
            log_base="2",
            seed=7,
            trajectory=((2.0, 2.0), (2.5, 2.0)),
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_round_trip_survives_json(self):
        config = preset_config("fig8")
        rebuilt = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"lamda": 0.01})

    def test_seed_must_be_integral(self):
        assert ExperimentConfig(seed=np.int64(4)).seed == 4
        config = ExperimentConfig.from_dict({"seed": 5.0})
        assert config.seed == 5 and type(config.seed) is int
        for seed in (1.7, True, "7", math.nan):
            with pytest.raises(ValueError, match="seed must be an integer"):
                ExperimentConfig.from_dict({"seed": seed})

    def test_seed_must_be_non_negative(self):
        # numpy's generator would reject it later with a message naming nothing
        assert ExperimentConfig(seed=0).seed == 0
        for seed in (-1, -1.0, np.int64(-3)):
            with pytest.raises(ValueError, match=r"^seed must be non-negative, got -\d+$"):
                ExperimentConfig(seed=seed)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            ExperimentConfig().replace(seed=-1)

    @pytest.mark.parametrize("trajectory", [[[2.0]], [[2.0, 2.0, 99.0]], [2.0], [[2.0, "x"]]])
    def test_trajectory_entries_must_be_pairs(self, trajectory):
        with pytest.raises(ValueError, match=r"^trajectory must be a list of \[d_ae, d_je\] pairs$"):
            ExperimentConfig.from_dict({"trajectory": trajectory})

    @pytest.mark.parametrize(
        "block, message",
        [
            ({"budgets": (1, 2)}, "budgets must be a mapping of PowerBudget fields, got (1, 2)"),
            ({"gains": {"g_ab": 1}}, "gains needs g_ae, g_jb, g_je, g_aj"),
            ({"axis": {"name": "p_a"}}, "axis needs lo, hi, steps"),
        ],
        ids=["tuple-budgets", "partial-gains", "partial-axis"],
    )
    def test_blocks_are_checked_when_built(self, block, message):
        # each used to be accepted here and to fail later on a missing attribute
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**block)

    def test_from_dict_defaults_absent_keys(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sigma2=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(price=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(preset="fig9")
        with pytest.raises(ValueError):
            ExperimentConfig(log_base="10")
        with pytest.raises(ValueError):
            ExperimentConfig(trajectory=())

    @pytest.mark.parametrize(
        "field",
        [{"sigma2": math.inf}, {"alpha": math.nan}, {"price": math.nan}, {"price": math.inf}],
    )
    def test_rejects_non_finite_scalars(self, field):
        with pytest.raises(ValueError, match="must be finite"):
            ExperimentConfig(**field)

    def test_replace_returns_modified_copy(self):
        base = ExperimentConfig()
        changed = base.replace(seed=3, log_base="2")
        assert changed.seed == 3
        assert changed.log_base == "2"
        assert base.seed == 0

    def test_load_config_reads_json_file(self, tmp_path):
        config = ExperimentConfig(price=0.05, seed=11)
        path = tmp_path / "config.json"
        write_json(config.to_dict(), path)
        assert load_config(path) == config


def random_config(rng):
    """A config with every physical parameter drawn from ``rng``."""

    return ExperimentConfig(
        gains=ChannelGains(*rng.uniform(0.0, 2.0, 6)),
        geometry=Geometry(*rng.uniform(0.5, 3.0, 5), eta=float(rng.uniform(1.0, 4.0))),
        sigma2=float(rng.uniform(0.1, 3.0)),
        alpha=float(rng.uniform(0.05, 1.0)),
        price=float(rng.uniform(0.0, 1.0)),
        budgets=PowerBudget(*rng.uniform(0.0, 10.0, 2)),
        seed=int(rng.integers(0, 2**31)),
    )


def params_configs():
    rng = np.random.default_rng(23)
    configs = [ExperimentConfig(), *map(preset_config, PRESETS), mobility_default_config()]
    # gains built by path loss skip ChannelGains.__init__
    attenuated = DEFAULT_GAINS.effective(preset_config("fig6").geometry)
    configs.append(ExperimentConfig(gains=attenuated))
    return configs + [random_config(rng) for _ in range(20)]


class TestParams:
    """``_params`` reads the physical block straight from the config's fields."""

    @pytest.mark.parametrize("config", params_configs())
    def test_matches_the_dataclass_serialization(self, config):
        want = {
            "gains": dataclasses.asdict(config.gains),
            "geometry": dataclasses.asdict(config.geometry),
            "sigma2": config.sigma2,
            "alpha": config.alpha,
            "lambda": config.price,
            "budgets": dataclasses.asdict(config.budgets),
        }
        got = harness._params(config)
        assert got == want and json.dumps(got) == json.dumps(want)
        head = dict(list(config.to_dict().items())[: len(want)])
        assert json.dumps(head) == json.dumps(want)

    def test_returns_fresh_dicts(self):
        config = mobility_default_config()
        want = json.dumps(harness._params(config))
        got = harness._params(config)
        for block in ("gains", "geometry", "budgets"):
            got[block]["g_ab" if block == "gains" else "eta"] = -1.0
            got[block]["extra"] = 1.0
        got["sigma2"] = -1.0
        assert json.dumps(harness._params(config)) == want
        assert config == mobility_default_config()


class TestPresets:
    def test_every_preset_builds(self):
        for name in PRESETS:
            config = preset_config(name)
            assert config.preset == name

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_config("fig2")

    @pytest.mark.parametrize("name", PRESETS)
    def test_config_naming_a_preset_takes_its_shape(self, name):
        assert ExperimentConfig.from_dict({"preset": name}) == preset_config(name)
        changed = ExperimentConfig.from_dict({"preset": name, "alpha": 0.5})
        assert changed == preset_config(name).replace(alpha=0.5)

    def test_config_naming_a_preset_keeps_what_it_gives(self):
        axis = {"name": "p_j", "lo": 1.0, "hi": 2.0, "steps": 3}
        geometry = {"d_ab": 1.5, "d_ae": 1.0, "d_jb": 1.0, "d_je": 1.0, "d_aj": 0.5}
        config = ExperimentConfig.from_dict({"preset": "fig8", "axis": axis, "geometry": geometry})
        assert config.axis == SweepAxis(**axis)
        assert config.geometry == Geometry(**geometry)

    def test_preset_rejects_an_axis_it_does_not_sweep(self):
        with pytest.raises(ValueError, match="^preset fig3 sweeps p_jb, not d_ae$"):
            ExperimentConfig(preset="fig3", axis=SweepAxis("d_ae", 1.0, 2.0, 3))

    def test_far_eavesdropper_preset_moves_the_nodes(self):
        geometry = preset_config("fig8").geometry
        assert geometry.d_ab == 2.0
        assert geometry.d_aj == 0.5

    @pytest.mark.parametrize(
        "name, count",
        [("fig3", 82), ("fig4", 82), ("fig5", 408), ("fig6", 41), ("fig7", 41), ("fig8", 41)],
    )
    def test_row_counts(self, name, count):
        assert len(run_sweep(preset_config(name))) == count

    def test_relay_power_sweep_ties_the_exchange_ratio(self):
        rows = run_sweep(preset_config("fig3"))
        relayed = [r for r in rows if r.mode == "relay_coop"]
        bare = [r for r in rows if r.mode == "non_coop"]
        assert len(relayed) == len(bare) == 41
        for row in relayed:
            assert row.p_jb == row.axis
            assert row.p_ab == pytest.approx(0.8 * row.axis)
            assert row.p_a == 5.0 and row.p_j == 5.0
        for row in bare:
            assert row.p_a == row.axis and row.p_j == row.axis

    def test_distance_preset_labels_the_four_variants(self):
        rows = run_sweep(preset_config("fig5"))
        labels = {row.provenance for row in rows}
        assert labels == {
            "d_ae=1.5,d_jb=1",
            "d_ae=1.5,d_jb=2",
            "d_ae=3,d_jb=1",
            "d_ae=3,d_jb=2",
        }
        modes = {row.mode for row in rows}
        assert modes == {"non_coop", "relay_coop"}

    def test_cooperative_presets_use_their_scenarios(self):
        assert {r.mode for r in run_sweep(preset_config("fig6"))} == {"relay_coop"}
        assert {r.mode for r in run_sweep(preset_config("fig7"))} == {"mac_coop"}
        assert {r.mode for r in run_sweep(preset_config("fig8"))} == {"mac_coop"}


class TestRunSweep:
    def test_degenerate_zero_power_sweep_yields_one_zero_row(self):
        config = ExperimentConfig(
            scenarios=(ScenarioKind.NON_COOP,), axis=SweepAxis("p_a", 0.0, 0.0, 1)
        )
        rows = run_sweep(config)
        assert len(rows) == 1
        assert rows[0].cs1_nat == 0.0
        assert rows[0].cs2_nat == 0.0

    def test_one_row_per_scenario_per_point(self):
        config = ExperimentConfig(axis=SweepAxis("p_a", 0.0, 10.0, 5))
        rows = run_sweep(config)
        assert len(rows) == 5 * 4
        assert [r.axis for r in rows[:4]] == [0.0] * 4

    def test_relaying_axis_ties_the_partner_power(self):
        config = ExperimentConfig(
            scenarios=(ScenarioKind.RELAY_COOP,), axis=SweepAxis("p_jb", 0.0, 10.0, 5)
        )
        for row in run_sweep(config):
            assert row.p_ab == pytest.approx(0.8 * row.p_jb)
        config = ExperimentConfig(
            scenarios=(ScenarioKind.RELAY_COOP,), axis=SweepAxis("p_ab", 0.0, 8.0, 5)
        )
        for row in run_sweep(config):
            assert row.p_jb == pytest.approx(row.p_ab / 0.8)

    def test_distance_axis_repositions_before_attenuation(self):
        config = ExperimentConfig(
            scenarios=(ScenarioKind.NON_COOP,),
            axis=SweepAxis("d_ae", 1.0, 3.0, 3),
            budgets=PowerBudget(5.0, 5.0),
        )
        rows = run_sweep(config)
        assert [row.axis for row in rows] == [1.0, 2.0, 3.0]


class TestSweepCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rows = run_sweep(preset_config("fig5"))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        assert read_sweep_csv(path) == rows

    def test_base2_appends_display_columns(self, tmp_path):
        rows = run_sweep(preset_config("fig3"))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path, log_base="2")
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith("cs1_base2,cs2_base2")
        # display columns do not disturb parsing
        assert read_sweep_csv(path) == rows

    def test_base2_columns_are_the_natural_values_rescaled(self, tmp_path):
        rows = run_sweep(preset_config("fig3"))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path, log_base="2")
        lines = path.read_text(encoding="utf-8").splitlines()
        for line, row in zip(lines[1:], rows):
            fields = line.split(",")
            assert float(fields[-2]) == pytest.approx(row.cs1_nat / math.log(2), rel=1e-15)

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unexpected sweep header"):
            read_sweep_csv(path)

    def test_read_rejects_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^sweep CSV '.*empty\.csv' is empty$"):
            read_sweep_csv(path)

    @pytest.mark.parametrize("cut", [1, 8])
    def test_read_rejects_a_short_row(self, tmp_path, cut):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(run_sweep(preset_config("fig5"))[:2], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = ",".join(lines[2].split(",")[:cut])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^sweep CSV line 3 has {cut} of 9 cells$"):
            read_sweep_csv(path)

    @pytest.mark.parametrize(
        "column,cell,message",
        [
            ("cs2_nat", "x", "must be a number, got 'x'"),
            ("axis", "", "must be a number, got ''"),
            ("p_j", "nan", "must be finite, got nan"),
            ("p_jb", "-inf", "must be finite, got -inf"),
            ("cs1_nat", "Infinity", "must be finite, got inf"),
        ],
    )
    def test_read_names_a_bad_cell(self, tmp_path, column, cell, message):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(run_sweep(preset_config("fig5"))[:2], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[harness._SWEEP_COLUMNS.index(column)] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = f"^sweep CSV line 3 column {column} {re.escape(message)}$"
        with pytest.raises(ValueError, match=want):
            read_sweep_csv(path)

    def test_read_names_the_cell_of_a_hand_written_row(self, tmp_path):
        path = tmp_path / "sweep.csv"
        header = ",".join(harness._SWEEP_COLUMNS)
        path.write_text(f"{header}\n1,2,x,4,5,6,7,non_coop,\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^sweep CSV line 2 column cs2_nat must be a number"):
            read_sweep_csv(path)

    @pytest.mark.parametrize(
        "mode", ["bogus", "", "NON_COOP", "mac", " mac_coop", "ScenarioKind.MAC_COOP"]
    )
    def test_read_names_a_bad_mode(self, tmp_path, mode):
        path = tmp_path / "sweep.csv"
        header = ",".join(harness._SWEEP_COLUMNS)
        rows = f"1,2,3,4,5,6,7,non_coop,\n1,2,3,4,5,6,7,{mode},whatever\n"
        path.write_text(f"{header}\n{rows}", encoding="utf-8")
        modes = "relay_coop, mac_coop, one_side_coop, non_coop"
        got = re.escape(repr(mode))
        want = f"^sweep CSV line 3 column mode must be one of {modes}, got {got}$"
        with pytest.raises(ValueError, match=want) as info:
            read_sweep_csv(path)
        assert "\n" not in str(info.value)

    def test_read_takes_every_mode_and_free_text_provenance(self, tmp_path):
        # a fig5 row carries the preset's variant label, not a Provenance value
        path = tmp_path / "sweep.csv"
        header = ",".join(harness._SWEEP_COLUMNS)
        labels = ["d_ae=1.5,d_jb=1", "", "whatever", "budget-clamped"]
        body = "".join(
            f'{i},2,3,4,5,6,7,{kind.value},"{label}"\n'
            for i, (kind, label) in enumerate(zip(ScenarioKind, labels))
        )
        path.write_text(f"{header}\n{body}", encoding="utf-8")
        rows = read_sweep_csv(path)
        assert [(row.mode, row.provenance) for row in rows] == [
            (kind.value, label) for kind, label in zip(ScenarioKind, labels)
        ]
        assert all(type(row.mode) is str for row in rows)
        assert any(row.provenance == "d_ae=1.5,d_jb=1" for row in run_sweep(preset_config("fig5")))

    @pytest.mark.parametrize("log_base", ["10", "E", "", 2])
    def test_writers_reject_an_unknown_log_base(self, tmp_path, log_base):
        sweep, mobility = tmp_path / "sweep.csv", tmp_path / "mobility.csv"
        with pytest.raises(ValueError, match="^log_base must be 'e' or '2'$"):
            write_sweep_csv(run_sweep(preset_config("fig5"))[:1], sweep, log_base=log_base)
        with pytest.raises(ValueError, match="^log_base must be 'e' or '2'$"):
            write_mobility_csv(run_mobility(mobility_default_config())[:1], mobility, log_base)
        # nothing was written
        assert not sweep.exists() and not mobility.exists()


class TestRunMobility:
    def test_default_receding_path_flips_exactly_once(self):
        rows = run_mobility(mobility_default_config())
        assert len(rows) == 21
        assert rows[0].changed is False
        assert rows[0].mode == "relay_coop"
        flips = [row.step for row in rows if row.changed]
        assert flips == [9]
        assert all(row.mode == "relay_coop" for row in rows[:9])
        assert all(row.mode == "non_coop" for row in rows[9:])

    def test_flip_happens_at_the_gating_radius(self):
        config = mobility_default_config()
        trajectory = config.trajectory
        assert trajectory is not None
        radius = math.sqrt(6.0)
        assert trajectory[8][0] <= radius < trajectory[9][0]

    def test_stationary_trajectory_never_changes_mode(self):
        config = mobility_default_config().replace(trajectory=((2.0, 2.0),) * 5)
        rows = run_mobility(config)
        assert all(row.mode == "relay_coop" for row in rows)
        assert not any(row.changed for row in rows)

    def test_missing_trajectory_falls_back_to_default_path(self):
        config = mobility_default_config()
        without = config.replace(trajectory=None)
        assert [r.mode for r in run_mobility(without)] == [
            r.mode for r in run_mobility(config)
        ]

    def test_csv_spells_the_changed_flag_in_lowercase(self, tmp_path):
        rows = run_mobility(mobility_default_config())
        path = tmp_path / "mobility.csv"
        write_mobility_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step,mode,cs1_nat,cs2_nat,changed"
        assert lines[1].endswith(",false")
        assert lines[10].endswith(",true")


class TestRunValidation:
    def test_report_structure(self):
        config = ExperimentConfig(price=0.01, seed=5)
        report = run_validation(config, samples=2)
        assert report["seed"] == 5
        assert report["samples"] == 2
        assert set(report["config_point"]["reports"]) == {
            "relay_coop",
            "mac_coop",
            "one_side_coop",
            "non_coop",
        }
        assert len(report["random_points"]) == 2
        total_entries = 13 * 3  # 13 formula rows per point, config point plus 2 draws
        assert sum(report["summary"].values()) == total_entries

    def test_config_point_carries_the_flagged_formulas(self):
        report = run_validation(ExperimentConfig(price=0.01), samples=0)
        noncoop = report["config_point"]["reports"]["non_coop"]
        assert noncoop["summary"] == {"suspected-typo": 3}

    def test_same_seed_same_report(self):
        config = ExperimentConfig(price=0.01, seed=9)
        assert run_validation(config, samples=2) == run_validation(config, samples=2)

    def test_different_seeds_differ(self):
        a = run_validation(ExperimentConfig(price=0.01, seed=1), samples=1)
        b = run_validation(ExperimentConfig(price=0.01, seed=2), samples=1)
        assert a["random_points"] != b["random_points"]

    def test_rejects_negative_samples(self):
        for samples, message in (
            (-1, "samples must be non-negative"),
            (1.5, "samples must be an integer, got 1.5"),
            (True, "samples must be an integer, got True"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_validation(ExperimentConfig(), samples=samples)

    def test_report_serializes_without_nan(self, tmp_path):
        report = run_validation(ExperimentConfig(price=0.01, seed=3), samples=2)
        write_json(report, tmp_path / "validation.json")

    def test_report_bytes_match_the_streaming_encoder(self, tmp_path):
        report = run_validation(ExperimentConfig(price=0.01, seed=3), samples=2)
        streamed = tmp_path / "streamed.json"
        with open(streamed, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")
        write_json(report, tmp_path / "validation.json")
        assert (tmp_path / "validation.json").read_bytes() == streamed.read_bytes()


class TestRunNegotiation:
    def test_result_shape_and_mode(self):
        config = mobility_default_config().replace(price=0.01)
        result = run_negotiation(config)
        assert result["mode"] == "relay_coop"
        assert result["constraint_mode"] == "corrected"
        assert result["constraints"]["all_met"] is True
        allocation = result["allocation"]
        for key in ("p_a", "p_j", "p_ab", "p_jb", "cs1_nat", "cs2_nat", "provenance"):
            assert key in allocation
        assert isinstance(allocation["provenance"], dict)

    def test_base2_adds_display_rates(self):
        config = mobility_default_config().replace(price=0.01, log_base="2")
        allocation = run_negotiation(config)["allocation"]
        assert allocation["cs1_base2"] == pytest.approx(
            allocation["cs1_nat"] / math.log(2), rel=1e-15
        )

    def test_failed_gate_reports_no_cooperation(self):
        geometry = Geometry(d_ab=1.0, d_ae=3.0, d_jb=1.0, d_je=2.0, d_aj=2.0, eta=2.0)
        config = mobility_default_config().replace(geometry=geometry)
        result = run_negotiation(config)
        assert result["mode"] == "non_coop"
        assert result["constraints"]["all_met"] is False

    def test_write_json_is_deterministic(self, tmp_path):
        config = mobility_default_config().replace(price=0.01)
        result = run_negotiation(config)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_json(result, first)
        write_json(result, second)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().endswith(b"\n")


class FloatSub(float):
    def __repr__(self):
        return "FloatSub()"


class IntSub(int):
    def __repr__(self):
        return "IntSub()"


class StrSub(str):
    pass


def stdlib_text(data):
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def written_text(data, tmp_path):
    path = tmp_path / "out.json"
    write_json(data, path)
    return path.read_text(encoding="utf-8")


finite = st.floats(allow_nan=False, allow_infinity=False)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite,
    st.sampled_from([-0.0, 0.0, 1e-05, 1e16, 1e22, 5e-324, 1.7976931348623157e308]),
    st.text(),
    st.sampled_from(["é", " ", "\x00", '"\\/\b\f\n\r\t', "\U0001f600", "\ud800"]),
    finite.map(FloatSub),
    st.integers().map(IntSub),
    st.text().map(StrSub),
)
json_documents = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.text().map(StrSub)), children, max_size=4),
    ),
    max_leaves=25,
)


def uniform_draw(rng):
    """A random audit point's fields drawn the long way: one ``rng.uniform``
    call per field, a vector per class, in the order ``run_validation`` maps
    its draw to the point."""

    return [
        *map(float, rng.uniform(0.05, 0.6, size=6)),
        *map(float, rng.uniform(0.5, 3.0, size=5)),
        float(rng.uniform(0.5, 2.0)),
        float(rng.uniform(0.3, 1.0)),
        float(10.0 ** rng.uniform(-3.0, -1.0)),
        *map(float, rng.uniform(1.0, 10.0, size=2)),
    ]


def test_one_draw_per_random_point_is_the_per_field_draw():
    for seed in range(20000):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = uniform_draw(want_rng)
        point = harness._random_point(got_rng)
        got = [
            *dataclasses.astuple(point.gains),
            *(getattr(point.geometry, f) for f in ("d_ab", "d_ae", "d_jb", "d_je", "d_aj")),
            point.sigma2,
            point.alpha,
            point.price,
            point.budgets.p_a_max,
            point.budgets.p_j_max,
        ]
        assert list(map(float.hex, got)) == list(map(float.hex, want)), seed
        assert point.geometry.eta == 2.0
        # both spellings leave the generator in the same state
        assert got_rng.random() == want_rng.random(), seed


class TestWriteJson:
    """``write_json`` writes the stdlib's indented, sorted text byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(data=json_documents)
    def test_direct_writer_matches_the_stdlib(self, data):
        assert harness._indented_json(data) + "\n" == stdlib_text(data)

    def test_nested_containers_and_special_values(self, tmp_path):
        data = {
            "z": [1, -0.0, 1e-05, 1e16, True, False, None, (), [], {}, ("a", (2.5,))],
            "a": {"é": "\x7f ", "b": {"c": [{}]}, "": FloatSub(2.0), "i": IntSub(3)},
            "m": StrSub("sub"),
        }
        assert written_text(data, tmp_path) == stdlib_text(data)
        for scalar in ("top", 3, 2.5, None, True, [], {}):
            assert written_text(scalar, tmp_path) == stdlib_text(scalar)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, FloatSub(math.inf)])
    def test_non_finite_floats_raise_the_stdlib_error(self, tmp_path, bad):
        for data in (bad, {"a": [1.0, bad]}):
            with pytest.raises(ValueError) as stdlib:
                stdlib_text(data)
            with pytest.raises(ValueError) as ours:
                write_json(data, tmp_path / "out.json")
            assert str(ours.value) == str(stdlib.value)
            assert str(ours.value).startswith("Out of range float values are not JSON compliant")

    @pytest.mark.parametrize(
        "data",
        [{1: "a", 2: "b"}, {"x": {2.5: 1, -1.0: 2}}, {"x": {False: [1]}}, {None: {True: 3}}],
    )
    def test_non_string_keys_are_coerced_as_in_the_stdlib(self, tmp_path, data):
        assert written_text(data, tmp_path) == stdlib_text(data)

    @pytest.mark.parametrize(
        "data",
        [{1: "a", "b": 2}, {(1, 2): 3}, {"x": object()}, [np.int64(3)], {"s": {1, 2}}],
    )
    def test_unsupported_values_raise_the_stdlib_error(self, tmp_path, data):
        with pytest.raises(TypeError) as stdlib:
            stdlib_text(data)
        with pytest.raises(TypeError) as ours:
            write_json(data, tmp_path / "out.json")
        assert str(ours.value) == str(stdlib.value)

    def test_self_nesting_raises_the_stdlib_error(self, tmp_path):
        loop: list = [1]
        loop.append(loop)
        nested: dict = {"a": {}}
        nested["a"]["b"] = nested
        for data in (loop, nested):
            with pytest.raises(ValueError, match="^Circular reference detected$"):
                write_json(data, tmp_path / "out.json")

    def test_the_audit_reports_are_the_stdlib_bytes(self, tmp_path):
        # the benchmark's 64 audit jobs at seed 1, and the golden validate configs
        rng = random.Random(1)
        jobs = [(rng.randrange(2**31), 1) for _ in range(64)] + [(0, 10), (1, 10), (2, 10)]
        path = tmp_path / "out.json"
        for seed, samples in jobs:
            report = run_validation(ExperimentConfig(seed=seed), samples=samples)
            write_json(report, path)
            assert path.read_bytes() == stdlib_text(report).encode("utf-8"), seed

    def test_validation_report_and_negotiation_result(self, tmp_path):
        report = run_validation(ExperimentConfig(seed=4), samples=100)
        assert written_text(report, tmp_path) == stdlib_text(report)
        result = run_negotiation(mobility_default_config().replace(price=0.01, log_base="2"))
        assert written_text(result, tmp_path) == stdlib_text(result)
