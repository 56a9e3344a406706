"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopsec
from coopsec import (
    ExperimentConfig,
    SweepAxis,
    read_sweep_csv,
    run_sweep,
    write_json,
    write_sweep_csv,
)
from coopsec.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def leaf_paths(node, path=()):
    """Key paths to every number in a JSON-ready config mapping."""

    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaf_paths(child, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


# A config with every numeric field set, and the values its numbers are drawn from.
FUZZ_TEMPLATE = ExperimentConfig(trajectory=((1.0, 2.0), (2.0, 1.0))).to_dict()
FUZZ_PATHS = tuple(leaf_paths(FUZZ_TEMPLATE))
FUZZ_VALUES = (
    0, -1, 1e-320, 1e-300, 1e-150, 0.5, 1, 3, 1e150, 1e300, 1.7e308, math.nan, math.inf, -math.inf
)


def output_numbers(path):
    """Every number a command wrote: JSON values, or CSV cells that parse as floats."""

    text = Path(path).read_text(encoding="utf-8")
    numbers = []
    if text.startswith("{"):

        def keep(token):
            numbers.append(float(token))

        json.loads(text, parse_float=keep, parse_int=keep, parse_constant=keep)
        return numbers
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                numbers.append(float(cell))
            except ValueError:
                pass  # a mode, a provenance or a header
    return numbers


class TestSweepCommand:
    def test_preset_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code, text = run_cli(["sweep", "--preset", "fig3", "--out", str(out)], capsys)
        assert code == 0
        assert text == f"sweep: wrote 82 rows to {out}\n"
        assert len(read_sweep_csv(out)) == 82

    def test_default_config_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, text = run_cli(["sweep", "--out", str(out)], capsys)
        assert code == 0
        assert "wrote 164 rows" in text

    def test_log_base_flag_adds_display_columns(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run_cli(["sweep", "--preset", "fig6", "--out", str(out), "--log-base", "2"], capsys)
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith("cs1_base2,cs2_base2")

    def test_config_file_drives_the_sweep(self, tmp_path, capsys):
        config = ExperimentConfig(axis=SweepAxis("p_a", 0.0, 4.0, 3))
        config_path = tmp_path / "config.json"
        write_json(config.to_dict(), config_path)
        out = tmp_path / "sweep.csv"
        code, text = run_cli(
            ["sweep", "--config", str(config_path), "--out", str(out)], capsys
        )
        assert code == 0
        assert len(read_sweep_csv(out)) == 3 * 4

    @pytest.mark.parametrize("preset", coopsec.PRESETS)
    def test_config_naming_a_preset_writes_the_preset(self, tmp_path, capsys, preset):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"preset": preset}), encoding="utf-8")
        written = []
        for source in (["--config", str(config_path)], ["--preset", preset]):
            written.append(tmp_path / f"{source[0][2:]}.csv")
            assert run_cli(["sweep", *source, "--out", str(written[-1])], capsys)[0] == 0
        assert written[0].read_bytes() == written[1].read_bytes()

    @pytest.mark.parametrize("preset", coopsec.PRESETS)
    def test_preset_built_in_python_writes_the_preset(self, tmp_path, capsys, preset):
        built, cli = tmp_path / "built.csv", tmp_path / "cli.csv"
        write_sweep_csv(run_sweep(ExperimentConfig(preset=preset)), built)
        assert run_cli(["sweep", "--preset", preset, "--out", str(cli)], capsys)[0] == 0
        assert built.read_bytes() == cli.read_bytes()

    def test_config_and_preset_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--config", "c.json", "--preset", "fig3"])
        assert excinfo.value.code == 2

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--preset", "fig2"])

    def test_missing_config_file_is_a_clean_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--config", str(tmp_path / "absent.json")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--config: cannot read" in err
        assert "absent.json" in err

    def test_malformed_config_file_is_a_clean_error(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text('{"lambda": "high"}', encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--config", str(config_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--config: invalid config" in err

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_cli(["sweep", "--preset", "fig5", "--out", str(first)], capsys)
        run_cli(["sweep", "--preset", "fig5", "--out", str(second)], capsys)
        assert first.read_bytes() == second.read_bytes()


class TestValidateCommand:
    def test_writes_report_and_summary_line(self, tmp_path, capsys):
        out = tmp_path / "validation.json"
        code, text = run_cli(
            ["validate", "--out", str(out), "--samples", "2", "--seed", "3"], capsys
        )
        assert code == 0
        assert text.startswith("validate: worst verdict ")
        assert f"wrote {out}" in text
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["samples"] == 2
        assert report["seed"] == 3
        assert sum(report["summary"].values()) == 13 * 3

    def test_seed_controls_the_draws(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        c = tmp_path / "c.json"
        run_cli(["validate", "--out", str(a), "--samples", "1", "--seed", "1"], capsys)
        run_cli(["validate", "--out", str(b), "--samples", "1", "--seed", "1"], capsys)
        run_cli(["validate", "--out", str(c), "--samples", "1", "--seed", "2"], capsys)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_rejects_negative_samples(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["validate", "--out", str(tmp_path / "v.json"), "--samples", "-1"])


class TestMobilityCommand:
    def test_default_path_logs_one_transition(self, tmp_path, capsys):
        out = tmp_path / "mobility.csv"
        code, text = run_cli(["mobility", "--out", str(out)], capsys)
        assert code == 0
        assert text == f"mobility: 21 steps, 1 mode changes; wrote {out}\n"
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 22

    def test_published_constraint_mode_changes_the_outcome(self, tmp_path, capsys):
        out = tmp_path / "mobility.csv"
        _, text = run_cli(
            ["mobility", "--out", str(out), "--constraint-mode", "paper"], capsys
        )
        # the published pair term reads the a-b distance, which is 1 here, so
        # the gate fails along the whole path and no transition is logged
        assert "21 steps, 0 mode changes" in text
        body = out.read_text(encoding="utf-8")
        assert "relay_coop" not in body

    def test_rejects_unknown_constraint_mode(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["mobility", "--out", str(tmp_path / "m.csv"), "--constraint-mode", "fixed"])


class TestNegotiateCommand:
    def test_default_point_agrees_on_relaying(self, tmp_path, capsys):
        out = tmp_path / "negotiate.json"
        code, text = run_cli(["negotiate", "--out", str(out)], capsys)
        assert code == 0
        assert text == f"negotiate: mode relay_coop; wrote {out}\n"
        result = json.loads(out.read_text(encoding="utf-8"))
        assert result["mode"] == "relay_coop"
        assert result["constraints"]["all_met"] is True

    def test_log_base_adds_display_fields(self, tmp_path, capsys):
        out = tmp_path / "negotiate.json"
        run_cli(["negotiate", "--out", str(out), "--log-base", "2"], capsys)
        result = json.loads(out.read_text(encoding="utf-8"))
        assert "cs1_base2" in result["allocation"]


class TestBadOutPath:
    @pytest.mark.parametrize("command", ["sweep", "validate", "mobility", "negotiate"])
    @pytest.mark.parametrize(
        "target, reason",
        [("missing", "No such file or directory"), ("directory", "Is a directory")],
    )
    def test_unwritable_out_is_a_clean_error(self, tmp_path, capsys, command, target, reason):
        out = tmp_path / "absent" / "out.txt" if target == "missing" else tmp_path
        argv = [command, "--out", str(out)] + (["--samples", "0"] if command == "validate" else [])
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and err[0].startswith("usage: coopsec")
        assert err[1] == f"coopsec: error: --out: cannot write {out}: {reason}"


class TestBadConfigs:
    def write_config(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_zero_price_over_identical_links_negotiates(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path,
            '{"lambda": 0, "gains": {"g_ab": 0.3, "g_ae": 0.3, "g_jb": 0.5, "g_je": 0.3, '
            '"g_aj": 0.2}, "geometry": {"d_ab": 1, "d_ae": 1, "d_jb": 1, "d_je": 1, '
            '"d_aj": 0.5, "eta": 2}}',
        )
        out = tmp_path / "negotiate.json"
        code, text = run_cli(["negotiate", "--config", config, "--out", str(out)], capsys)
        assert code == 0
        result = json.loads(out.read_text(encoding="utf-8"))
        assert result["allocation"]["p_a"] == 0.0
        assert result["allocation"]["provenance"]["p_a"] == "zero-clamped"

    @pytest.mark.parametrize(
        "text", ['{"lambda": NaN}', '{"lambda": Infinity}', '{"sigma2": Infinity}']
    )
    def test_non_finite_values_exit_with_one_line(self, tmp_path, capsys, text):
        config = self.write_config(tmp_path, text)
        with pytest.raises(SystemExit) as excinfo:
            main(["negotiate", "--config", config, "--out", str(tmp_path / "n.json")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("coopsec: error: --config: invalid config")
        assert "must be finite" in err[-1]

    def test_zero_link_gain_marks_closed_forms_absent(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, '{"gains": {"g_ab": 0.4, "g_ae": 0, "g_jb": 0.5, "g_je": 0.3, "g_aj": 0.2}}'
        )
        out = tmp_path / "validation.json"
        argv = ["validate", "--config", config, "--samples", "1", "--out", str(out)]
        code, _ = run_cli(argv, capsys)
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        entries = [e for r in report["config_point"]["reports"].values() for e in r["entries"]]
        assert len(entries) == 13
        assert all(e["closed_form_value"] is None for e in entries)
        assert all(e["root_value"] is not None for e in entries)

    @pytest.mark.parametrize("command", ["sweep", "mobility", "negotiate"])
    @pytest.mark.parametrize("g_ae", [0.2, 1e300])
    def test_overflowing_snr_is_a_clean_error(self, tmp_path, capsys, command, g_ae):
        config = self.write_config(
            tmp_path,
            f'{{"gains": {{"g_ab": 1e300, "g_ae": {g_ae}, "g_jb": 0.5, "g_je": 0.3, '
            f'"g_aj": 0.2, "g_ja": 0.2}}, "sigma2": 1e-300}}',
        )
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--config", config, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith(f"coopsec: error: {command}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "gains",
        [
            '"g_ab": 1e300, "g_ae": 0.3, "g_jb": 0.5, "g_je": 0.3',
            '"g_ab": 1e300, "g_ae": 1e300, "g_jb": 0.5, "g_je": 0.3',
            '"g_ab": 1e160, "g_ae": 0.3, "g_jb": 0.5, "g_je": 0.3',
        ],
    )
    def test_overflowing_validation_is_a_clean_error(self, tmp_path, capsys, gains):
        # the closed forms' float powers overflow first; they are reported absent,
        # and the audit then stops on a non-finite objective or coefficient
        sigma2 = "1e-300" if "1e300" in gains else "1.0"
        config = self.write_config(
            tmp_path, f'{{"gains": {{{gains}, "g_aj": 0.2, "g_ja": 0.2}}, "sigma2": {sigma2}}}'
        )
        out = tmp_path / "v.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--config", config, "--samples", "0", "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and err[0].startswith("usage: ")
        assert err[-1].startswith("coopsec: error: validate: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "sweep", "mobility", "negotiate"])
    @pytest.mark.parametrize(
        "text, validate_error",
        [
            # the closed forms divide by (lam * g_jb * g_je) ** 2 or (g_ab * g_ae) ** 2,
            # which underflow to 0.0: they are reported absent
            ('{"lambda": 1e-300}', None),
            ('{"gains": {"g_ab": 1e-300, "g_ae": 0.3, "g_jb": 0.5, "g_je": 0.3, "g_aj": 0.2}}',
             None),
            # mac_quadratic_pa divides by alpha ** 2, which underflows to 0.0
            ('{"alpha": 1e-300}', "mac_coop.p_a: a polynomial coefficient's divisor underflows"),
        ],
    )
    def test_tiny_positive_inputs_run_or_fail_in_one_line(
        self, tmp_path, capsys, command, text, validate_error
    ):
        config = self.write_config(tmp_path, text)
        out = tmp_path / "out"
        argv = [command, "--config", config, "--out", str(out)]
        if command == "validate":
            argv += ["--samples", "0"]
        if command == "validate" and validate_error is not None:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 2 and err[-1] == f"coopsec: error: validate: {validate_error}"
            assert not out.exists()
            return
        code, _ = run_cli(argv, capsys)
        assert code == 0 and out.exists()
        if command == "validate":
            report = json.loads(out.read_text(encoding="utf-8"))
            entries = [e for r in report["config_point"]["reports"].values() for e in r["entries"]]
            assert len(entries) == 13
            assert all(e["closed_form_value"] is None for e in entries)

    def test_underflowing_noise_validation_is_a_clean_error(self, tmp_path, capsys):
        # s2 * (first hop + s2) underflows: the relay objective is 0 / 0 at p = 0,
        # which the roots' decision skips and the oracle search reports
        config = self.write_config(tmp_path, '{"sigma2": 5e-324}')
        out = tmp_path / "v.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--config", config, "--samples", "0", "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == "coopsec: error: validate: objective is not finite at x=0.0"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "sweep", "mobility", "negotiate"])
    @pytest.mark.parametrize(
        "text",
        [
            '{"sigma2": 5e-324}',
            '{"sigma2": 1e-200, "budgets": {"p_a_max": 0, "p_j_max": 5}}',
            '{"sigma2": 1e-300, "budgets": {"p_a_max": 0, "p_j_max": 0}}',
        ],
    )
    def test_underflowing_noise_runs_or_fails_in_one_line(
        self, tmp_path, capsys, command, text
    ):
        # with a zero own-power seed, s2 * (first hop + s2) is 0.0 at p_jb = 0: the
        # relay objective is 0 / 0 there in float arithmetic, which the decision skips
        config = self.write_config(tmp_path, text)
        out = tmp_path / "out"
        argv = [command, "--config", config, "--out", str(out)]
        if command == "validate":
            argv += ["--samples", "0"]
        if command == "validate" or "5e-324" in text:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 2 and err[-1].startswith(f"coopsec: error: {command}: ")
            if command == "validate":
                assert err[-1].endswith(": objective is not finite at x=0.0")
            assert not out.exists()
            return
        code, _ = run_cli(argv, capsys)
        assert code == 0 and out.exists()
        if command == "negotiate":
            allocation = json.loads(out.read_text(encoding="utf-8"))["allocation"]
            assert allocation["p_jb"] == 0.0
            assert allocation["provenance"]["p_jb"] == "zero-clamped"

    @pytest.mark.parametrize("command", ["validate", "sweep", "mobility", "negotiate"])
    @pytest.mark.parametrize(
        "text",
        [
            '{"sigma2": 5e-324}',
            '{"sigma2": 1e-200, "budgets": {"p_a_max": 0, "p_j_max": 5}}',
            '{"sigma2": 1e-300, "budgets": {"p_a_max": 0, "p_j_max": 0}}',
            '{"sigma2": 1e-310}',
            '{"sigma2": 1e-160}',
        ],
    )
    def test_underflowing_noise_prints_no_warning(self, tmp_path, command, text):
        # pytest captures warnings in-process, so only a child process shows
        # what reaches stderr: nothing but the usage line and the error
        config = self.write_config(tmp_path, text)
        argv = [command, "--config", config, "--out", str(tmp_path / "out")]
        if command == "validate":
            argv += ["--samples", "0"]
        src = str(Path(coopsec.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "coopsec", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        err = proc.stderr.splitlines()
        if proc.returncode == 0:
            assert err == []
        else:
            assert proc.returncode == 2
            assert len(err) == 2, proc.stderr
            assert err[0].startswith("usage: coopsec ")
            assert err[1].startswith(f"coopsec: error: {command}: ")

    def test_tiny_noise_sweep_stays_finite(self, tmp_path, capsys):
        config = self.write_config(tmp_path, '{"sigma2": 1e-300}')
        out = tmp_path / "sweep.csv"
        code, _ = run_cli(["sweep", "--config", config, "--out", str(out)], capsys)
        assert code == 0
        rows = read_sweep_csv(out)
        assert rows and all(math.isfinite(row.cs1_nat) and math.isfinite(row.cs2_nat) for row in rows)

    @pytest.mark.parametrize("command", ["validate", "negotiate", "sweep", "mobility"])
    def test_negative_seed_exits_with_one_line(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and err[0].startswith("usage: ")
        assert err[-1] == f"coopsec: error: {command}: seed must be non-negative, got -1"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("mobility", '{"trajectory": [[2.0]]}', "[d_ae, d_je] pairs"),
            ("mobility", '{"trajectory": [[2.0, 2.0, 99.0]]}', "[d_ae, d_je] pairs"),
            ("validate", '{"seed": 1.7}', "seed must be an integer, got 1.7"),
            ("negotiate", '{"seed": -1}', "seed must be non-negative, got -1"),
            ("sweep", '{"axis": {"name": "p_a", "lo": 0, "hi": 1, "steps": 2.9}}',
             "steps must be an integer, got 2.9"),
            ("negotiate", '{"sigma2": "1.5"}', "sigma2 must be a number, got '1.5'"),
            ("negotiate", '{"sigma2": true}', "sigma2 must be a number, got True"),
            ("negotiate", '{"alpha": "0.8"}', "alpha must be a number, got '0.8'"),
            ("negotiate", '{"lambda": "0.01"}', "price must be a number, got '0.01'"),
            ("negotiate",
             '{"gains": {"g_ab": "0.4", "g_ae": 0.3, "g_jb": 0.5, "g_je": 0.3, "g_aj": 0.2}}',
             "g_ab must be a number, got '0.4'"),
            ("negotiate", '{"budgets": {"p_a_max": false, "p_j_max": 5}}',
             "p_a_max must be a number, got False"),
            ("sweep", '{"axis": {"name": "p_a", "lo": "0", "hi": 1, "steps": 2}}',
             "axis lo must be a number, got '0'"),
            ("mobility", '{"trajectory": [["2.0", 2.0]]}', "[d_ae, d_je] pairs"),
            ("sweep",
             '{"preset": "fig3", "axis": {"name": "d_ae", "lo": 1, "hi": 2, "steps": 3}}',
             "preset fig3 sweeps p_jb, not d_ae"),
        ],
        ids=[
            "short-pair", "triple", "float-seed", "negative-seed", "float-steps", "string-sigma2",
            "bool-sigma2", "string-alpha", "string-price", "string-gain", "bool-budget", "string-axis-bound",
            "string-distance", "preset-axis-mismatch",
        ],
    )
    def test_malformed_entries_exit_with_one_line(self, tmp_path, capsys, command, text, message):
        config = self.write_config(tmp_path, text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--config", config, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and err[0].startswith("usage: ")
        assert err[-1].startswith(f"coopsec: error: --config: invalid config in {config}: ")
        assert err[-1].endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["negotiate", "sweep", "mobility", "validate"])
    @pytest.mark.parametrize(
        "distances, message",
        [
            ('"d_ab": 1e200', "d_ab**2 is out of the float range, got d_ab=1e+200"),
            ('"d_ab": 1e-200', "d_ab**2 is out of the float range, got d_ab=1e-200"),
            ('"d_aj": 1e200, "eta": 1', "d_aj**2 is out of the float range, got d_aj=1e+200"),
        ],
        ids=["far", "near", "far-eta-1"],
    )
    def test_extreme_distances_exit_with_one_line(
        self, tmp_path, capsys, command, distances, message
    ):
        geometry = {"d_ab": 1, "d_ae": 1, "d_jb": 1, "d_je": 1, "d_aj": 1}
        geometry.update(json.loads(f"{{{distances}}}"))
        config = self.write_config(tmp_path, json.dumps({"geometry": geometry}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--config", config, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and err[0].startswith("usage: ")
        assert err[-1] == f"coopsec: error: --config: invalid config in {config}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "negotiate", "sweep", "mobility"])
    def test_negative_seed_exits_with_one_line(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and err[0].startswith("usage: ")
        assert err[-1] == f"coopsec: error: {command}: seed must be non-negative, got -1"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("mobility", '{"trajectory": [[2.0, 2.0], [1e200, 2.0]]}',
             "mobility: d_ae**2 is out of the float range, got d_ae=1e+200"),
            ("sweep", '{"axis": {"name": "d_ab", "lo": 1, "hi": 1e200, "steps": 3}}',
             "sweep: d_ab**2 is out of the float range, got d_ab=5e+199"),
        ],
        ids=["trajectory", "axis"],
    )
    def test_extreme_distance_on_the_way_exits_with_one_line(
        self, tmp_path, capsys, command, text, message
    ):
        config = self.write_config(tmp_path, text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--config", config, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and err[-1] == f"coopsec: error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["negotiate", "mobility", "sweep", "validate"])
    @pytest.mark.parametrize("sigma2", ["1.4e154", "1e160", "1.7e308"])
    def test_huge_noise_runs_or_fails_in_one_line(self, tmp_path, capsys, command, sigma2):
        # sigma2 ** 2 overflows in the stationarity polynomials; a sweep solves none
        config = self.write_config(tmp_path, f'{{"sigma2": {sigma2}}}')
        out = tmp_path / "out"
        argv = [command, "--config", config, "--out", str(out)]
        if command == "sweep":
            assert run_cli(argv, capsys)[0] == 0
            assert all(map(math.isfinite, output_numbers(out)))
            return
        if command == "validate":
            argv += ["--samples", "0"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        entry = {"negotiate": "relay_coop", "mobility": "non_coop", "validate": "relay_coop.p_jb"}
        message = f"{command}: {entry[command]}: polynomial coefficients overflow"
        assert len(err) == 2 and err[-1] == f"coopsec: error: {message}"
        assert not out.exists()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.dictionaries(st.sampled_from(FUZZ_PATHS), st.sampled_from(FUZZ_VALUES), min_size=1))
    def test_any_numbers_run_finite_or_fail_in_one_line(self, tmp_path_factory, changes):
        data = copy.deepcopy(FUZZ_TEMPLATE)
        for path, value in changes.items():
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        folder = tmp_path_factory.mktemp("fuzz")
        config = self.write_config(folder, json.dumps(data, allow_nan=True))
        out = folder / "out"
        for command in ("negotiate", "sweep", "mobility", "validate"):
            argv = [command, "--config", config, "--out", str(out)]
            if command == "validate":
                argv += ["--samples", "0"]
            stderr = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code == 0:
                assert all(map(math.isfinite, output_numbers(out))), (command, data)
                out.unlink()
                continue
            err = stderr.getvalue().splitlines()
            assert code == 2 and len(err) == 2 and err[0].startswith("usage: coopsec "), err
            assert err[1].startswith(
                (f"coopsec: error: {command}: ", "coopsec: error: --config: invalid config in ")
            ), err
            assert not out.exists()

    def test_zero_price_validation_is_a_clean_error(self, tmp_path, capsys):
        config = self.write_config(tmp_path, '{"lambda": 0}')
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--config", config, "--out", str(tmp_path / "v.json")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("coopsec: error: validate: price must be positive")


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point_runs(self, tmp_path):
        out = tmp_path / "fig3.csv"
        # the child imports the same package as this process
        src = str(Path(coopsec.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "coopsec", "sweep", "--preset", "fig3", "--out", str(out)],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert "wrote 82 rows" in proc.stdout
        assert out.exists()
