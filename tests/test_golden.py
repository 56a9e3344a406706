"""CLI outputs against the committed goldens of ``tests/golden/``.

``tests/golden/manifest.json`` lists each golden file with the ``coopsec``
argv, or the Python script of ``tests/golden/``, that writes it; either runs
from ``tests/golden/`` (where the ``--config`` files live) with ``--out
<file>`` appended.  numpy's ``log1p`` differs between SIMD code paths, so
the bytes are compared only where numpy's version and SIMD set (as
``np.show_runtime()`` reports them) match ``tests/golden/platform.json``.
Elsewhere every non-numeric JSON field and CSV cell is compared exactly and
every numeric one to 1e-12 relative.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import runpy
import shutil
from pathlib import Path

import numpy as np
import pytest

from coopsec import allocator
from coopsec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_REL_TOL = 1e-12
MANIFEST = {
    entry["file"]: entry
    for entry in json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))["goldens"]
}


def runtime_platform() -> dict[str, object] | None:
    """numpy's version and SIMD sets, as ``np.show_runtime()`` lists them."""

    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__,
            __cpu_dispatch__,
            __cpu_features__,
        )
    except ImportError:
        return None
    return {
        "numpy_version": np.__version__,
        "simd_baseline": list(__cpu_baseline__),
        "simd_found": [name for name in __cpu_dispatch__ if __cpu_features__[name]],
    }


def same_platform() -> bool:
    recorded = json.loads((GOLDEN / "platform.json").read_text(encoding="utf-8"))
    return runtime_platform() == recorded


def assert_close(got, want, path="$"):
    """Equal structure and non-float leaves; floats within ``FLOAT_REL_TOL``."""

    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for index, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{index}]")
    else:
        assert type(got) is type(want) and got == want, path


def csv_cells(text: str) -> list[list[object]]:
    """CSV records with every cell that parses as a float turned into one."""

    def cell(value: str) -> object:
        try:
            return float(value)
        except ValueError:
            return value

    return [[cell(value) for value in record] for record in csv.reader(io.StringIO(text))]


def assert_matches_golden(out: Path, name: str) -> None:
    golden = GOLDEN / name
    if same_platform():
        assert out.read_bytes() == golden.read_bytes()
    elif name.endswith(".json"):
        assert_close(json.loads(out.read_bytes()), json.loads(golden.read_bytes()))
    else:
        got, want = (csv_cells(path.read_text(encoding="utf-8")) for path in (out, golden))
        assert_close(got, want)


def run_golden_command(name, tmp_path, capsys, monkeypatch) -> Path:
    out = tmp_path / name
    monkeypatch.chdir(GOLDEN)
    entry = MANIFEST[name]
    if "script" in entry:
        assert runpy.run_path(entry["script"])["main"](["--out", str(out)]) == 0
    else:
        assert main([*entry["argv"], "--out", str(out)]) == 0
    capsys.readouterr()
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validate_matches_the_golden_report(tmp_path, capsys, monkeypatch, seed):
    name = f"validate_s10_seed{seed}.json"
    assert MANIFEST[name]["argv"] == ["validate", "--samples", "10", "--seed", str(seed)]
    assert_matches_golden(run_golden_command(name, tmp_path, capsys, monkeypatch), name)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validate_is_robust_to_one_ulp_of_log1p(tmp_path, capsys, monkeypatch, seed):
    # every value an objective's form returns is rounded one ulp up: no field moves
    # by more than the tolerant comparison allows
    calls = []
    for form in (allocator._Gap, allocator._RelaySlice):

        def shifted(self, p, call=form.__call__):
            calls.append(p)
            return np.nextafter(call(self, p), np.inf)

        monkeypatch.setattr(form, "__call__", shifted)
    name = f"validate_s10_seed{seed}.json"
    out = run_golden_command(name, tmp_path, capsys, monkeypatch)
    assert calls, "the audit's objectives did not take the shifted values"
    assert_close(json.loads(out.read_bytes()), json.loads((GOLDEN / name).read_bytes()))


@pytest.mark.parametrize("name", [name for name in MANIFEST if not name.startswith("validate_")])
def test_output_matches_the_golden(tmp_path, capsys, monkeypatch, name):
    assert_matches_golden(run_golden_command(name, tmp_path, capsys, monkeypatch), name)


def test_manifest_lists_every_golden_output():
    inputs = {"manifest.json", "platform.json"}
    inputs |= {path.name for path in GOLDEN.glob("*_config.json")}
    inputs |= {path.name for path in GOLDEN.glob("*.py")}
    outputs = {path.name for path in GOLDEN.iterdir()} - inputs
    assert outputs == set(MANIFEST)
    for entry in MANIFEST.values():
        assert ("argv" in entry) != ("script" in entry)
        argv = entry.get("argv", [])
        if "--config" in argv:
            assert (GOLDEN / argv[argv.index("--config") + 1]).name in inputs
        if "script" in entry:
            assert (GOLDEN / entry["script"]).name in inputs


def test_tolerant_comparison_flags_what_it_should():
    report = json.loads((GOLDEN / "validate_s10_seed0.json").read_bytes())
    assert_close(report, report)
    point = report["random_points"][0]
    entry = point["reports"]["non_coop"]["entries"][0]
    for block, field, value in (
        (point, "params", {**point["params"], "sigma2": point["params"]["sigma2"] * (1 + 1e-9)}),
        (entry, "verdict", "agree" if entry["verdict"] != "agree" else "infeasible"),
        (entry, "closed_form_value", None),
    ):
        kept = block[field]
        block[field] = value
        with pytest.raises(AssertionError):
            assert_close(report, json.loads((GOLDEN / "validate_s10_seed0.json").read_bytes()))
        block[field] = kept
    assert_close(report, json.loads((GOLDEN / "validate_s10_seed0.json").read_bytes()))


def test_tolerant_csv_comparison_flags_what_it_should():
    text = (GOLDEN / "mobility_base2.csv").read_text(encoding="utf-8")
    want = csv_cells(text)
    assert_close(csv_cells(text), want)
    shifted = csv_cells(text)
    shifted[3][2] *= 1 + 1e-14
    assert_close(shifted, want)
    for row, column, value in ((3, 2, want[3][2] * (1 + 1e-9)), (3, 1, "mac_coop"), (3, 4, "true")):
        edited = csv_cells(text)
        edited[row][column] = value
        with pytest.raises(AssertionError):
            assert_close(edited, want)
    with pytest.raises(AssertionError):
        assert_close(csv_cells(text)[:-1], want)


def test_golden_diff_write_rewrites_the_goldens(tmp_path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "golden_diff", GOLDEN.parents[1] / "tools" / "golden_diff.py"
    )
    golden_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden_diff)
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    kept = ("negotiate.json", "sweep_d_ae.csv")
    manifest = json.loads((copy / "manifest.json").read_text(encoding="utf-8"))
    manifest["goldens"] = [entry for entry in manifest["goldens"] if entry["file"] in kept]
    (copy / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    monkeypatch.setattr(golden_diff, "GOLDEN", copy)
    want = {name: (copy / name).read_bytes() for name in kept}
    stale = want["negotiate.json"].replace(b'"mode": "', b'"mode": "stale_', 1)
    assert stale != want["negotiate.json"]
    (copy / "negotiate.json").write_bytes(stale)

    # the report alone writes nothing
    assert golden_diff.main([]) == 1
    report = capsys.readouterr().out
    assert report == (
        "sweep_d_ae.csv: identical\n"
        "negotiate.json: changed\n"
        "  $.mode: 'stale_relay_coop' -> 'relay_coop'\n"
    )
    assert (copy / "negotiate.json").read_bytes() == stale

    # --write prints the same report, then rewrites every golden from the code
    assert golden_diff.main(["--write"]) == 1
    assert capsys.readouterr().out == report + "wrote 2 of 2 goldens\n"
    assert {name: (copy / name).read_bytes() for name in kept} == want
    assert golden_diff.main([]) == 0
    assert (GOLDEN / "negotiate.json").read_bytes() == want["negotiate.json"]
