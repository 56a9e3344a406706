"""CLI outputs against the committed goldens of ``tests/golden/``.

``tests/golden/manifest.json`` lists each golden file with the ``coopsec``
argv that writes it; the argv runs from ``tests/golden/`` (where its
``--config`` files live) with ``--out <file>`` appended.  numpy's ``log1p``
differs between SIMD code paths, so the bytes are compared only where
numpy's version and SIMD set (as ``np.show_runtime()`` reports them) match
``tests/golden/platform.json``.  Elsewhere every non-numeric JSON field and
CSV cell is compared exactly and every numeric one to 1e-12 relative.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from coopsec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_REL_TOL = 1e-12
MANIFEST = {
    entry["file"]: entry["argv"]
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
    assert main([*MANIFEST[name], "--out", str(out)]) == 0
    capsys.readouterr()
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validate_matches_the_golden_report(tmp_path, capsys, monkeypatch, seed):
    name = f"validate_s10_seed{seed}.json"
    assert MANIFEST[name] == ["validate", "--samples", "10", "--seed", str(seed)]
    assert_matches_golden(run_golden_command(name, tmp_path, capsys, monkeypatch), name)


@pytest.mark.parametrize("name", [name for name in MANIFEST if not name.startswith("validate_")])
def test_output_matches_the_golden(tmp_path, capsys, monkeypatch, name):
    assert_matches_golden(run_golden_command(name, tmp_path, capsys, monkeypatch), name)


def test_manifest_lists_every_golden_output():
    inputs = {"manifest.json", "platform.json"}
    inputs |= {path.name for path in GOLDEN.glob("*_config.json")}
    outputs = {path.name for path in GOLDEN.iterdir()} - inputs
    assert outputs == set(MANIFEST)
    for argv in MANIFEST.values():
        if "--config" in argv:
            assert (GOLDEN / argv[argv.index("--config") + 1]).name in inputs


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
