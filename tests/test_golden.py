"""``coopsec validate`` against committed reports.

``tests/golden/validate_s10_seed{0,1,2}.json`` are the outputs of
``coopsec validate --samples 10 --seed <s>``.  numpy's ``log1p`` differs
between SIMD code paths, so the bytes are compared only where numpy's version
and SIMD set (as ``np.show_runtime()`` reports them) match
``tests/golden/platform.json``.  Elsewhere every non-float field is compared
exactly and every float to 1e-12 relative.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from coopsec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_REL_TOL = 1e-12


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validate_matches_the_golden_report(tmp_path, capsys, seed):
    out = tmp_path / "validation.json"
    main(["validate", "--samples", "10", "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    golden = GOLDEN / f"validate_s10_seed{seed}.json"
    if same_platform():
        assert out.read_bytes() == golden.read_bytes()
    else:
        assert_close(json.loads(out.read_bytes()), json.loads(golden.read_bytes()))


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
