"""Every exported name resolves, and so does everything the benchmark traces.

``perfbench/tracing.py`` patches functions by module and attribute name; a
rename or deletion in the package would otherwise only surface when the
benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import coopsec

MODULES = ["allocator", "cli", "harness", "model", "oracle", "protocol", "rates"]


def traced_names():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for _, module, attr in tracing.TRACED]


def test_package_exports_resolve():
    missing = [name for name in coopsec.__all__ if not hasattr(coopsec, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"coopsec.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize(
    "module_name,attr",
    traced_names() + [("coopsec.allocator", "penalized_objective")],
)
def test_benchmark_traced_names_resolve(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
