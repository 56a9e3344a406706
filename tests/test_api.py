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


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_names():
    return [(module, attr) for _, module, attr in load_tracing().TRACED]


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


def test_traced_validation_matches_untraced():
    """The tracer wraps every objective in a counting closure; the oracle's
    shared searches must not depend on the callable it gets."""

    from coopsec.harness import ExperimentConfig, run_validation

    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_validation(ExperimentConfig(seed=3), samples=2)
    finally:
        tracer.uninstall()
    assert traced == run_validation(ExperimentConfig(seed=3), samples=2)
    export = tracer.export()
    searches = export["functions"]["oracle.grid_search_optimum"]["calls"]
    assert 0 < searches < 13 * 3
    assert export["counts"][tracing.ARRAY_POINTS] == searches * 10001
