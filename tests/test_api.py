"""Every exported name resolves, and so does everything the benchmark traces.

``perfbench/tracing.py`` patches functions by module and attribute name; a
rename or deletion in the package would otherwise only surface when the
benchmark runs.  The allocator holds only what decides an allocation; the
paper's printed formulas live in :mod:`coopsec.oracle`.
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
    # defined there, not re-exported: a move must update the benchmark's table
    assert target.__module__ == module_name


PRINTED_FORMULAS = [
    "distance_mac_quadratic_pa",
    "distance_mac_quadratic_pa_variant",
    "distance_mac_quadratic_pj",
    "distance_mac_quadratic_pj_variant",
    "mac_quadratic_pa",
    "mac_quadratic_pj",
    "noncoop_quadratic_pj_variant",
    "one_side_quadratic_pa",
    "relay_cubic_for_j",
]


def test_allocator_holds_no_printed_formula_builder():
    from coopsec import allocator, oracle

    for name in PRINTED_FORMULAS + ["one_side_quadratic_pj"]:
        assert not hasattr(allocator, name), name
    for name in PRINTED_FORMULAS:
        assert getattr(oracle, name).__module__ == "coopsec.oracle", name
        assert name in oracle.__all__


def test_traced_validation_matches_untraced(monkeypatch):
    """The tracer wraps every objective in a counting closure; the oracle's
    shared searches must not depend on the callable it gets, and the traced
    array points are exactly the points the searches evaluated."""

    import numpy as np

    from coopsec import oracle
    from coopsec.harness import ExperimentConfig, run_validation

    searched = []
    original = oracle._windowed_search

    def recording(objective, objective_key, hi, resolution=10001):
        points = []

        def counted(p):
            if isinstance(p, np.ndarray):
                points.append(p.size)
            return objective(p)

        result = original(counted, objective_key, hi, resolution)
        searched.append(sum(points))
        return result

    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    monkeypatch.setattr(oracle, "_windowed_search", recording)
    try:
        traced = run_validation(ExperimentConfig(seed=3), samples=2)
    finally:
        tracer.uninstall()
    traced_points = list(searched)
    searched.clear()
    assert traced == run_validation(ExperimentConfig(seed=3), samples=2)
    assert len(searched) == len(traced_points)
    assert 0 < len(traced_points) < 13 * 3
    assert tracer.export()["counts"][tracing.ARRAY_POINTS] == sum(traced_points)
    # a coarse pass and one window per search, not the whole grid
    assert sum(traced_points) < len(traced_points) * 10001 // 10
