"""Every exported name resolves, and so does everything the benchmark traces.

``perfbench/tracing.py`` patches functions by module and attribute name; a
rename or deletion in the package would otherwise only surface when the
benchmark runs.  The allocator holds only what decides an allocation; the
paper's printed formulas live in :mod:`coopsec.oracle`.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import coopsec

MODULES = ["allocator", "cli", "harness", "model", "oracle", "protocol", "rates"]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """``perfbench/<name>.py`` as a module, registered under ``perfbench_<name>``
    before it runs: a dataclass looks its own module up while it is built."""

    module_name = f"perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


def load_tracing():
    return load_perfbench("tracing")


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


@pytest.mark.parametrize("workload", ["negotiation", "audit"])
def test_benchmark_timed_functions_are_called(tmp_path, workload):
    """Every function whose time the benchmark reports for every workload is
    called by this one; a function a change stops calling would report no
    time at all."""

    tracing = load_tracing()
    workloads = load_perfbench("workloads")
    timed = load_perfbench("run").TIMED_EVERYWHERE
    job = workloads.WORKLOADS[workload](0, PERFBENCH.parent, tmp_path)
    job.prepare()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(64):
            job.op(i)
    finally:
        tracer.uninstall()
    called = tracer.export()["functions"]
    assert [name for name in timed if name not in called] == []


def test_allocations_share_one_signature():
    from coopsec import allocator

    def parameters(name):
        params = inspect.signature(getattr(allocator, name)).parameters.values()
        return [(p.name, p.kind is p.KEYWORD_ONLY) for p in params]

    positional = [("gains", False), ("noise", False), ("budget", False)]
    assert parameters("noncoop_allocation") == positional + [("price", True)]
    for name in ("one_side_allocation", "mac_allocation", "relay_allocation"):
        assert parameters(name) == positional + [("alpha", True), ("price", True)], name


def test_cooperation_level_is_gone():
    from coopsec import model

    assert not hasattr(coopsec, "CooperationLevel")
    assert not hasattr(model, "CooperationLevel")
