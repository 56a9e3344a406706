"""Every exported name resolves, and so does everything the benchmark traces;
every demo runs, and the README's examples hold.

``perfbench/tracing.py`` patches functions by module and attribute name; a
rename or deletion in the package would otherwise only surface when the
benchmark runs.  The allocator holds only what decides an allocation; the
paper's printed formulas live in :mod:`coopsec.oracle`.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

import coopsec

MODULES = ["allocator", "cli", "harness", "model", "oracle", "protocol", "rates"]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DEMOS = sorted((PERFBENCH.parent / "demos").glob("*.py"))
README = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")


def readme_blocks(language):
    """The README's fenced code blocks in ``language``."""

    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


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


def test_traced_validation_matches_untraced():
    """The tracer wraps every objective in a counting closure; the oracle's
    argmax must not depend on the callable it gets.  The audit evaluates no
    array: its end checks are two Python floats per entry."""

    from coopsec.harness import ExperimentConfig, run_validation

    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_validation(ExperimentConfig(seed=3), samples=2)
    finally:
        tracer.uninstall()
    assert traced == run_validation(ExperimentConfig(seed=3), samples=2)
    assert tracer.export()["counts"].get(tracing.ARRAY_POINTS, 0) == 0


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


def test_alpha_scales_a_power_by_one_rule_in_rates():
    from coopsec import allocator, rates

    assert allocator._scale is rates._scale
    package = Path(coopsec.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    defining = [name for name, text in sources.items() if "def _scale(" in text]
    assert defining == ["rates.py"]
    gap = inspect.getsource(rates._message_gap)
    assert "alpha * power" not in gap and "power / alpha" not in gap


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_benchmark_negotiations_rate_each_message_by_its_objective(seed):
    """On the ``negotiation`` workload's inputs, the objective of the variable
    that funds each message, at price zero and at the allocation's own
    powers over the attenuated gains, is the message's ``cs``, bit for bit."""

    from coopsec import NoiseModel, negotiate, penalized_objective
    from coopsec.protocol import ConstraintMode
    from coopsec.rates import _DIRECT_LINKS, _RELAY_LINKS

    inputs, _ = load_perfbench("workloads").negotiation_inputs(seed, 2048)
    misses = []
    for slot, point in enumerate(inputs):
        kind, allocation = negotiate(
            point.policy, point.gains, point.geometry, point.sigma2, point.price,
            point.budgets, ConstraintMode.CORRECTED,
        )
        gains, noise = point.gains.effective(point.geometry), NoiseModel(point.sigma2)
        own = {"p_a": allocation.p_a, "p_j": allocation.p_j}
        rows = _DIRECT_LINKS.get(kind) or _RELAY_LINKS[kind]
        for row, cs in zip(rows, (allocation.cs.cs1, allocation.cs.cs2)):
            variable = row.power if kind in _DIRECT_LINKS else row.slice
            objective = penalized_objective(
                kind, variable, gains, noise, price=0.0, alpha=point.policy.alpha, **own
            )
            if objective(getattr(allocation, variable)).hex() != cs.hex():
                misses.append((slot, kind.value, variable))
    assert misses == []


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


def test_unused_surface_is_gone():
    from coopsec import allocator, oracle, rates

    for name in ("SecrecyRegion", "mac_secrecy_region"):
        assert not hasattr(coopsec, name)
        assert not hasattr(rates, name)
    assert not hasattr(oracle.ValidationReport, "worst_verdict")
    params = inspect.signature(allocator.bisect_price_for_budget).parameters.values()
    assert [(p.name, p.kind is p.KEYWORD_ONLY) for p in params] == [
        ("consumed_power", False),
        ("target", False),
        ("price_lo", True),
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_python_runs_and_prints(capsys):
    (block,) = readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.strip()


def test_readme_config_lists_every_key_at_its_default():
    from coopsec.harness import ExperimentConfig

    (block,) = readme_blocks("json")
    documented = json.loads(block)
    assert ExperimentConfig.from_dict(documented) == ExperimentConfig()
    # every key, nested ones too, with its default value
    assert documented == ExperimentConfig().to_dict()
