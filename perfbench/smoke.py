"""Smoke test of the benchmark itself.

Run from the root of a coopsec checkout::

    python3 perfbench/smoke.py

It runs every workload (``cli`` too, which ``BENCHMARK.json`` leaves out)
for one second, untraced and traced, and checks that each run ends with a
well-formed result naming exactly the metrics that ``BENCHMARK.json`` lists.  Then it plants wrong allocators in place of
``protocol.negotiate`` and checks that the negotiation checks catch them:
one returns the full budget (self-consistent, so only the argmax check can
tell), the other returns secrecy rates that do not match its powers.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  - needs the checkout's src on the path
from run import WORKLOAD_NAMES  # noqa: E402
from coopsec import protocol, rates  # noqa: E402
from coopsec.model import NoiseModel  # noqa: E402
from coopsec.rates import ScenarioKind  # noqa: E402


def expect(condition: bool, message: object) -> None:
    """Fail the smoke test unless ``condition`` holds (also under ``python -O``)."""

    if not condition:
        raise AssertionError(message)


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = ["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), *argv],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=300,
            )
            where = f"{name} trace {trace}"
            expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
            expect(result["correct"] is True and result["failed"] == 0, f"{where}: {result}")
            expect(result["attempted"] >= 1, where)
            metrics = result["metrics"]
            expect(set(metrics) == set(expected[trace]), f"{where}: {sorted(metrics)}")
            for metric, entry in metrics.items():
                value = entry["value"]
                expect(isinstance(value, (int, float)) and not isinstance(value, bool), (where, metric))
                expect(math.isfinite(value), (where, metric))
                expect(entry["unit"] == expected[trace][metric], (where, metric))
            print(f"ok   {where}: {len(metrics)} metrics, {result['attempted']} operations")


_REAL_NEGOTIATE = protocol.negotiate


def _negotiation_outcome(stub) -> tuple[int, int]:
    """Failed operations and argmax misses of one pass over 64 points."""

    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        workload = workloads.Negotiation(3, ROOT, Path(scratch))
        workload.pool_size = 64
        protocol.negotiate = stub or _REAL_NEGOTIATE
        try:
            workload.prepare()
            for i in range(workload.pool_size):
                workload.op(i)
                workload.after(i)
        finally:
            protocol.negotiate = _REAL_NEGOTIATE
        failed = workload.check(workload.pool_size)
    return len(failed), sum(workload.misses.values())


def _full_budget(*args):
    kind, allocation = _REAL_NEGOTIATE(*args)
    policy, gains, geometry, sigma2, price, budgets, _ = args
    point = workloads.NegotiationInput(policy, gains, geometry, sigma2, price, budgets)
    powers = {variable: hi for variable, _, hi, _ in workloads.decision_intervals(point, kind, allocation)}
    if kind is ScenarioKind.RELAY_COOP:
        powers["p_ab"] = policy.alpha * powers["p_jb"]
        powers["p_a"] = budgets.p_a_max - powers["p_ab"]
        powers["p_j"] = budgets.p_j_max - powers["p_jb"]
    allocation = dataclasses.replace(allocation, **powers)
    cs = rates.secrecy_rate(
        kind,
        gains.effective(geometry),
        NoiseModel(sigma2),
        p_a=allocation.p_a,
        p_j=allocation.p_j,
        alpha=policy.alpha,
        p_ab=allocation.p_ab,
        p_jb=allocation.p_jb,
    )
    return kind, dataclasses.replace(allocation, cs=cs)


def _wrong_rates(*args):
    kind, allocation = _REAL_NEGOTIATE(*args)
    cs = rates.RatePair(allocation.cs.cs1 + 0.5, allocation.cs.cs2)
    return kind, dataclasses.replace(allocation, cs=cs)


def check_planted_allocations() -> None:
    honest_failed, honest_misses = _negotiation_outcome(None)
    expect(honest_failed == 0, f"honest allocator failed {honest_failed} checks")
    failed, misses = _negotiation_outcome(_full_budget)
    expect(failed == 0 and misses > honest_misses, (failed, misses, honest_misses))
    print(f"ok   full-budget allocator: {misses} argmax misses against {honest_misses} honest")
    failed, _ = _negotiation_outcome(_wrong_rates)
    expect(failed == 64, failed)
    print(f"ok   wrong-rates allocator: {failed} of 64 operations failed")


if __name__ == "__main__":
    check_planted_allocations()
    check_runs()
    print("smoke: all checks passed")
