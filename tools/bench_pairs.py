"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage, from the repository root::

    python3 tools/bench_pairs.py BASE [CHANGE] --workload W [--pairs 10] [--seconds 8] [--seed 1]

``BASE`` and ``CHANGE`` are checkout directories (``CHANGE`` defaults to
this one); a copy of a commit made with ``git archive`` will do.  Each pair
runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, from its root, and the side that runs first swaps
from one pair to the next, so a slow phase of the machine falls on both
sides alike.

For each end-to-end metric that ``BENCHMARK.json`` lists, the tool prints
the median of each side's runs, their ratio, the interquartile range of the
base's runs and the number of pairs the change won by the metric's
``better``.  It exits 1, naming the run, as soon as a run exits non-zero or
reports failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(Exception):
    """A benchmark run that exited non-zero or reported failed operations."""


def run_result(name: str, returncode: int, stdout: str) -> dict:
    """The result object a run printed on its last line; ``name`` labels the
    run in the :class:`RunFailed` raised for a failed one."""

    if returncode != 0:
        raise RunFailed(f"{name}: exit {returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{name}: no result line")
    result = json.loads(lines[-1])
    if result["failed"] != 0 or result["correct"] is not True:
        raise RunFailed(f"{name}: {result['failed']} failed operations")
    return result


def run_benchmark(name: str, checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` benchmark run in ``checkout``."""

    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=checkout, capture_output=True, text=True
    )
    return run_result(name, proc.returncode, proc.stdout)


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartiles (inclusive method)."""

    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per end-to-end metric over the ``(base, change)`` result pairs."""

    lines = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        if better == "lower":
            won = sum(c < b for b, c in zip(base, change))
        else:
            won = sum(c > b for b, c in zip(base, change))
        base_median, change_median = statistics.median(base), statistics.median(change)
        ratio = change_median / base_median if base_median else float("nan")
        lines.append(
            f"{name} ({metric['unit']}, {better} is better): base {base_median:.6g}, "
            f"change {change_median:.6g}, ratio {ratio:.3f}, base IQR {iqr(base):.3g}, "
            f"change won {won} of {len(pairs)} pairs"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, nargs="?", default=ROOT, help="default: this one")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    pairs = []
    try:
        for index in range(args.pairs):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            results = {}
            for side in order:
                name = f"pair {index + 1} {side}"
                results[side] = run_benchmark(
                    name, sides[side], args.workload, args.seed, args.seconds
                )
                print(f"{name}: done", file=sys.stderr, flush=True)
            pairs.append((results["base"], results["change"]))
    except RunFailed as exc:
        print(f"run failed: {exc}")
        return 1
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print("\n".join(summary(spec["end_to_end"], pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
