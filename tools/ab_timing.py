"""Time two coopsec checkouts against each other in one interpreter.

Usage, from the repository root::

    python3 tools/ab_timing.py BASE [CHANGE] [--workload negotiation] [--seed 1] [--rounds 20]

``BASE`` and ``CHANGE`` are checkout directories (``CHANGE`` defaults to
this one); a copy of a commit made with ``git archive`` will do.  Each
side's ``src/coopsec`` is loaded under its own module name,
``coopsec_base`` and ``coopsec_change``, and both run the same inputs:

``negotiation``
    The points of ``perfbench/workloads.negotiation_inputs``, rebuilt from
    its raw draws with each side's own classes; one ``negotiate`` call per
    input.  The two sides' outcomes must have the same ``repr``.
``audit``
    The ``audit`` workload's job seeds; one ``run_validation`` job plus
    ``write_json`` per input.  The two sides must write the same bytes.

Whole-run benchmark figures of the same code spread by 20 to 40% on a
machine with slow phases (see ``perfbench/run.py``), which hides a change
smaller than that.  Here every round runs each input once on each side,
back to back, alternating which side goes first, so a slow phase falls on
both sides alike.  As in the benchmark, an input's time is its fastest
repetition.  The tool prints each side's p50 and p90 over the inputs, on
``negotiation`` also over the inputs of each returned mode with their
median per-input ratio, so a change to one mode's tail shows in its own
row; then the median over all inputs of the change's time over the base's,
and on how many inputs the change was faster.  It exits 1, before timing
anything, when the outputs differ.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  - needs src and perfbench on the path
from run import percentile  # noqa: E402


def load_checkout(name: str, root: Path):
    """Import ``root/src/coopsec`` as the package ``name``."""

    package = root / "src" / "coopsec"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None:
        raise SystemExit(f"no coopsec package under {root}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def negotiation_ops(side, seed: int) -> list:
    """One ``negotiate`` call per benchmark point, with ``side``'s classes."""

    _, raw = workloads.negotiation_inputs(seed, workloads.Negotiation.pool_size)
    model, protocol = side.model, side.protocol
    ops = []
    for draw in raw:
        args = (
            protocol.NegotiationPolicy(
                alpha=draw["alpha"], **workloads.POLICY_SWITCHES[draw["policy"]]
            ),
            model.ChannelGains(**draw["gains"]),
            model.Geometry(**draw["geometry"]),
            draw["sigma2"],
            draw["price"],
            model.PowerBudget(**draw["budgets"]),
            protocol.ConstraintMode.CORRECTED,
        )
        ops.append(lambda args=args: protocol.negotiate(*args))
    return ops


def audit_ops(side, seed: int, scratch: Path) -> list:
    """One validation job plus ``write_json`` per benchmark job seed."""

    job = workloads.Audit(seed, ROOT, scratch)
    job.prepare()
    harness = side.harness
    ops = []
    for k, job_seed in enumerate(job.job_seeds):
        path = scratch / f"{side.__name__}-{k}.json"

        def op(job_seed=job_seed, path=path):
            config = harness.ExperimentConfig(seed=job_seed)
            report = harness.run_validation(config, samples=workloads.AUDIT_SAMPLES)
            harness.write_json(report, path)
            return path

        ops.append(op)
    return ops


def fastest_times(sides: list[list], rounds: int) -> list[list[int]]:
    """Each input's fastest time on each side, in nanoseconds."""

    clock = time.perf_counter_ns
    best = [[sys.maxsize] * len(ops) for ops in sides]
    for r in range(rounds):
        for i in range(len(sides[0])):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            for s in order:
                op = sides[s][i]
                start = clock()
                op()
                elapsed = clock() - start
                if elapsed < best[s][i]:
                    best[s][i] = elapsed
    return best


def group_table(best: list[list[int]], groups: list[str]) -> list[str]:
    """Each side's p50 and p90 in microseconds, and the median per-input
    ratio change/base, over the inputs of each group, groups sorted by name;
    ``groups[i]`` names input ``i``'s group."""

    columns = ("inputs", "base p50", "base p90", "change p50", "change p90", "ratio")
    lines = [f"{'by mode':16}" + "".join(f"{c:>12}" for c in columns)]
    for group in sorted(set(groups)):
        base, change = ([t / 1e3 for t, g in zip(side, groups) if g == group] for side in best)
        cells = [f"{len(base):12}"]
        cells += [f"{percentile(us, q):12.2f}" for us in (base, change) for q in (0.5, 0.9)]
        cells.append(f"{statistics.median(c / b for b, c in zip(base, change)):12.3f}")
        lines.append(f"{group:16}" + "".join(cells))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, nargs="?", default=ROOT, help="default: this one")
    parser.add_argument("--workload", choices=("negotiation", "audit"), default="negotiation")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    packages = [
        load_checkout("coopsec_base", args.base.resolve()),
        load_checkout("coopsec_change", args.change.resolve()),
    ]
    with tempfile.TemporaryDirectory() as scratch:
        if args.workload == "negotiation":
            sides = [negotiation_ops(side, args.seed) for side in packages]
        else:
            sides = [audit_ops(side, args.seed, Path(scratch)) for side in packages]
        negotiation = args.workload == "negotiation"
        output = repr if negotiation else Path.read_bytes
        results = [(a(), b()) for a, b in zip(*sides)]
        differ = [i for i, (a, b) in enumerate(results) if output(a) != output(b)]
        if differ:
            print(f"outputs differ on {len(differ)} of {len(sides[0])} inputs, first {differ[:5]}")
            return 1
        best = fastest_times(sides, args.rounds)

    print(
        f"{args.workload} seed {args.seed}: {len(best[0])} inputs, {args.rounds} rounds, "
        "outputs identical"
    )
    print(f"{'':8}{'p50 us':>10}{'p90 us':>10}")
    for label, times in zip(("base", "change"), best):
        us = [t / 1e3 for t in times]
        print(f"{label:8}{percentile(us, 0.5):10.2f}{percentile(us, 0.9):10.2f}")
    if negotiation:
        print("\n".join(group_table(best, [mode.value for (mode, _), _ in results])))
    ratio = statistics.median(c / b for b, c in zip(*best))
    print(f"median per-input ratio change/base: {ratio:.3f}")
    faster = sum(c < b for b, c in zip(*best))
    print(f"change faster on {faster} of {len(best[0])} inputs ({faster / len(best[0]):.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
