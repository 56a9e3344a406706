"""coopsec benchmark: one workload per run, end-to-end or traced.

Run from the root of a coopsec checkout::

    python3 perfbench/run.py --workload negotiation --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half the time untraced and half traced, and reports
the per-layer metrics plus the tracing overhead (traced against untraced
per-operation time).  ``--workload all`` runs every workload, each in a
fresh interpreter.  Workloads are described in ``workloads.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures by name and unit, the input digest and shares, the
full per-function trace table and the ROADMAP.md Baseline comparison.

End-to-end metrics, the same four on every workload (a work unit is a
validated parameter point on ``audit``, a negotiation on ``negotiation``
and a CLI command on ``cli``).  Each input is used once per round and a run
repeats whole rounds; an input's time is its fastest repetition.

``setup_s``     median over fresh interpreters of the time from launch to
                the first timed operation (imports, inputs, warm-up)
``op_ms_p50``   median over the inputs of their time
``op_ms_p90``   90th percentile over the inputs of their time
``work_per_s``  work units of one round divided by the sum of the inputs'
                times

Why the fastest repetition: the 2-core x86_64 virtual machine this
benchmark was written on alternates between fast and slow phases that last
from under a second to about a minute (a fixed pure-Python loop takes 12 ms
in one and 17.5 to 24 ms in the others).  Whole-run medians of runs of the
same code then spread by 20 to 40% from run to run, which hides any change
smaller than that.  The fastest repetition of each input is the
measurement least disturbed by the slow phases, as long as an operation is
short enough to fit in a fast stretch: operations of 0.2 to 0.7 s (``cli``
commands, ``audit`` jobs of 100 samples) still spread by 20 to 40%, which
is why ``BENCHMARK.json`` lists ``audit`` with jobs of a few milliseconds
and leaves ``cli`` out.  Whole-run figures (all repetitions) are printed
above the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("audit", "negotiation", "cli")
SETUP_PROBES = 5
CLI_PROBES = 5

# Rows of the Baseline table in ROADMAP.md: (row, metric key, seconds).
BASELINE = (
    ("solve_quadratic_real", "allocator.solve_quadratic_real", 129e-6),
    ("solve_cubic_real", "allocator.solve_cubic_real", 268e-6),
    ("noncoop_allocation", "allocator.noncoop_allocation", 412e-6),
    ("mac_allocation", "allocator.mac_allocation", 361e-6),
    ("relay_allocation", "allocator.relay_allocation", 135e-6),
    ("negotiate", "protocol.negotiate", 191e-6),
    ("secrecy_rate (relay)", "rates.secrecy_rate.relay_coop", 6.3e-6),
    ("validate_scenario relay", "oracle.validate_scenario.relay_coop", 0.83e-3),
    ("validate_scenario mac", "oracle.validate_scenario.mac_coop", 2.0e-3),
    ("run_validation(samples=100) in-process", "harness.run_validation", 0.37),
    ("CLI sweep --preset fig3 (wall)", "cli.sweep", 0.30),
    ("CLI mobility (wall)", "cli.mobility", 0.31),
    ("CLI negotiate (wall)", "cli.negotiate", 0.29),
    ("CLI validate --samples 100 (wall)", "cli.validate", 0.78),
    ('python -c "import coopsec"', "cli.import_coopsec_s", 0.26),
    ('python -c "import numpy"', "cli.import_numpy_s", 0.16),
)


@dataclass
class Phase:
    """Operations of one timed loop."""

    first: int
    durations_ns: list[int] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    units: list[int] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.durations_ns)

    def by_label(self) -> dict[str, list[int]]:
        grouped: dict[str, list[int]] = {}
        for label, duration in zip(self.labels, self.durations_ns):
            grouped.setdefault(label, []).append(duration)
        return grouped

    def stats(self) -> tuple[float, float, float]:
        """Whole-run median and 90th percentile op time in ms, and work per second."""

        ms = [d / 1e6 for d in self.durations_ns]
        return percentile(ms, 0.5), percentile(ms, 0.9), sum(self.units) * 1e3 / sum(ms)

    def fastest_repetitions(self, pool_size: int) -> dict[int, tuple[int, int]]:
        """``{input: (fastest duration in ns, work units)}`` over successful ops."""

        fastest: dict[int, tuple[int, int]] = {}
        for k, (duration, units) in enumerate(zip(self.durations_ns, self.units)):
            slot = (self.first + k) % pool_size
            if units and (slot not in fastest or duration < fastest[slot][0]):
                fastest[slot] = (duration, units)
        return fastest


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""

    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timed_loop(workload, seconds: float, first: int = 0) -> Phase:
    """Closed loop, one client: run whole rounds until ``seconds`` have passed.

    An operation that raises counts as failed; its exception is kept.
    """

    phase = Phase(first)
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    pool = workload.pool_size
    i = first
    while time.perf_counter() < deadline or i - first < workload.min_rounds * pool or (i - first) % pool:
        start = clock()
        try:
            units = workload.op(i)
        except Exception as exc:  # the loop must go on and report the failure
            phase.durations_ns.append(clock() - start)
            phase.units.append(0)
            phase.errors[i] = f"{type(exc).__name__}: {exc}"
        else:
            phase.durations_ns.append(clock() - start)
            phase.units.append(units)
            workload.after(i)
        phase.labels.append(workload.label(i))
        i += 1
    return phase


def measure_setup(workload_name: str, seed: int, root: Path, scratch: Path) -> list[float]:
    """Set-up time of fresh interpreters, one per probe, in seconds."""

    times = []
    for k in range(SETUP_PROBES):
        probe_dir = scratch / f"probe-{k}"
        probe_dir.mkdir()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload_name, str(seed), str(probe_dir)],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return times


def measure_cli_layer(root: Path, env: dict[str, str]) -> dict[str, list[float]]:
    """Fresh-process wall times of interpreter start and the two imports."""

    snippets = {
        "cli.interpreter_s": "pass",
        "cli.import_numpy_s": "import numpy",
        "cli.import_coopsec_s": "import coopsec",
    }
    times: dict[str, list[float]] = {key: [] for key in snippets}
    for _ in range(CLI_PROBES):
        for key, code in snippets.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True, timeout=60)
            times[key].append(time.perf_counter() - start)
    return times


def machine_info() -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.1f} us"
    if value < 1.0:
        return f"{value * 1e3:.3g} ms"
    return f"{value:.4g} s"


def failed_ops(workload, phases: list[Phase]) -> set[int]:
    """Operations that raised or whose output failed a check."""

    ops = phases[-1].first + phases[-1].ops
    bad = workload.check(ops)
    for phase in phases:
        bad |= set(phase.errors)
    return bad


def named_metrics(workload, phase: Phase, setup: list[float] | None) -> list[tuple]:
    """The workload's figures by their descriptive names: (name, value, unit, n)."""

    rows = []
    if setup is not None:
        rows.append(("setup_s", statistics.median(setup), "s", len(setup)))
    p50_ms, p90_ms, work_per_s = phase.stats()
    if workload.name == "audit":
        rows.append(("audit_points_per_s", work_per_s, "points/s", phase.ops))
    elif workload.name == "negotiation":
        rows.append(("negotiations_per_s", work_per_s, "1/s", phase.ops))
        rows.append(("negotiate_us_p50", p50_ms * 1e3, "us", phase.ops))
        rows.append(("negotiate_us_p90", p90_ms * 1e3, "us", phase.ops))
        decisions = sum(workload.decisions.values())
        rows.append(("argmax_miss_share", workload.argmax_miss_share(), "ratio", decisions))
    else:
        for label, durations in phase.by_label().items():
            rows.append((f"cli_{label}_s", statistics.median(durations) / 1e9, "s", len(durations)))
    return rows


def end_to_end(phase: Phase, pool_size: int, setup: list[float]) -> dict[str, object]:
    fastest = phase.fastest_repetitions(pool_size).values()
    ms = [duration / 1e6 for duration, _ in fastest]
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "op_ms_p50": _metric(percentile(ms, 0.5), "ms"),
        "op_ms_p90": _metric(percentile(ms, 0.9), "ms"),
        "work_per_s": _metric(sum(units for _, units in fastest) / (sum(ms) / 1e3), "1/s"),
    }


def overhead_ratio(untraced: Phase, traced: Phase) -> float:
    """Traced against untraced time, summed over per-label medians."""

    plain = untraced.by_label()
    with_trace = traced.by_label()
    labels = [label for label in plain if label in with_trace]
    return sum(statistics.median(with_trace[k]) for k in labels) / sum(
        statistics.median(plain[k]) for k in labels
    )


# Time figures kept in the result for every traced run: only functions every
# workload calls, so no reported time is a constant zero.  The full table,
# including functions a workload never calls, is printed above the result.
TIMED_EVERYWHERE = (
    "allocator.solve_quadratic_real",
    "allocator.solve_cubic_real",
    "model.ChannelGains.effective",
)
LAYERS_EVERYWHERE = ("allocator", "model")
COUNTS = (
    "allocator.objective.scalar_evals",
    "allocator.objective.array_points",
    "allocator.provenance.interior",
    "allocator.provenance.budget",
    "allocator.provenance.zero",
    "protocol.mode.relay_coop",
    "protocol.mode.mac_coop",
    "protocol.mode.one_side_coop",
    "protocol.mode.non_coop",
)


def per_layer(traced: Phase, table, counts, layer_ms, cli_layer, overhead) -> dict:
    """Per-layer metrics of the traced phase, normalised per operation.

    Runs measure whole rounds, so per-operation counts repeat exactly for a
    seed and compare across versions whatever their speed.
    """

    import tracing

    ops = traced.ops
    metrics: dict[str, object] = {}
    for name in tracing.span_names():
        metrics[f"{name}.calls_per_op"] = _metric(table[name]["calls"] / ops, "count/op")
    for name in TIMED_EVERYWHERE:
        metrics[f"{name}.self_us_per_op"] = _metric(table[name]["self_ms"] * 1e3 / ops, "us/op")
        metrics[f"{name}.us_p50"] = _metric(table[name]["us_p50"], "us")
    for layer in LAYERS_EVERYWHERE:
        metrics[f"{layer}.self_us_per_op"] = _metric(layer_ms.get(layer, 0.0) * 1e3 / ops, "us/op")
    for name in COUNTS:
        metrics[f"{name}.per_op"] = _metric(counts.get(name, 0) / ops, "count/op")
    for name, values in cli_layer.items():
        metrics[name] = _metric(statistics.median(values), "s")
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    import tracing
    import workloads

    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    lines: list[str] = []
    try:
        setup = None if trace else measure_setup(name, seed, root, scratch)
        run_dir = scratch / "run"
        run_dir.mkdir()
        workload = workloads.WORKLOADS[name](seed, root, run_dir)
        workload.prepare()
        if not trace:
            phases = [timed_loop(workload, seconds)]
        else:
            untraced = timed_loop(workload, seconds / 2)
            first = untraced.first + untraced.ops
            if name == "cli":
                # each command is a process of its own: trace inside it
                workload.trace_dir = scratch / "trace"
                workload.trace_dir.mkdir()
                traced = timed_loop(workload, seconds / 2, first)
                cli_exports = workload.trace_exports()
                export = tracing.merge(list(cli_exports.values()))
            else:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = timed_loop(workload, seconds / 2, first)
                finally:
                    tracer.uninstall()
                export = tracer.export()
            phases = [untraced, traced]
        bad = failed_ops(workload, phases)
        attempted = sum(phase.ops for phase in phases)
        details = workload.details()

        lines.append(f"perfbench: workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
        lines.append(f"  machine: {json.dumps(machine_info())}")
        lines.append(f"  closed loop, 1 client; {attempted} operations, {len(bad)} failed")
        for key, value in details.items():
            lines.append(f"  {key}: {json.dumps(value)}")
        for i in sorted(set().union(*(phase.errors for phase in phases)))[:5]:
            lines.append(f"  error at op {i}: {next(p.errors[i] for p in phases if i in p.errors)}")
        named = named_metrics(workload, phases[0], setup)
        named.append(("failed_share", len(bad) / attempted, "ratio", attempted))
        for metric, value, unit, n in named:
            lines.append(f"  {metric} = {value:.6g} {unit} (n={n})")

        if not trace:
            rounds = phases[0].ops // workload.pool_size
            lines.append(f"  result: {workload.pool_size} inputs, fastest of {rounds} repetitions each")
            metrics = end_to_end(phases[0], workload.pool_size, setup)
        else:
            cli_layer = measure_cli_layer(root, workloads.coopsec_env(root))
            table = tracing.function_table(export)
            layer_ms = tracing.layer_self_ms(export)
            overhead = overhead_ratio(untraced, traced)
            metrics = per_layer(traced, table, export["counts"], layer_ms, cli_layer, overhead)
            lines.extend(trace_report(traced, table, export["counts"], overhead))
            if name == "cli":
                lines.extend(import_share_report(workload, traced, cli_exports))
            else:
                lines.extend(share_report(traced, table, layer_ms))
            lines.extend(baseline_report(table, named, cli_layer, workload.validation_points))
        for metric, entry in metrics.items():
            lines.append(f"  {metric} = {entry['value']!r} {entry['unit']}")
        result = {
            "correct": not bad,
            "attempted": attempted,
            "failed": len(bad),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def trace_report(traced: Phase, table, counts, overhead) -> list[str]:
    """The per-function table and the counts of the traced phase."""

    busy_ms = sum(traced.durations_ns) / 1e6
    lines = [
        f"  trace: {traced.ops} traced operations, {busy_ms:.1f} ms busy; "
        f"overhead {overhead:.3f}x of untraced time",
        f"  {'function':<40} {'calls':>8} {'calls/op':>9} {'self_ms':>10} {'self_us/op':>11} {'us_p50':>10}",
    ]
    for key, row in table.items():
        p50 = "-" if row["us_p50"] is None else f"{row['us_p50']:.2f}"
        lines.append(
            f"  {key:<40} {row['calls']:>8} {row['calls'] / traced.ops:>9.3f} "
            f"{row['self_ms']:>10.2f} {row['self_ms'] * 1e3 / traced.ops:>11.2f} {p50:>10}"
        )
    for key in sorted(counts):
        lines.append(f"  {key} = {counts[key]} ({counts[key] / traced.ops:.4g} per op)")
    return lines


def import_share_report(workload, traced: Phase, exports: dict[int, dict]) -> list[str]:
    """Median share of each traced command's wall time spent importing coopsec.

    Both times come from the same process, so the machine's speed phases
    affect them alike.
    """

    shares: dict[str, list[float]] = {}
    for k, duration in enumerate(traced.durations_ns):
        i = traced.first + k
        if i in exports:
            shares.setdefault(workload.label(i), []).append(exports[i]["import_coopsec_s"] * 1e9 / duration)
    medians = {label: statistics.median(values) for label, values in shares.items()}
    return [f"  share of each command's wall time spent in `import coopsec`: {json.dumps(medians)}"]


def share_report(traced: Phase, table, layer_ms) -> list[str]:
    """Self-time share of each layer in the traced operations."""

    busy_ms = sum(traced.durations_ns) / 1e6
    shares = {layer: ms / busy_ms for layer, ms in sorted(layer_ms.items())}
    roots = sum(table[f"allocator.solve_{k}_real"]["self_ms"] for k in ("quadratic", "cubic"))
    shares["allocator.root_solving"] = roots / busy_ms
    shares["oracle.grid_search_optimum"] = table["oracle.grid_search_optimum"]["self_ms"] / busy_ms
    return [f"  self-time share of traced operation time: {json.dumps(shares)}"]


def baseline_report(table, named, cli_layer, validation_points: int) -> list[str]:
    """ROADMAP.md Baseline rows next to this run's per-call medians.

    The ROADMAP row for ``run_validation`` is a job of 101 points; a job of
    ``validation_points`` points is scaled to that size.
    """

    measured: dict[str, float] = {}
    for key, row in table.items():
        if row["us_p50"] is not None:
            measured[key] = row["us_p50"] / 1e6
    if "harness.run_validation" in measured:
        measured["harness.run_validation"] *= 101 / validation_points
    for metric, value, _, _ in named:
        if metric.startswith("cli_"):
            measured["cli." + metric[4:-2]] = value
    for key, values in cli_layer.items():
        measured[key] = statistics.median(values)
    lines = [f"  {'ROADMAP Baseline row':<42} {'ROADMAP':>10} {'this run':>10}"]
    for row, key, roadmap in BASELINE:
        lines.append(f"  {row:<42} {_fmt_seconds(roadmap):>10} {_fmt_seconds(measured.get(key)):>10}")
    lines.append("  (traced medians include tracer overhead; '-' = not run by this workload;")
    lines.append(f"   run_validation measured on {validation_points}-point jobs, scaled to 101 points)")
    return lines


def run_all(seed: int, seconds: float, trace: int, root: Path) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=root,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "coopsec" / "__init__.py").is_file():
        print("perfbench: run from the root of a coopsec checkout (no src/coopsec here)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, root)
    sys.path.insert(0, str(root / "src"))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
