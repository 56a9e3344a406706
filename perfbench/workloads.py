"""The benchmark's workloads: ``audit``, ``negotiation`` and ``cli``.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returns, and nothing runs on a second thread.
Inputs come from the workload seed alone (``random.Random(seed)``), so one
seed always yields the same inputs; :meth:`Workload.details` fingerprints
them with a sha256 digest.

Why these three:

``audit``
    One ``run_validation(samples=1)`` job plus ``write_json`` per
    operation: ``coopsec validate`` without process start, cut into jobs of
    two parameter points (the config point and one random point) over 64
    job seeds.  The only workload where the oracle (10001-point grid plus
    golden section) does most of the work, and a second use of the root
    kernel that solves every printed polynomial, ``*_variant`` and distance
    spellings included.
``negotiation``
    One ``protocol.negotiate`` call per operation on generated parameter
    points, cycling four policies so that each mode is reached.  The
    allocation path users run for every decision; it never touches the
    oracle, so an oracle change must leave it unchanged.
``cli``
    The four README commands, one subprocess at a time.  ``sweep``,
    ``mobility`` and ``negotiate`` are bound by interpreter start and
    imports, so this is the only workload where import time shows.

``BENCHMARK.json`` lists ``audit`` and ``negotiation`` only.  On the
virtual machine the benchmark was written on, the speed of a fresh process
varied by about 60% between stretches of a minute, so ``cli``'s figures
spread by more than their bound from run to run; and a whole
``samples=100`` job (0.4 s) was too long for its fastest repetition to be
steady, hence the short ``audit`` jobs (see ``run.py``).  Import time is
still measured on both listed workloads: ``setup_s`` starts fresh
interpreters that import ``coopsec``, and the traced run reports the
``cli.*`` start-up times.  ``cli`` stays runnable by hand.

The benchmark reaches every layer through module attributes looked up at
call time (``protocol.negotiate(...)``), so the tracer's rebinding applies.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coopsec import allocator, harness, protocol, rates
from coopsec.model import ChannelGains, Geometry, NoiseModel, PowerBudget
from coopsec.protocol import ConstraintMode, NegotiationPolicy
from coopsec.rates import ScenarioKind

KINDS = tuple(kind.value for kind in ScenarioKind)


def _digest(data: object) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _shares(counter: Counter, keys) -> dict[str, float]:
    total = sum(counter.values())
    return {key: (counter[key] / total if total else 0.0) for key in keys}


class Workload:
    """One workload: inputs, a timed operation and the checks on its outputs.

    ``op(i)`` is the timed operation on input ``i % pool_size`` and returns
    the work units it did; ``after(i)`` records its output outside the
    timed region.  ``check()`` runs once after the timed loop and returns
    the indices of operations whose output failed a check.  Runs measure
    whole rounds (passes over the inputs), at least ``min_rounds`` of them,
    so every input weighs the same and per-operation counts repeat exactly.
    """

    name = ""
    pool_size = 1
    min_rounds = 1
    validation_points = 1  # points per run_validation job, where there are any

    def __init__(self, seed: int, root: Path, scratch: Path) -> None:
        self.seed = seed
        self.root = root
        self.scratch = scratch

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> int:
        raise NotImplementedError

    def after(self, i: int) -> None:
        pass

    def label(self, i: int) -> str:
        """Which kind of operation ``op(i)`` is; per-label medians are reported."""

        return self.name

    def check(self, ops: int) -> set[int]:
        raise NotImplementedError

    def details(self) -> dict[str, object]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# negotiation


@dataclass(frozen=True)
class NegotiationInput:
    policy: NegotiationPolicy
    gains: ChannelGains
    geometry: Geometry
    sigma2: float
    price: float
    budgets: PowerBudget


# Policy i % 4: all accept; relay declined; relay and mac declined; all declined.
POLICY_SWITCHES = (
    dict(),
    dict(john_accepts_relay=False),
    dict(john_accepts_relay=False, john_accepts_mac=False),
    dict(john_accepts_relay=False, john_accepts_mac=False, john_accepts_one_side=False),
)

# A returned decision misses when its objective value is more than this
# (relative to max(1, |grid max|)) below the dense-grid maximum.
MISS_TOL = 1e-9
MISS_GRID = 20001


def negotiation_inputs(seed: int, count: int) -> tuple[list[NegotiationInput], list[dict]]:
    """Generated parameter points, as objects and as the raw draws.

    The eavesdropper sits near the transmitters (``d_ae``, ``d_je`` in
    ``[0.3, 1.2]``) and the transmitters apart (``d_aj`` in ``[1.5, 3]``), so
    the corrected gating inequalities hold on most draws and the policy
    decides the mode.
    """

    rng = random.Random(seed)
    inputs = []
    raw = []
    for i in range(count):
        draw = {
            "gains": {k: rng.uniform(0.05, 0.6) for k in ("g_ab", "g_ae", "g_jb", "g_je", "g_aj", "g_ja")},
            "geometry": {
                "d_ab": rng.uniform(0.5, 3.0),
                "d_ae": rng.uniform(0.3, 1.2),
                "d_jb": rng.uniform(0.5, 3.0),
                "d_je": rng.uniform(0.3, 1.2),
                "d_aj": rng.uniform(1.5, 3.0),
                "eta": 2.0,
            },
            "sigma2": rng.uniform(0.5, 2.0),
            "alpha": rng.uniform(0.3, 1.0),
            "price": 10.0 ** rng.uniform(-3.0, 0.0),
            "budgets": {"p_a_max": rng.uniform(1.0, 10.0), "p_j_max": rng.uniform(1.0, 10.0)},
            "policy": i % len(POLICY_SWITCHES),
        }
        raw.append(draw)
        inputs.append(
            NegotiationInput(
                policy=NegotiationPolicy(alpha=draw["alpha"], **POLICY_SWITCHES[draw["policy"]]),
                gains=ChannelGains(**draw["gains"]),
                geometry=Geometry(**draw["geometry"]),
                sigma2=draw["sigma2"],
                price=draw["price"],
                budgets=PowerBudget(**draw["budgets"]),
            )
        )
    return inputs, raw


def decision_intervals(point: NegotiationInput, kind: ScenarioKind, allocation) -> list:
    """``(variable, objective, hi, returned value)`` for each decided variable.

    Each objective is the ``penalized_objective`` the allocation claims to
    maximise, over the attenuated gains ``negotiate`` allocates with, on the
    interval ``[0, hi]`` the allocator searches.
    """

    gains = point.gains.effective(point.geometry)
    noise = NoiseModel(point.sigma2)
    alpha = point.policy.alpha
    budgets = point.budgets
    decisions = []
    for variable in allocation.provenance:
        extra = {}
        if kind is ScenarioKind.RELAY_COOP:
            seed_a, seed_j = 0.5 * budgets.p_a_max, 0.5 * budgets.p_j_max
            hi = max(min(budgets.p_j_max - seed_j, (budgets.p_a_max - seed_a) / alpha), 0.0)
            extra = {"alpha": alpha, "p_a": seed_a}
        else:
            hi = budgets.p_a_max if variable == "p_a" else budgets.p_j_max
            if kind is not ScenarioKind.NON_COOP:
                extra = {"alpha": alpha}
        objective = allocator.penalized_objective(
            kind, variable, gains, noise, price=point.price, **extra
        )
        decisions.append((variable, objective, hi, getattr(allocation, variable)))
    return decisions


def is_miss(objective, hi: float, value: float) -> bool:
    """Whether ``value`` falls short of the dense-grid maximum on ``[0, hi]``."""

    grid_max = float(np.max(objective(np.linspace(0.0, hi, MISS_GRID)))) if hi > 0 else float(objective(0.0))
    return grid_max - float(objective(value)) > MISS_TOL * max(1.0, abs(grid_max))


def check_negotiation(point: NegotiationInput, kind: ScenarioKind, allocation) -> list[str]:
    """Problems with one negotiation outcome; empty when it is correct."""

    problems = []
    if kind is not allocation.mode:
        problems.append(f"mode {kind.value} but allocation.mode {allocation.mode.value}")
    powers = (allocation.p_a, allocation.p_j, allocation.p_ab, allocation.p_jb)
    budgets = point.budgets
    slack = 1e-12
    if not all(math.isfinite(p) and p >= 0.0 for p in powers):
        problems.append(f"powers not finite and non-negative: {powers}")
    elif (
        allocation.p_a + allocation.p_ab > budgets.p_a_max * (1 + slack)
        or allocation.p_j + allocation.p_jb > budgets.p_j_max * (1 + slack)
    ):
        problems.append(f"powers {powers} exceed budgets {budgets}")
    else:
        cs = rates.secrecy_rate(
            kind,
            point.gains.effective(point.geometry),
            NoiseModel(point.sigma2),
            p_a=allocation.p_a,
            p_j=allocation.p_j,
            alpha=point.policy.alpha,
            p_ab=allocation.p_ab,
            p_jb=allocation.p_jb,
        )
        if not (
            math.isclose(cs.cs1, allocation.cs.cs1, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(cs.cs2, allocation.cs.cs2, rel_tol=1e-9, abs_tol=1e-12)
        ):
            problems.append(f"cs {allocation.cs} but secrecy_rate gives {cs}")
    return problems


class Negotiation(Workload):
    name = "negotiation"
    pool_size = 2048

    def prepare(self) -> None:
        self.inputs, raw = negotiation_inputs(self.seed, self.pool_size)
        self.input_digest = _digest(raw)
        self.results: list[tuple | None] = [None] * len(self.inputs)
        self._last = None
        for i in range(32):
            self.op(i)

    def op(self, i: int) -> int:
        point = self.inputs[i % len(self.inputs)]
        self._last = protocol.negotiate(
            point.policy,
            point.gains,
            point.geometry,
            point.sigma2,
            point.price,
            point.budgets,
            ConstraintMode.CORRECTED,
        )
        return 1

    def after(self, i: int) -> None:
        slot = i % len(self.inputs)
        if self.results[slot] is None:
            self.results[slot] = self._last

    def check(self, ops: int) -> set[int]:
        self.modes: Counter[str] = Counter()
        self.provenance: Counter[str] = Counter()
        self.decisions: Counter[str] = Counter()
        self.misses: Counter[str] = Counter()
        self.problems: list[str] = []
        bad_slots = set()
        for slot, (point, outcome) in enumerate(zip(self.inputs, self.results)):
            if outcome is None:
                continue
            kind, allocation = outcome
            self.modes[kind.value] += 1
            self.provenance.update(p.name.lower() for p in allocation.provenance.values())
            problems = check_negotiation(point, kind, allocation)
            if problems:
                bad_slots.add(slot)
                self.problems.extend(f"point {slot}: {p}" for p in problems)
                continue
            for variable, objective, hi, value in decision_intervals(point, kind, allocation):
                self.decisions[kind.value] += 1
                if is_miss(objective, hi, value):
                    self.misses[kind.value] += 1
        return {i for i in range(ops) if i % len(self.inputs) in bad_slots}

    def argmax_miss_share(self) -> float:
        total = sum(self.decisions.values())
        return sum(self.misses.values()) / total if total else 0.0

    def details(self) -> dict[str, object]:
        gated = sum(
            protocol.distance_constraints_met(
                p.gains, p.geometry, p.sigma2, p.policy.alpha,
                p.budgets.p_a_max, p.budgets.p_j_max, ConstraintMode.CORRECTED,
            ).all_met
            for p in self.inputs
        )
        return {
            "input_size": f"{len(self.inputs)} parameter points, cycled",
            "input_digest": self.input_digest,
            "gated_share": gated / len(self.inputs),
            "mode_share": _shares(self.modes, KINDS),
            "provenance_share": _shares(self.provenance, ("interior", "budget", "zero")),
            "argmax_miss_share": self.argmax_miss_share(),
            "argmax_miss_by_mode": {
                kind: f"{self.misses[kind]}/{self.decisions[kind]}" for kind in KINDS
            },
            "problems": self.problems[:5],
        }


# ---------------------------------------------------------------------------
# audit

# Short jobs: an operation must fit in the brief fast stretches of a shared
# machine for its fastest repetition to be steady (see run.py).
AUDIT_SAMPLES = 1
AUDIT_POINTS = AUDIT_SAMPLES + 1  # the config point plus the random samples
AUDIT_ENTRIES_PER_POINT = 13


def audit_report_problems(report: dict) -> list[str]:
    """Problems with one validation report; empty when it is well formed."""

    problems = []
    try:
        json.dumps(report, allow_nan=False)
    except ValueError as exc:
        problems.append(f"does not serialise without NaN: {exc}")
    points = [report["config_point"]] + list(report["random_points"])
    if len(points) != AUDIT_POINTS:
        problems.append(f"{len(points)} points, expected {AUDIT_POINTS}")
    tally: Counter[str] = Counter()
    for index, point in enumerate(points):
        entries = [e for kind in KINDS for e in point["reports"][kind]["entries"]]
        if len(entries) != AUDIT_ENTRIES_PER_POINT:
            problems.append(f"point {index} has {len(entries)} entries")
        tally.update(e["verdict"] for e in entries)
    if report["summary"] != dict(sorted(tally.items())):
        problems.append(f"summary {report['summary']} but entries tally {dict(tally)}")
    return problems


class Audit(Workload):
    name = "audit"
    pool_size = 64  # job seeds
    validation_points = AUDIT_POINTS

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.job_seeds = [rng.randrange(2**31) for _ in range(self.pool_size)]
        self.hashes: dict[int, set[str]] = {}
        harness.run_validation(harness.ExperimentConfig(seed=self.job_seeds[0]), samples=1)

    def _path(self, slot: int) -> Path:
        return self.scratch / f"validation-{slot}.json"

    def op(self, i: int) -> int:
        slot = i % self.pool_size
        config = harness.ExperimentConfig(seed=self.job_seeds[slot])
        report = harness.run_validation(config, samples=AUDIT_SAMPLES)
        harness.write_json(report, self._path(slot))
        return AUDIT_POINTS

    def label(self, i: int) -> str:
        return f"job{i % self.pool_size}"

    def after(self, i: int) -> None:
        slot = i % self.pool_size
        data = self._path(slot).read_bytes()
        self.hashes.setdefault(slot, set()).add(hashlib.sha256(data).hexdigest())

    def check(self, ops: int) -> set[int]:
        self.verdicts: Counter[str] = Counter()
        self.problems: list[str] = []
        bad_slots = set()
        for slot, hashes in sorted(self.hashes.items()):
            with open(self._path(slot), encoding="utf-8") as handle:
                report = json.load(handle)
            problems = audit_report_problems(report)
            if len(hashes) > 1:
                problems.append("repeated jobs wrote different files")
            if problems:
                bad_slots.add(slot)
                self.problems.extend(f"job seed {self.job_seeds[slot]}: {p}" for p in problems)
            self.verdicts.update(report["summary"])
        return {i for i in range(ops) if i % self.pool_size in bad_slots}

    def details(self) -> dict[str, object]:
        return {
            "input_size": (
                f"{self.pool_size} job seeds, cycled; {AUDIT_POINTS} points x "
                f"{AUDIT_ENTRIES_PER_POINT} entries per job"
            ),
            "input_digest": _digest({"job_seeds": self.job_seeds, "samples": AUDIT_SAMPLES}),
            "mode_share": {kind: 0.25 for kind in KINDS},
            "verdict_share": _shares(self.verdicts, sorted(self.verdicts)),
            "problems": self.problems[:5],
        }


# ---------------------------------------------------------------------------
# cli


def coopsec_env(root: Path) -> dict[str, str]:
    """Environment that imports ``coopsec`` from the checkout's ``src``."""

    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    name = "cli"
    pool_size = 4  # the commands
    validation_points = 101  # validate --samples 100
    min_rounds = 2  # every command twice, for the byte-identical check

    # When set, commands run under the tracing bootstrap, which writes one
    # export per operation into this directory.
    trace_dir: Path | None = None

    def prepare(self) -> None:
        validate_seed = random.Random(self.seed).randrange(2**31)
        self.commands = (
            ("sweep", ["sweep", "--preset", "fig3"], "sweep.csv"),
            ("validate", ["validate", "--samples", "100", "--seed", str(validate_seed)], "validation.json"),
            ("mobility", ["mobility"], "mobility.csv"),
            ("negotiate", ["negotiate", "--log-base", "2"], "negotiate.json"),
        )
        self.env = coopsec_env(self.root)
        self.hashes: dict[str, set[str]] = {}
        self.by_command: dict[int, str] = {}
        self._run(["-m", "coopsec", "negotiate", "--out", str(self.scratch / "warmup.json")])

    def _run(self, args: list[str]) -> None:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise RuntimeError(f"{args} exited {proc.returncode}: {tail}")

    def op(self, i: int) -> int:
        _, argv, out = self.commands[i % len(self.commands)]
        if self.trace_dir is None:
            launcher = ["-m", "coopsec"]
        else:
            launcher = [str(Path(__file__).with_name("traced_cli.py")), str(self.trace_dir / f"{i}.json")]
        self._run([*launcher, *argv, "--out", str(self.scratch / out)])
        return 1

    def label(self, i: int) -> str:
        return self.commands[i % len(self.commands)][0]

    def after(self, i: int) -> None:
        name, _, out = self.commands[i % len(self.commands)]
        self.by_command[i] = name
        digest = hashlib.sha256((self.scratch / out).read_bytes()).hexdigest()
        self.hashes.setdefault(name, set()).add(digest)

    def trace_exports(self) -> dict[int, dict]:
        """The tracer exports written by the traced commands, by operation."""

        exports = {}
        for path in self.trace_dir.glob("*.json"):
            with open(path, encoding="utf-8") as handle:
                exports[int(path.stem)] = json.load(handle)
        return exports

    def check(self, ops: int) -> set[int]:
        bad = {name for name, hashes in self.hashes.items() if len(hashes) > 1}
        self.problems = [f"repeated `{name}` runs wrote different files" for name in sorted(bad)]
        return {i for i, name in self.by_command.items() if name in bad}

    def details(self) -> dict[str, object]:
        return {
            "input_size": f"{len(self.commands)} commands, cycled",
            "input_digest": _digest([argv for _, argv, _ in self.commands]),
            "commands": [" ".join(argv) for _, argv, _ in self.commands],
            "problems": self.problems[:5],
        }


WORKLOADS = {cls.name: cls for cls in (Audit, Negotiation, Cli)}
