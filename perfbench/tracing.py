"""Span tracing of ``coopsec``'s public functions, installed from outside.

The tracer rebinds each traced function's name in every loaded ``coopsec``
module that holds it (a module that did ``from .allocator import
solve_quadratic_real`` keeps its own reference, so patching only the
defining module would miss those calls).  Each call records a span
``(name, kind, start_ns, end_ns, parent_id)``; spans stay in memory until
:meth:`Tracer.export` summarises them.  Exceptions pass through the
wrappers unchanged, because ``grid_search_optimum`` probes whether an
objective accepts arrays with ``try``/``except``.

Everything runs on one thread and nothing queues, so no layer waits on
another: the per-layer figures are counts, busy (self) time and per-call
time.  A "time waited" figure would always be zero and is not recorded.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

import numpy as np

# (layer, defining module, attribute); a dotted attribute is a method.
TRACED = (
    ("allocator", "coopsec.allocator", "solve_quadratic_real"),
    ("allocator", "coopsec.allocator", "solve_cubic_real"),
    ("allocator", "coopsec.allocator", "noncoop_allocation"),
    ("allocator", "coopsec.allocator", "one_side_allocation"),
    ("allocator", "coopsec.allocator", "mac_allocation"),
    ("allocator", "coopsec.allocator", "relay_allocation"),
    ("allocator", "coopsec.allocator", "evaluate_closed_forms"),
    ("oracle", "coopsec.oracle", "validate_scenario"),
    ("oracle", "coopsec.oracle", "grid_search_optimum"),
    ("oracle", "coopsec.oracle", "finite_diff_derivative"),
    ("protocol", "coopsec.protocol", "negotiate"),
    ("protocol", "coopsec.protocol", "distance_constraints_met"),
    ("rates", "coopsec.rates", "secrecy_rate"),
    ("model", "coopsec.model", "ChannelGains.effective"),
    ("harness", "coopsec.harness", "run_validation"),
    ("harness", "coopsec.harness", "write_json"),
)

# Spans of these functions are also summarised per scenario kind (their
# first argument), e.g. ``oracle.validate_scenario.relay_coop``.
SPLIT_BY_KIND = frozenset({"oracle.validate_scenario", "rates.secrecy_rate"})

ALLOCATIONS = frozenset(
    f"allocator.{name}"
    for name in ("noncoop_allocation", "one_side_allocation", "mac_allocation", "relay_allocation")
)

SCALAR_EVALS = "allocator.objective.scalar_evals"
ARRAY_POINTS = "allocator.objective.array_points"


def span_names() -> list[str]:
    """Names of all traced functions, ``<layer>.<function>``."""

    return [f"{layer}.{attr}" for layer, _, attr in TRACED]


def _kind_of(args: tuple, kwargs: dict) -> str:
    kind = args[0] if args else kwargs["kind"]
    return str(getattr(kind, "value", kind))


class Tracer:
    """Records spans and counts for one traced phase of a run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and the objective factory."""

        import coopsec  # noqa: F401  - loads every layer
        import coopsec.cli  # noqa: F401

        for layer, module_name, attr in TRACED:
            name = f"{layer}.{attr}"
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, self._span_wrapper(name, original))
                continue
            original = getattr(module, attr)
            self._rebind(original, self._span_wrapper(name, original))
        factory = sys.modules["coopsec.allocator"].penalized_objective
        self._rebind(factory, self._counting_factory(factory))

    def uninstall(self) -> None:
        """Restore every rebound name."""

        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original: object, wrapper: object) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "coopsec" or module_name.startswith("coopsec.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns
        split = name in SPLIT_BY_KIND
        allocation = name in ALLOCATIONS
        negotiation = name == "protocol.negotiate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = _kind_of(args, kwargs) if split else None
            span_id = len(spans)
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, kind, start, end, stack[-1] if stack else -1)
            if allocation:
                for provenance in result.provenance.values():
                    counts[f"allocator.provenance.{provenance.name.lower()}"] += 1
            elif negotiation:
                counts[f"protocol.mode.{result[0].value}"] += 1
            return result

        return wrapper

    def _counting_factory(self, factory):
        counts = self.counts

        @functools.wraps(factory)
        def counting_factory(*args, **kwargs):
            objective = factory(*args, **kwargs)

            def counted(p):
                if isinstance(p, np.ndarray):
                    counts[ARRAY_POINTS] += p.size
                else:
                    counts[SCALAR_EVALS] += 1
                return objective(p)

            return counted

        return counting_factory

    # -- summary --------------------------------------------------------

    def export(self) -> dict[str, object]:
        """Per-function calls, self time and inclusive durations, plus counts.

        A span's self time is its duration minus the time its direct child
        spans cover; calls run on one thread, so children never overlap.
        """

        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child_ns[span[4]] += span[3] - span[2]
        functions: dict[str, dict[str, object]] = {}
        for span_id, span in enumerate(self.spans):
            if span is None:
                continue
            name, kind, start, end, _ = span
            keys = [name] if kind is None else [name, f"{name}.{kind}"]
            for key in keys:
                entry = functions.setdefault(key, {"calls": 0, "self_ns": 0, "durations_ns": []})
                entry["calls"] += 1
                entry["self_ns"] += end - start - child_ns[span_id]
                entry["durations_ns"].append(end - start)
        return {"functions": functions, "counts": dict(self.counts)}


def merge(exports: list[dict[str, object]]) -> dict[str, object]:
    """Combine the exports of several traced processes."""

    functions: dict[str, dict[str, object]] = {}
    counts: Counter[str] = Counter()
    for export in exports:
        counts.update(export["counts"])
        for key, entry in export["functions"].items():
            into = functions.setdefault(key, {"calls": 0, "self_ns": 0, "durations_ns": []})
            into["calls"] += entry["calls"]
            into["self_ns"] += entry["self_ns"]
            into["durations_ns"].extend(entry["durations_ns"])
    return {"functions": functions, "counts": dict(counts)}


def function_table(export: dict[str, object]) -> dict[str, dict[str, float | int | None]]:
    """``calls``, ``self_ms`` and ``us_p50`` for every traced function and split.

    Functions the workload never called appear with zero calls and time and
    a ``us_p50`` of ``None``.
    """

    functions = export["functions"]
    keys = span_names() + sorted(k for k in functions if k not in span_names())
    table: dict[str, dict[str, float | int | None]] = {}
    for key in keys:
        entry = functions.get(key)
        if entry is None:
            table[key] = {"calls": 0, "self_ms": 0.0, "us_p50": None}
            continue
        table[key] = {
            "calls": entry["calls"],
            "self_ms": entry["self_ns"] / 1e6,
            "us_p50": statistics.median(entry["durations_ns"]) / 1e3,
        }
    return table


def layer_self_ms(export: dict[str, object]) -> dict[str, float]:
    """Total self time per layer, in milliseconds."""

    totals: Counter[str] = Counter()
    for key, entry in export["functions"].items():
        if key in span_names():
            totals[key.split(".")[0]] += entry["self_ns"] / 1e6
    return dict(totals)
