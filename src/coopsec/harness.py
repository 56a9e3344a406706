"""Experiment configuration, sweeps, validation runs, and mobility runs.

Everything here is a deterministic function of a configuration and a seed.
Sweeps produce flat tables (one row per evaluated point and scenario) that
serialize to CSV with full double precision; validation runs bundle
:func:`coopsec.oracle.validate_scenario` reports for the configured point
plus a batch of seeded-random parameter points; mobility runs replay the
negotiation along an eavesdropper trajectory.

Named presets cover the six standard experiment shapes: secrecy with and
without relaying against main and relay powers (``fig3``, ``fig4``),
distance sensitivity (``fig5``), cooperative power sweeps with constraints
satisfied (``fig6``, ``fig7``), and a geometry where the pairing constraints
fail and cooperation hurts (``fig8``).
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (
    _DISTANCE_FIELDS,
    _GAIN_FIELDS,
    ChannelGains,
    Geometry,
    NoiseModel,
    PowerBudget,
    _as_alpha,
    _as_nonnegative,
    _as_positive,
    _as_whole,
    _require_finite,
)
from .oracle import _validate
from .protocol import ConstraintMode, NegotiationPolicy, distance_constraints_met, negotiate
from .rates import _LN2, ScenarioKind, secrecy_rate

__all__ = [
    "DEFAULT_BUDGETS",
    "DEFAULT_GAINS",
    "DEFAULT_GEOMETRY",
    "PRESETS",
    "ExperimentConfig",
    "MobilityRow",
    "SweepAxis",
    "SweepRow",
    "load_config",
    "mobility_default_config",
    "preset_config",
    "read_sweep_csv",
    "run_mobility",
    "run_negotiation",
    "run_sweep",
    "run_validation",
    "write_json",
    "write_mobility_csv",
    "write_sweep_csv",
]

DEFAULT_GAINS = ChannelGains(g_ab=0.4, g_ae=0.3, g_jb=0.5, g_je=0.3, g_aj=0.2)
DEFAULT_GEOMETRY = Geometry(d_ab=1.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=1.0, eta=2.0)
DEFAULT_BUDGETS = PowerBudget(p_a_max=5.0, p_j_max=5.0)

_POWER_AXES = ("p_a", "p_j", "p_ab", "p_jb")
_DISTANCE_AXES = ("d_ab", "d_ae", "d_jb", "d_je", "d_aj")


@dataclass(frozen=True)
class SweepAxis:
    """One swept coordinate: a power or a distance over a closed interval.

    ``lo == hi`` is allowed and collapses the sweep to a single point;
    otherwise at least two steps are required.
    """

    name: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        if self.name not in _POWER_AXES + _DISTANCE_AXES:
            raise ValueError(
                f"unknown axis {self.name!r}; expected one of "
                f"{', '.join(_POWER_AXES + _DISTANCE_AXES)}"
            )
        lo = _require_finite("axis lo", self.lo)
        hi = _require_finite("axis hi", self.hi)
        if hi < lo:
            raise ValueError("axis hi must be >= lo")
        steps = _as_whole("steps", self.steps)
        if lo < hi and steps < 2:
            raise ValueError("a non-degenerate axis needs at least 2 steps")
        if steps < 1:
            raise ValueError("steps must be positive")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "steps", steps)

    def values(self) -> list[float]:
        """Grid points, endpoints included; a single point when lo == hi."""

        if self.lo == self.hi:
            return [self.lo]
        return [float(x) for x in np.linspace(self.lo, self.hi, self.steps)]

    def as_dict(self) -> dict[str, object]:
        return {"name": self.name, "lo": self.lo, "hi": self.hi, "steps": self.steps}


_DEFAULT_AXIS = SweepAxis("p_a", 0.0, 10.0, 41)

# Each preset's sweep axis and geometry; every other field keeps its default.
_PRESET_SHAPES = {
    "fig3": (SweepAxis("p_jb", 0.0, 10.0, 41), DEFAULT_GEOMETRY),
    "fig4": (SweepAxis("p_ab", 0.0, 10.0, 41), DEFAULT_GEOMETRY),
    "fig5": (SweepAxis("d_ab", 0.5, 3.0, 51), DEFAULT_GEOMETRY),
    "fig6": (SweepAxis("p_jb", 0.0, 10.0, 41), DEFAULT_GEOMETRY),
    "fig7": (SweepAxis("p_j", 0.0, 10.0, 41), DEFAULT_GEOMETRY),
    "fig8": (
        SweepAxis("p_j", 0.0, 10.0, 41),
        Geometry(d_ab=2.0, d_ae=1.0, d_jb=1.0, d_je=1.0, d_aj=0.5, eta=2.0),
    ),
}
PRESETS = tuple(_PRESET_SHAPES)

_ALL_SCENARIOS = tuple(ScenarioKind)  # relay, mac, one-sided, non-cooperative


def _as_log_base(log_base: str) -> str:
    if log_base not in ("e", "2"):
        raise ValueError("log_base must be 'e' or '2'")
    return log_base


_GEOMETRY_FIELDS = (*_DISTANCE_FIELDS, "eta")

# Each parameter block of a config, keyed by its field, and its dataclass.
_BLOCKS = {"gains": ChannelGains, "geometry": Geometry, "budgets": PowerBudget, "axis": SweepAxis}


def _as_block(name: str, cls: type, value: object):
    """The block ``name``, a ``cls``, built from ``value``, a mapping of its
    fields, as a config file gives it."""

    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping of {cls.__name__} fields, got {value!r}")
    fields = {field.name: field.default for field in dataclasses.fields(cls)}
    unknown = [key for key in value if key not in fields]
    if unknown:
        raise ValueError(f"unknown {name} keys: {unknown}")
    missing = [key for key, default in fields.items() if key not in value and default is MISSING]
    if missing:
        raise ValueError(f"{name} needs {', '.join(missing)}")
    return cls(**value)


def _params(config: ExperimentConfig) -> dict[str, object]:
    """The physical parameter block that opens :meth:`ExperimentConfig.to_dict`:
    fresh dicts of the config's checked floats, in field order."""

    gains, geometry, budgets = config.gains, config.geometry, config.budgets
    return {
        "gains": {name: getattr(gains, name) for name in _GAIN_FIELDS},
        "geometry": {name: getattr(geometry, name) for name in _GEOMETRY_FIELDS},
        "sigma2": config.sigma2,
        "alpha": config.alpha,
        "lambda": config.price,
        "budgets": {"p_a_max": budgets.p_a_max, "p_j_max": budgets.p_j_max},
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one reproducible experiment.

    Defaults reproduce the standard parameter block: gains
    (0.4, 0.3, 0.5, 0.3, 0.2), cooperation level 0.8, unit noise, unit
    distances with square-law path loss, budgets (5, 5), and unit power
    price.  A named ``preset`` sets the sweep axis and geometry that are not
    given, and an ``axis`` that is given must sweep the preset's coordinate.
    ``trajectory`` is a sequence of ``(d_ae, d_je)`` pairs consumed only by
    mobility runs.  ``seed`` is a non-negative integer; a float seed must
    have an integral value.  Each parameter block (``gains``, ``geometry``,
    ``budgets``, ``axis``) may be given as its dataclass or as a mapping of
    its fields.
    """

    gains: ChannelGains = DEFAULT_GAINS
    geometry: Geometry | None = None
    sigma2: float = 1.0
    alpha: float = 0.8
    price: float = 1.0
    budgets: PowerBudget = DEFAULT_BUDGETS
    scenarios: tuple[ScenarioKind, ...] = _ALL_SCENARIOS
    axis: SweepAxis | None = None
    preset: str | None = None
    constraint_mode: ConstraintMode = ConstraintMode.CORRECTED
    log_base: str = "e"
    seed: int = 0
    trajectory: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma2", _as_positive("sigma2", self.sigma2))
        object.__setattr__(self, "alpha", _as_alpha(self.alpha))
        object.__setattr__(self, "price", _as_nonnegative("price", self.price))
        try:
            if isinstance(self.scenarios, (str, bytes)):
                raise TypeError
            scenarios = tuple(ScenarioKind(kind) for kind in self.scenarios)
        except (TypeError, ValueError):
            names = ", ".join(kind.value for kind in ScenarioKind)
            message = f"scenarios must be a list of {names}, got {self.scenarios!r}"
            raise ValueError(message) from None
        object.__setattr__(self, "scenarios", scenarios)
        if self.preset is None:
            axis, geometry = _DEFAULT_AXIS, DEFAULT_GEOMETRY
        elif self.preset in PRESETS:
            axis, geometry = _PRESET_SHAPES[self.preset]
        else:
            raise ValueError(f"unknown preset {self.preset!r}; expected one of {PRESETS}")
        if self.axis is None:
            object.__setattr__(self, "axis", axis)
        if self.geometry is None:
            object.__setattr__(self, "geometry", geometry)
        for name, cls in _BLOCKS.items():
            if not isinstance(getattr(self, name), cls):
                object.__setattr__(self, name, _as_block(name, cls, getattr(self, name)))
        if self.preset is not None and self.axis.name != axis.name:
            raise ValueError(f"preset {self.preset} sweeps {axis.name}, not {self.axis.name}")
        object.__setattr__(self, "constraint_mode", ConstraintMode(self.constraint_mode))
        _as_log_base(self.log_base)
        object.__setattr__(self, "seed", _as_whole("seed", self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.trajectory is not None:
            try:
                path = tuple(
                    (_require_finite("d_ae", d_ae), _require_finite("d_je", d_je))
                    for d_ae, d_je in self.trajectory
                )
            except (TypeError, ValueError):
                raise ValueError("trajectory must be a list of [d_ae, d_je] pairs") from None
            if not path:
                raise ValueError("trajectory must be non-empty when given")
            object.__setattr__(self, "trajectory", path)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready mapping; the power price serializes as ``lambda``."""

        return {
            **_params(self),
            "scenarios": [kind.value for kind in self.scenarios],
            "axis": self.axis.as_dict(),
            "preset": self.preset,
            "constraint_mode": self.constraint_mode.value,
            "log_base": self.log_base,
            "seed": self.seed,
            "trajectory": None
            if self.trajectory is None
            else [[d_ae, d_je] for d_ae, d_je in self.trajectory],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentConfig":
        """Build a config from a mapping; absent keys keep their defaults and
        the power price is spelled ``lambda``."""

        if not isinstance(data, Mapping):
            raise ValueError(f"a config must be a mapping of keys to values, got {data!r}")
        keys = {field.name for field in dataclasses.fields(cls)} - {"price"} | {"lambda"}
        unknown = set(data) - keys
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{"price" if key == "lambda" else key: value for key, value in data.items()})

    def replace(self, **changes: object) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""

        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an :class:`ExperimentConfig` from a JSON file."""

    with open(path, "r", encoding="utf-8") as handle:
        return ExperimentConfig.from_dict(json.load(handle))


def preset_config(name: str) -> ExperimentConfig:
    """Return the full configuration behind a named preset."""

    return ExperimentConfig(preset=name)


def mobility_default_config() -> ExperimentConfig:
    """Default mobility setup: the eavesdropper recedes across the gating radius.

    The pair distance is 2, so with gains 0.3 and 0.2 the corrected a-side
    distance condition holds up to ``d_ae = sqrt(6)``; the trajectory walks
    ``d_ae`` from 2.0 to 3.0 in 21 steps with ``d_je`` fixed at 2, crossing
    that radius once.
    """

    geometry = Geometry(d_ab=1.0, d_ae=2.0, d_jb=1.0, d_je=2.0, d_aj=2.0, eta=2.0)
    path = tuple((float(d), 2.0) for d in np.linspace(2.0, 3.0, 21))
    return ExperimentConfig(geometry=geometry, trajectory=path)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated sweep point for one scenario."""

    axis: float
    cs1_nat: float
    cs2_nat: float
    p_a: float
    p_j: float
    p_ab: float
    p_jb: float
    mode: str
    provenance: str = ""


@dataclass(frozen=True)
class MobilityRow:
    """One negotiation step along an eavesdropper trajectory."""

    step: int
    mode: str
    cs1_nat: float
    cs2_nat: float
    changed: bool


def _powers(p_a: float = 0.0, p_j: float = 0.0, p_ab: float = 0.0, p_jb: float = 0.0) -> dict:
    return {"p_a": p_a, "p_j": p_j, "p_ab": p_ab, "p_jb": p_jb}


_RowPlan = list[tuple[ScenarioKind, Geometry, dict[str, float], str]]


def _axis_plan(config: ExperimentConfig, x: float) -> _RowPlan:
    """One row per configured scenario for a plain sweep at axis value ``x``."""

    name = config.axis.name
    geometry = config.geometry
    powers = _powers()
    if name in _DISTANCE_AXES:
        geometry = dataclasses.replace(geometry, **{name: x})
    else:
        powers[name] = x
        if name == "p_jb":
            powers["p_ab"] = config.alpha * x
        elif name == "p_ab":
            powers["p_jb"] = x / config.alpha
    return [(kind, geometry, powers, "") for kind in config.scenarios]


def _preset_plan(config: ExperimentConfig, x: float) -> _RowPlan:
    """The fixed rows a preset draws at axis value ``x``."""

    alpha = config.alpha
    geometry = config.geometry
    if config.preset in ("fig3", "fig4"):
        # Secrecy with and without relaying: the bare curve sweeps the main
        # power, the relayed curve sweeps the relaying power with the main
        # powers pinned at 5.
        p_ab, p_jb = (alpha * x, x) if config.preset == "fig3" else (x, x / alpha)
        return [
            (ScenarioKind.NON_COOP, geometry, _powers(x, x), ""),
            (ScenarioKind.RELAY_COOP, geometry, _powers(5.0, 5.0, p_ab, p_jb), ""),
        ]
    if config.preset == "fig5":
        # Distance sensitivity for a's secrecy: sweep d_ab with and without
        # relaying, under joint (d_ae, d_jb) variants.
        bare, relayed = _powers(5.0, 5.0), _powers(5.0, 5.0, alpha * 5.0, 5.0)
        plan: _RowPlan = []
        for d_ae, d_jb in itertools.product((1.5, 3.0), (1.0, 2.0)):
            moved = dataclasses.replace(geometry, d_ab=x, d_ae=d_ae, d_jb=d_jb)
            label = f"d_ae={d_ae:g},d_jb={d_jb:g}"
            plan.append((ScenarioKind.NON_COOP, moved, bare, label))
            plan.append((ScenarioKind.RELAY_COOP, moved, relayed, label))
        return plan
    if config.preset == "fig6":
        return [(ScenarioKind.RELAY_COOP, geometry, _powers(5.0, 5.0, alpha * x, x), "")]
    # fig7 and fig8: the same cooperative power sweep, over different geometries
    return [(ScenarioKind.MAC_COOP, geometry, _powers(x, x), "")]


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Evaluate the configured sweep and return its rows in axis order.

    Preset configs follow their fixed row plans.  Otherwise each axis value
    produces one row per configured scenario: all powers start at zero, the
    swept variable takes the axis value, and the paired relaying power
    follows the exchange ratio (``p_ab = alpha * p_jb``) when one of the two
    is swept.  Distance axes reposition that node before gains are
    attenuated.
    """

    plan = _axis_plan if config.preset is None else _preset_plan
    noise = NoiseModel(config.sigma2)
    rows: list[SweepRow] = []
    for x in config.axis.values():
        for kind, geometry, powers, label in plan(config, x):
            effective = config.gains.effective(geometry)
            pair = secrecy_rate(kind, effective, noise, alpha=config.alpha, **powers)
            rows.append(
                SweepRow(x, pair.cs1, pair.cs2, **powers, mode=kind.value, provenance=label)
            )
    return rows


_SWEEP_COLUMNS = ("axis", "cs1_nat", "cs2_nat", "p_a", "p_j", "p_ab", "p_jb", "mode", "provenance")
_MOBILITY_COLUMNS = ("step", "mode", "cs1_nat", "cs2_nat", "changed")


def _cell(value: object) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_csv(
    path: str | Path, columns: Sequence[str], rows: Iterable[SweepRow | MobilityRow], log_base: str
) -> None:
    """Write one cell per column from each row's attribute of that name.

    With ``log_base='2'`` two extra columns append the base-2 conversions
    ``cs1_base2`` and ``cs2_base2`` of the rows' natural-log rates; a base
    other than ``'e'`` or ``'2'`` raises ``ValueError`` before the file is
    opened.
    """

    base2 = _as_log_base(log_base) == "2"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*columns, "cs1_base2", "cs2_base2"] if base2 else columns)
        for row in rows:
            record = [_cell(getattr(row, name)) for name in columns]
            if base2:
                record += [_cell(row.cs1_nat / _LN2), _cell(row.cs2_nat / _LN2)]
            writer.writerow(record)


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path, log_base: str = "e") -> None:
    """Write sweep rows as CSV with 17-significant-digit floats.

    With ``log_base='2'`` two extra columns append the base-2 conversions
    ``cs1_base2`` and ``cs2_base2`` (the natural columns stay authoritative).
    """

    _write_csv(path, _SWEEP_COLUMNS, rows, log_base)


def read_sweep_csv(path: str | Path) -> list[SweepRow]:
    """Parse a sweep CSV back into rows (base-2 display columns are ignored).

    An empty file, a foreign header, a row short of the sweep columns, a
    numeric cell that is not a finite number or a ``mode`` that is no
    :class:`ScenarioKind` value raises ``ValueError``, naming the line and
    column.  ``provenance`` is free text.
    """

    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"sweep CSV {str(path)!r} is empty")
        if header[: len(_SWEEP_COLUMNS)] != list(_SWEEP_COLUMNS):
            raise ValueError(f"unexpected sweep header: {header!r}")
        rows = []
        for record in reader:
            if len(record) < 9:
                raise ValueError(f"sweep CSV line {reader.line_num} has {len(record)} of 9 cells")
            line = reader.line_num
            values = [
                _csv_number(line, column, cell) for column, cell in zip(_SWEEP_COLUMNS, record[:7])
            ]
            if record[7] not in _ALL_SCENARIOS:
                name, modes = f"sweep CSV line {line} column mode", ", ".join(_ALL_SCENARIOS)
                raise ValueError(f"{name} must be one of {modes}, got {record[7]!r}")
            rows.append(SweepRow(*values, mode=record[7], provenance=record[8]))
        return rows


def _csv_number(line: int, column: str, cell: str) -> float:
    """The finite number in one sweep CSV cell, checked like every input."""

    name = f"sweep CSV line {line} column {column}"
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {cell!r}") from None
    return _require_finite(name, value)


def run_mobility(config: ExperimentConfig) -> list[MobilityRow]:
    """Replay the negotiation along the configured eavesdropper trajectory.

    Each trajectory entry repositions the eavesdropper at ``(d_ae, d_je)``
    and re-runs the negotiation with an all-accepting policy; ``changed``
    flags steps whose mode differs from the previous step (the first step is
    never flagged).  Without a configured trajectory the default receding
    path from :func:`mobility_default_config` is used.
    """

    trajectory = config.trajectory or mobility_default_config().trajectory
    policy = NegotiationPolicy(alpha=config.alpha)
    rows: list[MobilityRow] = []
    for step, (d_ae, d_je) in enumerate(trajectory):
        mode, allocation = negotiate(
            policy,
            config.gains,
            config.geometry.with_eve_at(d_ae, d_je),
            config.sigma2,
            config.price,
            config.budgets,
            config.constraint_mode,
        )
        rows.append(
            MobilityRow(
                step=step,
                mode=mode.value,
                cs1_nat=allocation.cs.cs1,
                cs2_nat=allocation.cs.cs2,
                changed=bool(rows) and rows[-1].mode != mode.value,
            )
        )
    return rows


def write_mobility_csv(rows: Sequence[MobilityRow], path: str | Path, log_base: str = "e") -> None:
    """Write mobility rows as CSV, mirroring the sweep float conventions."""

    _write_csv(path, _MOBILITY_COLUMNS, rows, log_base)


def _audit_point(config: ExperimentConfig) -> dict[str, object]:
    """Parameter block and per-scenario validation reports at one point."""

    inputs = (config.gains, config.geometry, config.sigma2, config.alpha, config.price)
    reports = _validate(_ALL_SCENARIOS, *inputs, config.budgets)
    return {"params": _params(config), "reports": {r.kind.value: r.as_dict() for r in reports}}


# numpy ``uniform`` bounds of a random point's 16 fields in draw order: g_ab..g_ja,
# d_ab..d_aj, sigma2, alpha, log10 of the price, p_a_max and p_j_max
_DRAW_BOUNDS = ((0.05, 0.6),) * 6 + ((0.5, 3.0),) * 5 + ((0.5, 2.0), (0.3, 1.0), (-3.0, -1.0))
_DRAW_BOUNDS += ((1.0, 10.0),) * 2


def _random_point(rng: np.random.Generator) -> ExperimentConfig:
    """A random audit point from one ``rng.random(16)``: ``lo + (hi - lo) * u``
    is ``Generator.uniform``'s arithmetic, so each field has the bits of one
    ``rng.uniform`` call per field (a vector per class) on the same stream."""

    x = [lo + (hi - lo) * u for (lo, hi), u in zip(_DRAW_BOUNDS, rng.random(16).tolist())]
    return ExperimentConfig(
        gains=ChannelGains(*x[:6]),
        geometry=Geometry(*x[6:11], eta=2.0),
        sigma2=x[11],
        alpha=x[12],
        price=10.0 ** x[13],
        budgets=PowerBudget(*x[14:]),
    )


def run_validation(config: ExperimentConfig, samples: int = 100) -> dict[str, object]:
    """Validate every scenario at the config point and at random points.

    The random points are drawn from a generator seeded with
    ``config.seed``, so the whole report is a deterministic function of the
    configuration.  Returns a JSON-ready mapping with per-point reports and
    an aggregate verdict tally.
    """

    samples = _as_whole("samples", samples)
    if samples < 0:
        raise ValueError("samples must be non-negative")
    report: dict[str, object] = {
        "seed": config.seed,
        "samples": samples,
        "config_point": _audit_point(config),
    }
    rng = np.random.default_rng(config.seed)
    random_points = [
        {"sample": index, **_audit_point(_random_point(rng))} for index in range(samples)
    ]
    report["random_points"] = random_points

    tally: dict[str, int] = {}
    def _absorb(reports: Mapping[str, object]) -> None:
        for scenario_report in reports.values():
            for verdict, count in scenario_report["summary"].items():  # type: ignore[index]
                tally[verdict] = tally.get(verdict, 0) + int(count)

    _absorb(report["config_point"]["reports"])  # type: ignore[index]
    for point in random_points:
        _absorb(point["reports"])
    report["summary"] = dict(sorted(tally.items()))
    return report


def run_negotiation(config: ExperimentConfig) -> dict[str, object]:
    """Run one negotiation at the config point and describe the outcome."""

    policy = NegotiationPolicy(alpha=config.alpha)
    verdict = distance_constraints_met(
        config.gains,
        config.geometry,
        config.sigma2,
        config.alpha,
        config.budgets.p_a_max,
        config.budgets.p_j_max,
        config.constraint_mode,
    )
    mode, allocation = negotiate(
        policy,
        config.gains,
        config.geometry,
        config.sigma2,
        config.price,
        config.budgets,
        config.constraint_mode,
    )
    result: dict[str, object] = {
        "params": _params(config),
        "constraint_mode": config.constraint_mode.value,
        "constraints": verdict.as_dict(),
        "mode": mode.value,
        "allocation": {
            "p_a": allocation.p_a,
            "p_j": allocation.p_j,
            "p_ab": allocation.p_ab,
            "p_jb": allocation.p_jb,
            "cs1_nat": allocation.cs.cs1,
            "cs2_nat": allocation.cs.cs2,
            "provenance": {key: value.value for key, value in allocation.provenance.items()},
        },
    }
    if config.log_base == "2":
        result["allocation"]["cs1_base2"] = allocation.cs.cs1 / _LN2  # type: ignore[index]
        result["allocation"]["cs2_base2"] = allocation.cs.cs2 / _LN2  # type: ignore[index]
    return result


class _Unwritable(Exception):
    """A value the direct writer leaves to ``json.dumps``."""


def _indented_json(data: object) -> str:
    """``json.dumps(data, indent=2, sort_keys=True, allow_nan=False)``, directly.

    One recursive writer appends to one list, which is joined once.  It
    tries ``float``, ``str``, dict, list or tuple, ``None``, ``True``,
    ``False`` and ``int``, the commonest first (no one subclasses another, so
    a subclass takes its base's branch, as in the stdlib encoder) and spells
    them as that encoder does: ``encode_basestring_ascii``, ``int.__repr__``
    and ``float.__repr__``.  A non-finite float, a non-``str`` key or any other
    type raises :class:`_Unwritable`.
    """

    encode_str = json.encoder.encode_basestring_ascii
    out: list[str] = []
    append = out.append

    def write(value: object, indent: str) -> None:
        if isinstance(value, float):
            if not math.isfinite(value):
                raise _Unwritable
            append(float.__repr__(value))
        elif isinstance(value, str):
            append(encode_str(value))
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            try:
                items = sorted(value.items())
            except TypeError:
                raise _Unwritable from None
            inner = indent + "  "
            separator = "{" + inner
            for key, item in items:
                if not isinstance(key, str):
                    raise _Unwritable
                append(separator + encode_str(key) + ": ")
                write(item, inner)
                separator = "," + inner
            append(indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            inner = indent + "  "
            separator = "[" + inner
            for item in value:
                append(separator)
                write(item, inner)
                separator = "," + inner
            append(indent + "]")
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        else:
            raise _Unwritable

    write(data, "\n")
    return "".join(out)


def write_json(data: Mapping[str, object], path: str | Path) -> None:
    """Serialize a report deterministically (sorted keys, no NaN), in one write.

    The text is ``json.dumps(data, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline, byte for byte.  CPython's C encoder
    does not indent, so that call runs the stdlib's generator encoder;
    :func:`_indented_json` writes the same bytes directly, trying ``float``
    first.  Anything it leaves (non-finite floats, non-``str`` keys, other
    types, nesting deep or circular enough to exhaust the recursion limit)
    goes to ``json.dumps`` for the whole document, so coercions and errors
    stay the stdlib's.
    """

    try:
        text = _indented_json(data)
    except (_Unwritable, RecursionError):
        text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    text += "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
