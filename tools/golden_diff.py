"""Rerun every golden command and report how its output differs.

Usage, from the repository root::

    python3 tools/golden_diff.py [--write]

Each command listed in ``tests/golden/manifest.json`` runs in a fresh
interpreter (``python -m coopsec``, or the entry's script, with ``src`` on
the path), from ``tests/golden/``, writing into a temporary directory;
without ``--write``, nothing under ``tests/golden/`` is written.  For each
file the report prints ``identical``, or:

- per CSV column or JSON field (list indices folded to ``[]``), how many
  numeric values shifted and the largest absolute and relative shift;
- every changed non-numeric value (mode, verdict, provenance, flag), with
  its row and column or its full JSON path;
- any change of shape (row count, missing or extra fields).

The exit status is 0 when every file is identical and 1 otherwise.

``--write`` prints the same report, then copies each fresh output over its
golden, so that an intended change of output is committed on purpose with
the report beside it.  A command that fails leaves its golden as it was.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _number(value: object) -> float | None:
    """``value`` as a float when it is numeric (a bool or a word is not)."""

    if isinstance(value, bool):
        return None
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _csv_leaves(path: Path) -> tuple[dict[str, object], dict[str, str], list[str]]:
    """Cells keyed ``row N column``, each cell's column, and shape notes."""

    with open(path, encoding="utf-8", newline="") as handle:
        header, *records = list(csv.reader(handle))
    leaves: dict[str, object] = {}
    groups: dict[str, str] = {}
    for index, record in enumerate(records):
        for column, value in zip(header, record):
            key = f"row {index} {column}"
            leaves[key] = value
            groups[key] = column
    return leaves, groups, [f"header {','.join(header)}", f"{len(records)} rows"]


def _json_leaves(path: Path) -> tuple[dict[str, object], dict[str, str], list[str]]:
    """Leaves keyed by JSON path, each path with indices folded, and no notes."""

    leaves: dict[str, object] = {}

    def walk(value: object, key: str) -> None:
        if isinstance(value, dict):
            for name, item in value.items():
                walk(item, f"{key}.{name}")
        elif isinstance(value, list):
            for index, item in enumerate(value):
                walk(item, f"{key}[{index}]")
        else:
            leaves[key] = value

    walk(json.loads(path.read_text(encoding="utf-8")), "$")
    return leaves, {key: re.sub(r"\[\d+\]", "[]", key) for key in leaves}, []


def compare(new: Path, old: Path) -> list[str]:
    """Report lines for ``new`` against the golden ``old``; empty if identical."""

    if new.read_bytes() == old.read_bytes():
        return []
    read = _json_leaves if old.suffix == ".json" else _csv_leaves
    (got, groups, got_shape), (want, _, want_shape) = read(new), read(old)
    lines = [f"  shape: {w} -> {g}" for g, w in zip(got_shape, want_shape) if g != w]
    lines += [f"  missing: {key}" for key in want if key not in got]
    lines += [f"  extra: {key}" for key in got if key not in want]
    shifts: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, int] = {}
    for key, old_value in want.items():
        if key not in got:
            continue
        new_value = got[key]
        group = groups[key]
        counts[group] = counts.get(group, 0) + 1
        old_number, new_number = _number(old_value), _number(new_value)
        if old_number is not None and new_number is not None:
            if old_number != new_number:
                shift = abs(new_number - old_number)
                scale = max(abs(old_number), abs(new_number))
                shifts.setdefault(group, []).append((shift, shift / scale))
        elif old_value != new_value:
            lines.append(f"  {key}: {old_value!r} -> {new_value!r}")
    for group in sorted(shifts):
        moved = shifts[group]
        lines.append(
            f"  {group}: {len(moved)} of {counts[group]} values shifted, "
            f"max abs {max(a for a, _ in moved):.3g}, max rel {max(r for _, r in moved):.3g}"
        )
    return lines or ["  bytes differ, values equal"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="then rewrite every golden from the current code"
    )
    args = parser.parse_args(argv)
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    all_identical = True
    fresh = []
    with tempfile.TemporaryDirectory() as scratch:
        for entry in manifest["goldens"]:
            name = entry["file"]
            out = Path(scratch) / name
            runner = [entry["script"]] if "script" in entry else ["-m", "coopsec", *entry["argv"]]
            command = [sys.executable, *runner, "--out", str(out)]
            run = subprocess.run(command, cwd=GOLDEN, env=env, capture_output=True, text=True)
            if run.returncode != 0:
                lines = [f"  exit {run.returncode}: {run.stderr.strip().splitlines()[-1:]}"]
            else:
                lines = compare(out, GOLDEN / name)
                fresh.append(out)
            print(f"{name}: {'changed' if lines else 'identical'}")
            for line in lines:
                print(line)
            all_identical = all_identical and not lines
        if args.write:
            for out in fresh:
                shutil.copyfile(out, GOLDEN / out.name)
            print(f"wrote {len(fresh)} of {len(manifest['goldens'])} goldens")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
