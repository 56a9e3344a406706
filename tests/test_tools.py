"""The A/B timing tool times identical outputs, refuses differing ones and
tables each mode's timings; the benchmark pair tool summarises alternating
runs and names a failed one."""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB_TIMING = ROOT / "tools" / "ab_timing.py"


def ab_timing(base: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(AB_TIMING), str(base), "--workload", workload, "--rounds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", ["negotiation", "audit"])
def test_a_checkout_against_itself_times_identical_outputs(workload):
    result = ab_timing(ROOT, workload)
    assert result.returncode == 0, result.stderr
    assert f"{workload} seed 1: " in result.stdout
    assert "outputs identical" in result.stdout
    assert ("\nby mode " in result.stdout) is (workload == "negotiation")
    ratio, share = result.stdout.strip().splitlines()[-2:]
    assert ratio.startswith("median per-input ratio change/base: ")
    found = re.fullmatch(r"change faster on (\d+) of (\d+) inputs \((\d+\.\d)%\)", share)
    assert found, share
    faster, inputs = int(found[1]), int(found[2])
    assert 0 <= faster <= inputs and f"{workload} seed 1: {inputs} inputs" in result.stdout
    assert found[3] == f"{100 * faster / inputs:.1f}"


@pytest.mark.parametrize("workload", ["negotiation", "audit"])
def test_a_changed_decision_is_refused_before_timing(tmp_path, workload):
    # relay mode's own-power seeds move from half of each budget to 0.4 of it,
    # which moves relay decisions and the relay audit entries
    shutil.copytree(ROOT / "src" / "coopsec", tmp_path / "src" / "coopsec")
    allocator = tmp_path / "src" / "coopsec" / "allocator.py"
    text = allocator.read_text(encoding="utf-8")
    seeds = "seed_a, seed_j = 0.5 * budget.p_a_max, 0.5 * budget.p_j_max"
    assert text.count(seeds) == 1
    allocator.write_text(text.replace(seeds, seeds.replace("0.5", "0.4")), encoding="utf-8")
    result = ab_timing(tmp_path, workload)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.startswith("outputs differ on ")
    assert "p50" not in result.stdout


def test_the_mode_table_times_each_mode_apart(monkeypatch):
    # loading the tool puts perfbench's modules on the path: undo that after
    monkeypatch.setattr(sys, "path", list(sys.path))
    with mock.patch.dict(sys.modules):
        spec = importlib.util.spec_from_file_location("ab_timing", AB_TIMING)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
    # fastest times in ns, base then change: relay_coop halves, mac_coop holds
    best = [[20000, 30000, 10000, 12000, 40000], [10000, 15000, 10000, 12000, 20000]]
    groups = ["relay_coop", "relay_coop", "mac_coop", "mac_coop", "relay_coop"]
    header, mac, relay = tool.group_table(best, groups)
    assert header.split() == "by mode inputs base p50 base p90 change p50 change p90 ratio".split()
    assert mac.split() == ["mac_coop", "2", "11.00", "11.80", "11.00", "11.80", "1.000"]
    assert relay.split() == ["relay_coop", "3", "30.00", "38.00", "15.00", "19.00", "0.500"]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(setup, p50, work, failed=0):
    """A benchmark run's last output line with the given metric values."""

    values = {"setup_s": setup, "op_ms_p50": p50, "op_ms_p90": 2 * p50, "work_per_s": work}
    metrics = {name: {"value": value, "unit": "?"} for name, value in values.items()}
    result = {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}
    return "op_ms_p50 = ...\n" + json.dumps(result) + "\n"


def test_the_pair_summary_counts_wins_by_each_metrics_direction():
    tool = load_bench_pairs()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = [result_line(0.2, p50, 500.0) for p50 in (1.0, 1.2, 1.1, 1.4)]
    runs = ((0.8, 600.0), (1.3, 400.0), (0.9, 600.0), (1.0, 700.0))
    change = [result_line(0.2, p50, work) for p50, work in runs]
    pairs = [
        (tool.run_result(f"base {i}", 0, b), tool.run_result(f"change {i}", 0, c))
        for i, (b, c) in enumerate(zip(base, change))
    ]
    lines = dict(line.split(" ", 1) for line in tool.summary(spec["end_to_end"], pairs))
    assert set(lines) == {m["name"] for m in spec["end_to_end"]}
    # base p50s 1.0, 1.1, 1.2, 1.4: median 1.15, quartiles 1.075 and 1.25
    assert lines["op_ms_p50"] == (
        "(ms, lower is better): base 1.15, change 0.95, ratio 0.826, base IQR 0.175, "
        "change won 3 of 4 pairs"
    )
    assert lines["work_per_s"].endswith(
        "base 500, change 600, ratio 1.200, base IQR 0, change won 3 of 4 pairs"
    )
    # a tie is no win
    assert lines["setup_s"].endswith("change won 0 of 4 pairs")


@pytest.mark.parametrize(
    "returncode,stdout,message",
    [
        (2, "", "pair 3 base: exit 2"),
        (0, result_line(0.2, 1.0, 500.0, failed=4), "pair 3 base: 4 failed operations"),
        (0, "", "pair 3 base: no result line"),
    ],
)
def test_a_failed_run_is_named(returncode, stdout, message):
    tool = load_bench_pairs()
    with pytest.raises(tool.RunFailed, match=f"^{re.escape(message)}$"):
        tool.run_result("pair 3 base", returncode, stdout)


CODE_LINES = ROOT / "tools" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

import math


class Shape:
    """A class docstring."""

    def area(self, r):
        """A function docstring."""
        # a comment line
        return math.pi * r * r  # a trailing comment

'''


def code_lines(*trees: Path) -> dict[str, list[str]]:
    """The rows that ``tools/code_lines.py`` prints for ``trees``, by module."""

    result = subprocess.run(
        [sys.executable, str(CODE_LINES), *map(str, trees)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return {row.split()[0]: row.split()[1:] for row in result.stdout.splitlines()[1:]}


@pytest.mark.parametrize(
    "edit, lines, code",
    [
        # a docstring line moves only the total
        (('"""A function docstring."""', '"""A function docstring\n        on two lines."""'), 1, 0),
        # a statement moves both counts
        (("return math.pi", "r = float(r)\n        return math.pi"), 1, 1),
    ],
    ids=["docstring-line", "statement"],
)
def test_code_lines_count_only_code(tmp_path, edit, lines, code):
    for tree, text in (("base", MODULE), ("change", MODULE.replace(*edit))):
        package = tmp_path / tree / "src" / "coopsec"
        package.mkdir(parents=True)
        (package / "shape.py").write_text(text, encoding="utf-8")
    # 14 lines: 5 blank, 1 comment, 4 in docstrings, 4 of code
    rows = code_lines(tmp_path / "base", tmp_path / "change")
    change = [str(14 + lines), str(4 + code), "14", "4", f"+{lines}", f"+{code}"]
    assert rows == {"shape.py": change, "total": change}
