"""The A/B timing tool: it times identical outputs and refuses differing ones."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

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
