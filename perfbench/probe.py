"""Set-up probe: a fresh interpreter that gets one workload ready, then stops.

Run from the root of a checkout as
``python3 perfbench/probe.py <workload> <seed> <scratch dir>``.  It imports
``coopsec``, generates the workload's inputs and warms it up, then prints
``time.monotonic()``.  The caller started its own monotonic clock just
before launching the probe, so the difference is the set-up time:
interpreter start, imports, input generation and warm-up.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  - needs the checkout's src on the path

name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.WORKLOADS[name](seed, Path.cwd(), scratch).prepare()
print(repr(time.monotonic()))
