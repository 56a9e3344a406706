"""Run one ``coopsec`` CLI command with the benchmark's tracer installed.

``python3 perfbench/traced_cli.py <export.json> <coopsec arguments...>``,
from the root of a checkout.  Behaves like ``python -m coopsec`` and, once
the command returns, writes the tracer's export to ``<export.json>``, with
the time ``import coopsec.cli`` took in this process as ``import_coopsec_s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

start = time.perf_counter()
import coopsec.cli  # noqa: E402  - needs the checkout's src on the path
import_s = time.perf_counter() - start

from tracing import Tracer  # noqa: E402

export_path, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer()
tracer.install()
try:
    code = coopsec.cli.main(argv)
finally:
    tracer.uninstall()
    export = tracer.export()
    export["import_coopsec_s"] = import_s
    with open(export_path, "w", encoding="utf-8") as handle:
        json.dump(export, handle)
sys.exit(code)
