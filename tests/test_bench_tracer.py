"""The benchmark's span tracer still binds to the package.

bench/tracer.py wraps the public functions of every layer and fails when an
original binding survives; a traced run of bench/child.py (as
`bench/run.py --trace 1` starts it) shows that it still installs and
reports its per-layer metrics after a rename or deletion under src/.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("scenario", ["track_63c", "spectrum_63c"])
def test_traced_run_reports_layers(tmp_path, scenario):
    proc = subprocess.run(
        [sys.executable, "bench/child.py", "trace", f"scenarios/{scenario}.cfg",
         str(tmp_path), str(ROOT), repr(time.monotonic())],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "layers" in json.loads(proc.stdout.splitlines()[-1])
