"""The benchmark harness runs against the current library.

`perfbench/run.py --smoke` runs every workload at toy sizes, untraced and
traced.  The traced run wraps library functions and methods by name, so a
renamed or moved one fails here rather than only in a traced benchmark.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_exits_zero():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke passed" in proc.stdout
