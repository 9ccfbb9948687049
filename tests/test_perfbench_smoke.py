"""One round of the referee benchmark workload, run as the benchmark runs it.

The round checks every job it times: the `verify` routes against the recorded
golden payloads and the window scans against their closed forms.  A wrong
result makes the harness report ``"correct": false`` and exit 1.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_referee_round_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py",
         "--workload", "referee", "--seed", "0", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
