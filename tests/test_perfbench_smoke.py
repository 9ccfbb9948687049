"""One round of a benchmark workload, run as the benchmark runs it.

The round checks every job it times: for `referee`, the `verify` routes
against the recorded golden payloads and the window scans against their
closed forms; for `stream`, the pure-gap stream against the exact count and
lexicographic order, and the stdout SHA-256 of the `pure-gaps` verb in text,
csv and json against the golden digests; for `queries`, the small library
calls, among them the code tables against `tests/data`, the positive maximal
sets against their level-box families, the period search and the count
closed forms.  A wrong result makes the harness report ``"correct": false``
and exit 1.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["referee", "stream", "queries"])
def test_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py",
         "--workload", workload, "--seed", "0", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
