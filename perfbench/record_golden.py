"""Record golden.json: the outputs the benchmark's checks compare against.

Run from the root of a checkout whose outputs are known good:

    python3 perfbench/record_golden.py

It records, for every job the workloads can draw, the pure-gap count and the
SHA-256 of the CLI's stdout (stream), the box and route sizes of ``verify``
(referee), and the SHA-256 of each ``codes table`` sweep (queries).  Record it
again only when the program's output changes on purpose.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from workloads import key, run_cli


def require(ok: bool, message: str) -> None:
    if not ok:
        raise RuntimeError(f"refusing to record golden values: {message}")


def record(mods) -> dict:
    cli = mods.cli
    stream = {}
    for m, r, n in workloads.STREAM_POOL:
        entry = {"count": mods.gapsets.pure_gap_count(mods.curves.KummerCurve(m, r), n)}
        for fmt in workloads.STREAM_FORMATS:
            res = run_cli(cli, workloads.stream_argv(m, r, n, fmt))
            require(res.code == 0, res.stderr)
            entry[fmt] = res.digest
        stream[key(m, r, n)] = entry
    referee = {}
    for m, r, n in workloads.VERIFY_POOL:
        res = run_cli(cli, workloads.verify_argv(m, r, n), keep=True)
        payload = json.loads(res.stdout)
        require(res.code == 0 and payload["ok"] is True, res.stdout.decode())
        referee[key(m, r, n)] = {"box": payload["box"], "routes": payload["routes"]}
    codes = {}
    for family, q, m, t in workloads.CODES_SWEEPS:
        for fmt in workloads.CODES_FORMATS:
            res = run_cli(cli, workloads.codes_argv(family, q, m, t, fmt))
            require(res.code == 0, res.stderr)
            codes[key(family, q, m, t, fmt)] = res.digest
    return {"stream": stream, "referee": referee, "codes": codes}


def main() -> int:
    golden = record(run.import_package())
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
