"""CLI byte identity: a fixed transcript of in-process calls against recorded digests.

Every call's exit code, stdout and stderr are hashed together and compared
with tests/data/cli_transcript.sha256, one line per call, so a refactor that
changes one byte of any verb's output, message or exit code fails here.  The
calls cover every verb and format, --places, verify boxes, codes table sweeps
of both families, the error paths and every --help page.  After an intended
output change, re-record the digests with

    PYTHONPATH=src python tests/test_cli_transcript.py

which prints the count and the argv of every call whose digest moved; name
those lines, and why they moved, in the change description.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

from puregaps.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "cli_transcript.sha256"

# (m, r): the paper's (5, 9), curves with m > r and r > m, and r where the
# window 2 <= n <= r - floor(r/m) stops short of r
CURVES = [(3, 2), (2, 3), (3, 4), (4, 3), (5, 2), (2, 7), (4, 5), (7, 3), (5, 9), (9, 4)]

CODES_INSTANCES = [
    # (family, q, m, t): valid instances of both families
    ("hermitian-subcover", 2, 3, None),
    ("hermitian-subcover", 3, 4, None),
    ("hermitian-subcover", 4, 5, None),
    ("hermitian-subcover", 5, 6, None),
    ("hermitian-subcover", 7, 4, None),
    ("hermitian-subcover", 8, 3, None),
    ("hermitian-subcover", 9, 5, None),
    ("norm-trace-like", 2, 5, 4),
    ("norm-trace-like", 2, 3, 6),
    ("norm-trace-like", 2, 9, 6),
    ("norm-trace-like", 3, 5, 4),
    ("norm-trace-like", 5, 3, 2),
]

BAD_CODES_INSTANCES = [
    ("hermitian-subcover", 4, 2, None),
    ("hermitian-subcover", 7, 3, None),
    ("hermitian-subcover", 1, 2, None),
    ("norm-trace-like", 4, 3, 2),
    ("norm-trace-like", 2, 7, 6),
    ("norm-trace-like", 2, 5, 3),
    ("norm-trace-like", 2, 4, 4),
]

FORMATS = ("text", "csv", "json")


def transcript(curves=CURVES) -> list[list[str]]:
    """The fixed list of argv lists, in order; curves are (m, r) pairs."""
    out: list[list[str]] = []
    for m, r in curves:
        c = ["--m", str(m), "--r", str(r)]
        out += [["info", *c], ["info", *c, "--format", "json"]]
        out += [["gaps", *c, "--format", fmt] for fmt in FORMATS]
        out += [["gaps", *c, "--at-infinity", "--format", fmt] for fmt in FORMATS]
        for n in range(1, r + 2):
            ns, fmt = ["--n", str(n)], FORMATS[n % 3]
            out += [["pure-gaps", *c, *ns, "--format", fmt], ["pure-gaps", *c, *ns, "--count"]]
            for kind in ("absolute", "relative"):
                out.append(["maximals", *c, *ns, "--kind", kind, "--format", fmt])
                out.append(["maximals", *c, *ns, "--kind", kind, "--box", "--format", FORMATS[n % 2]])
            out.append(["maximals", *c, *ns, "--kind", "absolute", "--box", "--include-negative"])
            if n <= 3 or (m - 1) * (r - 1) <= 12:  # the default box holds C(2g - 1, n) tuples
                out.append(["verify", *c, *ns, "--format", ("text", "json")[n % 2]])
            out.append(["verify", *c, *ns, "--max-box", "2", "--format", "json"])
        out += [["plot-data", *c], ["plot-data", *c, "--format", "text"], ["plot-data", *c, "--n", "2"]]
        if r >= 3:
            last = ",".join(map(str, range(r, r - 3, -1)))
            out += [
                ["pure-gaps", *c, "--places", last],
                ["pure-gaps", *c, "--places", "1,3", "--format", "json"],
                ["maximals", *c, "--places", last, "--kind", "relative", "--format", "csv"],
                ["verify", *c, "--places", f"{r},1", "--format", "json"],
                ["verify", *c, "--places", last, "--max-box", "3"],
            ]
        out += [
            ["verify", *c, "--max-box", "0"],
            ["verify", *c, "--max-box", "-1"],
            ["pure-gaps", *c, "--places", f"1,{r + 1}"],
            ["pure-gaps", *c, "--places", "1,1"],
            ["pure-gaps", *c, "--places", "0,1"],
            ["pure-gaps", *c, "--places", "1,2", "--n", "3"],
            ["pure-gaps", *c, "--places", "2", "--count"],
            ["maximals", *c, "--places", "1,2", "--n", "2", "--kind", "absolute", "--box"],
        ]
    for m, r, lam in ((3, 4, 5), (5, 3, 2), (4, 3, 5), (3, 4, 3)):
        c = ["--m", str(m), "--r", str(r), "--lam", str(lam)]
        out += [["info", *c], ["pure-gaps", *c, "--n", "2"], ["verify", *c, "--format", "json"]]
    for m, r in ((1, 3), (3, 1), (4, 6), (0, 0)):
        out += [["info", "--m", str(m), "--r", str(r)],
                ["pure-gaps", "--m", str(m), "--r", str(r), "--n", "2"]]

    for family, q, m, t in CODES_INSTANCES + BAD_CODES_INSTANCES:
        base = ["codes", "table", "--family", family, "--q", str(q), "--m", str(m)]
        if t is not None:
            base += ["--t", str(t)]
        out += [[*base], [*base, "--format", "json"]]
        if (family, q, m, t) in BAD_CODES_INSTANCES:
            continue
        out += [[*base, "--n", str(n), "--format", ("csv", "json")[n % 2]] for n in (1, 2, 3, 4, 7)]
        out += [[*base, "--k", str(k)] for k in (0, 2, 5)]
        out += [[*base, "--n", str(n), "--k", str(k), "--format", ("csv", "json")[k % 2]]
                for n in (1, 2, 3) for k in (-1, 0, 3)]
    out += [
        ["codes", "table", "--family", "norm-trace-like", "--q", "2", "--m", "9"],
        ["codes", "table", "--family", "hermitian-subcover", "--q", "7", "--m", "4", "--t", "2"],
        ["codes", "table", "--family", "hermitian", "--q", "7", "--m", "4"],
        ["codes", "table", "--q", "7", "--m", "4"],
        ["codes"],
        [],
        ["no-such-verb"],
        ["info"],
        ["info", "--m", "x", "--r", "4"],
        ["gaps", "--m", "3", "--r", "4", "--format", "xml"],
        ["pure-gaps", "--m", "3", "--r", "4", "--places", "1,x"],
        ["pure-gaps", "--m", "3", "--r", "4", "--places", ""],
        ["pure-gaps", "--m", "3", "--r", "4", "--n"],
        ["maximals", "--m", "3", "--r", "4"],
        ["verify", "--m", "3", "--r", "4", "--max-box", "1.5"],
        ["plot-data", "--m", "5", "--r", "9", "--n", "4"],
        ["plot-data", "--m", "5", "--r", "9", "--format", "csv"],
    ]
    verbs = ("info", "gaps", "pure-gaps", "maximals", "verify", "codes", "plot-data")
    out += [["--help"], *([verb, "--help"] for verb in verbs), ["codes", "table", "--help"]]
    return out


def digest(argv: list[str]) -> str:
    """sha256 over the exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue())).encode()).hexdigest()


def lines() -> list[str]:
    return [f"{digest(argv)} {' '.join(argv)}" for argv in transcript()]


def test_cli_transcript_is_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    want = DIGESTS.read_text().splitlines()
    got = lines()
    assert len(got) == len(want)
    changed = [g.split(" ", 1)[1] for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} calls changed, first: {changed[:5]}"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    got = lines()
    want = DIGESTS.read_text().splitlines() if DIGESTS.exists() else []
    moved = [g.split(" ", 1)[1] for i, g in enumerate(got) if want[i : i + 1] != [g]]
    print(f"{len(moved)} calls moved:", *moved, sep="\n  ", file=sys.stderr)
    DIGESTS.write_text("".join(line + "\n" for line in got))
    print(f"{DIGESTS}: {len(got)} calls", file=sys.stderr)
