import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from puregaps import (
    DegreeWindowError,
    KummerCurve,
    TableRowSpec,
    b_k,
    cli,
    generate_tables,
    lambda_star,
    max_level,
    pure_gap_count,
    pure_gaps,
)
from puregaps.cli import main
from puregaps.codes import family_curve_points
from test_cli_transcript import CODES_INSTANCES

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "--m", "3", "--r", "2")
    assert code == 0
    assert "genus 1, period 3" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "--m", "5", "--r", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["curve"] == {"m": 5, "r": 9, "lambda": 1, "genus": 16}
    assert payload["period"] == 5 and payload["canonical_degree"] == 30


def test_gaps_text(capsys):
    code, out, _ = run(capsys, "gaps", "--m", "5", "--r", "9")
    assert code == 0
    assert out.startswith("16 gaps at a ramified place:")
    assert " 31" in out


def test_gaps_json_at_infinity(capsys):
    code, out, _ = run(capsys, "gaps", "--m", "5", "--r", "9", "--at-infinity", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["place"] == "infinity" and payload["count"] == 16


def test_pure_gaps_count(capsys):
    code, out, _ = run(capsys, "pure-gaps", "--m", "5", "--r", "9", "--n", "3", "--count")
    assert code == 0 and out.strip() == "382"


def test_pure_gaps_formats(capsys):
    code, out, _ = run(capsys, "pure-gaps", "--m", "3", "--r", "4", "--n", "2")
    assert code == 0 and out.splitlines() == ["1 1", "1 2", "2 1"]
    code, out, _ = run(capsys, "pure-gaps", "--m", "3", "--r", "4", "--n", "2", "--format", "csv")
    assert out.splitlines() == ["1,1", "1,2", "2,1"]
    code, out, _ = run(capsys, "pure-gaps", "--m", "3", "--r", "4", "--n", "2", "--format", "json")
    assert json.loads(out) == [[1, 1], [1, 2], [2, 1]]


def lines(tuples, sep):
    return "".join(sep.join(map(str, t)) + "\n" for t in tuples)


def reference(m, r, n, fmt):
    """The pure-gaps verb's stdout, built one tuple at a time."""
    tuples = pure_gaps(KummerCurve(m, r), n)
    if fmt == "json":
        return json.dumps([list(t) for t in tuples]) + "\n"
    return lines(tuples, "," if fmt == "csv" else " ")


FORMATS = ("text", "csv", "json")


@pytest.mark.parametrize("fmt", FORMATS)
def test_pure_gaps_output_longer_than_one_chunk(capsys, fmt):
    code, out, err = run(capsys, "pure-gaps", "--m", "9", "--r", "13", "--n", "3", "--format", fmt)
    assert (code, err) == (0, "")
    assert pure_gap_count(KummerCurve(9, 13), 3) == 10146 > cli._CHUNK_LINES
    assert out == reference(9, 13, 3, fmt)


# n = 2 has 1-coordinate prefixes; both curves span two chunks
@pytest.mark.parametrize("m,r,n", [(7, 23, 2), (5, 9, 5)])
@pytest.mark.parametrize("fmt", FORMATS)
def test_pure_gaps_bytes_at_two_and_five_places(capsys, m, r, n, fmt):
    argv = ("pure-gaps", "--m", str(m), "--r", str(r), "--n", str(n), "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == reference(m, r, n, fmt)


COPRIME = [(m, r) for m in range(2, 14) for r in range(2, 16) if gcd(m, r) == 1]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(COPRIME), st.integers(2, 6), st.sampled_from(FORMATS))
def test_pure_gaps_bytes_match_per_tuple_reference(mr, n, fmt):
    m, r = mr
    assume(n <= r and pure_gap_count(KummerCurve(m, r), n) <= 20_000)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["pure-gaps", "--m", str(m), "--r", str(r), "--n", str(n), "--format", fmt])
    assert code == 0 and out.getvalue() == reference(m, r, n, fmt)


def test_pure_gaps_empty_stream(capsys):
    argv = ("pure-gaps", "--m", "3", "--r", "2", "--n", "2", "--format")
    assert run(capsys, *argv, "text") == (0, "", "")
    assert run(capsys, *argv, "csv") == (0, "", "")
    assert run(capsys, *argv, "json") == (0, "[]\n", "")


class HashingStdout(io.TextIOBase):
    """A stdout that keeps only a digest of what it is given."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def writable(self):
        return True

    def write(self, s):
        self.sha.update(s.encode())
        return len(s)


def assert_json_memory_is_bounded(monkeypatch, m, r, n):
    want = hashlib.sha256(reference(m, r, n, "json").encode()).hexdigest()
    sink = HashingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["pure-gaps", "--m", str(m), "--r", str(r), "--n", str(n), "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.sha.hexdigest() == want
    assert peak < 1 << 20, f"traced peak {peak} B"


def test_pure_gaps_json_memory_is_bounded(monkeypatch):
    # 23 505 elements, 0.3 MB of JSON; as a list of lists they take about 5 MiB
    assert_json_memory_is_bounded(monkeypatch, 7, 23, 3)


def test_pure_gaps_json_memory_is_bounded_at_four_places(monkeypatch):
    # 35 142 elements, 0.5 MB of JSON; the walk keeps one row per class of 2-prefixes
    assert_json_memory_is_bounded(monkeypatch, 9, 10, 4)


def test_maximals_csv(capsys):
    code, out, _ = run(
        capsys, "maximals", "--m", "5", "--r", "9", "--n", "3", "--kind", "relative", "--format", "csv"
    )
    assert code == 0 and out == lines(lambda_star(KummerCurve(5, 9), 3), ",")
    assert out.startswith("1,1,31\n1,6,26\n") and out.count("\n") == 50


def test_verify_line(capsys):
    code, out, _ = run(capsys, "verify", "--m", "3", "--r", "4", "--n", "2", "--max-box", "12")
    assert code == 0
    assert out.strip() == "OK: enumeration matches oracle (3 pure gaps)"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--m", "5", "--r", "9", "--n", "2", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    assert payload["routes"]["enumeration"] == payload["routes"]["oracle"]


def test_verify_small_boxes(capsys):
    curve = KummerCurve(5, 9)
    gaps = list(pure_gaps(curve, 3))
    for box in (0, 1, 2, 6, 11, 17):
        code, out, _ = run(
            capsys, "verify", "--m", "5", "--r", "9", "--n", "3", "--max-box", str(box), "--format", "json"
        )
        clipped = [t for t in gaps if max(t) <= box]
        assert list(pure_gaps(curve, 3, box)) == clipped  # the enumeration route verify reads
        want = len(clipped)
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert payload["routes"] == {"enumeration": want, "glb": want, "oracle": want}


def test_verify_small_box_on_a_large_curve(capsys):
    # 37 137 654 pure gaps at (13, 12, 6), 1 in the box; 646 646 relative
    # maximal elements at (12, 13, 12), no pure gap in the box: every route
    # stops at the box, the glb route included
    for m, r, n, count in [(13, 12, 6, 1), (12, 13, 12, 0)]:
        start = time.perf_counter()
        code = main(["verify", "--m", str(m), "--r", str(r), "--n", str(n), "--max-box", "1", "--format", "json"])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["ok"] is True
        assert payload["routes"] == {"enumeration": count, "glb": count, "oracle": count}
        assert elapsed < 1.0, (m, r, n, elapsed)


def test_verify_glb_route_reads_no_listed_maximals(capsys, monkeypatch):
    # the glb route runs off the window family's seeds; lambda_star is not called
    def listed(*args, **kwargs):
        raise AssertionError("verify listed the relative maximal elements")

    monkeypatch.setattr(cli.maximals, "lambda_star", listed)
    for argv in (["--m", "5", "--r", "9", "--n", "3"], ["--m", "7", "--r", "12", "--n", "4", "--max-box", "9"]):
        code, out, err = run(capsys, "verify", *argv, "--format", "json")
        payload = json.loads(out)
        assert code == 0 and err == "" and payload["ok"] is True
        assert set(payload["routes"]) == {"enumeration", "glb", "oracle"}


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    # a route that loses its last pure gap must fail the run
    scan = cli.pure_gap_box_scan
    monkeypatch.setattr(cli, "pure_gap_box_scan", lambda *args, **kwargs: scan(*args, **kwargs)[:-1])
    code, out, err = run(capsys, "verify", "--m", "3", "--r", "4", "--n", "2")
    assert code == 1 and out == ""
    assert err == "MISMATCH: routes disagree (enumeration=3, glb=3, oracle=2)\n"
    code, out, err = run(capsys, "verify", "--m", "3", "--r", "4", "--n", "2", "--format", "json")
    payload = json.loads(out)
    assert code == 1 and err == "" and payload["ok"] is False
    assert payload["routes"] == {"enumeration": 3, "glb": 3, "oracle": 2}


def cli_env():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def verify_subprocess(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", "from puregaps.cli import console_entry; console_entry()",
         "verify", *argv, "--format", "json"],
        capture_output=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    return json.loads(proc.stdout)


def test_verify_end_to_end_at_four_places():
    payload = verify_subprocess("--m", "5", "--r", "13", "--n", "4")
    assert payload["ok"] is True and payload["box"] == 48
    assert payload["routes"] == {"enumeration": 5780, "glb": 5780, "oracle": 5780}
    # a box past 2g adds no pure gap
    wide = verify_subprocess("--m", "5", "--r", "9", "--n", "3", "--max-box", "48")
    default = verify_subprocess("--m", "5", "--r", "9", "--n", "3")
    assert wide["ok"] is True and wide["box"] == 48 and default["box"] == 32
    assert wide["routes"] == default["routes"] == {"enumeration": 382, "glb": 382, "oracle": 382}


def test_verify_with_places_subset(capsys):
    code, out, _ = run(capsys, "verify", "--m", "3", "--r", "4", "--places", "2,4")
    assert code == 0 and "OK" in out


@pytest.mark.parametrize("m, r", [(3, 4), (5, 9)])
def test_verify_n_outside_the_places_exits_3(capsys, m, r):
    # the place-count check of pure-gaps, maximals and codes table, before any place is built
    curve = ["--m", str(m), "--r", str(r)]
    for n in (1, r + 1):
        line = f"error: need 2 <= n <= r = {r} branch places, got n={n}\n"
        for box in ([], ["--max-box", "2", "--format", "json"]):
            assert run(capsys, "verify", *curve, "--n", str(n), *box) == (3, "", line)
        assert run(capsys, "pure-gaps", *curve, "--n", str(n)) == (3, "", line)


def test_maximals_star_and_box(capsys):
    code, out, _ = run(capsys, "maximals", "--m", "3", "--r", "4", "--n", "2", "--kind", "relative")
    assert code == 0 and out.splitlines() == ["1 4", "2 2", "4 1"]
    code, out, _ = run(
        capsys, "maximals", "--m", "5", "--r", "9", "--n", "3", "--kind", "absolute", "--box"
    )
    assert out.splitlines() == ["0 0 0", "8 3 3", "17 2 2", "26 1 1"]
    code, out, _ = run(
        capsys,
        "maximals", "--m", "5", "--r", "9", "--n", "3",
        "--kind", "absolute", "--box", "--include-negative",
    )
    assert out.splitlines()[0] == "-1 4 4"


def test_maximals_json_metadata(capsys):
    code, out, _ = run(
        capsys,
        "maximals", "--m", "5", "--r", "9", "--n", "3", "--kind", "relative", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["kind"] == "relative" and payload["n"] == 3
    assert payload["curve"]["genus"] == 16
    assert len(payload["set"]) == 50


def test_codes_table_csv(capsys):
    code, out, _ = run(
        capsys,
        "codes", "table", "--family", "hermitian-subcover",
        "--q", "7", "--m", "4", "--n", "2", "--k", "3",
    )
    assert code == 0
    assert out.splitlines() == ["N,kdim,dlb,degG,ratesum", "174,156,12,26,28/29"]


def test_codes_table_norm_trace_json(capsys):
    code, out, _ = run(
        capsys,
        "codes", "table", "--family", "norm-trace-like",
        "--q", "2", "--m", "9", "--t", "6", "--n", "3", "--k", "4", "--format", "json",
    )
    rows = json.loads(out)
    assert code == 0
    assert [(r["N"], r["kdim"], r["dlb"]) for r in rows] == [
        (510, 459, 30),
        (510, 458, 30),
        (510, 457, 30),
        (510, 456, 30),
    ]


def single_sum_rows(family, q, m, t):
    """A codes table sweep built one offset sum at a time, each through generate_tables."""
    curve, _ = family_curve_points(family, q, m, t)
    rows, skipped = [], 0
    for n in range(2, curve.r - curve.r // curve.m):
        for k in range(max_level(curve, n) + 1):
            for a_sum in range(n, sum(b_k(curve, n, k).bounds) + 1):
                try:
                    rows += generate_tables([TableRowSpec(family, q, m, n, k, (a_sum,), t)])
                except DegreeWindowError:
                    skipped += 1
    return rows, skipped


@pytest.mark.parametrize(
    "family, q, m, t", [("norm-trace-like", 2, 9, 6), ("hermitian-subcover", 8, 3, None)]
)
def test_codes_table_full_sweep_matches_single_sum_rows(capsys, family, q, m, t):
    rows, skipped = single_sum_rows(family, q, m, t)
    assert rows and skipped  # the sweep skips some sums and keeps others
    flags = ["codes", "table", "--family", family, "--q", str(q), "--m", str(m)]
    flags += [] if t is None else ["--t", str(t)]
    assert run(capsys, *flags, "--format", "json") == (0, json.dumps(rows, sort_keys=True) + "\n", "")
    csv = "".join(f"{r['N']},{r['kdim']},{r['dlb']},{r['degG']},{r['ratesum']}\n" for r in rows)
    assert run(capsys, *flags) == (0, "N,kdim,dlb,degG,ratesum\n" + csv, "")


def test_codes_table_requires_t(capsys):
    code, _, err = run(capsys, "codes", "table", "--family", "norm-trace-like", "--q", "2", "--m", "9")
    assert code == 2 and "needs --t" in err


@pytest.mark.parametrize(
    "flags, line",
    [
        # both the curve and the point count are invalid; each family reports its own first check
        (["--family", "hermitian-subcover", "--q", "4", "--m", "2"],
         "error: gcd(m, lambda*r) must be 1, got gcd(2, 4) = 2"),
        (["--family", "norm-trace-like", "--q", "4", "--m", "3", "--t", "2"],
         "error: m = 3 must be coprime to q^(t/2) - 1 = 3"),
    ],
)
def test_codes_table_check_order(capsys, flags, line):
    code, out, err = run(capsys, "codes", "table", *flags)
    assert code == 2 and out == "" and err == line + "\n"


@pytest.mark.parametrize("family, q, m, t", CODES_INSTANCES)
def test_codes_table_n_outside_the_places_exits_3(capsys, family, q, m, t):
    # checked before any level: n = 1 exits 3 with --k too, and n = r + 1 prints no bare header
    r = family_curve_points(family, q, m, t)[0].r
    flags = ["codes", "table", "--family", family, "--q", str(q), "--m", str(m)]
    flags += [] if t is None else ["--t", str(t)]
    for n in (1, r + 1):
        line = f"error: need 2 <= n <= r = {r} branch places, got n={n}\n"
        for k in ([], ["--k", "0"], ["--k", "3"]):
            assert run(capsys, *flags, "--n", str(n), *k) == (3, "", line)


@pytest.mark.parametrize("family, q, m, t", CODES_INSTANCES)
def test_codes_table_level_sweep_is_the_place_sweeps_at_that_level(capsys, family, q, m, t):
    # --k K keeps the place counts that reach K, in ascending n; when none does, only the header
    r = family_curve_points(family, q, m, t)[0].r
    flags = ["codes", "table", "--family", family, "--q", str(q), "--m", str(m)]
    flags += [] if t is None else ["--t", str(t)]
    rows = []
    for n in range(2, r + 1):
        code, out, _ = run(capsys, *flags, "--n", str(n), "--format", "json")
        assert code == 0
        rows += json.loads(out)
    for k in range(7):
        at_k = [row for row in rows if row["k"] == k]
        assert run(capsys, *flags, "--k", str(k), "--format", "json") == (
            0, json.dumps(at_k, sort_keys=True) + "\n", ""
        )
        if not at_k:
            assert run(capsys, *flags, "--k", str(k)) == (0, "N,kdim,dlb,degG,ratesum\n", "")


def test_text_and_json_list_the_same_records(capsys, corpus):
    # every verb's text or csv lines carry the records of its JSON payload, at n = 2 and 3
    def both(*argv, fmt="text"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        json_code, payload, json_err = run(capsys, *argv, "--format", "json")
        assert code == json_code and bool(err) == bool(json_err), argv
        return out.splitlines(), json.loads(payload) if json_code == 0 else None

    def tuples(lines, sep):
        return [[int(x) for x in line.split(sep)] for line in lines]

    for curve in corpus:
        c = ["--m", str(curve.m), "--r", str(curve.r)]
        for where in ([], ["--at-infinity"]):
            lines, payload = both("gaps", *c, *where, fmt="csv")
            assert [int(x) for x in lines] == payload["gaps"]
            (line,), _ = both("gaps", *c, *where)
            head, listed = line.split(": ")
            assert head.startswith(f"{payload['count']} gaps at ")
            assert [int(x) for x in listed.split()] == payload["gaps"]
        for n in (2, 3)[: curve.r - 1]:
            ns = [*c, "--n", str(n)]
            for kind, box in product(("absolute", "relative"), ([], ["--box"])):
                lines, payload = both("maximals", *ns, "--kind", kind, *box, fmt="csv")
                listed = payload["set"] if payload else []  # outside the window both exit 3
                assert tuples(lines, ",") == listed
                assert tuples(both("maximals", *ns, "--kind", kind, *box)[0], " ") == listed
            lines, payload = both("verify", *ns)
            count = payload["routes"]["enumeration"]
            assert lines == [f"OK: enumeration matches oracle ({count} pure gap{'s' * (count != 1)})"]
        if curve.r >= 3:
            lines, payload = both("plot-data", *c)
            cubes = [
                f"class {q['class']}: origin {tuple(q['origin'])} side {q['side']} count {q['count']}"
                for q in payload["cubes"]
            ]
            assert lines == cubes + [f"lambda_star points: {len(payload['lambda_star'])}"]


def test_plot_data_schema(capsys):
    code, out, _ = run(capsys, "plot-data", "--m", "5", "--r", "9")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["cubes"]) == 35 and len(payload["lambda_star"]) == 50
    assert payload["cubes"][0] == {"class": 0, "count": 54, "origin": [0, 0, 0], "side": 5}


def test_exit_code_validation_error(capsys):
    code, _, err = run(capsys, "info", "--m", "4", "--r", "2")
    assert code == 2 and "gcd" in err


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "maximals", "--m", "5", "--r", "9", "--n", "9", "--kind", "relative")
    assert code == 3 and "n=9" in err
    code, _, err = run(capsys, "plot-data", "--m", "5", "--r", "9", "--n", "2")
    assert code == 3


def test_exit_code_usage_error(capsys):
    assert run(capsys, "no-such-verb")[0] == 2
    assert run(capsys, "info")[0] == 2  # missing required flags
    assert run(capsys, "pure-gaps", "--m", "3", "--r", "4", "--n", "2", "--places", "1,2,3")[0] == 2


def test_byte_identical_reruns(capsys):
    first = run(capsys, "plot-data", "--m", "5", "--r", "9")
    second = run(capsys, "plot-data", "--m", "5", "--r", "9")
    assert first == second
    a = run(capsys, "pure-gaps", "--m", "5", "--r", "9", "--n", "3", "--format", "json")
    b = run(capsys, "pure-gaps", "--m", "5", "--r", "9", "--n", "3", "--format", "json")
    assert a == b


def test_malformed_places_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--m", "3", "--r", "4", "--places", "1,x")
    assert code == 2 and out == ""
    assert "--places" in err and "comma-separated branch indices" in err
    assert "invalid literal" not in err


def test_broken_pipe_exits_141_quietly():
    # the reader takes one line and closes; the rest of the ~1 MB listing hits a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-c", "from puregaps.cli import console_entry; console_entry()",
         "pure-gaps", "--m", "7", "--r", "40", "--n", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
    )
    assert proc.stdout.readline() == b"1 1 1\n"
    proc.stdout.close()
    code = proc.wait(timeout=60)  # a traceback would fit in the stderr pipe
    err = proc.stderr.read()
    proc.stderr.close()
    assert (code, err) == (141, b"")


def test_interrupt_exits_130_quietly(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.gapsets, "pure_gap_blocks", interrupted)
    code, out, err = run(capsys, "pure-gaps", "--m", "3", "--r", "4", "--n", "2")
    assert (code, out, err) == (130, "", "")


# one successful call of every verb
VERB_CALLS = [
    ["info", "--m", "3", "--r", "4"],
    ["gaps", "--m", "3", "--r", "4", "--format", "json"],
    ["pure-gaps", "--m", "5", "--r", "9", "--n", "3", "--format", "json"],
    ["maximals", "--m", "3", "--r", "4", "--kind", "relative", "--box"],
    ["verify", "--m", "3", "--r", "4", "--n", "2"],
    ["codes", "table", "--family", "norm-trace-like", "--q", "2", "--m", "9", "--t", "6"],
    ["plot-data", "--m", "5", "--r", "9"],
]


@pytest.mark.parametrize("argv", VERB_CALLS, ids=lambda argv: argv[0])
def test_verb_call_leaves_no_cyclic_garbage(capsys, argv):
    assert main(argv) == 0  # warm-up: builds the parser and any lazy caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_output_does_not_depend_on_the_width_at_parser_build(capsys, monkeypatch):
    calls = [["--help"], ["pure-gaps", "--help"], ["codes", "table", "--help"], ["codes"],
             ["maximals", "--m", "3", "--r", "4"]]
    cli.build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "200")
    wide = run(capsys, "--help")  # the parser is built at width 200
    monkeypatch.setenv("COLUMNS", "40")
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()  # a parser built at width 40
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert reused[0] != wide  # the width in force when printing does count


PARSER_COUNT = """
import argparse, contextlib, io, json
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import puregaps.cli as cli
at_import = built
calls = json.loads(input())
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
tree = cli.build_parser()
verbs = sorted(next(a for a in tree._actions if isinstance(a, argparse._SubParsersAction)).choices)
print(json.dumps([at_import, built, codes, verbs]))
"""


def test_one_parser_per_process():
    calls = [VERB_CALLS[0], *VERB_CALLS, ["--help"], ["info"], ["codes", "table", "--help"]]
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_COUNT], input=json.dumps(calls),
        capture_output=True, text=True, env=cli_env(), timeout=60, check=True,
    )
    at_import, built, codes, verbs = json.loads(proc.stdout)
    assert at_import == 0  # importing the CLI builds nothing
    # the first call builds the top level, the 7 verbs and codes table; the next ten build none
    assert built == 9
    assert codes == [0] * 9 + [2, 0]
    assert verbs == ["codes", "gaps", "info", "maximals", "plot-data", "pure-gaps", "verify"]
