"""Seeded job lists of the three workloads, and the check of every job.

A workload is a sequence of rounds.  A round is a fixed mix of job kinds in a
seeded order, with seeded inputs, so every kind sees the same host conditions
and every round costs about the same.  The harness runs whole rounds only,
which keeps the mix behind each percentile identical from run to run.

Each job has a ``run`` that the harness times, and a ``check`` that it calls
afterwards, outside the timed region and outside any traced span.  Checks
compare against independent routes (the ell oracle, closed-form
specialisations, enumeration lengths), the bundled code tables, or golden
values recorded from the program (``golden.json``).

Workloads:

* ``stream``: the pure-gap stream of mid-size curves at n = 3 and 4, half of
  it consumed from ``gapsets.pure_gaps`` directly and half through the
  ``pure-gaps`` verb in text, csv or json.  It is the largest-output path and
  calls neither the oracle nor ``union_count``.
* ``referee``: the ``verify`` verb on curves of genus <= 16 with the default
  2g box, and the fundamental-window scans against their closed forms.  The
  dense oracle sweep is nearly all of the cost.
* ``queries``: small independent queries with no locality between calls: ell
  with the Riemann-Roch identity, the predicates, counts up to n = 13 where
  ``union_count`` is exponential, plot data, maximal sets, one-place gaps and
  code tables.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from itertools import islice
from math import gcd
from typing import Callable

STREAM_POOL = (  # (m, r, n), 1e4 to 4e4 pure gaps each
    (9, 13, 3), (11, 12, 3), (7, 23, 3), (13, 12, 3),
    (8, 9, 4), (7, 12, 4), (11, 8, 4), (9, 10, 4),
)
STREAM_FORMATS = ("text", "csv", "json")

VERIFY_POOL = (  # (m, r, n), genus <= 16, 2g box
    (5, 9, 2), (7, 6, 2), (4, 11, 2),
    (5, 9, 3), (4, 9, 3), (7, 5, 3), (3, 13, 3), (5, 7, 3), (6, 5, 3), (4, 7, 3),
    (3, 5, 4), (3, 7, 4), (4, 5, 4),
)
WINDOW_POOL = ((7, 10, 3), (9, 10, 3), (5, 13, 4), (11, 12, 3))

CODES_SWEEPS = (  # (family, q, m, t)
    ("hermitian-subcover", 7, 4, None),
    ("hermitian-subcover", 8, 3, None),
    ("hermitian-subcover", 9, 5, None),
    ("hermitian-subcover", 11, 4, None),
    ("norm-trace-like", 2, 3, 6),
    ("norm-trace-like", 2, 9, 6),
    ("norm-trace-like", 3, 5, 4),
)
CODES_FORMATS = ("csv", "json")

ELL_CURVES = ((3, 7), (4, 9), (5, 9), (7, 10), (5, 13), (9, 10), (8, 9), (3, 20))
PREDICATE_POOL = ((5, 9, 3), (7, 10, 3), (4, 9, 3), (5, 13, 2), (7, 10, 2))
COUNT_POOL = ((5, 9, 3), (7, 10, 3), (9, 10, 3), (7, 8, 4), (5, 11, 4), (6, 11, 4))
STAR_POOL = ((5, 9, 3), (7, 10, 3), (9, 13, 3), (11, 12, 3), (7, 10, 4), (7, 10, 2))
PLOT_CURVES = ((5, 9), (7, 10), (9, 13), (11, 12))
# union_count makes about 2^n calls: 0.1 to 0.4 s each here.  With 54 jobs a
# round, these seven hold the 90th percentile inside the n = 12 counts.
LARGE_COUNT_NS = (12, 12, 12, 12, 12, 13, 13)


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    label: str
    items: int  # items the job delivers: tuples, oracle cells or 1 query
    run: Callable[[Callable[[], None]], object]  # gets mark(): "first item is out"
    check: Callable[[object], None]


# -- the CLI, in process ---------------------------------------------------------


class ByteSink(io.RawIOBase):
    """Raw end of the stand-in stdout: hashes and counts bytes, notes the first write."""

    def __init__(self, mark: Callable[[], None], keep: bool):
        super().__init__()
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.kept = bytearray() if keep else None
        self._mark = mark

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        if b and not self.nbytes:
            self._mark()
        self.sha.update(b)
        self.nbytes += len(b)
        if self.kept is not None:
            self.kept += b
        return len(b)


@dataclass
class CliResult:
    code: int
    digest: str
    nbytes: int
    stdout: bytes | None
    stderr: str


def run_cli(cli, argv: list[str], mark: Callable[[], None] = lambda: None, keep: bool = False) -> CliResult:
    """cli.main(argv) with stdout a real text stream over a hashing byte sink.

    The stream is a TextIOWrapper over a BufferedWriter, as stdout is when it
    is a pipe, so output written as text or to ``sys.stdout.buffer`` both land
    in the sink.
    """
    sink = ByteSink(mark, keep)
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
        out.flush()
    finally:
        sys.stdout, sys.stderr = saved
    stdout = bytes(sink.kept) if keep else None
    return CliResult(code, sink.sha.hexdigest(), sink.nbytes, stdout, err.getvalue())


def expect_cli_ok(res: CliResult) -> None:
    expect(res.code == 0, f"exit code {res.code}: {res.stderr.strip()[:200]}")


def stream_argv(m: int, r: int, n: int, fmt: str) -> list[str]:
    return ["pure-gaps", "--m", str(m), "--r", str(r), "--n", str(n), "--format", fmt]


def verify_argv(m: int, r: int, n: int) -> list[str]:
    return ["verify", "--m", str(m), "--r", str(r), "--n", str(n), "--format", "json"]


def codes_argv(family: str, q: int, m: int, t: int | None, fmt: str) -> list[str]:
    argv = ["codes", "table", "--family", family, "--q", str(q), "--m", str(m)]
    if t is not None:
        argv += ["--t", str(t)]
    return argv + ["--format", fmt]


def key(*parts) -> str:
    return ",".join("-" if p is None else str(p) for p in parts)


def render_table(rows: list[dict], with_t: bool) -> str:
    """The layout of tests/data/table*.csv."""
    head = "q,t,m,n,k,a,N,kdim,dlb" if with_t else "q,m,n,k,a,N,kdim,dlb"
    lines = [head]
    for row in rows:
        cells = [row["q"], row["t"], row["m"], row["n"], row["k"], row["a"],
                 row["N"], row["kdim"], row["dlb"]]
        if not with_t:
            cells.pop(1)
        lines.append(",".join(str(c) for c in cells))
    return "\n".join(lines) + "\n"


# -- shared state of one run ----------------------------------------------------------


class Context:
    """Modules, golden values and reference sets shared by the jobs of one run.

    Jobs look functions up on the module objects at call time, so the tracer's
    wrappers are seen.  Reference sets are computed untimed, on first use.
    """

    def __init__(self, mods, golden: dict, tables: tuple[str, str]):
        self.mods = mods
        self.golden = golden
        self.tables = tables
        self._gaps: dict = {}

    def curve(self, m: int, r: int):
        return self.mods.curves.KummerCurve(m, r)

    def pure_gap_list(self, m: int, r: int, n: int) -> list:
        k = (m, r, n)
        if k not in self._gaps:
            self._gaps[k] = list(self.mods.gapsets.pure_gaps(self.curve(m, r), n))
        return self._gaps[k]

    def pure_gap_set(self, m: int, r: int, n: int) -> frozenset:
        k = ("set", m, r, n)
        if k not in self._gaps:
            self._gaps[k] = frozenset(self.pure_gap_list(m, r, n))
        return self._gaps[k]

    def star(self, kind: str, m: int, r: int, n: int) -> list:
        k = (kind, m, r, n)
        if k not in self._gaps:
            fn = self.mods.maximals.gamma_star if kind == "absolute" else self.mods.maximals.lambda_star
            self._gaps[k] = fn(self.curve(m, r), n)
        return self._gaps[k]


# -- stream ---------------------------------------------------------------------


def _stream_api_job(ctx: Context, m: int, r: int, n: int, sample_seed: int) -> Job:
    P = ctx.mods
    count = ctx.golden["stream"][key(m, r, n)]["count"]

    def run(mark):
        it = P.gapsets.pure_gaps(P.curves.KummerCurve(m, r), n)
        out = [next(it)]
        mark()
        out.extend(it)
        return out

    def check(out):
        curve = ctx.curve(m, r)
        expect(len(out) == count == P.gapsets.pure_gap_count(curve, n),
               f"{len(out)} tuples, golden {count}")
        expect(all(a < b for a, b in zip(out, islice(out, 1, None))), "not strictly lexicographic")
        for t in random.Random(sample_seed).sample(out, 16):
            expect(P.riemann_roch.is_pure_gap(curve, t), f"{t} is not a pure gap")

    return Job("stream-api", f"pure_gaps({m},{r},{n})", count, run, check)


def _stream_cli_job(ctx: Context, m: int, r: int, n: int, fmt: str) -> Job:
    golden = ctx.golden["stream"][key(m, r, n)]
    argv = stream_argv(m, r, n, fmt)

    def run(mark):
        return run_cli(ctx.mods.cli, argv, mark)

    def check(res):
        expect_cli_ok(res)
        expect(res.digest == golden[fmt], f"stdout digest {res.digest[:12]} differs from golden")

    return Job(f"stream-cli-{fmt}", " ".join(argv), golden["count"], run, check)


def stream_round(ctx: Context, rng: random.Random, index: int) -> list[Job]:
    # Formats rotate with the round index, so any three rounds in a row hold
    # every (curve, format) pair once and the tail of the latency
    # distribution does not depend on the seed.
    jobs = []
    for i, (m, r, n) in enumerate(STREAM_POOL):
        jobs.append(_stream_api_job(ctx, m, r, n, rng.getrandbits(32)))
        fmt = STREAM_FORMATS[(index + i) % len(STREAM_FORMATS)]
        jobs.append(_stream_cli_job(ctx, m, r, n, fmt))
    rng.shuffle(jobs)
    return jobs


# -- referee --------------------------------------------------------------------


def _verify_job(ctx: Context, m: int, r: int, n: int) -> Job:
    golden = ctx.golden["referee"][key(m, r, n)]
    argv = verify_argv(m, r, n)

    def run(mark):
        return run_cli(ctx.mods.cli, argv, mark, keep=True)

    def check(res):
        expect_cli_ok(res)
        payload = json.loads(res.stdout)
        expect(payload["ok"] is True, "verify reports a mismatch")
        expect(payload["box"] == golden["box"], f"box {payload['box']}, golden {golden['box']}")
        expect(payload["routes"] == golden["routes"], f"routes {payload['routes']}, golden {golden['routes']}")

    return Job("verify", " ".join(argv), golden["box"] ** n, run, check)


def _window_job(ctx: Context, m: int, r: int, n: int, kind: str) -> Job:
    P = ctx.mods
    lo, hi = -(n - 1) * (m - 1), (m - 1) * (r - 1)  # the scan's default window, hi = 2g

    def run(mark):
        curve = P.curves.KummerCurve(m, r)
        if kind == "absolute":
            return P.riemann_roch.absolute_maximals_window_scan(curve, n)
        return P.riemann_roch.relative_maximals_window_scan(curve, n)

    def check(found):
        curve = ctx.curve(m, r)
        closed = P.maximals.gamma_hat_box if kind == "absolute" else P.maximals.lambda_hat_box
        want = sorted(t for t in closed(curve, n) if lo <= t[0] <= hi)
        expect(found == want, f"window scan {found} differs from the closed form {want}")

    return Job(f"window-{kind}", f"{kind} window ({m},{r},{n})", (hi - lo + 1) * m ** (n - 1), run, check)


def referee_round(ctx: Context, rng: random.Random, index: int) -> list[Job]:
    jobs = [_verify_job(ctx, m, r, n) for m, r, n in VERIFY_POOL]
    for m, r, n in WINDOW_POOL:
        jobs.append(_window_job(ctx, m, r, n, "absolute"))
        jobs.append(_window_job(ctx, m, r, n, "relative"))
    rng.shuffle(jobs)
    return jobs


# -- queries ----------------------------------------------------------------------


def _random_divisor(ctx: Context, curve, rng: random.Random):
    P = ctx.mods.curves
    g = curve.genus
    places = list(curve.ramified_places()) + [P.INFINITY]
    chosen = rng.sample(places, rng.randint(1, min(5, len(places))))
    return P.Divisor({p: rng.randint(-g - 2, g + 2) for p in chosen}), places


def _ell_job(ctx: Context, rng: random.Random) -> Job:
    P = ctx.mods
    curve = ctx.curve(*rng.choice(ELL_CURVES))
    div, _ = _random_divisor(ctx, curve, rng)

    def run(mark):
        d = P.riemann_roch.ell(curve, div).dim
        w = P.riemann_roch.ell(curve, curve.canonical_divisor() - div).dim
        return d, w

    def check(dims):
        d, w = dims
        expect(d - w == div.degree + 1 - curve.genus, f"Riemann-Roch fails for {div!r}")

    return Job("ell", f"ell({curve.m},{curve.r}; {div!r})", 1, run, check)


def _pure_gap_query(ctx: Context, rng: random.Random) -> Job:
    P = ctx.mods
    m, r, n = rng.choice(PREDICATE_POOL)
    curve = ctx.curve(m, r)
    if rng.random() < 0.5:
        alpha = rng.choice(ctx.pure_gap_list(m, r, n))
    else:
        alpha = tuple(rng.randint(1, 2 * curve.genus) for _ in range(n))

    def run(mark):
        return P.riemann_roch.is_pure_gap(curve, alpha)

    def check(got):
        expect(got == (alpha in ctx.pure_gap_set(m, r, n)), f"is_pure_gap{alpha} = {got}")

    return Job("is_pure_gap", f"is_pure_gap({m},{r}; {alpha})", 1, run, check)


def _maximal_query(ctx: Context, rng: random.Random, kind: str) -> Job:
    P = ctx.mods
    m, r, n = rng.choice(PREDICATE_POOL)
    curve = ctx.curve(m, r)
    members = ctx.star(kind, m, r, n)
    if members and rng.random() < 0.5:
        alpha = rng.choice(members)
    else:
        alpha = tuple(rng.randint(1, 2 * curve.genus) for _ in range(n))
    name = f"is_{kind}_maximal"

    def run(mark):
        return getattr(P.riemann_roch, name)(curve, alpha)

    def check(got):
        expect(got == (alpha in set(members)), f"{name}{alpha} = {got}")

    return Job(name, f"{name}({m},{r}; {alpha})", 1, run, check)


def _discrepancy_job(ctx: Context, rng: random.Random) -> Job:
    P = ctx.mods
    curve = ctx.curve(*rng.choice(ELL_CURVES))
    div, places = _random_divisor(ctx, curve, rng)
    p1, p2 = rng.sample(places, 2)

    def run(mark):
        return P.riemann_roch.is_discrepancy(curve, div, p1, p2)

    def check(got):
        def dim(d):
            return P.riemann_roch.ell(curve, d).dim

        one, two = P.curves.Divisor({p1: 1}), P.curves.Divisor({p2: 1})
        want = dim(div) != dim(div - two) and dim(div - one) == dim(div - one - two)
        expect(got == want, f"is_discrepancy({div!r}, {p1}, {p2}) = {got}")

    return Job("is_discrepancy", f"is_discrepancy({curve.m},{curve.r}; {div!r})", 1, run, check)


def _period_job(ctx: Context, rng: random.Random) -> Job:
    P = ctx.mods
    curve = ctx.curve(*rng.choice(ELL_CURVES))
    i, j = rng.sample(range(1, curve.r + 1), 2)

    def run(mark):
        return P.riemann_roch.verify_period(curve, curve.place(i), curve.place(j))

    def check(got):
        expect(got == curve.m, f"period {got}, expected {curve.m}")

    return Job("verify_period", f"verify_period({curve.m},{curve.r}; {i},{j})", 1, run, check)


def _large_count_job(ctx: Context, rng: random.Random, n: int) -> Job:
    P = ctx.mods
    r, u = rng.randint(38, 42), rng.choice((1, 2))
    curve = ctx.curve(u * r + 1, r)

    def run(mark):
        return P.gapsets.pure_gap_count(curve, n)

    def check(got):
        want = P.gapsets.pure_gap_count_multiple_plus_one(curve, n, u)
        expect(got == want, f"count {got}, m = u*r + 1 form gives {want}")

    return Job(f"count-n{n}", f"pure_gap_count({curve.m},{r}; {n})", 1, run, check)


def _two_place_count_job(ctx: Context, rng: random.Random) -> Job:
    P = ctx.mods
    while True:
        m, r = rng.randint(5, 40), rng.randint(5, 40)
        if gcd(m, r) == 1:
            break
    curve = ctx.curve(m, r)

    def run(mark):
        return P.gapsets.pure_gap_count(curve, 2)

    def check(got):
        want = P.gapsets.pure_gap_count_two_places(curve)
        expect(got == want, f"count {got}, two-place form gives {want}")

    return Job("count-n2", f"pure_gap_count({m},{r}; 2)", 1, run, check)


def _small_count_job(ctx: Context, rng: random.Random) -> Job:
    P = ctx.mods
    m, r, n = rng.choice(COUNT_POOL)
    curve = ctx.curve(m, r)

    def run(mark):
        return P.gapsets.pure_gap_count(curve, n)

    def check(got):
        want = len(ctx.pure_gap_list(m, r, n))
        expect(got == want, f"count {got}, enumeration gives {want}")

    return Job("count-small", f"pure_gap_count({m},{r}; {n})", 1, run, check)


def _plot_job(ctx: Context, rng: random.Random) -> Job:
    P = ctx.mods
    m, r = rng.choice(PLOT_CURVES)
    curve = ctx.curve(m, r)

    def run(mark):
        return P.gapsets.plot_data(curve, 3)

    def check(data):
        total = sum(c.count for c in data.cubes)
        expect(total == len(ctx.pure_gap_list(m, r, 3)), f"cube counts sum to {total}")
        expect(list(data.relative_maximals) == ctx.star("relative", m, r, 3), "lambda_star points differ")

    return Job("plot_data", f"plot_data({m},{r})", 1, run, check)


def _star_job(ctx: Context, rng: random.Random, kind: str) -> Job:
    P = ctx.mods
    m, r, n = rng.choice(STAR_POOL)
    curve = ctx.curve(m, r)
    sample_seed = rng.getrandbits(32)
    name = "gamma_star" if kind == "absolute" else "lambda_star"

    def run(mark):
        return getattr(P.maximals, name)(curve, n)

    def check(got):
        expect(got == sorted(set(got)), f"{name} is not sorted and distinct")
        predicate = getattr(P.riemann_roch, f"is_{kind}_maximal")
        for t in random.Random(sample_seed).sample(got, min(8, len(got))):
            expect(predicate(curve, t), f"{t} fails is_{kind}_maximal")
        # The level-box family is a reference route that may move to another
        # module; the size is checked against it where it is found.
        family = getattr(P.maximals, f"{kind}_family", None)
        if family is not None:
            size = P.boxes.family_cardinality(family(curve, n), curve.genus)
            expect(len(got) == size, f"{name} has {len(got)} elements, the level-box family {size}")

    return Job(name, f"{name}({m},{r}; {n})", 1, run, check)


def _one_place_job(ctx: Context, rng: random.Random) -> Job:
    P = ctx.mods
    curve = ctx.curve(*rng.choice(ELL_CURVES))
    at_infinity = rng.random() < 0.5

    def run(mark):
        return P.maximals.h_one_place(curve, at_infinity=at_infinity)

    def check(res):
        place = P.curves.INFINITY if at_infinity else curve.place(1)
        expect(len(res.gaps) == curve.genus, f"{len(res.gaps)} gaps, genus {curve.genus}")
        for x in res.gaps:
            lo = P.riemann_roch.ell(curve, P.curves.Divisor({place: x - 1})).dim
            hi = P.riemann_roch.ell(curve, P.curves.Divisor({place: x})).dim
            expect(lo == hi, f"{x} is not a gap at {place}")

    return Job("h_one_place", f"h_one_place({curve.m},{curve.r}; inf={at_infinity})", 1, run, check)


def _codes_sweep_job(ctx: Context, rng: random.Random) -> Job:
    family, q, m, t = rng.choice(CODES_SWEEPS)
    fmt = rng.choice(CODES_FORMATS)
    argv = codes_argv(family, q, m, t, fmt)
    golden = ctx.golden["codes"][key(family, q, m, t, fmt)]

    def run(mark):
        return run_cli(ctx.mods.cli, argv, mark)

    def check(res):
        expect_cli_ok(res)
        expect(res.digest == golden, f"stdout digest {res.digest[:12]} differs from golden")

    return Job("codes-table", " ".join(argv), 1, run, check)


def _tables_job(ctx: Context, rng: random.Random) -> Job:
    P = ctx.mods

    def run(mark):
        return (P.codes.generate_tables(P.codes.HERMITIAN_SUBCOVER_ROWS),
                P.codes.generate_tables(P.codes.NORM_TRACE_LIKE_ROWS))

    def check(rows):
        expect(render_table(rows[0], with_t=False) == ctx.tables[0], "table 1 differs from table1.csv")
        expect(render_table(rows[1], with_t=True) == ctx.tables[1], "table 2 differs from table2.csv")

    return Job("generate_tables", "generate_tables(both tables)", 1, run, check)


# (number per round, job maker); the ell queries hold the median.
QUERY_MIX = (
    (24, _ell_job),
    (4, _pure_gap_query),
    (2, lambda ctx, rng: _maximal_query(ctx, rng, "absolute")),
    (2, lambda ctx, rng: _maximal_query(ctx, rng, "relative")),
    (2, _discrepancy_job),
    (2, _period_job),
    (2, _two_place_count_job),
    (2, _small_count_job),
    (1, _plot_job),
    (1, lambda ctx, rng: _star_job(ctx, rng, "absolute")),
    (1, lambda ctx, rng: _star_job(ctx, rng, "relative")),
    (2, _one_place_job),
    (1, _codes_sweep_job),
    (1, _tables_job),
)


def queries_round(ctx: Context, rng: random.Random, index: int) -> list[Job]:
    jobs = [make(ctx, rng) for count, make in QUERY_MIX for _ in range(count)]
    jobs += [_large_count_job(ctx, rng, n) for n in LARGE_COUNT_NS]
    rng.shuffle(jobs)
    return jobs


ROUNDS = {"stream": stream_round, "referee": referee_round, "queries": queries_round}
