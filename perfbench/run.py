"""Benchmark of the puregaps package: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream|referee|queries --seed N \
        --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout.  Jobs run in this
single process and thread; CLI verbs run in process through
``puregaps.cli.main(argv)`` with stdout replaced by a hashing byte sink.  The
harness runs whole rounds of the workload until the timed job time reaches S
seconds, checks every job outside its timed region, and prints one JSON object
as its last line.  It exits 1 when a check fails, and 2 when the sources or
the bundled tables are missing.

With ``--trace 0`` the metrics are the end-to-end ones.  ``setup_s`` is the
median of set-up samples spread over the run: each re-imports the package
from scratch and builds the CLI parser, which is the program's own share of
the time from interpreter start to the first job.

Host speed on a shared machine swings by tens of percent, within seconds and
between runs.  A fixed pure-Python probe, independent of the program, is timed
120 times a run, evenly over the timed job time, and every timing is scaled
to a reference host speed (the probe taking PROBE_REF_NS) by the probe
readings interpolated over that job.  A job's time follows the probe's in proportion, so
the scaled figures hold still where the raw ones do not.  The raw figures and
the median probe time are printed, ungated, on the line before the result, so
host drift can be told apart from a change in the program.

With ``--trace 1`` every round runs twice, untraced then traced, and the
metrics are the per-layer ones of ``layers.py``, per traced round, with the
tracing overhead as traced over untraced ``items_per_s``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter_ns
from typing import NamedTuple

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TABLES = (ROOT / "tests" / "data" / "table1.csv", ROOT / "tests" / "data" / "table2.csv")
GOLDEN = Path(__file__).resolve().parent / "golden.json"
PROBES = 120  # host probes per run, evenly spaced in timed job time; every other one follows a set-up sample
PROBE_REF_NS = 10_000_000  # the probe time at the reference host speed that timings are scaled to
MAX_REPORTED_FAILURES = 20


class SetupError(Exception):
    """The checkout lacks what the benchmark needs."""


def import_package() -> types.SimpleNamespace:
    """Import puregaps and its modules from src/ of this checkout."""
    if not (SRC / "puregaps" / "__init__.py").is_file():
        raise SetupError(f"no puregaps package under {SRC}")
    os.environ.pop("PUREGAPS_THREADS", None)  # the CLI's thread default stays 1
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("puregaps")
    if Path(package.__file__).resolve().parent != (SRC / "puregaps").resolve():
        raise SetupError(f"puregaps was imported from {package.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"puregaps.{name}") for name in layers.MODULES}
    return types.SimpleNamespace(package=package, **mods)


def setup_sample_ns() -> int:
    """Time one fresh import of the package plus the CLI parser, then restore the modules."""
    def ours(name):
        return name == "puregaps" or name.startswith("puregaps.")

    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        t0 = perf_counter_ns()
        for name in layers.MODULES:
            importlib.import_module(f"puregaps.{name}")
        sys.modules["puregaps.cli"].build_parser()
        return perf_counter_ns() - t0
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()  # the discarded copies are cyclic garbage; keep it out of the jobs


def host_probe_ns() -> int:
    """A fixed pure-Python mix of tuple, dict, compare and sort work, independent of the program.

    The collector is off so that the program's heap cannot slow the probe.
    """
    gc.disable()
    t0 = perf_counter_ns()
    seen: dict = {}
    kept = []
    for i in range(20_000):
        t = (i % 89, i // 7 % 61, i * 31 % 101)
        seen[t] = seen.get(t, 0) + 1
        if t < (44, 30, 50):
            kept.append(t)
    kept.sort()
    elapsed = perf_counter_ns() - t0
    gc.enable()
    return elapsed


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "puregaps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Timing(NamedTuple):
    start: int  # position of the job's start on the timed axis
    latency: int
    first: int
    items: int
    kind: str
    traced: bool


class Timeline:
    """Job timings and host-probe readings, placed on the axis of timed job time.

    Host speed swings by tens of percent within seconds and between runs, and
    a job's time follows the probe's in proportion.  So each timing is scaled
    to the reference speed by the probe readings, interpolated linearly and
    averaged over the job, and the raw figures are reported beside the scaled
    ones.
    """

    def __init__(self):
        self.timed_ns = 0
        self.probes: list[tuple[int, int]] = []  # (position, probe ns), positions ascending
        self.jobs: list[Timing] = []

    def probe(self) -> int:
        value = host_probe_ns()
        self.probes.append((self.timed_ns, value))
        return value

    def add(self, latency: int, first: int, items: int, kind: str, traced: bool) -> None:
        self.jobs.append(Timing(self.timed_ns, latency, first, items, kind, traced))
        self.timed_ns += latency

    def _probe_at(self, x: float) -> float:
        points = self.probes
        i = bisect.bisect_left(points, (x,))
        if i == 0:
            return points[0][1]
        if i == len(points):
            return points[-1][1]
        (x0, y0), (x1, y1) = points[i - 1], points[i]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def scale(self, job: Timing) -> float:
        """PROBE_REF_NS over the mean interpolated probe reading during the job."""
        a, b = job.start, job.start + job.latency
        if b <= a:
            return PROBE_REF_NS / self._probe_at(a)
        inner = self.probes[bisect.bisect_right(self.probes, (a, math.inf)):bisect.bisect_left(self.probes, (b,))]
        xs = [a] + [x for x, _ in inner] + [b]
        ys = [self._probe_at(x) for x in xs]
        area = sum((y0 + y1) / 2 * (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))
        return PROBE_REF_NS * (b - a) / area

    def summary(self, traced: bool, scaled: bool) -> dict[str, float]:
        jobs = [j for j in self.jobs if j.traced == traced]
        scales = [self.scale(j) if scaled else 1.0 for j in jobs]
        latency = [j.latency * k for j, k in zip(jobs, scales)]
        first = [j.first * k for j, k in zip(jobs, scales)]
        return {
            "items_per_s": sum(j.items for j in jobs) / (sum(latency) / 1e9),
            "job_p50_ms": statistics.median(latency) / 1e6,
            "job_p90_ms": statistics.quantiles(latency, n=10)[8] / 1e6,
            "first_item_ms": statistics.median(first) / 1e6,
        }


def run_job(job: workloads.Job, rec: layers.Recorder | None, timeline: Timeline):
    first = 0

    def mark():
        nonlocal first
        if not first:
            first = perf_counter_ns()

    err = None
    out = None
    if rec is not None:
        rec.on = True
        frame = rec.enter("bench")
    t0 = perf_counter_ns()
    try:
        out = job.run(mark)
    except Exception as exc:  # a failed job is counted, and the run goes on
        err = exc
    t1 = perf_counter_ns()
    if rec is not None:
        rec.leave(frame, failed=err is not None)
        rec.on = False
        rec.work["cli.bytes_out"] += getattr(out, "nbytes", 0)
    timeline.add(t1 - t0, (first or t1) - t0, job.items, job.kind, rec is not None)
    return out, err


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        mods = import_package()
        golden = json.loads(GOLDEN.read_text())
        tables = tuple(path.read_text() for path in TABLES)
    except (SetupError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    ctx = workloads.Context(mods, golden, tables)
    make_round = workloads.ROUNDS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    tracer = layers.Tracer(mods.package, vars(mods)) if args.trace else None
    timeline = Timeline()
    setups: list[tuple[int, int]] = []  # (set-up ns, probe ns right after it)
    budget_ns = int(args.seconds * 1e9)
    next_probe_ns = 0
    rounds = attempted = failed = 0

    while rounds == 0 or timeline.timed_ns < budget_ns:
        jobs = make_round(ctx, rng, rounds)
        for tracing in (False, True) if tracer else (False,):
            if tracing:
                tracer.install()
            try:
                for job in jobs:
                    if timeline.timed_ns >= next_probe_ns:
                        if not tracer and len(timeline.probes) % 2 == 0:
                            setups.append((setup_sample_ns(), timeline.probe()))
                        else:
                            timeline.probe()
                        next_probe_ns += budget_ns // PROBES
                    out, err = run_job(job, tracer.rec if tracing else None, timeline)
                    attempted += 1
                    if err is None:
                        try:
                            job.check(out)
                        except Exception as exc:  # noqa: BLE001 - every check failure is reported
                            err = exc
                    del out
                    if err is not None:
                        failed += 1
                        if failed <= MAX_REPORTED_FAILURES:
                            print(f"FAILED {job.kind}: {job.label}: {err!r}", file=sys.stderr)
                            if not isinstance(err, workloads.CheckFailed):
                                traceback.print_exception(err, file=sys.stderr)
            finally:
                if tracing:
                    tracer.uninstall()
        rounds += 1
    timeline.probe()

    untraced = [j for j in timeline.jobs if not j.traced]
    kinds: dict[str, list[int]] = {}
    for j in untraced:
        kinds.setdefault(j.kind, []).append(j.latency)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "rounds": rounds,
        "failed_frac": failed / attempted,
        "latency_samples": len(untraced),
        "p90_tail_samples": len(untraced) // 10,
        "setup_samples": len(setups),
        "host_probe_ms": statistics.median(p for _, p in timeline.probes) / 1e6,
        "host_probe_samples": len(timeline.probes),
        "raw_kind_p50_ms": {kind: statistics.median(ns) / 1e6 for kind, ns in sorted(kinds.items())},
    }

    if tracer:
        traced = timeline.summary(traced=True, scaled=False)
        metrics = tracer.metrics(rounds)
        metrics["bench.trace_overhead"] = (
            traced["items_per_s"] / timeline.summary(traced=False, scaled=False)["items_per_s"]
        )
        metrics["bench.latency_samples"] = len(timeline.jobs) - len(untraced)
        metrics["bench.p90_tail_samples"] = metrics["bench.latency_samples"] // 10
        diagnostics["absent"] = tracer.absent
        units = PER_LAYER_UNITS
    else:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw = timeline.summary(traced=False, scaled=False)
        raw["setup_s"] = statistics.median(s for s, _ in setups) / 1e9
        diagnostics["raw"] = raw
        metrics = timeline.summary(traced=False, scaled=True)
        metrics["setup_s"] = statistics.median(s * PROBE_REF_NS / p for s, p in setups) / 1e9
        metrics["peak_rss_mib"] = peak_rss_mib
        units = END_TO_END_UNITS
    print(json.dumps({"diagnostics": diagnostics}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "first_item_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    **{f"{layer}.{m}": "s/round" if m == "self_s" else "count/round"
       for layer in layers.MODULES for m in layers.PER_LAYER},
    **{name: "count/round" for name in layers.WORK_METRICS},
    "riemann_roch.useful_ratio": "ratio",
    "cli.bytes_out": "bytes/round",
    "bench.self_s": "s/round",
    "bench.trace_overhead": "ratio",
    "bench.latency_samples": "count",
    "bench.p90_tail_samples": "count",
}

if __name__ == "__main__":
    sys.exit(main())
