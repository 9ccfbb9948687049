"""Command line front end.

Verbs: info, gaps, pure-gaps, maximals, verify, codes, plot-data.  Output is
deterministic (sorted, no timestamps); exit codes are 0 on success, 2 on
validation/usage errors, 3 on domain errors (place-count window, degree
window), 1 when a verification run finds disagreeing routes, 141 when the
reader of stdout goes away early (a broken pipe, e.g. ``| head``), and 130 on
Ctrl-C.  The last two print no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterable, Sequence

from . import codes as codes_mod
from . import gapsets, maximals
from .boxes import pure_gaps_from_family
from .curves import KummerCurve
from .errors import DegreeWindowError, NOutOfRangeError
from .riemann_roch import pure_gap_box_scan

_CHUNK_LINES = 1024  # tuples per write of the pure-gaps stream, in any format


def _branch_indices(text: str) -> list[int]:
    """The --places value: comma-separated 1-based branch indices."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wants comma-separated branch indices, e.g. 2,4; got {text!r}"
        ) from None


def _places_count(args, curve: KummerCurve) -> tuple[int, list[int]]:
    """Resolve --n / --places into (n, 1-based indices)."""
    if getattr(args, "places", None):
        idx = args.places
        if len(set(idx)) != len(idx):
            raise ValueError("--places entries must be distinct")
        for j in idx:
            if not 1 <= j <= curve.r:
                raise ValueError(f"--places entries must lie in 1..{curve.r}, got {j}")
        if args.n is not None and args.n != len(idx):
            raise ValueError("--n disagrees with the number of --places entries")
        return len(idx), idx
    n = args.n if args.n is not None else 2
    return n, list(range(1, n + 1))


def _emit_pure_gaps(curve: KummerCurve, n: int, fmt: str) -> None:
    """The pure-gap stream in text, csv or JSON, rendered a block at a time.

    Each row of gapsets.pure_gap_blocks renders its (n-2)-prefix once, and
    each (t, block) in it adds the memoized t + sep to make the head, joined
    with the memoized strings of the last coordinates: head + "u\n" a line,
    or head + "u]" a JSON element, its head opened by "[".  The JSON bytes
    are those of json.dumps([list(t) for t in pure_gaps(curve, n)]), written
    in chunks like the lines, so memory stays bounded by a chunk, the block
    memo and one block list per kept row class.  A chunk is whole blocks of
    at least _CHUNK_LINES tuples, checked after every block.
    """
    if fmt == "json":
        sep, opener, between, closer, leaf = ", ", "[", ", ", "]\n", "%d]"
    else:
        sep, opener, between, closer, leaf = ("," if fmt == "csv" else " "), "", "", "", "%d\n"
    mids = [f"{t}{sep}" for t in range((gapsets.max_level(curve, n) + 1) * curve.m)]
    chunk, lines, lead = [], 0, opener  # lead goes before the next block
    for prefix, row in gapsets.pure_gap_blocks(curve, n, leaf.__mod__):
        start = opener + "".join(map(mids.__getitem__, prefix))
        for t, tails in row:
            head = start + mids[t]
            chunk.append(lead + head + (between + head).join(tails))
            lead = between
            lines += len(tails)
            if lines >= _CHUNK_LINES:
                sys.stdout.write("".join(chunk))
                chunk, lines = [], 0
    if lead == opener:  # no block: JSON still prints its empty list
        chunk.append(opener)
    sys.stdout.write("".join(chunk) + closer)


def _emit(fmt: str, payload=None, lines: Iterable = ()) -> int:
    """Write a verb's output: payload as one sorted JSON line for json, else each of lines."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return 0


def cmd_info(args) -> int:
    curve = KummerCurve(args.m, args.r, args.lam)
    degree = 2 * curve.genus - 2
    if args.format == "json":
        payload = {"curve": curve.to_json(), "period": curve.period, "canonical_degree": degree}
        return _emit("json", payload)
    return _emit("text", lines=[
        f"Kummer curve: m={curve.m}, r={curve.r}, lambda={curve.lam}",
        f"genus {curve.genus}, period {curve.period}",
        f"canonical divisor: {curve.canonical_divisor()!r} (degree {degree})",
    ])


def cmd_gaps(args) -> int:
    curve = KummerCurve(args.m, args.r, args.lam)
    gaps = maximals.h_one_place(curve, at_infinity=args.at_infinity).gaps
    if args.format == "json":
        place = "infinity" if args.at_infinity else "ramified"
        payload = {"curve": curve.to_json(), "place": place, "count": len(gaps), "gaps": gaps}
        return _emit("json", payload)
    if args.format == "csv":
        return _emit("csv", lines=gaps)
    where = "P_inf" if args.at_infinity else "a ramified place"
    return _emit("text", lines=[f"{len(gaps)} gaps at {where}: " + " ".join(map(str, gaps))])


def cmd_pure_gaps(args) -> int:
    curve = KummerCurve(args.m, args.r, args.lam)
    n, _ = _places_count(args, curve)
    if args.count:
        return _emit("text", lines=[gapsets.pure_gap_count(curve, n)])
    _emit_pure_gaps(curve, n, args.format)
    return 0


_MAXIMAL_SETS = {  # (--kind, --box): the set the maximals verb prints
    ("absolute", False): maximals.gamma_star, ("relative", False): maximals.lambda_star,
    ("absolute", True): maximals.gamma_hat_box, ("relative", True): maximals.lambda_hat_box,
}


def cmd_maximals(args) -> int:
    curve = KummerCurve(args.m, args.r, args.lam)
    n, _ = _places_count(args, curve)
    elems = _MAXIMAL_SETS[args.kind, args.box](curve, n)
    if args.box and not args.include_negative:
        elems = [e for e in elems if e[0] >= 0]
    if args.format == "json":
        return _emit("json", {"curve": curve.to_json(), "n": n, "kind": args.kind, "set": elems})
    sep = "," if args.format == "csv" else " "
    return _emit(args.format, lines=(sep.join(map(str, t)) for t in elems))


def cmd_verify(args) -> int:
    curve = KummerCurve(args.m, args.r, args.lam)
    n, idx = _places_count(args, curve)
    maximals._require_places(curve, n)
    places = tuple(curve.place(j) for j in idx)
    box = args.max_box if args.max_box is not None else 2 * curve.genus

    enumerated = list(gapsets.pure_gaps(curve, n, box))
    oracle = pure_gap_box_scan(curve, places, box_max=box)
    routes = {"enumeration": enumerated, "oracle": oracle}
    if maximals._in_window(curve, n):
        routes["glb"] = pure_gaps_from_family(maximals.relative_family(curve, n), box)
    agreed = all(route == enumerated for route in routes.values())
    sizes = {name: len(route) for name, route in sorted(routes.items())}
    if args.format == "json":
        _emit("json", {"curve": curve.to_json(), "n": n, "box": box, "ok": agreed, "routes": sizes})
    elif agreed:
        count = len(enumerated)
        plural = "s" if count != 1 else ""
        _emit("text", lines=[f"OK: enumeration matches oracle ({count} pure gap{plural})"])
    else:
        listed = ", ".join(f"{name}={size}" for name, size in sizes.items())
        print(f"MISMATCH: routes disagree ({listed})", file=sys.stderr)
    return 0 if agreed else 1


def cmd_codes_table(args) -> int:
    curve, points = codes_mod.family_curve_points(args.family, args.q, args.m, args.t)
    if args.n is not None:
        maximals._require_places(curve, args.n)
    # the (n, k) cells: a sweep keeps those it has, and naming both --n and --k names one cell
    cells = [
        (n, k)
        for n in ([args.n] if args.n is not None else range(2, curve.r + 1))
        for k in ([args.k] if args.k is not None else range(gapsets.max_level(curve, n) + 1))
    ]
    sweeping = args.n is None or args.k is None
    rows = []
    for n, k in cells:
        box = gapsets.b_k(curve, n, k)
        if box.empty:
            if sweeping:
                continue
            raise ValueError(f"level k={k} has no pure gaps for n={n} on this curve")
        # every box sum from n up occurs; sweeps skip the unprofitable ones rather than abort
        a_values = tuple(range(n, sum(box.bounds) + 1))
        spec = codes_mod.TableRowSpec(args.family, args.q, args.m, n, k, a_values, t=args.t)
        rows += codes_mod._cell_rows(spec, curve, points, box, sweep=sweeping)
    if args.format == "json":
        return _emit("json", rows)
    cols = ("N", "kdim", "dlb", "degG", "ratesum")
    return _emit("csv", lines=[",".join(cols)] + [",".join(str(r[c]) for c in cols) for r in rows])


def cmd_plot_data(args) -> int:
    data = gapsets.plot_data(KummerCurve(args.m, args.r, args.lam), args.n)
    if args.format == "json":
        return _emit("json", data.to_json())
    lines = [f"class {c.level}: origin {c.origin} side {c.side} count {c.count}"
             for c in data.cubes]
    return _emit("text", lines=lines + [f"lambda_star points: {len(data.relative_maximals)}"])


def _add_curve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True, help="Kummer exponent m >= 2")
    p.add_argument("--r", type=int, required=True, help="number of branch places r >= 2")
    p.add_argument("--lam", type=int, default=1, help="branch multiplicity (default 1)")


def _add_places_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="number of places (default 2)")
    p.add_argument(
        "--places", type=_branch_indices, default=None,
        help="comma-separated branch indices, e.g. 1,2,3",
    )


@functools.cache  # built once per process; argparse reads the terminal width only when it prints
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puregaps",
        description="Pure gaps, maximal elements, and AG-code parameters on Kummer curves.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", help="curve invariants")
    _add_curve_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("gaps", help="one-place gap set")
    _add_curve_flags(p)
    p.add_argument("--at-infinity", action="store_true", help="gaps at P_inf instead")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("pure-gaps", help="pure gaps at several places")
    _add_curve_flags(p)
    _add_places_flags(p)
    p.add_argument("--count", action="store_true", help="print the exact count only")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_pure_gaps)

    p = sub.add_parser("maximals", help="absolute/relative maximal elements")
    _add_curve_flags(p)
    _add_places_flags(p)
    p.add_argument("--kind", choices=("absolute", "relative"), required=True)
    p.add_argument("--box", action="store_true", help="fundamental-window set instead of the positive set")
    p.add_argument(
        "--include-negative",
        action="store_true",
        help="with --box, keep elements whose first coordinate is negative",
    )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_maximals)

    p = sub.add_parser("verify", help="cross-check enumeration, glb route, and the ell oracle")
    _add_curve_flags(p)
    _add_places_flags(p)
    p.add_argument("--max-box", type=int, default=None, help="comparison window edge (default 2g)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("codes", help="AG-code parameter tables")
    codes_sub = p.add_subparsers(dest="codes_verb", required=True)
    pt = codes_sub.add_parser("table", help="parameter rows for one curve family instance")
    pt.add_argument("--family", choices=("hermitian-subcover", "norm-trace-like"), required=True)
    pt.add_argument("--q", type=int, required=True)
    pt.add_argument("--m", type=int, required=True)
    pt.add_argument("--t", type=int, default=None, help="extension degree (norm-trace-like only)")
    pt.add_argument("--n", type=int, default=None, help="restrict to one place count")
    pt.add_argument("--k", type=int, default=None, help="restrict to one level")
    pt.add_argument("--format", choices=("csv", "json"), default="csv")
    pt.set_defaults(func=cmd_codes_table)

    p = sub.add_parser("plot-data", help="cube inventory of the n=3 pure-gap diagram")
    _add_curve_flags(p)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_plot_data)

    return parser


def _run(argv: Sequence[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        code = args.func(args)
    except ValueError as exc:  # the domain errors are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (NOutOfRangeError, DegreeWindowError)) else 2
    sys.stdout.flush()  # a closed reader shows up here, not at interpreter exit
    return code


def _silence_stdout() -> None:
    """Point stdout's descriptor at the null device, so the flush at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return  # not backed by a descriptor, so nothing is flushed at exit either
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        _silence_stdout()
        return 141
    except KeyboardInterrupt:
        return 130


def console_entry() -> None:
    sys.exit(main())
