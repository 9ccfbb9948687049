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
from typing import Sequence

from . import codes as codes_mod
from . import gapsets, maximals
from .boxes import pure_gaps_from_family
from .curves import KummerCurve
from .errors import DegreeWindowError, NOutOfRangeError
from .riemann_roch import pure_gap_box_scan

_CHUNK_LINES = 1024  # tuples per write of the pure-gaps stream, in any format


def _curve_from(args) -> KummerCurve:
    return KummerCurve(args.m, args.r, args.lam)


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

    Each block of gapsets.pure_gap_blocks is one prefix rendered once as head,
    joined with the memoized strings of its last coordinates: head + "t\n"
    a line, or "[" + prefix + ", " + "t]" a JSON element.  The JSON bytes are
    those of json.dumps([list(t) for t in pure_gaps(curve, n)]), written in
    chunks like the lines, so memory stays bounded by a chunk and the block
    memo.  A chunk is whole blocks of at least _CHUNK_LINES tuples.
    """
    if fmt == "json":
        sep, opener, between, closer, leaf = ", ", "[", ", ", "]\n", "%d]"
    else:
        sep, opener, between, closer, leaf = ("," if fmt == "csv" else " "), "", "", "", "%d\n"
    chunk, lines, lead = [], 0, opener  # lead goes before the next block
    for prefix, tails in gapsets.pure_gap_blocks(curve, n, leaf.__mod__):
        head = opener + sep.join(map(str, prefix)) + sep
        chunk.append(lead + head + (between + head).join(tails))
        lead = between
        lines += len(tails)
        if lines >= _CHUNK_LINES:
            sys.stdout.write("".join(chunk))
            chunk, lines = [], 0
    if lead == opener:  # no block: JSON still prints its empty list
        chunk.append(opener)
    sys.stdout.write("".join(chunk) + closer)


def cmd_info(args) -> int:
    curve = _curve_from(args)
    if args.format == "json":
        payload = {
            "curve": curve.to_json(),
            "period": curve.period,
            "canonical_degree": 2 * curve.genus - 2,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"Kummer curve: m={curve.m}, r={curve.r}, lambda={curve.lam}")
        print(f"genus {curve.genus}, period {curve.period}")
        print(f"canonical divisor: {curve.canonical_divisor()!r} (degree {2 * curve.genus - 2})")
    return 0


def cmd_gaps(args) -> int:
    curve = _curve_from(args)
    result = maximals.h_one_place(curve, at_infinity=args.at_infinity)
    where = "P_inf" if result.at_infinity else "a ramified place"
    if args.format == "json":
        payload = {
            "curve": curve.to_json(),
            "place": "infinity" if result.at_infinity else "ramified",
            "count": len(result.gaps),
            "gaps": list(result.gaps),
        }
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        for x in result.gaps:
            print(x)
    else:
        print(f"{len(result.gaps)} gaps at {where}: " + " ".join(map(str, result.gaps)))
    return 0


def cmd_pure_gaps(args) -> int:
    curve = _curve_from(args)
    n, _ = _places_count(args, curve)
    if args.count:
        print(gapsets.pure_gap_count(curve, n))
        return 0
    _emit_pure_gaps(curve, n, args.format)
    return 0


def cmd_maximals(args) -> int:
    curve = _curve_from(args)
    n, _ = _places_count(args, curve)
    if args.box:
        if args.kind == "absolute":
            elems = maximals.gamma_hat_box(curve, n)
        else:
            elems = maximals.lambda_hat_box(curve, n)
        if not args.include_negative:
            elems = [e for e in elems if e[0] >= 0]
    else:
        if args.kind == "absolute":
            elems = maximals.gamma_star(curve, n)
        else:
            elems = maximals.lambda_star(curve, n)
    if args.format == "json":
        payload = {
            "curve": curve.to_json(),
            "n": n,
            "kind": args.kind,
            "set": [list(t) for t in elems],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        sep = "," if args.format == "csv" else " "
        sys.stdout.writelines(sep.join(map(str, t)) + "\n" for t in elems)
    return 0


def cmd_verify(args) -> int:
    curve = _curve_from(args)
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
    if args.format == "json":
        payload = {
            "curve": curve.to_json(),
            "n": n,
            "box": box,
            "ok": agreed,
            "routes": {name: len(route) for name, route in sorted(routes.items())},
        }
        print(json.dumps(payload, sort_keys=True))
    elif agreed:
        count = len(enumerated)
        print(f"OK: enumeration matches oracle ({count} pure gap{'s' if count != 1 else ''})")
    else:
        sizes = ", ".join(f"{name}={len(route)}" for name, route in sorted(routes.items()))
        print(f"MISMATCH: routes disagree ({sizes})", file=sys.stderr)
    return 0 if agreed else 1


def cmd_codes_table(args) -> int:
    if args.family == "hermitian-subcover" and args.t is not None:
        raise ValueError("--t applies only to the norm-trace-like family")
    if args.family == "norm-trace-like" and args.t is None:
        raise ValueError("the norm-trace-like family needs --t")
    curve, points = codes_mod.family_curve_points(args.family, args.q, args.m, args.t)
    if args.n is not None:
        maximals._require_places(curve, args.n)

    with_gaps = [n for n in range(2, curve.r + 1) if gapsets.max_level(curve, n) >= 0]
    ns = [args.n] if args.n is not None else with_gaps
    sweeping = args.n is None or args.k is None
    rows = []
    for n in ns:
        top = gapsets.max_level(curve, n)
        for k in [args.k] if args.k is not None else range(top + 1):
            if k > top:
                raise ValueError(f"level k={k} has no pure gaps for n={n} on this curve")
            # every box sum from n up occurs; sweeps skip the unprofitable ones rather than abort
            box = gapsets.b_k(curve, n, k)
            a_values = tuple(range(n, sum(box.bounds) + 1))
            spec = codes_mod.TableRowSpec(args.family, args.q, args.m, n, k, a_values, t=args.t)
            rows += codes_mod._cell_rows(spec, curve, points, box, sweep=sweeping)

    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        print("N,kdim,dlb,degG,ratesum")
        for row in rows:
            print(f"{row['N']},{row['kdim']},{row['dlb']},{row['degG']},{row['ratesum']}")
    return 0


def cmd_plot_data(args) -> int:
    curve = _curve_from(args)
    data = gapsets.plot_data(curve, args.n)
    if args.format == "text":
        for cube in data.cubes:
            print(f"class {cube.level}: origin {cube.origin} side {cube.side} count {cube.count}")
        print(f"lambda_star points: {len(data.relative_maximals)}")
    else:
        print(json.dumps(data.to_json(), sort_keys=True))
    return 0


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
    except (NOutOfRangeError, DegreeWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
