"""Command line interface."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bridgeland import exceptional_pair_wall, render_walls
from .contfrac import cf_expand_even, check_exceptional_cf
from .exactnum import fraction_str, parse_fraction
from .exceptional import epsilon
from .resolution import collapsing_wall, gaeta_resolution
from .stability import min_slope
from .verify import DEFAULT_DEPTHS, format_report, run_suite


def cmd_table(n_min: int, n_max: int, fmt: str = "csv") -> str:
    """Minimal-slope table rows for n_min..n_max in csv, json, or md form."""
    if n_min < 2 or n_min > n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        ms = min_slope(n)
        rows.append((n, fraction_str(ms.associated.value), fraction_str(ms.mu)))
    if fmt == "csv":
        lines = ["n,alpha,mu"]
        lines.extend("%d,%s,%s" % row for row in rows)
        return "\n".join(lines)
    if fmt == "json":
        return "\n".join(
            json.dumps({"n": n, "alpha": a, "mu": m}, separators=(",", ":"))
            for n, a, m in rows
        )
    if fmt == "md":
        lines = ["| n | alpha | mu |", "| --- | --- | --- |"]
        lines.extend("| %d | %s | %s |" % row for row in rows)
        return "\n".join(lines)
    raise ValueError("unknown table format %r" % fmt)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(text)


def _digit_count(k: int) -> int:
    """The number of decimal digits of the int k > 0, counted without printing k."""
    d = int(math.log10(k)) + 1
    if k >= 10**d:
        return d + 1
    return d - 1 if k < 10 ** (d - 1) else d


def _cmd_epsilon(args) -> int:
    slope = epsilon((args.p, args.q))
    # the interpreter refuses to print an int of more than this many digits (0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    c, r = slope.value.numerator, slope.rank
    # every int either mode prints is at most one of these: the interval ends'
    # numerators 2c -+ 3r and radicand 9r^2 - 4 bound the value and the discriminant
    longest = _digit_count(max(2 * abs(c) + 3 * r, abs(slope.euler), 9 * r * r))
    if limit and longest > limit:
        raise ValueError(
            "the slope at address %d/2^%d is too large to print: its rank has %d digits"
            " and its invariants up to %d, over this interpreter's limit of %d digits per int"
            % (slope.address.p, slope.address.q, _digit_count(r), longest, limit)
        )
    left, right = slope.interval()
    text = "\n".join(
        [
            "value %s" % fraction_str(slope.value),
            "address %d/2^%d" % (slope.address.p, slope.address.q),
            "rank %d" % slope.rank,
            "discriminant %s" % fraction_str(slope.discriminant),
            "euler %d" % slope.euler,
            "interval (%s, %s)" % (float(left), float(right)),
        ]
    )
    _emit(args, slope.to_json(), text)
    return 0


def _cmd_cf(args) -> int:
    value = parse_fraction(args.value)
    cf = cf_expand_even(value - (value.numerator // value.denominator))
    report = check_exceptional_cf(value)
    lines = ["%s fractional part expands to %s" % (fraction_str(value), cf)]
    lines.extend("%s %s" % (key, val) for key, val in report.items())
    payload = {"value": fraction_str(value), "cf": cf.to_json(), "report": report}
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_slope(args) -> int:
    ms = min_slope(args.n)
    text = "\n".join(
        [
            "n %d" % ms.n,
            "mu %s" % fraction_str(ms.mu),
            "lambda %s" % fraction_str(ms.lam),
            "alpha %s" % fraction_str(ms.associated.value),
            "case %s" % ms.case,
        ]
    )
    _emit(args, ms.to_json(), text)
    return 0


def _format_sequence(terms) -> str:
    return "0 -> " + " -> ".join(t.label for t in terms) + " -> 0"


def _cmd_resolution(args) -> int:
    res = gaeta_resolution(args.n)
    lines = [
        "n %d" % res.n,
        "mu %s" % fraction_str(res.mu),
        "case %s%s" % (res.case, " (sporadic)" if res.sporadic else ""),
        "dot slope %s = %s . %s"
        % (
            fraction_str(res.dot_slope.value),
            fraction_str(res.alpha.value),
            fraction_str(res.beta.value),
        ),
        "multiplicities m1=%d m2=%d m3=%d" % (res.m1, res.m2, res.m3),
    ]
    if res.w_sequence:
        lines.append("W sequence: %s" % _format_sequence(res.w_sequence))
    lines.append("ideal sequence: %s" % _format_sequence(res.iz_sequence))
    _emit(args, res.to_json(), "\n".join(lines))
    return 0


def _cmd_walls(args) -> int:
    extras = []
    for pair_text in args.pairs or ():
        parts = pair_text.split(",")
        if len(parts) != 2:
            raise ValueError("--pairs expects two comma-separated slopes")
        extras.append(
            exceptional_pair_wall(parse_fraction(parts[0]), parse_fraction(parts[1]))
        )
    wall = collapsing_wall(args.n)
    lines = [
        "collapsing wall center %s radius_sq %s"
        % (fraction_str(wall.center_s), fraction_str(wall.radius_sq))
    ]
    for extra in extras:
        lines.append(
            "pair wall center %s radius_sq %s"
            % (fraction_str(extra.center_s), fraction_str(extra.radius_sq))
        )
    payload = {
        "collapsing": wall.to_json(),
        "pairs": [w.to_json() for w in extras],
    }
    if args.svg:
        document = render_walls([wall, *extras])
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(document)
        lines.append("wrote %s" % args.svg)
        payload["svg"] = args.svg
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_table(args) -> int:
    print(cmd_table(args.n_min, args.n_max, args.format))
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, args.depth)
    text, code = format_report(results)
    print(text)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planecone",
        description="Exact arithmetic for exceptional bundles on the plane "
        "and the effective cone of points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eps = sub.add_parser("epsilon", help="exceptional slope at a dyadic address")
    p_eps.add_argument("--p", type=int, required=True)
    p_eps.add_argument("--q", type=int, required=True)
    p_eps.add_argument("--json", action="store_true")
    p_eps.set_defaults(func=_cmd_epsilon)

    p_cf = sub.add_parser("cf", help="even continued fraction and structure flags")
    p_cf.add_argument("--value", required=True, help="rational like 5/13")
    p_cf.add_argument("--json", action="store_true")
    p_cf.set_defaults(func=_cmd_cf)

    p_slope = sub.add_parser("slope", help="minimal slope for n general points")
    p_slope.add_argument("--n", type=int, required=True)
    p_slope.add_argument("--json", action="store_true")
    p_slope.set_defaults(func=_cmd_slope)

    p_res = sub.add_parser("resolution", help="generalized point resolution")
    p_res.add_argument("--n", type=int, required=True)
    p_res.add_argument("--json", action="store_true")
    p_res.set_defaults(func=_cmd_resolution)

    p_walls = sub.add_parser("walls", help="collapsing wall and optional pair walls")
    p_walls.add_argument("--n", type=int, required=True)
    p_walls.add_argument(
        "--pairs", action="append", metavar="A,B", help="exceptional pair wall slopes"
    )
    p_walls.add_argument("--svg", help="write an SVG rendering to this path")
    p_walls.add_argument("--json", action="store_true")
    p_walls.set_defaults(func=_cmd_walls)

    p_table = sub.add_parser("table", help="minimal slope table over a range of n")
    p_table.add_argument("n_min", type=int)
    p_table.add_argument("n_max", type=int)
    p_table.add_argument("--format", choices=("csv", "json", "md"), default="csv")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(DEFAULT_DEPTHS) + ["all"])
    p_verify.add_argument("--depth", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # flush here so a reader that closed the pipe raises inside this try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        # OSError, such as an unwritable --svg path, comes after its subclass BrokenPipeError
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
