"""Command-line front end.

Subcommands: count (closed totals), series (exact expansions), render
(SVG/TikZ figures), verify (the full cross-validation suite), and oeis
(b-file comparison).  All numeric output is exact decimal text; given
the same arguments every command prints the same bytes.

Each command imports the layers it runs inside its own function, so a
start-up pays only for the route that the command takes.
"""

from __future__ import annotations

import argparse
import sys

from . import RENDER_MODES

DEFAULT_ORDER = 64

# Resource bounds on CLI input, so that a typo cannot run for hours or
# allocate gigabytes.  Each is several times the largest size the
# benchmark runs, and every command finishes in seconds at its cap.
MAX_SERIES_ORDER = 2048
MAX_VERIFY_ORDER = 512
MAX_LENGTH = 4000  # count --n; oeis --n-max builds the table to length 3n
MAX_OEIS_N = MAX_LENGTH // 3
MAX_VERIFY_T = 600  # each verify --t value; its kernel has degree 2t
MAX_VERIFY_TS = 8  # how many values verify --t may list

_SERIES_CHOICES = "g0, h0, total, s4, s6, s1, rl-g0, R, prefix:<F|G|H>:<k>"

TABLE_FORMATS = ("table", "csv", "json", "markdown")


def _int_in(name: str, lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi] (hi None: no upper bound)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"{name} must be {bound}, got {value}")
        return value

    parse.__name__ = name  # argparse names the type in "invalid ... value"
    return parse


_t_arg = _int_in("t", 2)
_verify_t = _int_in("t", 2, MAX_VERIFY_T)


def _t_list_arg(text: str) -> tuple[int, ...]:
    try:
        values = tuple(_verify_t(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad t list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("t list needs comma-separated integers >= 2")
    if len(values) > MAX_VERIFY_TS:
        raise argparse.ArgumentTypeError(
            f"t list must hold at most {MAX_VERIFY_TS} values, got {len(values)}"
        )
    return values


def _n_range_arg(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad length range {text!r}")
    if hi > MAX_LENGTH:
        raise argparse.ArgumentTypeError(f"length must be at most {MAX_LENGTH}, got {hi}")
    return lo, hi


_n_range_arg.__name__ = "length"  # argparse names the type in "invalid ... value"


def _emit_table(headers: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(headers)]
        lines += [",".join(str(c) for c in row) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json

        return json.dumps(
            [dict(zip(headers, (str(c) for c in row))) for row in rows], indent=2
        ) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |"]
        lines.append("|" + "|".join("---" for _ in headers) + "|")
        lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(h), *(len(str(row[i])) for row in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines += [
        "  ".join(str(c).rjust(w) for c, w in zip(row, widths)).rstrip() for row in rows
    ]
    return "\n".join(lines) + "\n"


def _cmd_count(args) -> int:
    from .automaton import dp_counts

    lo, hi = args.n
    table = dp_counts(args.t, hi, k_max=0)
    rows = [[n, table.closed_count(n)] for n in range(lo, hi + 1)]
    sys.stdout.write(_emit_table(["length", "count"], rows, args.format))
    return 0


def _series_for(name: str, order: int):
    from . import closed_form, kernel, reverse
    from .automaton import Layer

    if name == "g0":
        return kernel.solve(2, order).g0
    if name == "h0":
        return kernel.solve(2, order).h0
    if name == "total":
        return kernel.solve(2, order).total
    if name == "s4":
        return kernel.good_root(2, order)
    if name == "s6":
        return kernel.good_root(3, order)
    if name == "s1":
        return reverse.rl_root_s1(order)
    if name == "rl-g0":
        return reverse.rl_g0(order)
    if name == "R":
        return closed_form.r_series(order)
    if name.startswith("prefix:"):
        parts = name.split(":")
        if len(parts) == 3 and parts[1] in ("F", "G", "H"):
            try:
                k = int(parts[2])
            except ValueError:
                raise ValueError(f"bad prefix level in {name!r}") from None
            if order + k > MAX_SERIES_ORDER:
                raise ValueError(
                    f"prefix level {k} at order {order} needs the kernel solution "
                    f"beyond the order cap ({MAX_SERIES_ORDER})"
                )
            return kernel.prefix_series(2, Layer(parts[1]), k, order)
    raise ValueError(f"unknown series selector {name!r}; choose from: {_SERIES_CHOICES}")


def _cmd_series(args) -> int:
    ser = _series_for(args.which, args.order)
    if args.format == "json":
        import json

        sys.stdout.write(json.dumps(ser.to_json(), indent=2) + "\n")
    else:
        sys.stdout.write(str(ser) + "\n")
    return 0


def _cmd_render(args) -> int:
    from .render import render_document

    doc = render_document(
        args.t,
        args.n,
        mode=args.mode,
        style=args.style,
        mirrored=args.mirrored,
        fmt=args.format,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
        sys.stdout.write(f"wrote {args.out}\n")
    else:
        sys.stdout.write(doc)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(order=args.order, t_list=args.t)
    if args.format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_text() + "\n")
    return 0 if report.passed else 1


def _cmd_oeis(args) -> int:
    from .oeis import OeisError, compare_table

    try:
        rows = compare_table(
            args.sequence,
            args.n_max,
            cache_dir=args.cache_dir,
            offline=args.offline,
        )
    except OeisError as exc:
        return _error(exc)
    headers = ["n", "oeis", "table(3n)", "R", "oeis=table", "oeis=R"]
    body = [
        [
            row["n"],
            "-" if row["oeis"] is None else row["oeis"],
            row["dp_total"],
            row["r_coeff"],
            "yes" if row["oeis_matches_dp"] else "NO",
            "yes" if row["oeis_matches_r"] else "NO",
        ]
        for row in rows
    ]
    sys.stdout.write(_emit_table(headers, body, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewdyck",
        description="Exact counting, series, and figures for skew t-Dyck paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-path totals from the counting table")
    p.add_argument("--t", type=_t_arg, default=2, help="down-step size (default 2)")
    p.add_argument(
        "--n", type=_n_range_arg, required=True, help="length, or a lo:hi range"
    )
    p.add_argument("--format", choices=TABLE_FORMATS, default="table")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("series", help="exact series expansions")
    p.add_argument("which", help=f"one of: {_SERIES_CHOICES}")
    p.add_argument(
        "--order", type=_int_in("order", 8, MAX_SERIES_ORDER), default=DEFAULT_ORDER
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("render", help="diagrams of all closed paths of one length")
    p.add_argument("--t", type=_t_arg, default=2)
    # the upper bound is the enumerator's cap, reported as a command error
    p.add_argument("--n", type=_int_in("length", 0), required=True)
    p.add_argument(
        "--mode",
        choices=RENDER_MODES,
        default="skew",
        help="plain = L-free words only; skew = every word",
    )
    p.add_argument("--style", choices=("red-overlay", "left"), default="red-overlay")
    p.add_argument("--mirrored", action="store_true", help="right-to-left reflection")
    p.add_argument("--format", choices=("svg", "tikz"), default="svg")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("verify", help="run the full cross-validation suite")
    p.add_argument(
        "--order", type=_int_in("order", 8, MAX_VERIFY_ORDER), default=DEFAULT_ORDER
    )
    p.add_argument("--t", type=_t_list_arg, default=(2, 3), help="comma-separated t values")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oeis", help="compare a sequence's b-file against the table")
    p.add_argument("sequence", help="sequence id, e.g. A007564")
    p.add_argument("--n-max", type=_int_in("n-max", 0, MAX_OEIS_N), default=12)
    p.add_argument("--cache-dir", help="b-file cache directory")
    p.add_argument("--offline", action="store_true")
    p.add_argument("--format", choices=TABLE_FORMATS, default="table")
    p.set_defaults(fn=_cmd_oeis)

    return parser


def _error(exc: Exception) -> int:
    """Report a command error on stderr; its exit status is 1."""
    print(f"error: {exc}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
