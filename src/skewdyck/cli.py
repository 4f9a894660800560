"""Command-line front end.

Subcommands: count (closed totals), series (exact expansions), render
(SVG/TikZ figures), verify (the full cross-validation suite), and oeis
(b-file comparison).  All numeric output is exact decimal text; given
the same arguments every command prints the same bytes.

One table, `_COMMANDS`, lists each command's help, handler and
arguments.  `_parse_plain` reads it to accept the canonical spelling of
a command (full option names, each once, every value checked by the
type or choices argparse would apply) without importing argparse, whose
import and parser build cost a start-up about as much as a small
command's own work.  Any other input goes to `build_parser`, the
argparse parser built from the same table, so help, usage errors and
every other spelling keep argparse's behaviour and bytes.

Each command imports the layers it runs inside its own function, so a
start-up pays only for the route that the command takes.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

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


def _usage_error(message: str):
    """The error an argparse type raises to print `message` as the usage
    error; argparse is imported only once an argument is refused."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _int_in(name: str, lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi] (hi None: no upper bound)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
            raise _usage_error(f"{name} must be {bound}, got {value}")
        return value

    parse.__name__ = name  # argparse names the type in "invalid ... value"
    return parse


_t_arg = _int_in("t", 2)
_verify_t = _int_in("t", 2, MAX_VERIFY_T)


def _t_list_arg(text: str) -> tuple[int, ...]:
    try:
        values = tuple(_verify_t(part) for part in text.split(",") if part)
    except ValueError:
        raise _usage_error(f"bad t list {text!r}") from None
    if not values:
        raise _usage_error("t list needs comma-separated integers >= 2")
    if len(values) > MAX_VERIFY_TS:
        raise _usage_error(f"t list must hold at most {MAX_VERIFY_TS} values, got {len(values)}")
    return values


def _n_range_arg(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if lo < 0 or hi < lo:
        raise _usage_error(f"bad length range {text!r}")
    if hi > MAX_LENGTH:
        raise _usage_error(f"length must be at most {MAX_LENGTH}, got {hi}")
    return lo, hi


_n_range_arg.__name__ = "length"  # argparse names the type in "invalid ... value"


def _emit_table(headers: list[str], rows: list[list], fmt: str) -> str:
    cells = [[str(c) for c in row] for row in rows]  # each cell as text, once
    if fmt == "csv":
        return "\n".join(",".join(row) for row in [headers, *cells]) + "\n"
    if fmt == "json":
        import json

        return json.dumps([dict(zip(headers, row)) for row in cells], indent=2) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |"]
        lines.append("|" + "|".join("---" for _ in headers) + "|")
        lines += ["| " + " | ".join(row) + " |" for row in cells]
        return "\n".join(lines) + "\n"
    widths = [max([len(h), *(len(row[i]) for row in cells)]) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines) + "\n"


def _cmd_count(args) -> int:
    from .automaton import dp_counts

    lo, hi = args.n
    table = dp_counts(args.t, hi, k_max=0)
    rows = [[n, table.closed_count(n)] for n in range(lo, hi + 1)]
    sys.stdout.write(_emit_table(["length", "count"], rows, args.format))
    return 0


def _series_for(name: str, order: int):
    # each selector imports only the route it computes with
    if name in ("g0", "h0", "total", "s4", "s6"):
        from . import kernel

        if name == "s4":
            return kernel.good_root(2, order)
        if name == "s6":
            return kernel.good_root(3, order)
        return getattr(kernel.solve(2, order), name)
    if name in ("s1", "rl-g0"):
        from . import reverse

        return reverse.rl_root_s1(order) if name == "s1" else reverse.rl_g0(order)
    if name == "R":
        from . import closed_form

        return closed_form.r_series(order)
    if name.startswith("prefix:"):
        parts = name.split(":")
        if len(parts) == 3 and parts[1] in ("F", "G", "H"):
            try:
                k = int(parts[2])
            except ValueError:
                raise ValueError(f"bad prefix level in {name!r}") from None
            from . import kernel

            return kernel.prefix_series(kernel.solve(2, order), parts[1], k, order)
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

    doc = render_document(args.t, args.n, args.mode, args.style, args.mirrored, args.format)
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


# Each command's help, handler and arguments.  An argument is its name
# and the keywords `add_argument` takes for it; `_parse_plain` reads the
# same keywords, so the two parsers accept the same values.
_COMMANDS = {
    "count": ("closed-path totals from the counting table", _cmd_count, [
        ("--t", {"type": _t_arg, "default": 2, "help": "down-step size (default 2)"}),
        ("--n", {"type": _n_range_arg, "required": True, "help": "length, or a lo:hi range"}),
        ("--format", {"choices": TABLE_FORMATS, "default": "table"}),
    ]),
    "series": ("exact series expansions", _cmd_series, [
        ("which", {"help": f"one of: {_SERIES_CHOICES}"}),
        ("--order", {"type": _int_in("order", 8, MAX_SERIES_ORDER), "default": DEFAULT_ORDER}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
    ]),
    "render": ("diagrams of all closed paths of one length", _cmd_render, [
        ("--t", {"type": _t_arg, "default": 2}),
        # the upper bound is the enumerator's cap, reported as a command error
        ("--n", {"type": _int_in("length", 0), "required": True}),
        ("--mode", {"choices": RENDER_MODES, "default": "skew",
                    "help": "plain = L-free words only; skew = every word"}),
        ("--style", {"choices": ("red-overlay", "left"), "default": "red-overlay"}),
        ("--mirrored", {"action": "store_true", "help": "right-to-left reflection"}),
        ("--format", {"choices": ("svg", "tikz"), "default": "svg"}),
        ("--out", {"help": "output file (default: stdout)"}),
    ]),
    "verify": ("run the full cross-validation suite", _cmd_verify, [
        ("--order", {"type": _int_in("order", 8, MAX_VERIFY_ORDER), "default": DEFAULT_ORDER}),
        ("--t", {"type": _t_list_arg, "default": (2, 3), "help": "comma-separated t values"}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
    ]),
    "oeis": ("compare a sequence's b-file against the table", _cmd_oeis, [
        ("sequence", {"help": "sequence id, e.g. A007564"}),
        ("--n-max", {"type": _int_in("n-max", 0, MAX_OEIS_N), "default": 12}),
        ("--cache-dir", {"help": "b-file cache directory"}),
        ("--offline", {"action": "store_true"}),
        ("--format", {"choices": TABLE_FORMATS, "default": "table"}),
    ]),
}


def build_parser():
    """The argparse parser built from `_COMMANDS`: it serves help, usage
    errors and every spelling that `_parse_plain` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="skewdyck",
        description="Exact counting, series, and figures for skew t-Dyck paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, fn, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, spec in arguments:
            p.add_argument(name, **spec)
        p.set_defaults(fn=fn)
    return parser


def _parse_plain(argv: list[str]):
    """The namespace argparse would return for the canonical spelling of
    a command, or None for any other argv.

    Canonical: the command name, then its positionals and full option
    names in any order, each option once, each value not starting with
    "-" and accepted by the argument's type and choices, and every
    positional and required option present.  Everything else, help and
    usage errors included, is left to `build_parser`.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, fn, arguments = _COMMANDS[argv[0]]
    options = dict(arguments)
    given, positionals = {}, []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        spec = options.get(word)
        if spec is None or word in given:
            return None
        if spec.get("action") == "store_true":
            given[word] = True
            continue
        text = next(words, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = spec["type"](text) if "type" in spec else text
        except Exception:  # argparse calls the type again and reports its failure
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[word] = value
    names = [name for name, _ in arguments if not name.startswith("-")]
    if len(positionals) != len(names):
        return None
    given.update(zip(names, positionals))
    values = {"command": argv[0], "fn": fn}
    for name, spec in arguments:
        if name not in given and spec.get("required"):
            return None
        default = False if spec.get("action") == "store_true" else spec.get("default")
        values[name.lstrip("-").replace("-", "_")] = given.get(name, default)
    return SimpleNamespace(**values)


def _error(exc: Exception) -> int:
    """Report a command error on stderr; its exit status is 1."""
    print(f"error: {exc}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # bad input, or a file that cannot be read or written
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
