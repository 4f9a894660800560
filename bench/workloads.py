"""Workload menus and the invocation plan each seed draws from them.

A workload is a list of slots.  Each slot is a list of choices, and a
choice is one or more CLI argument vectors.  A plan takes one choice per
slot, chosen by the seeded generator, and shuffles the result.

Every choice within a slot costs the same to within measurement noise:
the parameters that set the cost (length, order, mode, style, format of
a figure) are fixed per slot, and the seed picks the rest (down-step
size and table format for `count`, selector variant and text or JSON
for `series`, output format for `verify`, mirroring and one small figure
for `render`) plus the order the invocations run in.  That keeps the
pass time a property of the program and not of the seed.

The menu is finite, so `record.py` can store the expected output of
every vector any seed can draw.
"""

from __future__ import annotations

import itertools
import random

OUT = "{out}"  # placeholder for the figure path, filled in per run

TABLE_FORMATS = ("table", "csv", "json", "markdown")
PREFIX_ORDER = 160
PREFIX_LEVEL = 4


def _count_slots() -> list[list[list[list[str]]]]:
    # The table is n x level x 3 cells for every t, so t and the output
    # format barely move the time; the length ladder is fixed per pass.
    # The longest length keeps t = 2, whose larger counts set the peak
    # memory, so peak_rss_mb does not depend on the seed.
    return [
        [
            [["count", "--t", str(t), "--n", f"0:{n}", "--format", fmt]]
            for t in ((2,) if n == 800 else (2, 3, 4))
            for fmt in TABLE_FORMATS
        ]
        for n in (400, 500, 600, 700, 800)
    ]


def _series(which: str, order: int, fmt: str) -> list[str]:
    argv = ["series", which, "--order", str(order)]
    return argv + ["--format", "json"] if fmt == "json" else argv


def _series_slots() -> list[list[list[list[str]]]]:
    # total, g0 and h0 all come from one solve_t2 call of the same order.
    named = [
        (("total", "g0", "h0"), 192), (("total", "g0", "h0"), 144), (("s4",), 192),
        (("s6",), 160), (("s1",), 176), (("rl-g0",), 128), (("R",), 192),
    ]
    slots = [
        [[_series(which, order, fmt)] for which in choices for fmt in ("text", "json")]
        for choices, order in named
    ]
    # Two prefix invocations per pass, both at level 4: the level sets the
    # cost of one invocation, so a seeded level would move cmd_p50_cpu_s.
    slots.append(
        [
            [
                _series(f"prefix:{la}:{PREFIX_LEVEL}", PREFIX_ORDER, fa),
                _series(f"prefix:{lb}:{PREFIX_LEVEL}", PREFIX_ORDER, fb),
            ]
            for la, lb in itertools.product("FGH", repeat=2)
            for fa, fb in itertools.product(("text", "json"), repeat=2)
        ]
    )
    return slots


def _verify_slots() -> list[list[list[list[str]]]]:
    pairs = [(48, "2,3,4"), (64, "2"), (96, "2,3")]
    return [
        [
            [["verify", "--order", str(order), "--t", ts, "--format", fmt]]
            for fmt in ("text", "json")
        ]
        for order, ts in pairs
    ]


def _render(t: int, n: int, mode: str, style: str, mirrored: bool, fmt: str) -> list[str]:
    argv = ["render", "--t", str(t), "--n", str(n), "--mode", mode, "--style", style]
    if mirrored:
        argv.append("--mirrored")
    return argv + ["--format", fmt, "--out", OUT]


SMALL_LENGTHS = {2: (3, 6, 9, 12), 3: (4, 8, 12, 16), 4: (5, 10, 15)}


def _render_slots() -> list[list[list[list[str]]]]:
    heavy = [
        (3, 24, "skew", "red-overlay", "tikz"),
        (2, 18, "skew", "red-overlay", "svg"),
        (2, 18, "plain", "left", "tikz"),
        (3, 20, "skew", "left", "svg"),
        (4, 20, "skew", "left", "tikz"),
        (4, 20, "plain", "red-overlay", "svg"),
    ]
    # The first figure sets the peak memory, and mirroring adds a line per
    # diagram, so it is never mirrored and peak_rss_mb does not depend on
    # the seed.
    slots = [
        [[_render(t, n, mode, style, mirrored, fmt)] for mirrored in ((False,) if i == 0 else (False, True))]
        for i, (t, n, mode, style, fmt) in enumerate(heavy)
    ]
    slots.append(
        [
            [_render(t, n, mode, style, mirrored, fmt)]
            for t, lengths in SMALL_LENGTHS.items()
            for n in lengths
            for mode in ("plain", "skew")
            for style in ("red-overlay", "left")
            for mirrored in (False, True)
            for fmt in ("svg", "tikz")
        ]
    )
    return slots


WORKLOADS = {
    "count-table": _count_slots(),
    "series-kernel": _series_slots(),
    "verify-suite": _verify_slots(),
    "render-figures": _render_slots(),
}


def plan(workload: str, seed: int) -> list[list[str]]:
    """The invocation list one pass of `workload` runs for `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    argvs = [argv for slot in WORKLOADS[workload] for argv in rng.choice(slot)]
    rng.shuffle(argvs)
    return argvs


def all_vectors(workload: str) -> list[list[str]]:
    """Every argument vector any seed can draw for `workload`, once each."""
    seen: dict[str, list[str]] = {}
    for slot in WORKLOADS[workload]:
        for choice in slot:
            for argv in choice:
                seen.setdefault(key(argv), argv)
    return list(seen.values())


def key(argv: list[str]) -> str:
    """The lookup key of an argument vector in the expected-output table."""
    return " ".join(argv)
