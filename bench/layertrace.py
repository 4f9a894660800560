"""In-process span trace of the package's layers, recorded from outside it.

`Tracer.install` wraps every public module-level function of each layer
module, plus the hot `Series` methods, and rebinds the wrapper under
every name in every `skewdyck` module that refers to the original (so
`dp_counts` is traced whether `kernel`, `verify`, `cli`, `oeis`,
`reverse` or `closed_form` calls it).  Spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
direct children; calls are strictly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import tracemalloc
from time import perf_counter

LAYERS = ("series", "kernel", "reverse", "closed_form", "automaton", "paths", "render", "verify", "cli")
SERIES_METHODS = ("__mul__", "__rmul__", "__add__", "__radd__", "reciprocal", "sqrt", "__str__")

# span record fields
NAME, PARENT, INV, START, END, EXTRA = range(6)

# (metric, unit); `<label>.<stat>` names are read off the span aggregates
PER_LAYER = [
    ("automaton.dp_counts.calls", "count"),
    ("automaton.dp_counts.self_s", "s"),
    ("automaton.dp_counts.cells", "count"),
    ("automaton.dp_counts.peak_mb", "MB"),
    ("automaton.verify_functional_equations.calls", "count"),
    ("automaton.verify_functional_equations.total_s", "s"),
    ("series.Series.__mul__.calls", "count"),
    ("series.Series.__mul__.self_s", "s"),
    ("series.Series.__mul__.coeff_products", "count"),
    ("series.Series.reciprocal.calls", "count"),
    ("series.Series.reciprocal.self_s", "s"),
    ("series.Series.sqrt.calls", "count"),
    ("series.Series.sqrt.self_s", "s"),
    ("series.Series.__add__.calls", "count"),
    ("series.Series.__add__.self_s", "s"),
    ("series.Series.__str__.self_s", "s"),
    ("series.newton_root.calls", "count"),
    ("series.newton_root.total_s", "s"),
    ("series.newton_root.iterations", "count"),
    ("series.newton_root.max_order", "count"),
    ("series.max_coeff_bits", "bits"),
    ("kernel.good_root.calls", "count"),
    ("kernel.good_root.total_s", "s"),
    ("kernel.solve_t2.calls", "count"),
    ("kernel.solve_t2.total_s", "s"),
    ("kernel.prefix_series_t2.calls", "count"),
    ("kernel.prefix_series_t2.total_s", "s"),
    ("reverse.rl_cancelling_root.calls", "count"),
    ("reverse.rl_cancelling_root.total_s", "s"),
    ("reverse.rl_root_s1.calls", "count"),
    ("reverse.rl_root_s1.total_s", "s"),
    ("closed_form.r_series.calls", "count"),
    ("closed_form.r_series.total_s", "s"),
    ("paths.enumerate_words.calls", "count"),
    ("paths.enumerate_words.self_s", "s"),
    ("paths.enumerate_words.words", "count"),
    ("paths.realize.calls", "count"),
    ("paths.realize.self_s", "s"),
    ("render.render_svg.self_s", "s"),
    ("render.render_svg.bytes", "B"),
    ("render.render_tikz.self_s", "s"),
    ("render.render_tikz.bytes", "B"),
    ("verify.run_verification.self_s", "s"),
    ("cli.main.self_s", "s"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# stats summed from a span's counter, and the one taken as a maximum
_SUMMED = ("cells", "coeff_products", "words", "bytes")
_MAXED = ("max_order",)


def _mul_products(args, kwargs, result) -> int:
    """Coefficient products in the schoolbook window of a product.

    A series product keeps min(order) coefficients, and coefficient i of
    one operand meets the coefficients j < n - i of the other: n(n+1)/2.
    A scalar product multiplies each coefficient once.
    """
    a, b = args
    if not hasattr(b, "coeffs"):
        return a.order
    n = min(a.order, b.order)
    return n * (n + 1) // 2


_COUNTERS = {
    "automaton.dp_counts": lambda a, k, r: len(r._grid) * len(r._grid[0]) * 3,
    "series.Series.__mul__": _mul_products,
    "series.newton_root": lambda a, k, r: a[2] if len(a) > 2 else k["order"],
    "paths.enumerate_words": lambda a, k, r: len(r),
    "render.render_svg": lambda a, k, r: len(r.encode()),
    "render.render_tikz": lambda a, k, r: len(r.encode()),
}
# results whose coefficient sizes feed series.max_coeff_bits
_BITS_FROM = ("series.Series.__mul__", "series.Series.reciprocal", "series.Series.sqrt", "series.newton_root")


def layer_modules() -> list:
    """The package's layer modules, imported from the current sys.path."""
    return [importlib.import_module(f"skewdyck.{layer}") for layer in LAYERS]


def rebind(replacements: dict) -> list:
    """Point every `skewdyck` module name bound to a key at its value.

    Returns the undo list for `restore`.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != "skewdyck" and not name.startswith("skewdyck."):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in replacements:
                setattr(mod, attr, replacements[val])
                undo.append((mod, attr, val))
    return undo


def restore(undo: list) -> None:
    for owner, attr, val in reversed(undo):
        setattr(owner, attr, val)


class Tracer:
    """Collects one span per call of each wrapped layer function."""

    def __init__(self):
        self.spans: list[list] = []
        self.inv = None  # id of the CLI invocation in progress
        self.max_bits = 0
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        targets = {}
        for mod in layer_modules():
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                    targets[obj] = f"{layer}.{name}"
        series_cls = sys.modules["skewdyck.series"].Series
        for meth in SERIES_METHODS:
            orig = series_cls.__dict__[meth]
            targets.setdefault(orig, f"series.Series.{meth}")
        wrappers = {orig: self._wrap(label, orig) for orig, label in targets.items()}
        self._undo = rebind(wrappers)
        for meth in SERIES_METHODS:
            orig = series_cls.__dict__[meth]
            setattr(series_cls, meth, wrappers[orig])
            self._undo.append((series_cls, meth, orig))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _note_bits(self, series) -> None:
        bits = self.max_bits
        for c in series.coeffs:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        self.max_bits = bits

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTERS.get(label)
        bits = label in _BITS_FROM

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label, stack[-1] if stack else -1, self.inv, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                rec[EXTRA] = count(args, kwargs, result)
            if bits and hasattr(result, "coeffs"):
                self._note_bits(result)
            return result

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-label calls, total_s, self_s, counter sum and maximum, iterations."""
    agg: dict[str, dict[str, float]] = {}
    for rec, own in zip(spans, self_times(spans)):
        a = agg.setdefault(rec[NAME], dict.fromkeys(("calls", "total_s", "self_s", "sum", "max", "iterations"), 0))
        a["calls"] += 1
        a["total_s"] += rec[END] - rec[START]
        a["self_s"] += own
        if rec[EXTRA] is not None:
            a["sum"] += rec[EXTRA]
            a["max"] = max(a["max"], rec[EXTRA])
        # a Newton step is one reciprocal called directly by newton_root;
        # the parent span comes first in the list, so its entry exists
        if rec[NAME] == "series.Series.reciprocal" and rec[PARENT] >= 0:
            parent = spans[rec[PARENT]][NAME]
            if parent == "series.newton_root":
                agg[parent]["iterations"] += 1
    return agg


def invocation_self_sums(spans: list[list]) -> dict:
    """Sum of span self times per invocation id."""
    sums: dict = {}
    for rec, own in zip(spans, self_times(spans)):
        sums[rec[INV]] = sums.get(rec[INV], 0.0) + own
    return sums


def pass_metrics(spans: list[list], max_bits: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass."""
    agg = aggregate(spans)
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        label, stat = name.rsplit(".", 1)
        a = agg.get(label, {})
        if stat in _SUMMED:
            stat = "sum"
        elif stat in _MAXED:
            stat = "max"
        out[name] = a.get(stat, 0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            a["self_s"] for label, a in agg.items() if label.split(".", 1)[0] == layer
        )
    out["series.max_coeff_bits"] = max_bits
    out["trace.spans"] = len(spans)
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def largest_dp_invocation(spans: list[list]):
    """Id of the invocation whose dp_counts calls fill the most cells, or None."""
    cells: dict = {}
    for rec in spans:
        if rec[NAME] == "automaton.dp_counts":
            cells[rec[INV]] = cells.get(rec[INV], 0) + rec[EXTRA]
    return max(cells, key=cells.get) if cells else None


def dp_counts_peak_mb(run_pass) -> float:
    """Largest tracemalloc peak of one dp_counts call over `run_pass()`.

    tracemalloc runs only inside dp_counts, in a pass of its own, so its
    cost touches neither the timed nor the traced passes.
    """
    automaton = sys.modules["skewdyck.automaton"]
    original = automaton.dp_counts
    peak = 0

    @functools.wraps(original)
    def measured(*args, **kwargs):
        nonlocal peak
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    undo = rebind({original: measured})
    try:
        run_pass()
    finally:
        restore(undo)
    return peak / 2**20
