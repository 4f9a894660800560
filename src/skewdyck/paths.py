"""Step alphabet, word validation, exhaustive enumeration, and geometry.

A skew t-Dyck word is a sequence over {U, D, L} where U climbs one unit
and both down-steps drop t units; the word must stay on or above the
axis and may not contain UL or LU as adjacent pairs.  Closed words end
back on the axis.  The drawing convention stretches down-steps: U maps
to (+1, +1), D to (+2, -t), and L either to a true left step (-2, -t)
or, in the default overlay style, to a forward (+2, -t) segment tagged
red so the emitters can offset it visually.  A realized word is its
tuple of integer vertices, read off one step-vector table per mode and
t; segments are derived from consecutive vertices on demand.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import accumulate


class Step(Enum):
    U = "U"
    D = "D"
    L = "L"

    # members are singletons compared by identity; Enum's own __hash__
    # hashes the name in Python, which dominated every step lookup
    __hash__ = object.__hash__


# canonical (and lexicographic) step order: U < D < L
STEP_ORDER = (Step.U, Step.D, Step.L)
_STEPS = frozenset(Step)

DEFAULT_ENUMERATION_CAP = 24

# horizontal run of each step per geometry mode; the rise is its level change
_STEP_DX = {
    "red-overlay": {Step.U: 1, Step.D: 2, Step.L: 2},
    "left": {Step.U: 1, Step.D: 2, Step.L: -2},
}
GEOMETRY_MODES = tuple(_STEP_DX)


def _level_deltas(t: int) -> dict[Step, int]:
    """Level change of each step: U climbs one unit, D and L drop t."""
    return {Step.U: 1, Step.D: -t, Step.L: -t}


class _Frozen:
    """Immutable slotted record: equality, hashing and repr over ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SkewWord(_Frozen):
    """A candidate word; validity is checked, not enforced by construction."""

    __slots__ = _fields = ("t", "steps")
    t: int
    steps: tuple[Step, ...]

    def __init__(self, t: int, steps):
        if not isinstance(t, int) or t < 2:
            raise ValueError(f"down-step magnitude t must be an integer >= 2, got {t}")
        steps = tuple(steps)
        if not _STEPS.issuperset(steps):
            raise TypeError("steps must be Step members")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def from_string(cls, t: int, text: str) -> "SkewWord":
        try:
            return cls(t, tuple(Step(ch) for ch in text))
        except ValueError as exc:
            raise ValueError(f"bad step letter in {text!r}: {exc}") from None

    def __str__(self) -> str:
        return "".join(s.value for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def levels(self) -> tuple[int, ...]:
        """Running level after each step."""
        return tuple(accumulate(map(_level_deltas(self.t).__getitem__, self.steps)))

    def final_level(self) -> int:
        return self.levels()[-1] if self.steps else 0


# collections.namedtuple rather than typing.NamedTuple: `render` would
# otherwise import typing for this one class
class ValidationResult(namedtuple("ValidationResult", "ok rule index", defaults=(None, None))):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return f"invalid: {self.rule} at index {self.index}"


def validate(word: SkewWord) -> ValidationResult:
    """Check the three word rules, reporting the first violation.

    Rules, by name: "first-step" (a nonempty word starts with U), "UL"
    and "LU" (the forbidden adjacent pairs, reported at the index of the
    pair's first step), and "below-axis" (a prefix dips under level 0).
    Invalid words are findings, not errors.
    """
    U, L = Step.U, Step.L  # bound once: EnumType's __getattr__ hook slows Step.X
    if word.steps and word.steps[0] is not U:
        return ValidationResult(False, "first-step", 0)
    delta = _level_deltas(word.t)
    level = 0
    prev: Step | None = None
    for i, s in enumerate(word.steps):
        if prev is U and s is L:
            return ValidationResult(False, "UL", i - 1)
        if prev is L and s is U:
            return ValidationResult(False, "LU", i - 1)
        level += delta[s]
        if level < 0:
            return ValidationResult(False, "below-axis", i)
        prev = s
    return ValidationResult(True)


def is_closed(word: SkewWord) -> bool:
    """True when the word ends back on the axis (empty word included)."""
    return word.final_level() == 0


def enumerate_words(
    t: int,
    n: int,
    closed_only: bool = True,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[SkewWord]:
    """All valid words of length n in lexicographic order (U < D < L).

    Exhaustive with pruning, so it doubles as the independent oracle for
    the counting table.  Lengths above ``cap`` (default 24) are refused:
    use the automaton counting table for totals at that size.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise ValueError(
            f"length {n} exceeds the exhaustive-enumeration cap ({cap}); "
            "use the automaton counting table (dp_counts/total) instead"
        )
    U, L = Step.U, Step.L  # bound once: EnumType's __getattr__ hook slows Step.X
    delta = _level_deltas(t)
    out: list[SkewWord] = []
    prefix: list[Step] = []

    def extend(level: int, last: Step | None) -> None:
        m = n - len(prefix)
        if m == 0:
            if not closed_only or level == 0:
                out.append(SkewWord(t, tuple(prefix)))
            return
        if closed_only:
            # reaching 0 needs a up-steps with a = (t*m - level)/(t+1)
            r = t * m - level
            if r < 0 or r % (t + 1):
                return
        for s in STEP_ORDER:
            if last is U and s is L:
                continue
            if last is L and s is U:
                continue
            new_level = level + delta[s]
            if new_level < 0:
                continue
            prefix.append(s)
            extend(new_level, s)
            prefix.pop()

    extend(0, None)
    return out


class PathGeometry(_Frozen):
    """Stretched polyline realization of a word.

    ``vertices`` are the integer (x, y) points the polyline passes
    through, one per step plus the origin it starts from.  ``colors[i]``
    tags the step from ``vertices[i]`` to ``vertices[i + 1]`` "black"
    (U, D) or "red" (L).
    """

    _fields = ("vertices", "colors")
    __slots__ = (*_fields, "__weakref__")
    vertices: tuple[tuple[int, int], ...]
    colors: tuple[str, ...]

    def __init__(self, vertices: tuple[tuple[int, int], ...], colors: tuple[str, ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "colors", colors)

    @property
    def segments(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        """One ((x0, y0), (x1, y1)) pair of consecutive vertices per step."""
        return tuple(zip(self.vertices, self.vertices[1:]))


_COLORS = {Step.U: "black", Step.D: "black", Step.L: "red"}


def _step_dx(mode: str) -> dict[Step, int]:
    """The horizontal run of each step in a geometry mode."""
    if mode not in GEOMETRY_MODES:
        raise ValueError(f"mode must be one of {GEOMETRY_MODES}, got {mode!r}")
    return _STEP_DX[mode]


def realize(word: SkewWord, mode: str = "red-overlay") -> PathGeometry:
    """Geometry of a valid word.

    ``mode="left"`` draws L as a true left step (-2, -t); the default
    "red-overlay" keeps L pointing forward (+2, -t) and relies on the
    red tag, matching the customary figures.
    """
    dx = _step_dx(mode)
    check = validate(word)
    if not check:
        raise ValueError(f"cannot realize an invalid word ({check})")
    dy = _level_deltas(word.t)
    xs = accumulate(map(dx.__getitem__, word.steps), initial=0)
    ys = accumulate(map(dy.__getitem__, word.steps), initial=0)
    colors = tuple(map(_COLORS.__getitem__, word.steps))
    return PathGeometry(tuple(zip(xs, ys)), colors)


def extent(word: SkewWord, mode: str = "red-overlay") -> tuple[int, int, int]:
    """(x_min, x_max, y_max) over the vertices ``realize(word, mode)`` builds.

    Reads the same step-vector tables as ``realize`` but neither checks
    the word nor builds its vertices, so a document can size its shared
    grid before it realizes any word.
    """
    xs = list(accumulate(map(_step_dx(mode).__getitem__, word.steps), initial=0))
    ys = accumulate(map(_level_deltas(word.t).__getitem__, word.steps), initial=0)
    return min(xs), max(xs), max(ys)


def _collinear_overlap(seg_a, seg_b) -> bool:
    """Do two segments lie on one line and share more than a point?"""
    (ax0, ay0), (ax1, ay1) = seg_a
    (bx0, by0), (bx1, by1) = seg_b
    dax, day = ax1 - ax0, ay1 - ay0
    dbx, dby = bx1 - bx0, by1 - by0
    if dax * dby - day * dbx != 0:
        return False
    if dax * (by0 - ay0) - day * (bx0 - ax0) != 0:
        return False
    # project b's endpoints onto a's direction; overlap needs an interval
    ta0 = 0
    ta1 = dax * dax + day * day
    tb0 = dax * (bx0 - ax0) + day * (by0 - ay0)
    tb1 = dax * (bx1 - ax0) + day * (by1 - ay0)
    lo = max(min(ta0, ta1), min(tb0, tb1))
    hi = min(max(ta0, ta1), max(tb0, tb1))
    return hi > lo


def overlap_diagnostic(word: SkewWord) -> list[tuple[int, int]]:
    """Pairs of segment indices that overlap in left-step geometry.

    Collinear segments sharing a whole subsegment are flagged; touching
    endpoints (every consecutive pair) are not.  Empirically this comes
    back empty for every closed word checked, but that observation is
    recorded by the diagnostic rather than assumed.
    """
    geo = realize(word, mode="left")
    segs = geo.segments
    hits = []
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if _collinear_overlap(segs[i], segs[j]):
                hits.append((i, j))
    return hits
