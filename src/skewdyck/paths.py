"""Step alphabet, the word rules, and the depth-first word walk.

A skew t-Dyck word is a sequence of `Step` members over {U, D, L} where U
climbs one unit and both down-steps drop t units; the word must stay on
or above the axis and may not contain UL or LU as adjacent pairs.  Closed
words end back on the axis.  The drawing convention stretches down-steps:
U maps to (+1, +1), D to (+2, -t), and L either to a true left step
(-2, -t) or, in the default overlay style, to a forward (+2, -t) segment
tagged red so the emitters can offset it visually.  A vertex's y is its
level in either style.  `walk` is the one source of words: it visits the
valid words depth first, computing each prefix's vertices once for every
word below it, and says with each word how many leading steps it shares
with the word before; `grid_box` bounds them all from t and n alone.
`WordChecker` is the one check of the word rules: it keeps the level and
the previous step at each depth of the last word it checked, so the next
word is checked from where the two part, once the claimed common prefix
is confirmed against its own copy.
"""

from __future__ import annotations

from enum import Enum
from functools import cache


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


@cache
def _level_deltas(t: int) -> dict[Step, int]:
    """Level change of each step: U climbs one unit, D and L drop t (one table per t)."""
    return {Step.U: 1, Step.D: -t, Step.L: -t}


def _require_t(t) -> None:
    if not isinstance(t, int) or t < 2:
        raise ValueError(f"down-step magnitude t must be an integer >= 2, got {t}")


def _require_steps(steps) -> None:
    if not _STEPS.issuperset(steps):
        raise TypeError("steps must be Step members")


_U, _L = Step.U, Step.L  # bound once: EnumType's __getattr__ hook slows Step.X


class _Invalid(ValueError):
    """A broken word rule, as `WordChecker.require` raises it: the rule's
    name and the index of the step it is reported at."""

    def __init__(self, rule: str, index: int):
        self.rule, self.index = rule, index
        super().__init__(f"invalid word (invalid: {rule} at index {index})")


class WordChecker:
    """The word rules over a run of words over one t, each checked from
    the depth where it parts from the word checked before it.

    The checker keeps the steps of the last word's valid prefix and the
    level after each of them (so the previous step and the level at each
    depth).  A claimed common prefix is confirmed against that copy, not
    trusted; a claim that does not hold restarts the check at depth 0.
    """

    __slots__ = ("_delta", "_steps", "_levels")

    def __init__(self, t: int):
        _require_t(t)
        self._delta = _level_deltas(t)
        self._steps: list[Step] = []  # a valid prefix of the last word, all of it if valid
        self._levels = [0]  # the level after each step of that prefix

    def require(self, steps, shared: int = 0) -> int:
        """Raise ValueError, naming the first broken rule, unless ``steps`` is valid.

        Rules, by name and in the order they are checked at each step:
        "first-step" (a nonempty word starts with U), "UL" and "LU" (the
        forbidden adjacent pairs, reported at the index of the pair's first
        step), and "below-axis" (a prefix dips under level 0).  The error
        carries the rule and that index as ``rule`` and ``index``.

        ``shared`` claims that many leading steps in common with the word
        checked last; only the steps after a confirmed claim are checked.
        Returns the depth the check resumed at: ``shared``, or 0.
        """
        known, levels = self._steps, self._levels
        if not (0 <= shared <= len(known) and steps[:shared] == known[:shared]):
            shared = 0
        del known[shared:], levels[shared + 1 :]
        new = steps[shared:]
        _require_steps(new)
        if not shared and new and new[0] is not _U:
            raise _Invalid("first-step", 0)
        delta = self._delta
        level = levels[shared]
        prev = known[-1] if shared else None
        for i, s in enumerate(new, shared):
            if prev is _U and s is _L:
                raise _Invalid("UL", i - 1)
            if prev is _L and s is _U:
                raise _Invalid("LU", i - 1)
            level += delta[s]
            if level < 0:
                raise _Invalid("below-axis", i)
            known.append(s)
            levels.append(level)
            prev = s
        return shared


def walk(
    t: int,
    n: int,
    closed_only: bool = True,
    style: str = "red-overlay",
    plain: bool = False,
):
    """Depth-first walk over the valid words of length n, in lexicographic order.

    Yields the live step list and live vertex list (n + 1 points in geometry ``style``)
    of each word; both change as the walk moves on, so a caller copies what it keeps.
    With them comes ``shared``, the number of leading steps the word has in common
    with the word yielded before it (0 for the first): the lowest depth the walk
    backed up to in between.  ``plain`` leaves L out.  Lengths above
    `DEFAULT_ENUMERATION_CAP` are refused on the call, before any word: use the
    counting table.
    """
    _require_t(t)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(
            f"length {n} exceeds the exhaustive-enumeration cap ({DEFAULT_ENUMERATION_CAP}); "
            "use the automaton counting table (dp_counts) instead"
        )
    if style not in GEOMETRY_MODES:
        raise ValueError(f"mode must be one of {GEOMETRY_MODES}, got {style!r}")
    return _walk(t, n, closed_only, _STEP_DX[style], plain)


def _walk(t: int, n: int, closed_only: bool, dx: dict[Step, int], plain: bool):
    """The generator behind `walk`, over checked arguments."""
    U, D, L = ((s, _level_deltas(t)[s], dx[s]) for s in STEP_ORDER)
    # the word rules: U first, no UL, no LU; the level bounds keep it on or above the axis
    follow = {None: (U,), Step.U: (U, D), Step.D: (U, D) if plain else (U, D, L), Step.L: (D, L)}
    steps, verts = [], [(0, 0)]
    if closed_only and n % (t + 1):
        return  # each step moves the level by 1 mod t+1, so no word closes
    if n == 0:
        yield steps, verts, 0
        return
    shared = 0
    todo = [iter(follow[None])]  # the untried next steps, one iterator per depth
    while todo:
        left = n - len(todo)  # steps still to come after the next one
        top = t * left if closed_only else n  # a closed word falls t a step at most
        x, y = verts[-1]
        for s, dy, run in todo[-1]:
            level = y + dy
            if not 0 <= level <= top:
                continue
            steps.append(s)
            verts.append((x + run, level))
            if left:
                todo.append(iter(follow[s]))
                break
            yield steps, verts, shared
            steps.pop()
            verts.pop()
            shared = n - 1  # the depth just backed up to
        else:  # every next step of this prefix is tried: back up one step
            todo.pop()
            if steps:
                steps.pop()
                verts.pop()
                if len(steps) < shared:
                    shared = len(steps)


def grid_box(t: int, n: int) -> tuple[int, int]:
    """(x_max, y_max): the box [0, x_max] x [0, y_max], at least 1 x 1, around
    every vertex of every closed word of length n, in either style, with or without L.

    A prefix with u U's, d D's and l L's is at level y = u - t(d + l), so a
    closed word has u = tm, d + l = m and n = (t + 1)m (m = 0 if t + 1 does not
    divide n).  Level >= 0 gives u >= 2l, so x >= u + 2d - 2l >= 0 even when L
    runs left, and x <= u + 2(d + l) <= (t + 2)m, y <= u <= tm.  U^(tm) D^m
    meets both bounds in either style and has no L.
    """
    m = 0 if n % (t + 1) else n // (t + 1)
    return max(1, (t + 2) * m), max(1, t * m)
