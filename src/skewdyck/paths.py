"""Step alphabet, the word rules, and the two word walks.

A skew t-Dyck word is a sequence of `Step` members over {U, D, L} where U
climbs one unit and both down-steps drop t units; the word must stay on
or above the axis and may not contain UL or LU as adjacent pairs.  Closed
words end back on the axis.  The drawing convention stretches down-steps:
U maps to (+1, +1), D to (+2, -t), and L either to a true left step
(-2, -t) or, in the default overlay style, to a forward (+2, -t) segment
tagged red so the emitters can offset it visually.  A vertex's y is its
level in either style.

`_FOLLOW`, the steps allowed after each last step, is the one table the
walks generate words by.  `prefix_ends` walks the tree of words up to a
length, closed or not, depth first, so each open word is visited once.
`words` builds the closed words of one length as a DAG with one node per
automaton state (the level, the last step and the steps still to come):
a `Node` is a tuple of (step, rest) edges in step order, where ``rest`` is
the node of the state after the step (`END`, with no edge, after the last
step), so words that end alike share their ends and the root, the node of
the empty word, spells every word on its paths to `END`.  `grid_box`
bounds them all from t and n alone.  `WordChecker` is the one check of the
word rules, written apart from `_FOLLOW`: it checks each node once per
state it is reached at, one edge's step at a time.
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


@cache
def step_vectors(t: int, style: str) -> dict[Step, tuple[int, int]]:
    """(dx, dy) of each step in geometry ``style``: dy is its level change
    (one table per t and style)."""
    return {s: (_STEP_DX[style][s], dy) for s, dy in _level_deltas(t).items()}


def _require_t(t) -> None:
    if not isinstance(t, int) or t < 2:
        raise ValueError(f"down-step magnitude t must be an integer >= 2, got {t}")


def _require_length(n) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"length n must be an integer >= 0, got {n}")
    if n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(
            f"length {n} exceeds the exhaustive-enumeration cap ({DEFAULT_ENUMERATION_CAP}); "
            "use the automaton counting table (dp_counts) instead"
        )


_U, _D, _L = STEP_ORDER  # bound once: EnumType's __getattr__ hook slows Step.X

# the steps that may follow each last step (None before the first), in step
# order: U first, no UL, no LU.  A plain word leaves L out.
_FOLLOW = {None: (_U,), _U: (_U, _D), _D: (_U, _D, _L), _L: (_D, _L)}


class _Invalid(ValueError):
    """A broken word rule, as `WordChecker` raises it: the rule's name and
    the index of the step it is reported at."""

    def __init__(self, rule: str, index: int):
        self.rule, self.index = rule, index
        super().__init__(f"invalid word (invalid: {rule} at index {index})")


class Node(tuple):
    """The ends of the words after one state: a tuple of (step, rest) edges
    in step order, ``rest`` being the node after that step.  `END`, with no
    edge, is the empty end; every edge of a node `words` builds leads to
    `END` or to a node with edges.

    Nodes hash and compare by identity, so a memo keyed by a node costs
    one pointer, not a walk of the DAG below it.
    """

    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


END = Node()  # the empty end, the rest of every last step


class WordChecker:
    """The word rules over the DAGs of words of one t.

    Rules, by name and in the order they are checked at each step:
    "first-step" (a nonempty word starts with U), "UL" and "LU" (the
    forbidden adjacent pairs, reported at the index of the pair's first
    step), and "below-axis" (a prefix dips under level 0); a word must
    also end on the axis ("not-closed", at the index of its last step).
    Each is a rule on one step and the state before it (the level and the
    last step, None before the first), so a node is checked from the state
    it is reached at.  The error carries the rule and the index, counted
    from the word's first step, as ``rule`` and ``index``.  The checker
    remembers the nodes it passed from each state and checks none of them
    twice.
    """

    __slots__ = ("_delta", "_passed")

    def __init__(self, t: int):
        _require_t(t)
        self._delta = _level_deltas(t)
        self._passed = set()  # (node, level, last step): the node passed from that state

    def _step(self, depth: int, level: int, last, s) -> int:
        """The level after step ``s`` at ``depth``; raise ValueError on a broken rule."""
        delta = self._delta.get(s)
        if delta is None:
            raise TypeError("steps must be Step members")
        if last is None and s is not _U:
            raise _Invalid("first-step", 0)
        if last is _U and s is _L:
            raise _Invalid("UL", depth - 1)
        if last is _L and s is _U:
            raise _Invalid("LU", depth - 1)
        level += delta
        if level < 0:
            raise _Invalid("below-axis", depth)
        return level

    def require(self, root: Node) -> None:
        """Raise, naming the first broken rule of the first bad word in
        edge order, unless every word under ``root`` is a valid closed word,
        checked from its first step.  A root already passed costs one lookup."""
        if (root, 0, None) not in self._passed:
            self._require_node(0, 0, None, root)

    def _require_node(self, depth: int, level: int, last, node: Node) -> None:
        """Check ``node`` after the state (depth, level, last): called once
        per (node, level, last step).

        Each edge has its step checked once, and then its rest from the
        state after it, so the words are checked in order, each shared step
        once.
        """
        if node is END and level:
            raise _Invalid("not-closed", depth - 1)
        for s, rest in node:
            after = self._step(depth, level, last, s)
            if (rest, after, s) not in self._passed:
                self._require_node(depth + 1, after, s, rest)
        self._passed.add((node, level, last))


def prefix_ends(t: int, n_max: int):
    """(length, level, last step) of every valid word of length <= n_max,
    closed or not, once each: a depth-first walk of the tree of words, in
    lexicographic order.  The empty word is (0, 0, None).  Arguments are
    checked, and refused, on the call as by `words`."""
    _require_t(t)
    _require_length(n_max)
    return _prefix_ends(_level_deltas(t), n_max)


def _prefix_ends(delta: dict, n_max: int):
    """The generator behind `prefix_ends`, over checked arguments."""
    # (step, level change) of each step's followers, reversed: the stack pops them in order
    pushed = {last: [(s, delta[s]) for s in reversed(steps)] for last, steps in _FOLLOW.items()}
    stack = [(0, 0, None)]
    while stack:
        end = n, level, last = stack.pop()
        yield end
        if n < n_max:
            stack += [(n + 1, level + dy, s) for s, dy in pushed[last] if level + dy >= 0]


def words(t: int, n: int, *, plain: bool) -> Node:
    """The closed words of length n (L-free ones if ``plain``), as the
    root of their DAG: the `Node` of the state (level 0, no step yet, n
    steps left), whose paths to `END` spell the words in lexicographic
    order.

    Each node is made once per state, and an edge whose rest has no
    completion is dropped, so every edge leads to `END` or to a node with
    edges.  The root is `END` at n = 0, and an empty node that is not
    `END` when no word closes.  Lengths above `DEFAULT_ENUMERATION_CAP`,
    and lengths that are not ints, are refused: use the counting table.
    """
    _require_t(t)
    _require_length(n)
    if n % (t + 1):
        return Node()  # each step moves the level by 1 mod t+1, so no word closes
    delta, skip = _level_deltas(t), _L if plain else None
    follow = {last: tuple((s, delta[s]) for s in steps if s is not skip) for last, steps in _FOLLOW.items()}
    made = {}  # the node of each state

    def node(level: int, last, r: int) -> Node:
        # the node of the words' last r steps after `last` at `level`
        got = made.get((level, last, r))
        if got is None:
            edges = []
            for s, dy in follow[last] if r else ():
                if 0 <= level + dy <= t * (r - 1):  # a closed word falls t a step at most
                    rest = node(level + dy, s, r - 1)
                    if rest or rest is END:
                        edges.append((s, rest))
            got = made[level, last, r] = Node(edges) if r else END
        return got

    return node(0, None, n)


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
