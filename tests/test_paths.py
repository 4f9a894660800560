"""Word validation, enumeration, and the walk's vertices.

Words are the Step tuples the walk yields.  The brute-force checkers below
are direct transcriptions of the word rules and never call the library
checker, and `reference_vertices` chains literal step vectors, so the
exhaustive comparisons are a genuine second opinion.
"""

import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewdyck.paths import GEOMETRY_MODES, STEP_ORDER, Step, WordChecker, walk


def brute_valid(t, text):
    level = 0
    prev = ""
    for i, ch in enumerate(text):
        if i == 0 and ch != "U":
            return False
        if prev == "U" and ch == "L":
            return False
        if prev == "L" and ch == "U":
            return False
        level += 1 if ch == "U" else -t
        if level < 0:
            return False
        prev = ch
    return True


def brute_level(t, steps):
    return sum(1 if s is Step.U else -t for s in steps)


def reference_validate(t, steps):
    # the rule order of the original validator: first-step, UL, LU,
    # below-axis, checked step by step with each step's own level change;
    # None for a valid word, else the broken rule and its index
    level = 0
    prev = None
    for i, s in enumerate(steps):
        if i == 0 and s is not Step.U:
            return "first-step", 0
        if prev is Step.U and s is Step.L:
            return "UL", i - 1
        if prev is Step.L and s is Step.U:
            return "LU", i - 1
        level += 1 if s is Step.U else -t
        if level < 0:
            return "below-axis", i
        prev = s
    return None


def verdict(checker, steps, shared=0):
    # `WordChecker.require` in the reference's terms: None, or the rule and
    # index the raised error carries
    try:
        checker.require(steps, shared)
    except ValueError as exc:
        return exc.rule, exc.index
    return None


def reference_vertices(t, steps, style):
    # the drawing convention as literal step vectors: U (1, 1), D (2, -t),
    # and L (-2, -t) in the left style or (2, -t) in the red overlay
    vectors = {
        Step.U: (1, 1),
        Step.D: (2, -t),
        Step.L: (-2, -t) if style == "left" else (2, -t),
    }
    verts = [(0, 0)]
    for s in steps:
        (x, y), (dx, dy) = verts[-1], vectors[s]
        verts.append((x + dx, y + dy))
    return tuple(verts)


def walked_words(t, n, closed_only=True, plain=False):
    # the walk's words, copied out of its live step list
    return [tuple(steps) for steps, _, _ in walk(t, n, closed_only, plain=plain)]


def walked_vertices(t, steps, style="red-overlay"):
    # the vertices the walk yields with the word, copied out of its live list
    for walked, verts, _ in walk(t, len(steps), closed_only=False, style=style):
        if tuple(walked) == steps:
            return tuple(verts)
    raise AssertionError(f"the walk never yields {text(steps)}")


def word(letters):
    return tuple(Step(ch) for ch in letters)


def text(steps):
    return "".join(s.value for s in steps)


def step_lex_key(letters):
    # the library's step order U < D < L, which ASCII does not share
    return ["UDL".index(ch) for ch in letters]


class TestValidate:
    def test_simple_closed(self):
        assert verdict(WordChecker(2), word("UUD")) is None

    def test_ul_reported_with_index(self):
        with pytest.raises(ValueError, match=re.escape("invalid word (invalid: UL at index 1)")):
            WordChecker(2).require(word("UUL"))
        assert verdict(WordChecker(2), word("UUL")) == ("UL", 1)

    def test_lu_reported(self):
        assert verdict(WordChecker(2), word("UUUUDLUUD")) == ("LU", 5)

    def test_below_axis(self):
        assert verdict(WordChecker(2), word("UD")) == ("below-axis", 1)

    def test_first_step_rule(self):
        assert verdict(WordChecker(2), word("DU")) == ("first-step", 0)

    def test_red_variant_of_plain_word(self):
        # the L-variant of UUUUDD, confirmed against the brute-force rules
        assert brute_valid(2, "UUUUDL")
        assert verdict(WordChecker(2), word("UUUUDL")) is None

    def test_empty_word_is_valid_and_closed(self):
        assert verdict(WordChecker(2), ()) is None
        assert walked_vertices(2, ())[-1] == (0, 0)

    def test_t_below_two_rejected_at_construction(self):
        with pytest.raises(ValueError):
            WordChecker(1)

    def test_non_step_rejected(self):
        with pytest.raises(TypeError, match="Step members"):
            WordChecker(2).require((Step.U, "U", Step.D))

    def test_exhaustive_against_brute_force(self):
        for t in (2, 3):
            for n in range(7):
                expected = sorted(
                    "".join(letters)
                    for letters in itertools.product("UDL", repeat=n)
                    if brute_valid(t, "".join(letters))
                )
                got = sorted(map(text, walked_words(t, n, closed_only=False)))
                assert got == expected


class TestValidateDifferential:
    @settings(deadline=None, max_examples=500)
    @given(
        t=st.integers(2, 5),
        steps=st.lists(st.sampled_from(STEP_ORDER), max_size=14),
    )
    def test_same_result_as_reference(self, t, steps):
        assert verdict(WordChecker(t), steps) == reference_validate(t, steps)


class TestIsClosed:
    def test_examples(self):
        # a word is closed when it ends back on the axis: its last vertex's
        # y, which is the level in either style
        for style in GEOMETRY_MODES:
            assert walked_vertices(2, word("UUD"), style)[-1][1] == 0
            assert walked_vertices(2, word("UU"), style)[-1][1] == 2
            assert walked_vertices(2, word("UUUUDL"), style)[-1][1] == 0


class TestEnumerate:
    def test_length_three(self):
        assert [text(x) for x in walked_words(2, 3)] == ["UUD"]

    def test_length_six(self):
        words = walked_words(2, 6)
        assert len(words) == 4
        assert [text(x) for x in words] == ["UUUUDD", "UUUUDL", "UUUDUD", "UUDUUD"]

    def test_length_nine_count(self):
        assert len(walked_words(2, 9)) == 19

    def test_non_integer_t_rejected(self):
        with pytest.raises(ValueError):
            walk(2.0, 3)

    def test_sorted_and_unique(self):
        words = [text(x) for x in walked_words(2, 12)]
        assert words == sorted(words, key=step_lex_key)
        assert len(words) == len(set(words))

    def test_closed_matches_brute_force(self):
        for n in (0, 3, 6, 9):
            expected = sorted(
                (
                    "".join(letters)
                    for letters in itertools.product("UDL", repeat=n)
                    if brute_valid(2, "".join(letters)) and brute_level(2, map(Step, letters)) == 0
                ),
                key=step_lex_key,
            )
            assert [text(x) for x in walked_words(2, n)] == expected

    def test_prefix_closure(self):
        # every prefix of a valid word is itself a valid (open) word
        for steps in walked_words(2, 9, closed_only=False):
            for cut in range(len(steps)):
                assert reference_validate(2, steps[:cut]) is None

    def test_cap_refusal_mentions_the_table(self):
        with pytest.raises(ValueError, match="counting table"):
            walk(2, 25)


class TestRealize:
    # the vertices the walk realizes a word at, on literal cases
    def test_uud_segments(self):
        assert walked_vertices(2, word("UUD")) == ((0, 0), (1, 1), (2, 2), (4, 0))

    def test_empty_geometry(self):
        assert [(steps, verts) for steps, verts, _ in walk(2, 0)] == [([], [(0, 0)])]

    def test_left_mode_walks_backwards(self):
        verts = walked_vertices(2, word("UUUUDL"), style="left")
        assert verts == ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (6, 2), (4, 0))

    def test_overlay_mode_keeps_moving_right(self):
        verts = walked_vertices(2, word("UUUUDL"), style="red-overlay")
        assert verts == ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (6, 2), (8, 0))

    def test_t3_vertical_drop(self):
        assert walked_vertices(3, word("UUUD"))[-1] == (5, 0)

    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            WordChecker(2).require(word("UUL"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            walk(2, 3, style="sideways")  # refused on the call, before any word


class TestWalk:
    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_against_brute_force(self, t):
        # every word over {U, D, L} in lexicographic order, kept when
        # `reference_validate` accepts it; the walk must visit exactly those words,
        # in that order, with the vertices `reference_vertices` gives each of them
        for n in range(10):
            valid = [
                steps
                for steps in itertools.product(STEP_ORDER, repeat=n)
                if reference_validate(t, steps) is None
            ]
            for closed_only in (True, False):
                for plain in (True, False):
                    expected = [
                        steps
                        for steps in valid
                        if (brute_level(t, steps) == 0 or not closed_only)
                        and not (plain and Step.L in steps)
                    ]
                    for style in GEOMETRY_MODES:
                        got = []
                        for steps, verts, _ in walk(t, n, closed_only, style=style, plain=plain):
                            assert tuple(verts) == reference_vertices(t, steps, style)
                            got.append(tuple(steps))
                        assert got == expected, (t, n, closed_only, plain, style)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_shared_is_the_common_prefix(self, t):
        for n in range(13):
            for closed_only in (True, False):
                for plain in (True, False):
                    for style in GEOMETRY_MODES:
                        last = None
                        for steps, _, shared in walk(t, n, closed_only, style=style, plain=plain):
                            expected = 0 if last is None else common_prefix(last, steps)
                            assert shared == expected, (t, n, closed_only, plain, style, steps)
                            last = steps.copy()

    def test_bad_arguments(self):
        # refused on the call, before any word is asked for
        for args in [(1, 3), (2.0, 3), (2, -1), (2, 25)]:
            with pytest.raises(ValueError):
                walk(*args)


U, D, L = STEP_ORDER


def common_prefix(a, b):
    k = 0
    while k < min(len(a), len(b)) and a[k] is b[k]:
        k += 1
    return k


@st.composite
def checked_runs(draw):
    # a run of step lists, each keeping some prefix of the one before, with a
    # claimed shared count that is right, overstated, understated or wild.
    # Most added steps keep the word valid, so the checks reach deep; the
    # rest are any step or, now and then, not a Step member at all.
    t = draw(st.integers(2, 5))
    run, last = [], []
    for _ in range(draw(st.integers(1, 8))):
        keep = draw(st.integers(0, len(last)))
        steps = last[:keep]
        for pick in draw(st.lists(st.integers(0, 19), max_size=10)):
            text = "".join(s.value if isinstance(s, Step) else "?" for s in steps)
            allowed = [s for s in STEP_ORDER if brute_valid(t, text + s.value)]
            if pick < 16 and allowed:
                steps.append(allowed[pick % len(allowed)])
            else:
                steps.append((*STEP_ORDER, "U", None)[pick % 5])
        true = common_prefix(last, steps)
        shared = draw(st.sampled_from([true, true + 1, true - 1, keep, len(steps)]) | st.integers(-3, 14))
        run.append((steps, shared))
        last = steps
    return t, run


class TestWordChecker:
    @settings(deadline=None, max_examples=500)
    @given(checked_runs())
    # a claim past the end of the last word; one over a prefix whose word
    # was refused for a step that is not a Step member; and a resumption at
    # a depth the word before did not reach, whose level is not the level
    # the word before that had there
    @example((2, [([U, U, D], 0), ([U, U, L], 5)]))
    @example((2, [([U, U], 0), ([U, "U"], 1), ([U, U, D], 2)]))
    @example((2, [([U, U, U, U], 0), ([U, U, D], 2), ([U, U, D, D], 3)]))
    def test_resumed_check_matches_reference(self, case):
        # one checker over the whole run gives each word the verdict
        # `reference_validate` gives it from scratch, and refuses a word
        # holding anything but Step members whatever its claim
        t, run = case
        checker = WordChecker(t)
        last, last_ok = [], False
        for steps, shared in run:
            if not all(isinstance(s, Step) for s in steps):
                with pytest.raises(TypeError, match="^steps must be Step members$"):
                    checker.require(steps, shared)
                last, last_ok = steps, False
                continue
            expected = reference_validate(t, steps)
            if expected is None:
                depth = checker.require(steps, shared)
                # the check resumed inside a prefix that really is shared,
                # and past all of a true claim after a valid word
                assert depth in (0, shared)
                assert steps[:depth] == last[:depth]
                if last_ok and 0 <= shared <= common_prefix(last, steps):
                    assert depth == shared
            else:
                message = "invalid word (invalid: {} at index {})".format(*expected)
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
                    checker.require(steps, shared)
                assert (raised.value.rule, raised.value.index) == expected
            last, last_ok = steps, expected is None

    def test_every_pair_of_short_words(self):
        # each word of length <= 4 checked right after each other one, under
        # every claim from -1 to 5
        words = [list(p) for n in range(5) for p in itertools.product(STEP_ORDER, repeat=n)]
        expected = [reference_validate(2, steps) for steps in words]
        for first in words:
            for steps, want in zip(words, expected):
                for shared in range(-1, 6):
                    checker = WordChecker(2)
                    verdict(checker, first)
                    assert verdict(checker, steps, shared) == want, (first, steps, shared)

    def test_bad_t_refused_as_by_walk(self):
        for t in (1, 2.0, "3"):
            with pytest.raises(ValueError) as from_walk:
                walk(t, 0)
            with pytest.raises(ValueError, match=re.escape(str(from_walk.value))):
                WordChecker(t)
