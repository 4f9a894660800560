"""Word validation, enumeration, and the walk's vertices.

The brute-force checker below is a direct transcription of the word
rules and never calls the library validator, and `reference_vertices`
chains literal step vectors, so the exhaustive comparisons are a genuine
second opinion.
"""

import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewdyck.paths import (
    GEOMETRY_MODES,
    STEP_ORDER,
    SkewWord,
    Step,
    ValidationResult,
    WordChecker,
    enumerate_words,
    validate,
    walk,
)


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


def brute_level(t, text):
    return sum(1 if ch == "U" else -t for ch in text)


def reference_validate(word):
    # the rule order of the original validator: first-step, UL, LU,
    # below-axis, checked step by step with each step's own level change
    level = 0
    prev = None
    for i, s in enumerate(word.steps):
        if i == 0 and s is not Step.U:
            return ValidationResult(False, "first-step", 0)
        if prev is Step.U and s is Step.L:
            return ValidationResult(False, "UL", i - 1)
        if prev is Step.L and s is Step.U:
            return ValidationResult(False, "LU", i - 1)
        level += 1 if s is Step.U else -word.t
        if level < 0:
            return ValidationResult(False, "below-axis", i)
        prev = s
    return ValidationResult(True)


@st.composite
def valid_words(draw):
    # grow a word one allowed step at a time; the drawn integers pick
    # among the steps that keep it valid, and it stops when none does
    t = draw(st.integers(2, 5))
    steps = []
    for pick in draw(st.lists(st.integers(0, 2), max_size=14)):
        prefix = "".join(s.value for s in steps)
        allowed = [s for s in STEP_ORDER if brute_valid(t, prefix + s.value)]
        if not allowed:
            break
        steps.append(allowed[pick % len(allowed)])
    return SkewWord(t, tuple(steps))


def reference_vertices(word, style):
    # the drawing convention as literal step vectors: U (1, 1), D (2, -t),
    # and L (-2, -t) in the left style or (2, -t) in the red overlay
    t = word.t
    vectors = {
        Step.U: (1, 1),
        Step.D: (2, -t),
        Step.L: (-2, -t) if style == "left" else (2, -t),
    }
    verts = [(0, 0)]
    for s in word.steps:
        (x, y), (dx, dy) = verts[-1], vectors[s]
        verts.append((x + dx, y + dy))
    return tuple(verts)


def walked_vertices(word, style="red-overlay"):
    # the vertices the walk yields with the word, copied out of its live list
    for steps, verts, _ in walk(word.t, len(word), closed_only=False, style=style):
        if tuple(steps) == word.steps:
            return tuple(verts)
    raise AssertionError(f"the walk never yields {word}")


def step_lex_key(text):
    # the library's step order U < D < L, which ASCII does not share
    return ["UDL".index(ch) for ch in text]


def w(t, text):
    return SkewWord.from_string(t, text)


class TestValidate:
    def test_simple_closed(self):
        assert validate(w(2, "UUD"))

    def test_ul_reported_with_index(self):
        res = validate(w(2, "UUL"))
        assert not res
        assert res.rule == "UL"
        assert res.index == 1

    def test_lu_reported(self):
        res = validate(w(2, "UUUUDLUUD"))
        assert not res
        assert res.rule == "LU"
        assert res.index == 5

    def test_below_axis(self):
        res = validate(w(2, "UD"))
        assert res.rule == "below-axis"
        assert res.index == 1

    def test_first_step_rule(self):
        res = validate(w(2, "DU"))
        assert res.rule == "first-step"
        assert res.index == 0

    def test_red_variant_of_plain_word(self):
        # the L-variant of UUUUDD, confirmed against the brute-force rules
        assert brute_valid(2, "UUUUDL")
        assert validate(w(2, "UUUUDL"))

    def test_empty_word_is_valid_and_closed(self):
        empty = SkewWord(2, ())
        assert validate(empty)
        assert empty.final_level() == 0

    def test_t_below_two_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SkewWord(1, ())

    def test_non_step_rejected_at_construction(self):
        with pytest.raises(TypeError, match="Step members"):
            SkewWord(2, (Step.U, "U", Step.D))

    def test_exhaustive_against_brute_force(self):
        for t in (2, 3):
            for n in range(7):
                expected = sorted(
                    "".join(word)
                    for word in itertools.product("UDL", repeat=n)
                    if brute_valid(t, "".join(word))
                )
                got = sorted(str(x) for x in enumerate_words(t, n, closed_only=False))
                assert got == expected


class TestSkewWord:
    def test_immutable_value(self):
        # equal and equally hashed over (t, steps), and frozen once built
        a, b = w(2, "UUD"), SkewWord(2, [Step.U, Step.U, Step.D])
        assert a == b and hash(a) == hash(b) == hash((2, a.steps))
        assert a != w(3, "UUD") and a != (2, a.steps)
        assert repr(a) == f"SkewWord(t=2, steps={a.steps!r})"
        with pytest.raises(AttributeError, match="cannot assign to field 't'"):
            a.t = 3
        with pytest.raises(AttributeError, match="cannot delete field 'steps'"):
            del a.steps


class TestValidateDifferential:
    @settings(deadline=None, max_examples=500)
    @given(
        t=st.integers(2, 5),
        steps=st.lists(st.sampled_from(STEP_ORDER), max_size=14),
    )
    def test_same_result_as_reference(self, t, steps):
        word = SkewWord(t, tuple(steps))
        assert validate(word) == reference_validate(word)


class TestIsClosed:
    def test_examples(self):
        # a word is closed when it ends back on the axis
        assert w(2, "UUD").final_level() == 0
        assert w(2, "UU").final_level() == 2
        assert w(2, "UUUUDL").final_level() == 0


class TestEnumerate:
    def test_length_three(self):
        assert [str(x) for x in enumerate_words(2, 3)] == ["UUD"]

    def test_length_six(self):
        words = enumerate_words(2, 6)
        assert len(words) == 4
        assert [str(x) for x in words] == ["UUUUDD", "UUUUDL", "UUUDUD", "UUDUUD"]

    def test_length_nine_count(self):
        assert len(enumerate_words(2, 9)) == 19

    def test_non_integer_t_rejected(self):
        with pytest.raises(ValueError):
            enumerate_words(2.0, 3)

    def test_sorted_and_unique(self):
        words = [str(x) for x in enumerate_words(2, 12)]
        assert words == sorted(words, key=step_lex_key)
        assert len(words) == len(set(words))

    def test_closed_matches_brute_force(self):
        for n in (0, 3, 6, 9):
            expected = sorted(
                (
                    "".join(word)
                    for word in itertools.product("UDL", repeat=n)
                    if brute_valid(2, "".join(word)) and brute_level(2, "".join(word)) == 0
                ),
                key=step_lex_key,
            )
            assert [str(x) for x in enumerate_words(2, n)] == expected

    def test_prefix_closure(self):
        # every prefix of a valid word is itself a valid (open) word
        for word in enumerate_words(2, 9, closed_only=False):
            for cut in range(len(word)):
                assert validate(SkewWord(2, word.steps[:cut]))

    def test_cap_refusal_mentions_the_table(self):
        with pytest.raises(ValueError, match="counting table"):
            enumerate_words(2, 25)


class TestRealize:
    # the vertices the walk realizes a word at, on literal cases
    def test_uud_segments(self):
        assert walked_vertices(w(2, "UUD")) == ((0, 0), (1, 1), (2, 2), (4, 0))

    def test_empty_geometry(self):
        assert [(steps, verts) for steps, verts, _ in walk(2, 0)] == [([], [(0, 0)])]

    def test_left_mode_walks_backwards(self):
        verts = walked_vertices(w(2, "UUUUDL"), style="left")
        assert verts == ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (6, 2), (4, 0))

    def test_overlay_mode_keeps_moving_right(self):
        verts = walked_vertices(w(2, "UUUUDL"), style="red-overlay")
        assert verts == ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (6, 2), (8, 0))

    def test_t3_vertical_drop(self):
        assert walked_vertices(w(3, "UUUD"))[-1] == (5, 0)

    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            WordChecker(2).require(w(2, "UUL").steps)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            walk(2, 3, style="sideways")  # refused on the call, before any word


class TestWalk:
    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_against_brute_force(self, t):
        # every word over {U, D, L} in lexicographic order, kept when
        # `validate` accepts it; the walk must visit exactly those words, in
        # that order, with the vertices `reference_vertices` gives each of them
        for n in range(10):
            valid = [
                word
                for word in (SkewWord(t, steps) for steps in itertools.product(STEP_ORDER, repeat=n))
                if validate(word)
            ]
            for closed_only in (True, False):
                for plain in (True, False):
                    expected = [
                        word
                        for word in valid
                        if (word.final_level() == 0 or not closed_only)
                        and not (plain and Step.L in word.steps)
                    ]
                    for style in GEOMETRY_MODES:
                        got = []
                        for steps, verts, _ in walk(t, n, closed_only, style=style, plain=plain):
                            word = SkewWord(t, steps)
                            assert tuple(verts) == reference_vertices(word, style)
                            got.append(word)
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
        # `reference_validate` gives it from scratch, or SkewWord's error
        t, run = case
        checker, strict = WordChecker(t), WordChecker(t)
        last, last_ok = [], False
        for steps, shared in run:
            try:
                expected = reference_validate(SkewWord(t, steps))
            except TypeError as exc:
                expected = None
                for check in (checker.check, strict.require):
                    with pytest.raises(TypeError, match=re.escape(str(exc))):
                        check(steps, shared)
            else:
                assert checker.check(steps, shared) == expected
                if expected:
                    depth = strict.require(steps, shared)
                    # the check resumed inside a prefix that really is shared,
                    # and past all of a true claim after a valid word
                    assert depth in (0, shared)
                    assert steps[:depth] == last[:depth]
                    if last_ok and 0 <= shared <= common_prefix(last, steps):
                        assert depth == shared
                else:
                    with pytest.raises(ValueError, match=f"^{re.escape(f'invalid word ({expected})')}$"):
                        strict.require(steps, shared)
            last, last_ok = steps, bool(expected)

    def test_every_pair_of_short_words(self):
        # each word of length <= 4 checked right after each other one, under
        # every claim from -1 to 5
        words = [list(p) for n in range(5) for p in itertools.product(STEP_ORDER, repeat=n)]
        expected = [reference_validate(SkewWord(2, steps)) for steps in words]
        for first in words:
            for steps, verdict in zip(words, expected):
                for shared in range(-1, 6):
                    checker = WordChecker(2)
                    checker.check(first)
                    assert checker.check(steps, shared) == verdict, (first, steps, shared)

    def test_bad_t_refused_as_by_skew_word(self):
        for t in (1, 2.0, "3"):
            with pytest.raises(ValueError) as from_word:
                SkewWord(t, ())
            with pytest.raises(ValueError, match=re.escape(str(from_word.value))):
                WordChecker(t)
