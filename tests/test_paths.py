"""Word validation, enumeration, and the walks' vertices and ends.

Words are the Step tuples the walks yield.  The brute-force checkers below
are direct transcriptions of the word rules and never call the library
checker, and `reference_vertices` chains literal step vectors, so the
exhaustive comparisons are a genuine second opinion.  The closed-word walk
goes over first halves and hands each the node of second halves that
complete it; `words_of` reads a node's second halves, and `walk_of`
flattens the walk into whole words.  The open-word walk
yields each word's length, level and last step, and is compared with the
brute-force words.
"""

import functools
import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewdyck.automaton import dp_counts
from skewdyck.paths import (
    END, GEOMETRY_MODES, STEP_ORDER, Node, Step, WordChecker, halves, prefix_ends, step_vectors,
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


def reference_closed(t, steps):
    # the reference verdict of a word the walk hands out as closed: the word
    # rules, then "not-closed" at the last step of a word off the axis
    broken = reference_validate(t, steps)
    if broken is None and brute_level(t, steps):
        return "not-closed", len(steps) - 1
    return broken


def verdict(checker, steps):
    # `WordChecker.require` in the reference's terms: None, or the rule and
    # index the raised error carries
    try:
        checker.require(steps)
    except ValueError as exc:
        return exc.rule, exc.index
    return None


def words_of(node):
    # the second halves under a node, as step tuples in edge order: `END`
    # holds the empty one, and an edge (s, rest) the halves s + w, w under rest
    if node is END:
        return [()]
    return [(s, *w) for s, rest in node for w in words_of(rest)]


def node_of(*words):
    # a node holding the second halves ``words``: one edge per first step,
    # in the order the words first use it
    if words == ((),):
        return END
    rests = {}
    for w in words:
        rests.setdefault(w[0], []).append(w[1:])
    return Node((s, node_of(*ws)) for s, ws in rests.items())


def walk_of(t, n, style="red-overlay", plain=False):
    # the closed words of `halves`, whole and in walk order: each first half
    # joined to each second half under its node, the second half's vertices chained
    # from the library's step vectors; (steps, vertices) lists per word
    walked = halves(t, n, style=style, plain=plain)  # arguments refused here, on the call
    vectors, words = step_vectors(t, style), []
    for steps, verts, node in walked:
        for half in words_of(node):
            word, points = list(steps), list(verts)
            for s in half:
                (x, y), (dx, dy) = points[-1], vectors[s]
                word.append(s)
                points.append((x + dx, y + dy))
            words.append((word, points))
    return words


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


def walked_words(t, n, plain=False):
    # the walk's closed words, as tuples
    return [tuple(steps) for steps, _ in walk_of(t, n, plain=plain)]


def walked_vertices(t, steps, style="red-overlay"):
    # the vertices the walk yields with the closed word
    for walked, verts in walk_of(t, len(steps), style=style):
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
            checker = WordChecker(t)
            for n in range(7):
                for steps in itertools.product(STEP_ORDER, repeat=n):
                    assert (verdict(checker, steps) is None) == brute_valid(t, text(steps)), steps


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
            assert walked_vertices(2, word("UUUUDL"), style)[-1][1] == 0
        # an open word ends off the axis: UU is no closed word, and ends at level 2
        assert walked_words(2, 2) == [] and (2, 2, Step.U) in prefix_ends(2, 2)


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
            walk_of(2.0, 3)

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
        for steps in walked_words(2, 9):
            for cut in range(len(steps)):
                assert reference_validate(2, steps[:cut]) is None

    def test_cap_refusal_mentions_the_table(self):
        with pytest.raises(ValueError, match="counting table"):
            walk_of(2, 25)


class TestRealize:
    # the vertices the walk realizes a word at, on literal cases
    def test_uud_segments(self):
        assert walked_vertices(2, word("UUD")) == ((0, 0), (1, 1), (2, 2), (4, 0))

    def test_empty_geometry(self):
        assert [(steps, verts) for steps, verts in walk_of(2, 0)] == [([], [(0, 0)])]

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
        with pytest.raises(ValueError, match="style must be one of"):
            walk_of(2, 3, style="sideways")  # refused on the call, before any word


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
            for plain in (True, False):
                expected = [
                    steps for steps in valid if brute_level(t, steps) == 0 and not (plain and Step.L in steps)
                ]
                for style in GEOMETRY_MODES:
                    got = []
                    for steps, verts in walk_of(t, n, style, plain):
                        assert tuple(verts) == reference_vertices(t, steps, style)
                        got.append(tuple(steps))
                    assert got == expected, (t, n, plain, style)

    @settings(deadline=None, max_examples=80)
    @given(
        t=st.integers(2, 5),
        n=st.integers(0, 15),
        plain=st.booleans(),
        style=st.sampled_from(GEOMETRY_MODES),
    )
    @example(t=2, n=15, plain=False, style="left")  # the most words
    @example(t=3, n=12, plain=False, style="red-overlay")
    def test_flattened_halves_match_brute_force(self, t, n, plain, style):
        # the half walk, flattened, yields the reference's closed words in
        # its order, each with the vertices `reference_vertices` gives it
        expected = [w for w in brute_words(t, n) if brute_level(t, w) == 0 and not (plain and Step.L in w)]
        got = []
        for steps, verts in walk_of(t, n, style, plain):
            assert tuple(verts) == reference_vertices(t, steps, style)
            got.append(tuple(steps))
        assert got == expected

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_seconds_are_shared_per_junction(self, t):
        # each first half has length ceil(n/2) and is yielded once, exactly
        # when some second half completes it; its node holds those second
        # halves in order, and is the same object for every first half that
        # ends at the same level with the same step
        for n in range(13):
            for plain in (True, False):
                words = [w for w in brute_words(t, n) if brute_level(t, w) == 0 and not (plain and Step.L in w)]
                h = n - n // 2
                nodes = {}
                seen = []
                for steps, verts, node in halves(t, n, style="left", plain=plain):
                    first = tuple(steps)
                    assert len(first) == h and verts[-1] == reference_vertices(t, first, "left")[-1]
                    assert [first + w for w in words_of(node)] == [w for w in words if w[:h] == first]
                    assert nodes.setdefault((verts[-1][1], first[-1:]), node) is node
                    seen.append(first)
                assert seen == sorted({w[:h] for w in words}, key=lambda w: [STEP_ORDER.index(x) for x in w])

    def test_bad_arguments(self):
        # refused on the call, before any word is asked for
        for args in [(1, 3), (2.0, 3), (2, -1), (2, 25), (2, 3.0), (2, "3")]:
            with pytest.raises(ValueError):
                halves(*args, style="left", plain=True)

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("plain", [True, False])
    def test_empty_word_is_one_first_half_at_end(self, t, plain):
        # n = 0: one empty first half, whose node is `END` itself (an empty
        # node, so falsy, yet the one second half of the empty word)
        for style in GEOMETRY_MODES:
            walked = [(list(steps), list(verts), node) for steps, verts, node in halves(t, 0, style=style, plain=plain)]
            assert walked == [([], [(0, 0)], END)]  # nodes compare by identity

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_nodes_count_the_right_to_left_table(self, t):
        # F3: the right-to-left table counts the completions of a state, so
        # the words under the node of a junction (level, last step) with
        # r >= 1 steps left are RL(r, level, layer of the last step); and
        # every node below a junction is `END` or has edges, so no edge
        # leads to a dead end
        layer_of = {Step.U: "F", Step.D: "G", Step.L: "H"}
        counts = {END: 1}

        def count(node):
            got = counts.get(node)
            if got is None:
                assert node, "an edge leads to a node with no completion"
                got = counts[node] = sum(count(rest) for _, rest in node)
            return got

        for n in range(t + 1, 25, t + 1):
            rl, r = dp_counts(t, n, n, "RL"), n // 2
            junctions = 0
            for steps, verts, node in halves(t, n, style="left", plain=False):
                assert count(node) == rl.count(r, verts[-1][1], layer_of[steps[-1]]), (n, steps)
                junctions += 1
            assert junctions


class TestNode:
    def test_hashes_and_compares_by_identity(self):
        # a memo keyed by a node must not hash or compare through the DAG
        # below it: equal edges make distinct nodes, and contents that
        # cannot be hashed do not stop a node from hashing
        a, b = Node(((U, END),)), Node(((U, END),))
        assert a != b and not a == b and a == a and not a != a
        assert hash(a) == object.__hash__(a) and {a: 1}.get(b) is None
        assert Node() != END and hash(Node(([],)))
        junction = next(node for *_, node in halves(2, 6, style="left", plain=False))
        assert type(junction) is Node and hash(junction) == object.__hash__(junction)


def ends_of(words, t):
    # (length, level, last step) of each word, as `prefix_ends` yields them
    return [(len(w), brute_level(t, w), w[-1] if w else None) for w in words]


class TestPrefixEnds:
    @settings(deadline=None, max_examples=60)
    @given(t=st.integers(2, 6), n_max=st.integers(0, 10))
    @example(t=2, n_max=10)  # the most words
    def test_every_word_once_against_brute_force(self, t, n_max):
        # the reference's words of every length <= n_max, each once, in
        # lexicographic order (a word before its extensions)
        words = sorted(
            (w for n in range(n_max + 1) for w in brute_words(t, n)),
            key=lambda w: [STEP_ORDER.index(s) for s in w],
        )
        assert list(prefix_ends(t, n_max)) == ends_of(words, t)

    def test_short_words(self):
        assert list(prefix_ends(2, 0)) == [(0, 0, None)]
        # "", U, UU, UUU, UUD, UD is below the axis
        assert list(prefix_ends(2, 3)) == [(0, 0, None), (1, 1, U), (2, 2, U), (3, 3, U), (3, 0, D)]

    def test_bad_arguments(self):
        # refused on the call, before any end is asked for
        for args, match in [
            ((1, 3), "t must"), ((2.0, 3), "t must"), ((2, -1), ">= 0"), ((2, 25), "counting table"),
            ((2, 2.5), "must be an integer"), ((2, 3.0), "must be an integer"),
        ]:
            with pytest.raises(ValueError, match=match):
                prefix_ends(*args)


U, D, L = STEP_ORDER


@functools.cache
def brute_words(t, n):
    # every valid word of length n in lexicographic order: each valid word
    # of length n - 1 followed by each step the reference rules accept
    # after it (the rules are local, so a valid word's prefixes are valid)
    if n == 0:
        return [()]
    return [w + (s,) for w in brute_words(t, n - 1) for s in STEP_ORDER if reference_validate(t, w + (s,)) is None]


def reference_word(t, steps):
    # a second half's verdict, step by step: a member that is not a Step
    # refuses the word where it stands, after the rules of the steps before it
    for k, s in enumerate(steps):
        if not isinstance(s, Step):
            return reference_validate(t, steps[:k]) or "type"
    return reference_closed(t, steps)


def expected_verdict(t, first, node):
    # what checking ``first`` and then ``node`` from its end must raise:
    # a first half with a member that is not a Step is refused whole, then
    # the first half's own rules, then the first bad word in edge order
    if not all(isinstance(s, Step) for s in first):
        return "type"
    broken = reference_validate(t, first)
    for half in words_of(node):
        broken = broken or reference_word(t, tuple(first) + half)
    return broken


def check_halves(checker, t, first, node):
    # one first half and its node through `checker`, as a document checks them
    junction = checker.require(first)
    assert junction == (len(first), brute_level(t, first), first[-1] if first else None)
    checker.require_seconds(junction, node)


@st.composite
def checked_runs(draw):
    # a run of first halves, each handed a node of second halves: the
    # walk's own pairs; the walk's nodes attached at another first half,
    # that is at the wrong junction state; and first halves or edges with
    # a step changed, now and then to a member that is not a Step.  Nodes
    # recur, so the checker meets them again at other states.
    t = draw(st.integers(2, 4))
    walked = halves(t, draw(st.integers(0, 12)), style="left", plain=draw(st.booleans()))
    real = [(list(steps), node) for steps, _, node in walked] or [([U], node_of((D,)))]
    nodes = [node for _, node in real]
    run = []
    for _ in range(draw(st.integers(1, 8))):
        first, node = draw(st.sampled_from(real))
        first = list(first)
        if draw(st.booleans()):
            node = draw(st.sampled_from(nodes))
        if first and draw(st.integers(0, 3)) == 0:
            first[draw(st.integers(0, len(first) - 1))] = draw(st.sampled_from((*STEP_ORDER, "U", None)))
        if node and draw(st.integers(0, 2)) == 0:
            edges = list(node)
            i = draw(st.integers(0, len(edges) - 1))
            edges[i] = draw(st.sampled_from((*STEP_ORDER, "U"))), edges[i][1]
            node = Node(edges)
            nodes.append(node)
        run.append((first, node))
    return t, run


class TestWordChecker:
    @settings(deadline=None, max_examples=500)
    @given(checked_runs())
    # a valid second half at the wrong junction: a UL across it, a dip
    # below the axis past it, and a word that ends off the axis; and a
    # tuple passed at one state, met again at another
    @example((2, [([U, U, U], node_of((L, D, D)))]))
    @example((2, [([U, U, D], node_of((U, D, D), (U, D, L), (D, U, D)))]))
    @example((2, [([U, U, D], node_of((U, U, D))), ([U, U, U], node_of((U, U, D)))]))
    @example((2, [([U, U, U], END)]))
    def test_resumed_check_matches_reference(self, case):
        # one checker over the whole run, resuming each word at its
        # junction, gives each first half and tuple the verdict of the
        # first bad word the reference finds from scratch, and refuses a
        # first half holding anything but Step members
        t, run = case
        checker = WordChecker(t)
        for first, node in run:
            expected = expected_verdict(t, first, node)
            if expected is None:
                check_halves(checker, t, first, node)
            elif expected == "type":
                with pytest.raises(TypeError, match="^steps must be Step members$"):
                    check_halves(checker, t, first, node)
            else:
                message = "invalid word (invalid: {} at index {})".format(*expected)
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
                    check_halves(checker, t, first, node)
                assert (raised.value.rule, raised.value.index) == expected

    def test_every_pair_of_short_words(self):
        # each word of length <= 4, cut at every point into a first half and
        # one second half, through one checker per t: the nodes share their
        # rests, so most of them were passed before at another state
        @functools.cache
        def shared(steps):
            return END if not steps else Node([(steps[0], shared(steps[1:]))])

        for t in (2, 3):
            checker = WordChecker(t)
            for n in range(5):
                for word in itertools.product(STEP_ORDER, repeat=n):
                    want = reference_closed(t, word)
                    for cut in range(n + 1):
                        try:
                            check_halves(checker, t, word[:cut], shared(word[cut:]))
                            got = None
                        except ValueError as exc:
                            got = exc.rule, exc.index
                        assert got == want, (t, word, cut)

    def test_bad_t_refused_as_by_walk(self):
        for t in (1, 2.0, "3"):
            with pytest.raises(ValueError) as from_walk:
                prefix_ends(t, 0)
            with pytest.raises(ValueError, match=re.escape(str(from_walk.value))):
                WordChecker(t)
