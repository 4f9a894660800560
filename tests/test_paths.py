"""Word validation, enumeration, and the walks' vertices and ends.

Words are the tuples of step letters the walks yield.  The brute-force checkers below
are direct transcriptions of the word rules and never call the library
checker, and `reference_vertices` chains literal step vectors, so the
exhaustive comparisons are a genuine second opinion.  The closed words
of one length come as the root of a DAG with one node per state;
`words_of` reads the words under a node, and `walk_of` flattens the root
into whole words with their vertices.  The open-word walk yields each
word's length, level and last step, and is compared with the brute-force
words.
"""

import functools
import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewdyck import render
from skewdyck.automaton import dp_counts
from skewdyck.paths import (
    END, GEOMETRY_MODES, STEP_ORDER, Node, WordChecker, prefix_ends, step_vectors, words,
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
    return sum(1 if s == "U" else -t for s in steps)


def reference_validate(t, steps):
    # the rule order of the original validator: first-step, UL, LU,
    # below-axis, checked step by step with each step's own level change;
    # None for a valid word, else the broken rule and its index
    level = 0
    prev = None
    for i, s in enumerate(steps):
        if i == 0 and s != "U":
            return "first-step", 0
        if prev == "U" and s == "L":
            return "UL", i - 1
        if prev == "L" and s == "U":
            return "LU", i - 1
        level += 1 if s == "U" else -t
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


def chain(steps, rest=END):
    # the one-word DAG: ``steps`` as a chain of one-edge nodes, then ``rest``
    return Node([(steps[0], chain(steps[1:], rest))]) if steps else rest


def verdict(checker, steps):
    # `WordChecker.require` on the one-word chain, in the reference's terms:
    # None, or the rule and index the raised error carries (a valid open
    # word fails only "not-closed", at its last index)
    try:
        checker.require(chain(steps))
    except ValueError as exc:
        return exc.rule, exc.index
    return None


def words_of(node):
    # the words under a node, as step tuples in edge order: `END` holds the
    # empty one, and an edge (s, rest) the words s + w, w under rest
    if node is END:
        return [()]
    return [(s, *w) for s, rest in node for w in words_of(rest)]


def node_of(*words):
    # a node holding the words ``words``: one edge per first step, in the
    # order the words first use it
    if words == ((),):
        return END
    rests = {}
    for w in words:
        rests.setdefault(w[0], []).append(w[1:])
    return Node((s, node_of(*ws)) for s, ws in rests.items())


def walk_of(t, n, style="red-overlay", plain=False):
    # the closed words of `words`, whole and in edge order, each with its
    # vertices chained from the library's step vectors; (steps, vertices)
    # lists per word
    root = words(t, n, plain=plain)  # arguments refused here, on the call
    vectors, walked = step_vectors(t, style), []
    for word in words_of(root):
        points = [(0, 0)]
        for s in word:
            (x, y), (dx, dy) = points[-1], vectors[s]
            points.append((x + dx, y + dy))
        walked.append((list(word), points))
    return walked


def reference_vertices(t, steps, style):
    # the drawing convention as literal step vectors: U (1, 1), D (2, -t),
    # and L (-2, -t) in the left style or (2, -t) in the red overlay
    vectors = {
        "U": (1, 1),
        "D": (2, -t),
        "L": (-2, -t) if style == "left" else (2, -t),
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
    return tuple(letters)


def text(steps):
    return "".join(steps)


def step_lex_key(letters):
    # the library's step order U < D < L, which ASCII does not share
    return ["UDL".index(ch) for ch in letters]


class TestValidate:
    def test_simple_closed(self):
        assert verdict(WordChecker(2), word("UUD")) is None

    def test_ul_reported_with_index(self):
        with pytest.raises(ValueError, match=re.escape("invalid word (invalid: UL at index 1)")):
            WordChecker(2).require(chain(word("UUL")))
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
        with pytest.raises(TypeError, match="steps must be the letters"):
            WordChecker(2).require(chain(("U", "u", "D")))

    def test_exhaustive_against_brute_force(self):
        # a valid word passes when it closes, and fails only "not-closed"
        # at its last index when it does not
        for t in (2, 3):
            checker = WordChecker(t)
            for n in range(7):
                for steps in itertools.product(STEP_ORDER, repeat=n):
                    got, valid = verdict(checker, steps), brute_valid(t, text(steps))
                    assert (got in (None, ("not-closed", n - 1))) == valid, steps
                    assert (got is None) == (valid and brute_level(t, steps) == 0), steps


class TestValidateDifferential:
    @settings(deadline=None, max_examples=500)
    @given(
        t=st.integers(2, 5),
        steps=st.lists(st.sampled_from(STEP_ORDER), max_size=14),
    )
    def test_same_result_as_reference(self, t, steps):
        assert verdict(WordChecker(t), steps) == reference_closed(t, steps)


class TestIsClosed:
    def test_examples(self):
        # a word is closed when it ends back on the axis: its last vertex's
        # y, which is the level in either style
        for style in GEOMETRY_MODES:
            assert walked_vertices(2, word("UUD"), style)[-1][1] == 0
            assert walked_vertices(2, word("UUUUDL"), style)[-1][1] == 0
        # an open word ends off the axis: UU is no closed word, and ends at level 2
        assert walked_words(2, 2) == [] and (2, 2, "U") in prefix_ends(2, 2)


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
                    if brute_valid(2, "".join(letters)) and brute_level(2, letters) == 0
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
            WordChecker(2).require(chain(word("UUL")))

    def test_unknown_mode_rejected(self, monkeypatch):
        # the document refuses the style before any word or table over the box
        def unreached(*args, **kwargs):
            raise AssertionError("reached past the style check")

        monkeypatch.setattr(render, "words", unreached)
        monkeypatch.setattr(render, "grid_box", unreached)
        for fmt in ("svg", "tikz"):
            with pytest.raises(ValueError, match="style must be one of"):
                render.render_document(2, 3, "skew", "sideways", False, fmt)


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
                    steps for steps in valid if brute_level(t, steps) == 0 and not (plain and "L" in steps)
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
        expected = [w for w in brute_words(t, n) if brute_level(t, w) == 0 and not (plain and "L" in w)]
        got = []
        for steps, verts in walk_of(t, n, style, plain):
            assert tuple(verts) == reference_vertices(t, steps, style)
            got.append(tuple(steps))
        assert got == expected

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_seconds_are_shared_per_junction(self, t):
        # the node reached after each prefix of a word holds exactly the
        # words' ends after that prefix, in order, and is the same object
        # for every prefix that reaches the same state: the same length,
        # level and last step
        for n in range(13):
            for plain in (True, False):
                want = [w for w in brute_words(t, n) if brute_level(t, w) == 0 and not (plain and "L" in w)]
                root, nodes = words(t, n, plain=plain), {}
                for w in want:
                    node = root
                    for d in range(n + 1):
                        prefix = w[:d]
                        assert [prefix + e for e in words_of(node)] == [v for v in want if v[:d] == prefix]
                        assert nodes.setdefault((d, brute_level(t, prefix), prefix[-1:]), node) is node
                        node = dict(node).get(w[d]) if d < n else None

    def test_bad_arguments(self):
        # refused on the call
        for args in [(1, 3), (2.0, 3), (2, -1), (2, 25), (2, 3.0), (2, "3")]:
            with pytest.raises(ValueError):
                words(*args, plain=True)

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("plain", [True, False])
    def test_empty_word_is_one_first_half_at_end(self, t, plain):
        # n = 0: the root is `END` itself (an empty node, so falsy, yet the
        # one empty word); a length no word closes at is an empty node that
        # is not `END`
        assert words(t, 0, plain=plain) is END
        assert words(t, t, plain=plain) == () and words(t, t, plain=plain) is not END
        assert type(words(t, t, plain=plain)) is Node

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_nodes_count_the_right_to_left_table(self, t):
        # F3: the right-to-left table counts the completions of a state, so
        # the words under the node reached after a step, with r steps left,
        # are RL(r, level, layer of the step), and the root's words are the
        # closed count (the RL level-0 F cell is pinned, so the root, with
        # no step before it, is read from the closed count); every node
        # reached is `END` or has edges, so no edge leads to a dead end
        layer_of = {"U": "F", "D": "G", "L": "H"}
        states = 0  # the roots and the states reached after a step
        for n in range(25):
            rl, counts = dp_counts(t, n, n, "RL"), {END: 1}

            def count(node):
                got = counts.get(node)
                if got is None:
                    got = counts[node] = sum(count(rest) for _, rest in node)
                return got

            root, seen = words(t, n, plain=False), set()
            assert count(root) == dp_counts(t, n, 0).closed_count(n), n
            stack = [(root, 0, n)]
            while stack:
                node, level, r = stack.pop()
                for s, rest in node:
                    after = level + (1 if s == "U" else -t)
                    if (rest, after, s) not in seen:
                        seen.add((rest, after, s))
                        assert rest or rest is END, "an edge leads to a node with no completion"
                        assert count(rest) == rl.count(r - 1, after, layer_of[s]), (n, r, after, s)
                        stack.append((rest, after, r - 1))
            states += 1 + len(seen)
        assert states == {2: 567, 3: 364, 4: 165}[t]


class TestNode:
    def test_hashes_and_compares_by_identity(self):
        # a memo keyed by a node must not hash or compare through the DAG
        # below it: equal edges make distinct nodes, and contents that
        # cannot be hashed do not stop a node from hashing
        a, b = Node(((U, END),)), Node(((U, END),))
        assert a != b and not a == b and a == a and not a != a
        assert hash(a) == object.__hash__(a) and {a: 1}.get(b) is None
        assert Node() != END and hash(Node(([],)))
        root = words(2, 6, plain=False)
        assert type(root) is Node and hash(root) == object.__hash__(root)


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
    # a word's verdict, step by step: a member that is not one of the step
    # letters refuses the word where it stands, after the rules of the
    # steps before it
    for k, s in enumerate(steps):
        if s not in ("U", "D", "L"):
            return reference_validate(t, steps[:k]) or "type"
    return reference_closed(t, steps)


def expected_verdict(t, root):
    # what checking ``root`` must raise: the verdict of the first bad word
    # in edge order, or None
    for w in words_of(root):
        broken = reference_word(t, w)
        if broken:
            return broken
    return None


def heights(root):
    # the longest path to a node with no edge from every node under ``root``
    found = {}

    def height(node):
        if node not in found:
            found[node] = max((1 + height(rest) for _, rest in node), default=0)
        return found[node]

    height(root)
    return found


def replaced(node, old, new, memo):
    # the DAG under ``node`` with ``old`` swapped for ``new`` wherever it
    # is met; nodes without ``old`` below them are kept, so sharing is kept
    if node is old:
        return new
    got = memo.get(node)
    if got is None:
        edges = [(s, replaced(rest, old, new, memo)) for s, rest in node]
        kept = all(got is rest for (_, got), (_, rest) in zip(edges, node))
        got = memo[node] = node if kept else Node(edges)
    return got


@st.composite
def checked_runs(draw):
    # a run of roots over one t: the roots of `words` and copies with one
    # node's edge changed, either its step (now and then to a member that
    # is not one of the letters: another string, an int or None) or its rest (to another node lower in the DAG, so
    # reached at the wrong state).  Nodes recur across the run and within
    # a root, so the checker meets them again at other states.
    t = draw(st.integers(2, 4))
    real = [words(t, draw(st.integers(0, 12)), plain=draw(st.booleans())) for _ in range(2)]
    real = [root for root in real if root] or [node_of((U, U, D))]
    run = []
    for _ in range(draw(st.integers(1, 8))):
        root = draw(st.sampled_from(real))
        if draw(st.integers(0, 2)):
            height = heights(root)
            node = draw(st.sampled_from([node for node in height if node]))
            edges = list(node)
            i = draw(st.integers(0, len(edges) - 1))
            s, rest = edges[i]
            # a node lower than this one, so the DAG stays acyclic
            lower = [other for other, h in height.items() if h < height[node] and other is not rest]
            if lower and draw(st.booleans()):
                rest = draw(st.sampled_from(lower))
            else:
                s = draw(st.sampled_from((*STEP_ORDER, "u", "X", "", 1, None)))
            edges[i] = s, rest
            root = replaced(root, node, Node(edges), {})
            real.append(root)
        run.append(root)
    return t, run


class TestWordChecker:
    @settings(deadline=None, max_examples=500)
    @given(checked_runs())
    # a valid end at the wrong state: a UL across it, a dip below the
    # axis past it, and a word that ends off the axis; and a node passed
    # at one state, met again at another
    @example((2, [chain((U, U, U), node_of((L, D, D)))]))
    @example((2, [chain((U, U), Node([(U, node_of((U, D, D), (U, D, L), (D, U, D))),
                                      (D, node_of((U, D, D)))]))]))
    @example((2, [chain((U, U, D), node_of((U, U, D))), chain((U, U, U), node_of((U, U, D)))]))
    @example((2, [chain((U, U, U))]))
    @example((2, [chain((U, U, D), node_of((U, U, D))), chain((U, U, D), node_of((U, "u", D)))]))
    def test_resumed_check_matches_reference(self, case):
        # one checker over the whole run gives each root the verdict of the
        # first bad word the reference finds from scratch, and refuses a
        # word holding anything but the step letters where it stands
        t, run = case
        checker = WordChecker(t)
        for root in run:
            expected = expected_verdict(t, root)
            if expected is None:
                checker.require(root)
            elif expected == "type":
                with pytest.raises(TypeError, match="^steps must be the letters 'U', 'D' and 'L'$"):
                    checker.require(root)
            else:
                message = "invalid word (invalid: {} at index {})".format(*expected)
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
                    checker.require(root)
                assert (raised.value.rule, raised.value.index) == expected

    def test_every_pair_of_short_words(self):
        # each word of length <= 4, cut at every point into a chain and one
        # shared end, through one checker per t: the ends are shared, so
        # most of them were passed before at another state
        @functools.cache
        def shared(steps):
            return chain(steps)

        for t in (2, 3):
            checker = WordChecker(t)
            for n in range(5):
                for word in itertools.product(STEP_ORDER, repeat=n):
                    want = reference_closed(t, word)
                    for cut in range(n + 1):
                        try:
                            checker.require(chain(word[:cut], shared(word[cut:])))
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
