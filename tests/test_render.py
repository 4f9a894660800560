"""Figure emitters: diagram counts, red marks, golden structure."""

import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewdyck import RENDER_MODES, paths, render
from skewdyck.automaton import dp_counts
from skewdyck.paths import GEOMETRY_MODES, STEP_ORDER, Step, WordChecker, grid_box, walk
from skewdyck.render import _quarters, render_document
from test_paths import reference_vertices, walked_words

GOLDEN_TIKZ_N3 = """\\begin{tikzpicture}[scale=0.2]
\t\\draw[help lines] (0,0) grid (4,2);
\t\\draw[thick] (0,0) -- (1,1) -- (2,2) -- (4,0);
\\end{tikzpicture}
"""

GOLDEN_SVG_N3 = """<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="100" height="60" viewBox="0 0 100 60">
  <g class="diagram" transform="translate(10,10)">
    <path class="grid" d="M0 0V40 M20 0V40 M40 0V40 M60 0V40 M80 0V40 M0 0H80 M0 20H80 M0 40H80" stroke="#cccccc" stroke-width="0.5" fill="none"/>
    <polyline class="path" points="0,40 20,20 40,0 80,40" stroke="black" stroke-width="2" fill="none"/>
  </g>
</svg>
"""


def reference_fmt(x):
    # the Fraction-based coordinate formatter the emitters first used
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return str(float(f))


def test_quarter_formatter_matches_reference():
    for q in range(-400, 401):
        assert _quarters(q) == reference_fmt(Fraction(q, 4)), q


def mode_words(t, n, mode):
    # reference selection: every closed word, or the L-free ones
    words = walked_words(t, n)
    if mode == "plain":
        words = [w for w in words if Step.L not in w]
    return words


class TestWordSelection:
    def test_plain_mode_drops_marked_words(self):
        words = [tuple(steps) for steps, _, _ in walk(2, 9, plain=True)]
        assert len(words) == 12
        assert words == mode_words(2, 9, "plain")

    def test_skew_mode_keeps_all(self):
        assert sum(1 for _ in walk(2, 9)) == 19
        assert sum(1 for _ in walk(2, 9, plain=True)) == 12

    def test_bad_mode(self):
        for fmt in ("svg", "tikz"):
            with pytest.raises(ValueError, match="mode"):
                render_document(2, 9, "fancy", "red-overlay", False, fmt)


class TestSvg:
    def test_diagram_counts(self):
        plain = render_document(2, 9, "plain", "red-overlay", False, "svg")
        skew = render_document(2, 9, "skew", "red-overlay", False, "svg")
        assert plain.count('class="diagram"') == 12
        assert skew.count('class="diagram"') == 19

    def test_red_segment_count_matches_marked_steps(self):
        skew = render_document(2, 9, "skew", "red-overlay", False, "svg")
        marked = sum(
            1 for w in walked_words(2, 9) for s in w if s is Step.L
        )
        assert marked == 8
        assert skew.count('class="skew"') == marked

    def test_plain_has_no_red(self):
        plain = render_document(2, 9, "plain", "red-overlay", False, "svg")
        assert 'stroke="red"' not in plain

    def test_golden_n3(self):
        assert render_document(2, 3, "skew", "red-overlay", False, "svg") == GOLDEN_SVG_N3

    def test_left_style_emits_per_segment_lines(self):
        doc = render_document(2, 6, "skew", "left", False, "svg")
        assert "polyline" not in doc
        assert 'stroke="red"' in doc

    def test_mirrored_flips_x(self):
        doc = render_document(2, 3, "skew", "red-overlay", True, "svg")
        assert 'points="80,40 60,20 40,0 0,40"' in doc

    def test_deterministic(self):
        a = render_document(2, 9, "skew", "red-overlay", False, "svg")
        b = render_document(2, 9, "skew", "red-overlay", False, "svg")
        assert a == b


class TestTikz:
    def test_diagram_counts(self):
        plain = render_document(2, 9, "plain", "red-overlay", False, "tikz")
        skew = render_document(2, 9, "skew", "red-overlay", False, "tikz")
        assert plain.count("\\begin{tikzpicture}") == 12
        assert skew.count("\\begin{tikzpicture}") == 19

    def test_golden_n3(self):
        assert render_document(2, 3, "skew", "red-overlay", False, "tikz") == GOLDEN_TIKZ_N3

    def test_overlay_marks_use_quarter_offsets(self):
        # UUUUDL's marked step runs (6,2) -> (8,0); its red copy is nudged
        doc = render_document(2, 6, "skew", "red-overlay", False, "tikz")
        assert "\\draw[thick,red] (6.25,2) -- (8,0.25);" in doc

    def test_mirrored_wraps_in_scope(self):
        doc = render_document(2, 3, "skew", "red-overlay", True, "tikz")
        assert "\\begin{scope}[xscale=-1,yscale=1]" in doc
        assert "\\end{scope}" in doc

    def test_grid_is_shared_across_document(self):
        doc = render_document(2, 9, "skew", "red-overlay", False, "tikz")
        grids = {line.strip() for line in doc.splitlines() if "grid" in line}
        assert len(grids) == 1

    def test_bad_format(self):
        with pytest.raises(ValueError, match="format"):
            render_document(2, 3, "skew", "red-overlay", False, "png")


class TestGridBox:
    @settings(deadline=None, max_examples=100)
    @given(
        t=st.integers(2, 7),
        n=st.integers(0, 14),
        mode=st.sampled_from(RENDER_MODES),
        style=st.sampled_from(GEOMETRY_MODES),
    )
    @example(t=2, n=1, mode="skew", style="red-overlay")  # no closed word at all
    @example(t=2, n=0, mode="plain", style="left")  # only the empty word
    @example(t=7, n=8, mode="skew", style="left")  # the widest t, one down-step
    @example(t=6, n=14, mode="plain", style="red-overlay")  # two down-steps
    def test_box_pass_matches_realized_vertices(self, t, n, mode, style):
        # reference rule: the (0, 1, 1) floor widened by every vertex of
        # every word, chained from literal step vectors; the closed form
        # needs neither the style nor the mode, and no word reaches left of x = 0
        words = mode_words(t, n, mode)
        x_min, x_max, y_max = 0, 1, 1
        for w in words:
            for x, y in reference_vertices(t, w, style):
                x_min, x_max, y_max = min(x_min, x), max(x_max, x), max(y_max, y)
        assert x_min == 0
        assert grid_box(t, n) == (x_max, y_max)


@pytest.mark.parametrize("fmt", ["svg", "tikz"])
@pytest.mark.parametrize("mode", RENDER_MODES)
def test_document_walks_the_words_once(monkeypatch, mode, fmt):
    # the box comes from (t, n) and the diagram count from the drawing
    # itself, so a document runs one walk, from whichever module
    calls = []
    real_walk = paths.walk

    def counted(*args, **kwargs):
        calls.append(args)
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(paths, "walk", counted)
    monkeypatch.setattr(render, "walk", counted)
    render_document(2, 9, mode, "red-overlay", False, fmt)
    assert len(calls) == 1


@pytest.mark.parametrize("t, n", [(t, n) for t in (2, 3, 4) for n in range(16)])
def test_diagram_count_is_the_table_count(t, n):
    # the count the SVG header is sized from comes from the drawing pass;
    # tie it to the counting table, which enumerates nothing
    want = dp_counts(t, n, k_max=0).closed_count(n)
    svg = render_document(t, n, "skew", "red-overlay", False, "svg")
    tikz = render_document(t, n, "skew", "red-overlay", False, "tikz")
    assert svg.count('class="diagram"') == want
    assert tikz.count("\\begin{tikzpicture}") == want


@pytest.mark.parametrize("fmt", ["svg", "tikz"])
def test_document_holds_no_list_of_geometries(monkeypatch, fmt):
    # a document checks each word once and holds one word at a time: when a
    # word is checked, no word the walk yielded before it is still alive
    class Live(list):  # a step list that can be weakly referenced
        __slots__ = ("__weakref__",)

    words = walked_words(2, 9)
    refs, alive, checked = [], [], []
    real_walk, real_require = render.walk, WordChecker.require

    def fresh_walk(*args, **kwargs):
        for steps, verts, shared in real_walk(*args, **kwargs):
            yield Live(steps), verts, shared

    def tracked(self, steps, shared=0):
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(steps))
        checked.append(tuple(steps))
        return real_require(self, steps, shared)

    monkeypatch.setattr(render, "walk", fresh_walk)
    monkeypatch.setattr(WordChecker, "require", tracked)
    render_document(2, 9, "skew", "red-overlay", False, fmt)
    assert checked == words
    assert len(checked) == 19
    assert max(alive) == 0


U, D, L = STEP_ORDER
_OVERLAY_UUUUDD = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (6, 2), (8, 0)]

# (n, the words a broken walk yields, the error), keyed by the test id
# after the format
_BAD_WALKS = {
    # a word the walk should never yield
    "": (3, [([U, L, D], [(0, 0), (1, 1), (3, -1), (5, -3)], 0)], "UL at index 0"),
    # UUUULD has UUUUDD's overlay vertices and hides a UL behind a shared
    # count one too high: a checker that believed the count would resume
    # past the UL and pass the word
    "-overstated-shared": (
        6,
        [([U, U, U, U, D, D], _OVERLAY_UUUUDD, 0), ([U, U, U, U, L, D], _OVERLAY_UUUUDD, 5)],
        "UL at index 3",
    ),
}


@pytest.mark.parametrize(
    "fmt, n, walked, error",
    [
        pytest.param(fmt, *case, id=fmt + name)
        for name, case in _BAD_WALKS.items()
        for fmt in ("svg", "tikz")
    ],
)
def test_drawn_words_are_validated(monkeypatch, fmt, n, walked, error):
    # a word the walk should never yield is refused by the word check,
    # whatever prefix the walk claims it shares with the word before
    def bad_walk(t, n, **kwargs):
        yield from walked

    monkeypatch.setattr(render, "walk", bad_walk)
    with pytest.raises(ValueError, match=f"^{re.escape(f'invalid word (invalid: {error})')}$"):
        render_document(2, n, "skew", "red-overlay", False, fmt)
