"""Figure emitters: diagram counts, red marks, golden structure."""

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewdyck import RENDER_MODES, paths, render
from skewdyck.automaton import dp_counts
from skewdyck.paths import END, GEOMETRY_MODES, STEP_ORDER, Node, Step, WordChecker, grid_box
from skewdyck.render import _quarters, render_document
from test_paths import brute_level, brute_words, chain, node_of, reference_vertices, walk_of, walked_words, words_of

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
        words = [tuple(steps) for steps, _ in walk_of(2, 9, plain=True)]
        assert len(words) == 12
        assert words == mode_words(2, 9, "plain")

    def test_skew_mode_keeps_all(self):
        assert sum(1 for _ in walk_of(2, 9)) == 19
        assert sum(1 for _ in walk_of(2, 9, plain=True)) == 12

    def test_bad_mode(self):
        for fmt in ("svg", "tikz"):
            with pytest.raises(ValueError, match="mode"):
                render_document(2, 9, "fancy", "red-overlay", False, fmt)

    def test_non_integer_length_refused(self):
        # a length that is not an int is refused by the walk, before the
        # grid box is built from it
        for fmt in ("svg", "tikz"):
            for n in (3.0, 2.5, "3"):
                with pytest.raises(ValueError, match="length n must be an integer"):
                    render_document(2, n, "skew", "red-overlay", False, fmt)


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
    # itself, so a document builds one DAG of words, from whichever module
    calls = []
    real_words = paths.words

    def counted(*args, **kwargs):
        calls.append(args)
        return real_words(*args, **kwargs)

    monkeypatch.setattr(paths, "words", counted)
    monkeypatch.setattr(render, "words", counted)
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
    # a document checks each word once, and holds no word: the words reach
    # it only as the root `words` builds, which one `require` checks before
    # any text is made, and they are the walk's words once each
    roots, checked, formatted = [], [], []
    real_words, real_require, real_run = render.words, WordChecker.require, render._HalfTexts._run

    def recorded(*args, **kwargs):
        roots.append(real_words(*args, **kwargs))
        return roots[-1]

    def tracked(self, root):
        checked.append((root, len(formatted)))
        return real_require(self, root)

    def run(self, *args):
        formatted.append(args)
        return real_run(self, *args)

    monkeypatch.setattr(render, "words", recorded)
    monkeypatch.setattr(WordChecker, "require", tracked)
    monkeypatch.setattr(render._HalfTexts, "_run", run)
    render_document(2, 9, "skew", "red-overlay", False, fmt)
    assert len(roots) == 1 and checked == [(roots[0], 0)] and formatted
    assert words_of(roots[0]) == walked_words(2, 9)
    assert len(walked_words(2, 9)) == 19


@pytest.mark.parametrize("fmt", ["svg", "tikz"])
@pytest.mark.parametrize("style", GEOMETRY_MODES)
def test_each_half_is_formatted_and_checked_once(monkeypatch, style, fmt):
    # a count, not a timing: a document makes the texts of each (step,
    # rest, start vertex) below depth h = ceil(n/2) once and checks each
    # (node, level, step before it) once, and no others, however many
    # words share them
    formatted, checked, roots = Counter(), Counter(), []
    real_words, real_run, real_check = render.words, render._HalfTexts._run, WordChecker._require_node

    def recorded(*args, **kwargs):
        roots.append(real_words(*args, **kwargs))
        return roots[-1]

    def run(self, s, rest, start):
        formatted[s, rest, start] += 1
        return real_run(self, s, rest, start)

    def check(self, depth, level, last, node):
        checked[node, level, last] += 1
        return real_check(self, depth, level, last, node)

    monkeypatch.setattr(render, "words", recorded)
    monkeypatch.setattr(render._HalfTexts, "_run", run)
    monkeypatch.setattr(WordChecker, "_require_node", check)
    # an even and an odd length: the first halves take the odd step
    for t, n, count in ((3, 16, 216), (2, 15, 563)):
        for seen in (formatted, checked, roots):
            seen.clear()
        render_document(t, n, "skew", style, False, fmt)
        # every (step, rest, start vertex) below depth h and every (node,
        # level, step before it) the words pass, found by following each
        # word's edges from the root
        vectors = {Step.U: (1, 1), Step.D: (2, -t), Step.L: (-2 if style == "left" else 2, -t)}
        edges_at, states = set(), set()

        def follow(node, x, y, last, depth):
            # the words under ``node`` from vertex (x, y) after step ``last``
            states.add((node, y, last))
            if node is END:
                return 1
            words = 0
            for s, rest in node:
                if depth >= n - n // 2:
                    edges_at.add((s, rest, (x, y)))
                dx, dy = vectors[s]
                words += follow(rest, x + dx, y + dy, s, depth + 1)
            return words

        assert follow(*roots, 0, 0, None, 0) == count
        assert set(formatted) == edges_at and set(formatted.values()) == {1}
        assert set(checked) == states and set(checked.values()) == {1}


U, D, L = STEP_ORDER


def root_of(*texts):
    return node_of(*(tuple(Step(ch) for ch in text) for text in texts))


# (n, the root a broken `words` returns, the error), keyed by the test id
# after the format; every end below is one `words` makes at some state
_BAD_ROOTS = {
    # a word `words` should never make
    "": (3, root_of("ULD"), "UL at index 0"),
    # a word broken in its second half
    "-bad-second-half": (6, root_of("UUUUDD", "UUUULD"), "UL at index 3"),
    # LDD ends UUUUUD (level 6, after D), but after UUU (level 3, after U)
    # it makes a UL across the junction at depth h
    "-wrong-junction-UL": (6, chain((U, U, U), root_of("LDD")), "UL at index 2"),
    # one node of ends shared after UUU (level 3) and after UUD (level 0),
    # where UDD dips below the axis: passed at one state, it is checked
    # again at the other
    "-wrong-junction-below-axis": (
        6,
        chain((U, U), Node((s, shared) for shared in [root_of("UDD", "UDL", "DUD")] for s in (U, D))),
        "below-axis at index 4",
    ),
    # UUD closes UUD UUD but leaves UUU UUD at level 3
    "-not-closed": (6, chain((U, U, U), root_of("UUD")), "not-closed at index 5"),
}


@pytest.mark.parametrize(
    "fmt, n, root, error",
    [
        pytest.param(fmt, *case, id=fmt + name)
        for name, case in _BAD_ROOTS.items()
        for fmt in ("svg", "tikz")
    ],
)
def test_drawn_words_are_validated(monkeypatch, fmt, n, root, error):
    # a word `words` should never make is refused by the word check,
    # whichever half it is wrong in and whatever state a shared node is
    # reached at; the index counts from the word's first step
    monkeypatch.setattr(render, "words", lambda t, n, *, plain: root)
    with pytest.raises(ValueError, match=f"^{re.escape(f'invalid word (invalid: {error})')}$"):
        render_document(2, n, "skew", "red-overlay", False, fmt)


def reference_document(t, n, mode, style, mirrored, fmt):
    # the document drawn word by word, from the reference words and
    # vertices: the bytes the emitters must give
    words = [
        w for w in brute_words(t, n) if brute_level(t, w) == 0 and not (mode == "plain" and L in w)
    ]
    m = 0 if n % (t + 1) else n // (t + 1)
    cols, rows = max(1, (t + 2) * m), max(1, t * m)
    drawn = [(w, reference_vertices(t, w, style)) for w in words]
    if fmt == "tikz":
        pad = "\t\t" if mirrored else "\t"
        blocks = []
        for w, verts in drawn:
            lines = ["\\begin{tikzpicture}[scale=0.2]"]
            lines += ["\t\\begin{scope}[xscale=-1,yscale=1]"] if mirrored else []
            lines.append(f"{pad}\\draw[help lines] (0,0) grid ({cols},{rows});")
            segments = list(zip(w, verts, verts[1:]))
            if style == "red-overlay":
                if n:
                    lines.append(f"{pad}\\draw[thick] " + " -- ".join(f"({x},{y})" for x, y in verts) + ";")
                for s, (x0, y0), (x1, y1) in segments:
                    if s is L:
                        nudged = reference_fmt(Fraction(4 * x0 + 1, 4)), reference_fmt(Fraction(4 * y1 + 1, 4))
                        lines.append(f"{pad}\\draw[thick,red] ({nudged[0]},{y0}) -- ({x1},{nudged[1]});")
            else:
                for s, (x0, y0), (x1, y1) in segments:
                    lines.append(f"{pad}\\draw[{'thick,red' if s is L else 'thick'}] ({x0},{y0}) -- ({x1},{y1});")
            lines += ["\t\\end{scope}"] if mirrored else []
            blocks.append("\n".join([*lines, "\\end{tikzpicture}", ""]))
        return "\n".join(blocks) or "\n"
    w_px, h_px = cols * 20, rows * 20

    def px(x):
        return (cols - x) * 20 if mirrored else x * 20

    grid = [f"M{gx * 20} 0V{h_px}" for gx in range(cols + 1)] + [f"M0 {gy * 20}H{w_px}" for gy in range(rows + 1)]
    out = []
    for idx, (w, verts) in enumerate(drawn):
        r, c = divmod(idx, 4)
        lines = [
            f'  <g class="diagram" transform="translate({10 + c * (w_px + 14)},{10 + r * (h_px + 14)})">',
            f'    <path class="grid" d="{" ".join(grid)}" stroke="#cccccc" stroke-width="0.5" fill="none"/>',
        ]
        segments = list(zip(w, verts, verts[1:]))
        if style == "red-overlay":
            if n:
                points = " ".join(f"{px(x)},{(rows - y) * 20}" for x, y in verts)
                lines.append(f'    <polyline class="path" points="{points}" stroke="black" stroke-width="2" fill="none"/>')
            for s, (x0, y0), (x1, y1) in segments:
                if s is L:
                    lines.append(
                        f'    <line class="skew" x1="{px(x0) + (-5 if mirrored else 5)}" y1="{(rows - y0) * 20}" '
                        f'x2="{px(x1)}" y2="{(rows - y1) * 20 - 5}" stroke="red" stroke-width="2"/>'
                    )
        else:
            for s, (x0, y0), (x1, y1) in segments:
                cls, color = ("skew", "red") if s is L else ("path", "black")
                lines.append(
                    f'    <line class="{cls}" x1="{px(x0)}" y1="{(rows - y0) * 20}" '
                    f'x2="{px(x1)}" y2="{(rows - y1) * 20}" stroke="{color}" stroke-width="2"/>'
                )
        out.append("\n".join([*lines, "  </g>"]))
    per_row = min(4, max(len(out), 1))
    n_rows = -(-len(out) // per_row)
    doc_w = 20 + per_row * w_px + (per_row - 1) * 14
    doc_h = 20 + n_rows * h_px + max(n_rows - 1, 0) * 14
    head = f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{doc_w}" height="{doc_h}" viewBox="0 0 {doc_w} {doc_h}">'
    return "\n".join([head, *out, "</svg>", ""])


@settings(deadline=None, max_examples=150)
@given(
    t=st.integers(2, 5),
    n=st.integers(0, 15),
    mode=st.sampled_from(RENDER_MODES),
    style=st.sampled_from(GEOMETRY_MODES),
    mirrored=st.booleans(),
    fmt=st.sampled_from(["svg", "tikz"]),
)
@example(t=2, n=15, mode="skew", style="red-overlay", mirrored=True, fmt="svg")  # 229 diagrams
@example(t=3, n=12, mode="skew", style="left", mirrored=True, fmt="tikz")
@example(t=2, n=0, mode="plain", style="red-overlay", mirrored=False, fmt="tikz")  # the empty word
@example(t=4, n=7, mode="skew", style="left", mirrored=False, fmt="svg")  # no diagram
def test_document_is_the_words_drawn_one_by_one(t, n, mode, style, mirrored, fmt):
    # the halves, their memoised texts and the one join per word give the
    # bytes the per-word reference gives
    assert render_document(t, n, mode, style, mirrored, fmt) == reference_document(t, n, mode, style, mirrored, fmt)
