"""SVG and TikZ emitters for path diagrams.

`render_document` checks its arguments, builds the one DAG of words
`paths.words` makes for the figure (before any table over the box is
built) and checks every word under its root against all the word rules
with one `paths.WordChecker`, each node once per state it is reached at,
all before it returns.  It returns the document as an iterator of text
pieces, made as they are read: one per first half, after the SVG header.
So a refused figure writes nothing, and no whole-document string, list
of diagrams or encoded copy is ever built.

Both emitters lay every diagram of a document onto one shared grid box,
which `paths.grid_box` works out from t and n, and draw from the root:
a node whose (step, rest) edges lead to nodes again, one node per state.
The emitters walk the root's edges down to depth h = ceil(n/2), carrying
each first half's end vertex and text, and hand the node each first half
reaches to the memoised texts of its second halves.  The text a step
adds is made once per (step, start vertex); the texts of an edge's
halves below depth h once per (step, rest, start vertex), from the
step's text and its rest's memoised texts; and the list of a node's
texts once per (node, start vertex).  So a word costs one concatenation.
A document holds the memos and one piece at a time, but neither a word
list nor any whole word's geometry.  The text of each grid point is
formatted once per document, from a table over the box.  The SVG
header, the only text that needs the number of diagrams, is sized from
the words under the root, counted once per node before the first body.

In the default overlay style the L-steps ride forward with the black
polyline and a red copy, nudged by a quarter unit, marks them; in left
style the red segments point backwards for real.  Output is
deterministic and its coordinates stay integers: a quarter unit is a
whole 5 px in SVG, and only the TikZ overlay nudge is printed from a
count of quarter units.
"""

from __future__ import annotations

from . import RENDER_MODES
from .paths import END, GEOMETRY_MODES, Node, WordChecker, grid_box, step_vectors, words

OVERLAY_SHIFT = 1  # in quarter units: the red copy sits a quarter unit off


def _quarters(q: int) -> str:
    """Plain decimal text for q/4: whole numbers bare, else as in 6.25."""
    return str(q // 4) if q % 4 == 0 else str(q / 4)


def _vertex_text(x_max: int, y_max: int, fmt) -> dict[tuple[int, int], str]:
    """fmt(x, y) for every grid point of the box, keyed by (x, y)."""
    return {(x, y): fmt(x, y) for x in range(x_max + 1) for y in range(y_max + 1)}


class _HalfTexts:
    """The (path, marks) text of second halves drawn from a start vertex.

    The halves under an edge (step s, rest) are ``step_text(s, a, b)``, for
    step s from vertex a to b, joined to each text of the rest's halves
    from b.  They are made together once per (step, rest, start vertex),
    and the list of a node's texts once per (node, start vertex).  The step
    is in the key, as D and L both lead into `paths.END`.
    """

    __slots__ = ("_vectors", "_step_text", "_lists", "_runs")

    def __init__(self, vectors: dict, step_text):
        self._vectors, self._step_text = vectors, step_text
        self._lists = {}  # the texts of a node's halves, by (node, start vertex)
        self._runs = {}  # the texts of an edge's halves, by (step, rest, start vertex)

    def __call__(self, node: Node, start: tuple) -> list:
        """The texts of the halves under ``node`` drawn from ``start``, in order."""
        got = self._lists.get((node, start))
        if got is None:
            got = [("", "")] if node is END else []
            for s, rest in node:
                got += self._runs.get((s, rest, start)) or self._run(s, rest, start)
            self._lists[node, start] = got
        return got

    def _run(self, s: str, rest: Node, start: tuple) -> list:
        """The texts of the halves that open with step ``s`` from ``start``
        and go on under ``rest``: called once per (step, rest, start vertex)."""
        dx, dy = self._vectors[s]
        stop = start[0] + dx, start[1] + dy
        path, marks = self._step_text(s, start, stop)
        got = self._runs[s, rest, start] = [(path + p, marks + m) for p, m in self(rest, stop)]
        return got


def _word_count(root: Node) -> int:
    """The number of words under ``root``, its paths to `END`: each node counted once."""
    counts = {END: 1}

    def count(node):
        got = counts.get(node)
        if got is None:
            got = counts[node] = sum(count(rest) for _, rest in node)
        return got

    return count(root)


def _bodies(root: Node, t: int, n: int, style: str, vt, path, mark, segment):
    """(a, b, texts) for each first half of the words under ``root``, in
    lexicographic order: the bodies of its words are a + p + b + m for each
    (p, m) in ``texts``, one per second half.

    Overlay style: ``path`` = (open, separator, close) around the texts
    ``vt`` gives the vertices, then ``mark(a, b)`` for each L step from
    vertex a to b; a and p are path text, b and m red marks.  Left style:
    ``segment(red, a, b)`` for each step, in a and p.  A step's text is made
    once per (step, start vertex), an edge's halves' once per (step, rest,
    start vertex) and a node's list once per (node, start vertex).
    """
    overlay = style == "red-overlay"
    start, sep, close = path
    made = {}  # the text of a step, by (step, start vertex)

    def step_text(s, a, b):
        got = made.get((s, a))
        if got is None:
            if overlay:
                got = sep + vt[b], mark(a, b) if s == "L" else ""
            else:
                got = segment(s == "L", a, b), ""
            made[s, a] = got
        return got

    vectors = step_vectors(t, style)
    texts = _HalfTexts(vectors, step_text)
    a, b = (f"{start}{vt[0, 0]}", close) if overlay and n else ("", "")  # the empty word draws no path
    # (node, end vertex, a, b, steps to depth h) of each first-half prefix, the next on top
    stack = [(root, (0, 0), a, b, n - n // 2)]
    while stack:
        node, at, a, b, left = stack.pop()
        if not left:
            yield a, b, texts(node, at)
            continue
        for s, rest in reversed(node):
            dx, dy = vectors[s]
            to = at[0] + dx, at[1] + dy
            p, m = step_text(s, at, to)
            stack.append((rest, to, a + p, b + m, left - 1))


def _tikz(root: Node, t: int, n: int, style: str, mirrored: bool):
    """One tikzpicture per word under ``root`` (grid, path, red marks), in
    pieces: one per first half, each tikzpicture ending in a newline and
    a blank line between two."""
    x_max, y_max = grid_box(t, n)
    vt = _vertex_text(x_max, y_max, "({},{})".format)
    indent = "\t\t" if mirrored else "\t"
    head = ["\\begin{tikzpicture}[scale=0.2]"]
    if mirrored:
        head.append("\t\\begin{scope}[xscale=-1,yscale=1]")
    head.append(f"{indent}\\draw[help lines] (0,0) grid ({x_max},{y_max});")
    tail = ["\t\\end{scope}"] if mirrored else []
    tail += ["\\end{tikzpicture}", ""]  # each block ends in a newline
    head, tail = "\n".join(head), "\n" + "\n".join(tail)

    def mark(a, b):
        # the red copy of an L step, nudged right at its start and up at its end
        (x0, y0), (x1, y1) = a, b
        return (
            f"\n{indent}\\draw[thick,red] ({_quarters(4 * x0 + OVERLAY_SHIFT)},{y0}) "
            f"-- ({x1},{_quarters(4 * y1 + OVERLAY_SHIFT)});"
        )

    def segment(red, a, b):
        # left style: one draw per segment so the red is the real segment
        return f"\n{indent}\\draw[{'thick,red' if red else 'thick'}] {vt[a]} -- {vt[b]};"

    path = (f"\n{indent}\\draw[thick] ", " -- ", ";")
    blocks = []  # pieces join as blocks do, by a newline: each piece after the first opens with it
    for a, b, texts in _bodies(root, t, n, style, vt, path, mark, segment):
        blocks += [f"{head}{a}{p}{b}{m}{tail}" for p, m in texts]
        yield "\n".join(blocks)
        blocks = [""]
    if not blocks:
        yield "\n"  # no diagrams: a lone newline


_SVG_CELL = 20
_SVG_MARGIN = 10
_SVG_GAP = 14
_SVG_PER_ROW = 4


def _svg(root: Node, t: int, n: int, style: str, mirrored: bool):
    """One SVG document, one <g class="diagram"> per word under ``root``, in
    pieces: the header, one piece per first half, and the closing tag."""
    cols, rows = grid_box(t, n)
    dia_w = cols * _SVG_CELL
    dia_h = rows * _SVG_CELL

    # pixel x of grid x: reflected inside the shared box when mirrored
    x_sign, x_origin = (-1, cols) if mirrored else (1, 0)
    px = {x: (x - x_origin) * x_sign * _SVG_CELL for x in range(cols + 1)}
    py = {y: (rows - y) * _SVG_CELL for y in range(rows + 1)}
    vt = _vertex_text(cols, rows, lambda x, y: f"{px[x]},{py[y]}")
    # the overlay's quarter-unit nudge in pixels, after any reflection
    nudge = OVERLAY_SHIFT * _SVG_CELL // 4

    def mark(a, b):
        (x0, y0), (x1, y1) = a, b
        return (
            f'\n    <line class="skew" x1="{px[x0] + x_sign * nudge}" y1="{py[y0]}" '
            f'x2="{px[x1]}" y2="{py[y1] - nudge}" stroke="red" stroke-width="2"/>'
        )

    def segment(red, a, b):
        (x0, y0), (x1, y1) = a, b
        cls, color = ("skew", "red") if red else ("path", "black")
        return (
            f'\n    <line class="{cls}" x1="{px[x0]}" y1="{py[y0]}" '
            f'x2="{px[x1]}" y2="{py[y1]}" stroke="{color}" stroke-width="2"/>'
        )

    path = ('\n    <polyline class="path" points="', " ", '" stroke="black" stroke-width="2" fill="none"/>')
    grid = [f"M{gx * _SVG_CELL} 0V{dia_h}" for gx in range(cols + 1)]
    grid += [f"M0 {gy * _SVG_CELL}H{dia_w}" for gy in range(rows + 1)]
    grid_path = (
        f'    <path class="grid" d="{" ".join(grid)}" '
        f'stroke="#cccccc" stroke-width="0.5" fill="none"/>'
    )
    # a row is only narrower than _SVG_PER_ROW when it is the one row
    count = _word_count(root)
    per_row = min(_SVG_PER_ROW, max(count, 1))
    n_rows = (count + per_row - 1) // per_row
    doc_w = _SVG_MARGIN * 2 + per_row * dia_w + (per_row - 1) * _SVG_GAP
    doc_h = _SVG_MARGIN * 2 + n_rows * dia_h + max(n_rows - 1, 0) * _SVG_GAP
    size = f'width="{doc_w}" height="{doc_h}" viewBox="0 0 {doc_w} {doc_h}"'
    yield f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" {size}>'
    drawn = 0
    for a, b, texts in _bodies(root, t, n, style, vt, path, mark, segment):
        out = [""]  # each diagram opens with a newline
        for p, m in texts:
            r, c = divmod(drawn, _SVG_PER_ROW)
            drawn += 1
            tx = _SVG_MARGIN + c * (dia_w + _SVG_GAP)
            ty = _SVG_MARGIN + r * (dia_h + _SVG_GAP)
            out.append(f'  <g class="diagram" transform="translate({tx},{ty})">\n{grid_path}{a}{p}{b}{m}\n  </g>')
        yield "\n".join(out)
    yield "\n</svg>\n"


def render_document(
    t: int,
    n: int,
    mode: str,
    style: str,
    mirrored: bool,
    fmt: str,
):
    """All closed diagrams of length n in one document, every word or the
    L-free ones, as an iterator of text pieces whose concatenation is the
    document.  Every refusal, of an argument or of a word, comes before
    this returns; the pieces are made as they are read."""
    if mode not in RENDER_MODES:
        raise ValueError(f"mode must be one of {RENDER_MODES}, got {mode!r}")
    if fmt not in ("svg", "tikz"):
        raise ValueError(f"format must be 'svg' or 'tikz', got {fmt!r}")
    if style not in GEOMETRY_MODES:
        raise ValueError(f"style must be one of {GEOMETRY_MODES}, got {style!r}")
    root = words(t, n, plain=mode == "plain")
    WordChecker(t).require(root)
    emit = _svg if fmt == "svg" else _tikz
    return emit(root, t, n, style, mirrored)
