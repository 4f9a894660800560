"""SVG and TikZ emitters for path diagrams.

Both emitters lay every diagram of a document onto one shared grid box,
which `paths.grid_box` works out from t and n, and draw from one walk of
`paths` (called before any table over the box is built) rather than from
a word list.  The walk hands over each word's live step and vertex lists
and the number of leading steps it shares with the word before.  One
`paths.WordChecker` per document checks every drawn word against all
the word rules.  It does not trust the walk's count: it confirms the
shared prefix against its own copy of the last word and resumes the
check past it, or restarts at depth 0.  Each emitter keeps, for every
depth i, the text the first i steps contribute (the path's points and
the red marks in overlay style, one line per segment in left style) and
rebuilds only the depths past the prefix the checker confirmed.  A
word's block is a head, the text at depth n and a tail, so a word costs
the steps that changed, not all n.  A document holds its text but
neither a word list nor any geometry.  The text of each grid point is
formatted once per document, from a table over the box, and so is the
text a step adds from each start vertex.  The SVG header,
the only text that needs the number of diagrams, is written after them.

In the default overlay style the L-steps ride forward with the black
polyline and a red copy, nudged by a quarter unit, marks them; in left
style the red segments point backwards for real.  Output is
deterministic and its coordinates stay integers: a quarter unit is a
whole 5 px in SVG, and only the TikZ overlay nudge is printed from a
count of quarter units.
"""

from __future__ import annotations

from . import RENDER_MODES
from .paths import Step, WordChecker, grid_box, walk

OVERLAY_SHIFT = 1  # in quarter units: the red copy sits a quarter unit off


def _quarters(q: int) -> str:
    """Plain decimal text for q/4: whole numbers bare, else as in 6.25."""
    return str(q // 4) if q % 4 == 0 else str(q / 4)


def _vertex_text(x_max: int, y_max: int, fmt) -> dict[tuple[int, int], str]:
    """fmt(x, y) for every grid point of the box, keyed by (x, y)."""
    return {(x, y): fmt(x, y) for x in range(x_max + 1) for y in range(y_max + 1)}


def _bodies(words, t: int, n: int, style: str, vt, path, mark, segment):
    """The body text of each word of the walk ``words``, in walk order.

    Overlay style: ``path`` = (open, separator, close) around the texts
    ``vt`` gives the vertices, then ``mark(a, b)`` for each L step from
    vertex a to b.  Left style: ``segment(red, a, b)`` for each step.  The
    text the first i steps contribute is kept for every depth i, and only
    the depths past the prefix the checker confirmed are rebuilt.  A step's
    end follows from its start, so each text a step adds is made once per
    document, on first use, and every rebuilt depth is one concatenation.
    """
    L = Step.L
    check = WordChecker(t)
    if style == "red-overlay":
        start, sep, close = path
        piece = {v: sep + text for v, text in vt.items()}
        red = {}  # the mark of an L step, by its start vertex
        pts = [start + vt[0, 0]] * (n + 1)
        marks = [""] * (n + 1)
        for steps, verts, shared in words:
            for i in range(check.require(steps, shared), n):
                pts[i + 1] = pts[i] + piece[verts[i + 1]]
                if steps[i] is L:
                    a = verts[i]
                    m = red.get(a)
                    if m is None:
                        m = red[a] = mark(a, verts[i + 1])
                    marks[i + 1] = marks[i] + m
                else:
                    marks[i + 1] = marks[i]
            yield f"{pts[n]}{close}{marks[n]}" if n else ""  # the empty word draws no path
    else:
        drawn = {}  # the line of a step, by (step, start vertex)
        lines = [""] * (n + 1)
        for steps, verts, shared in words:
            for i in range(check.require(steps, shared), n):
                key = steps[i], verts[i]
                line = drawn.get(key)
                if line is None:
                    line = drawn[key] = segment(steps[i] is L, verts[i], verts[i + 1])
                lines[i + 1] = lines[i] + line
            yield lines[n]


def render_tikz(
    t: int,
    n: int,
    plain: bool,
    style: str,
    mirrored: bool,
) -> str:
    """One tikzpicture per closed word (L-free ones if ``plain``): grid, path, red marks."""
    words = walk(t, n, style=style, plain=plain)
    x_max, y_max = grid_box(t, n)
    vt = _vertex_text(x_max, y_max, "({},{})".format)
    indent = "\t\t" if mirrored else "\t"
    head = ["\\begin{tikzpicture}[scale=0.2]"]
    if mirrored:
        head.append("\t\\begin{scope}[xscale=-1,yscale=1]")
    head.append(f"{indent}\\draw[help lines] (0,0) grid ({x_max},{y_max});")
    tail = ["\t\\end{scope}"] if mirrored else []
    # each block ends in a newline, so no copy of the whole document adds one
    tail += ["\\end{tikzpicture}", ""]
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
    blocks = [f"{head}{body}{tail}" for body in _bodies(words, t, n, style, vt, path, mark, segment)]
    return "\n".join(blocks) or "\n"  # no diagrams: a lone newline


_SVG_CELL = 20
_SVG_MARGIN = 10
_SVG_GAP = 14
_SVG_PER_ROW = 4


def render_svg(
    t: int,
    n: int,
    plain: bool,
    style: str,
    mirrored: bool,
) -> str:
    """One SVG document, one <g class="diagram"> per closed word (L-free ones if ``plain``)."""
    words = walk(t, n, style=style, plain=plain)
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
    out = [""]  # the header, written once the diagrams are counted
    for idx, body in enumerate(_bodies(words, t, n, style, vt, path, mark, segment)):
        # a row is only narrower than _SVG_PER_ROW when it is the one row
        r, c = divmod(idx, _SVG_PER_ROW)
        tx = _SVG_MARGIN + c * (dia_w + _SVG_GAP)
        ty = _SVG_MARGIN + r * (dia_h + _SVG_GAP)
        out.append(f'  <g class="diagram" transform="translate({tx},{ty})">\n{grid_path}{body}\n  </g>')
    count = len(out) - 1
    per_row = min(_SVG_PER_ROW, max(count, 1))
    n_rows = (count + per_row - 1) // per_row
    doc_w = _SVG_MARGIN * 2 + per_row * dia_w + (per_row - 1) * _SVG_GAP
    doc_h = _SVG_MARGIN * 2 + n_rows * dia_h + max(n_rows - 1, 0) * _SVG_GAP
    size = f'width="{doc_w}" height="{doc_h}" viewBox="0 0 {doc_w} {doc_h}"'
    out[0] = f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" {size}>'
    out += ["</svg>", ""]  # the empty last line ends the text in a newline
    return "\n".join(out)


def render_document(
    t: int,
    n: int,
    mode: str,
    style: str,
    mirrored: bool,
    fmt: str,
) -> str:
    """All closed diagrams of length n in one document: every word, or the L-free ones."""
    if mode not in RENDER_MODES:
        raise ValueError(f"mode must be one of {RENDER_MODES}, got {mode!r}")
    if fmt not in ("svg", "tikz"):
        raise ValueError(f"format must be 'svg' or 'tikz', got {fmt!r}")
    emit = render_svg if fmt == "svg" else render_tikz
    return emit(t, n, mode == "plain", style=style, mirrored=mirrored)
