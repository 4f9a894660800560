"""SVG and TikZ emitters for path diagrams.

Both emitters lay every diagram of a document onto one shared grid box,
one diagram per word.  A first pass folds ``paths.extent`` over the
words to find that box without building any geometry; a second pass
realizes and formats one word at a time, so a document holds its words
and its text but never more than one geometry.  The text of each grid
point is formatted once per document, from a table over the box.

In the default overlay style the L-steps ride forward with the black
polyline and a red copy, nudged by a quarter unit, marks them; in left
style the red segments point backwards for real.  Output is
deterministic: no timestamps, fixed ordering, plain decimal coordinates.
Coordinates stay integers throughout: a quarter unit is a whole 5 px in
SVG, and only the TikZ overlay nudge is printed from a count of quarter
units.
"""

from __future__ import annotations

from . import RENDER_MODES
from .paths import PathGeometry, SkewWord, Step, enumerate_words, extent, realize

OVERLAY_SHIFT = 1  # in quarter units: the red copy sits a quarter unit off


def _quarters(q: int) -> str:
    """Plain decimal text for q/4: whole numbers bare, else as in 6.25."""
    return str(q // 4) if q % 4 == 0 else str(q / 4)


def words_for_mode(t: int, n: int, mode: str) -> list[SkewWord]:
    """The closed words a document shows: all of them, or the L-free ones."""
    if mode not in RENDER_MODES:
        raise ValueError(f"mode must be one of {RENDER_MODES}, got {mode!r}")
    words = enumerate_words(t, n, closed_only=True)
    if mode == "plain":
        words = [w for w in words if Step.L not in w.steps]
    return words


def _grid_box(words: list[SkewWord], style: str) -> tuple[int, int, int]:
    """Shared (x_min, x_max, y_max) over a document's words, at least (0, 1, 1)."""
    x_min, x_max, y_max = 0, 1, 1
    for w in words:
        lo, hi, top = extent(w, mode=style)
        if lo < x_min:
            x_min = lo
        if hi > x_max:
            x_max = hi
        if top > y_max:
            y_max = top
    return x_min, x_max, y_max


def _vertex_text(x_min: int, x_max: int, y_max: int, fmt) -> dict[tuple[int, int], str]:
    """fmt(x, y) for every grid point of the box, keyed by (x, y)."""
    return {(x, y): fmt(x, y) for x in range(x_min, x_max + 1) for y in range(y_max + 1)}


def _red_segments(geo: PathGeometry):
    """The ((x0, y0), (x1, y1)) segments of the L steps."""
    return [seg for seg, color in zip(geo.segments, geo.colors) if color == "red"]


def render_tikz(
    words: list[SkewWord],
    style: str = "red-overlay",
    mirrored: bool = False,
) -> str:
    """One tikzpicture per word: help-line grid, thick path, red marks."""
    x_min, x_max, y_max = _grid_box(words, style)
    vt = _vertex_text(x_min, x_max, y_max, "({},{})".format)
    indent = "\t\t" if mirrored else "\t"
    head = ["\\begin{tikzpicture}[scale=0.2]"]
    if mirrored:
        head.append("\t\\begin{scope}[xscale=-1,yscale=1]")
    head.append(f"{indent}\\draw[help lines] ({x_min},0) grid ({x_max},{y_max});")
    tail = ["\t\\end{scope}"] if mirrored else []
    # each block ends in a newline, so no copy of the whole document adds one
    tail += ["\\end{tikzpicture}", ""]
    blocks = []
    for w in words:
        geo = realize(w, mode=style)
        lines = head.copy()
        if style == "red-overlay":
            if len(geo.vertices) > 1:
                pts = " -- ".join(map(vt.__getitem__, geo.vertices))
                lines.append(f"{indent}\\draw[thick] {pts};")
            # the red copy of an L step, nudged right at its start and up at its end
            for (x0, y0), (x1, y1) in _red_segments(geo):
                lines.append(
                    f"{indent}\\draw[thick,red] ({_quarters(4 * x0 + OVERLAY_SHIFT)},{y0}) "
                    f"-- ({x1},{_quarters(4 * y1 + OVERLAY_SHIFT)});"
                )
        else:
            # left style: one draw per segment so the red is the real segment
            for (a, b), color in zip(geo.segments, geo.colors):
                pen = "thick,red" if color == "red" else "thick"
                lines.append(f"{indent}\\draw[{pen}] {vt[a]} -- {vt[b]};")
        lines += tail
        blocks.append("\n".join(lines))
    return "\n".join(blocks) or "\n"  # no diagrams: a lone newline


_SVG_CELL = 20
_SVG_MARGIN = 10
_SVG_GAP = 14
_SVG_PER_ROW = 4


def render_svg(
    words: list[SkewWord],
    style: str = "red-overlay",
    mirrored: bool = False,
) -> str:
    """A single SVG document with one <g class="diagram"> per word."""
    x_min, x_max, y_max = _grid_box(words, style)
    cols = x_max - x_min
    rows = y_max
    dia_w = cols * _SVG_CELL
    dia_h = rows * _SVG_CELL
    per_row = min(_SVG_PER_ROW, max(len(words), 1))
    n_rows = (len(words) + per_row - 1) // per_row if words else 0
    doc_w = _SVG_MARGIN * 2 + per_row * dia_w + (per_row - 1) * _SVG_GAP
    doc_h = _SVG_MARGIN * 2 + max(n_rows, 0) * dia_h + max(n_rows - 1, 0) * _SVG_GAP

    # pixel x of grid x: reflected inside the shared box when mirrored
    x_sign, x_origin = (-1, x_max) if mirrored else (1, x_min)
    px = {x: (x - x_origin) * x_sign * _SVG_CELL for x in range(x_min, x_max + 1)}
    py = {y: (y_max - y) * _SVG_CELL for y in range(y_max + 1)}
    vt = _vertex_text(x_min, x_max, y_max, lambda x, y: f"{px[x]},{py[y]}")
    # the overlay's quarter-unit nudge in pixels, after any reflection
    nudge = OVERLAY_SHIFT * _SVG_CELL // 4

    grid = [f"M{gx * _SVG_CELL} 0V{dia_h}" for gx in range(cols + 1)]
    grid += [f"M0 {gy * _SVG_CELL}H{dia_w}" for gy in range(rows + 1)]
    grid_path = (
        f'    <path class="grid" d="{" ".join(grid)}" '
        f'stroke="#cccccc" stroke-width="0.5" fill="none"/>'
    )
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{doc_w}" height="{doc_h}" '
        f'viewBox="0 0 {doc_w} {doc_h}">'
    ]
    for idx, w in enumerate(words):
        geo = realize(w, mode=style)
        r, c = divmod(idx, per_row)
        tx = _SVG_MARGIN + c * (dia_w + _SVG_GAP)
        ty = _SVG_MARGIN + r * (dia_h + _SVG_GAP)
        out.append(f'  <g class="diagram" transform="translate({tx},{ty})">')
        out.append(grid_path)
        if style == "red-overlay":
            if len(geo.vertices) > 1:
                pts = " ".join(map(vt.__getitem__, geo.vertices))
                out.append(
                    f'    <polyline class="path" points="{pts}" '
                    f'stroke="black" stroke-width="2" fill="none"/>'
                )
            for (x0, y0), (x1, y1) in _red_segments(geo):
                out.append(
                    f'    <line class="skew" x1="{px[x0] + x_sign * nudge}" y1="{py[y0]}" '
                    f'x2="{px[x1]}" y2="{py[y1] - nudge}" stroke="red" stroke-width="2"/>'
                )
        else:
            for ((x0, y0), (x1, y1)), color in zip(geo.segments, geo.colors):
                cls = "skew" if color == "red" else "path"
                out.append(
                    f'    <line class="{cls}" x1="{px[x0]}" y1="{py[y0]}" '
                    f'x2="{px[x1]}" y2="{py[y1]}" stroke="{color}" stroke-width="2"/>'
                )
        out.append("  </g>")
    out += ["</svg>", ""]  # the empty last line ends the text in a newline
    return "\n".join(out)


def render_document(
    t: int,
    n: int,
    mode: str = "skew",
    style: str = "red-overlay",
    mirrored: bool = False,
    fmt: str = "svg",
) -> str:
    """All closed diagrams of length n in one document."""
    words = words_for_mode(t, n, mode)
    if fmt == "svg":
        return render_svg(words, style=style, mirrored=mirrored)
    if fmt == "tikz":
        return render_tikz(words, style=style, mirrored=mirrored)
    raise ValueError(f"format must be 'svg' or 'tikz', got {fmt!r}")
