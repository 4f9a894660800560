"""Exact integer counting over the three-layer path automaton.

States are (level k, layer), where the layer is a letter of ``LAYERS``
(the paper's F, G and H) that records the last step consumed: F for U
(and the empty word), G for D, H for L.  Every function here takes and
returns layers as those letters.  One edge list holds the left-to-right
transitions for down-step size t:

    U: (k, F|G)   -> (k+1, F)      (U never follows L)
    D: (k+t, F|G|H) -> (k, G)
    L: (k+t, G|H)   -> (k, H)      (L never follows U)

Both scan directions walk that one list; the right-to-left table
follows every arrow of it backwards.  Nonempty reversed scans start
from the level-0 D- and L-states; the level-0 F cell is pinned to zero
(a reversed scan stops at the origin rather than walking past it) and
the empty word is carried by the G and H seeds, counted once via the G
column.  These per-direction facts sit in ``_SCANS``, next to the
edges.

Every level change is congruent to one residue c modulo a period m
(the gcd of the differences between the changes; m = t+1 in both
directions, c = 1 left to right and c = t right to left), so a word of
n steps sits at a level k = c*n (mod m).  Each walked row holds only
that residue class, and every arrow becomes one shift per row.  The
walk computes only the levels that can still fall back into the stored
window, and the table stores the walked cells of each row up to k_max:
a table of levels k <= k_max takes O(n * k_max / m) memory, and the
cells off the class read zero without being stored.  One row plan,
built from the edge list, adds each shared source sum once.

A walked row is packed: one int per layer, whose field j, W bits wide,
holds the level base + m*j.  A sum of rows is one int addition, a level
change one shift by a whole number of fields, and the pinned level-0
cell is cleared with one mask.  The fields shifted out below field 0
are the levels below 0.  W is a whole number of bytes above the bit
length of the previous row's total, a bound kept per layer: the bounds
of a row's sources, less the field that fell below level 0 and the
pinned cell.  A new cell, and every partial sum on the way to it, adds
distinct fields of the previous row, so it stays below that total and
no field carries into the next.  When the bound outgrows W, the fields
are widened with headroom.  The fields above the window's top hi are
cut with one mask only once the row holds several of them, which is
exact: while hi is the highest level n steps reach, the fields above it
are zero; after that, hi falls by the largest drop each row, so a level
above hi feeds only levels above the next row's hi.  The stored cells
are read out of the low fields.

This table is the oracle the closed forms are measured against, so the
arithmetic is plain Python integers end to end: no modulus, no floats,
no overflow.  The module is the table route alone; the relations the
table is checked against, the paper's layer equations among them, are
written in `verify`, apart from this edge list.
"""

from __future__ import annotations

from math import gcd

LAYERS = ("F", "G", "H")
_LIDX = {layer: i for i, layer in enumerate(LAYERS)}  # a layer's index in a row
_SLACK = 8  # fields a walked row may hold above its window before they are cut


def _lr_edges(t: int) -> tuple[tuple[str, str, int], ...]:
    """Left-to-right transitions as (source letters, target letter, level change)."""
    return (
        ("FG", "F", 1),  # U never follows L
        ("FGH", "G", -t),  # D
        ("GH", "H", -t),  # L never follows U
    )


# What a scan direction fixes: (backward, seeds, closed, pinned).  Backward
# walks every edge from its target to its sources; the others are the
# letters of the level-0 layers that hold the empty word, that are summed
# into the closed count, and that are held at zero after step 0.
_SCANS = {
    "LR": (False, "F", "FGH", ""),
    "RL": (True, "GH", "G", "F"),
}

DIRECTIONS = tuple(_SCANS)


def _arcs(t: int, backward: bool) -> list[tuple[int, int, int]]:
    """(source index, target index, level change) for every arrow of a
    scan, each edge walked from its target to its sources if ``backward``."""
    arcs = []
    for sources, target, delta in _lr_edges(t):
        for source in sources:
            if backward:
                arcs.append((_LIDX[target], _LIDX[source], -delta))
            else:
                arcs.append((_LIDX[source], _LIDX[target], delta))
    return arcs


def _period(arcs: list[tuple[int, int, int]]) -> tuple[int, int]:
    """(m, c): every level change is c mod m, so n steps end at k = c*n mod m.

    m is the gcd of the differences between the level changes, so it is
    the largest period the arcs keep; c is any one change reduced mod m.
    """
    deltas = [delta for _, _, delta in arcs]
    m = gcd(*(delta - deltas[0] for delta in deltas))
    return m, deltas[0] % m


def _plan(arcs: list[tuple[int, int, int]]) -> list[tuple[int, list[tuple]]]:
    """(level change, sums) for each level change of the arcs, in arc order.

    A sum is (target, sources, into), one target's sum within one level
    change: the sum before it plus ``sources``, written to the layer index
    ``target``, added into the row if ``into`` (an earlier level change
    wrote the target).

    Within one level change every source row is read at one shift, so
    each is read once.  The targets' source sets nest (a ``ValueError``
    says where they do not), so the sums of one level change form one
    chain, smallest set first: each extends the sum before it by the
    sources that sum lacks.
    """
    changes: dict[int, dict[int, set[int]]] = {}
    for src, dst, delta in arcs:
        changes.setdefault(delta, {}).setdefault(dst, set()).add(src)
    plan, written = [], set()
    for delta, targets in changes.items():
        made: set[int] = set()  # the sources of the sum before
        sums: list[tuple] = []
        for dst, srcs in sorted(targets.items(), key=lambda item: len(item[1])):
            if not made <= srcs:
                raise ValueError(f"level change {delta}: the targets' source sets do not nest")
            sums.append((dst, tuple(sorted(srcs - made)), dst in written))
            made = srcs
        written.update(targets)
        plan.append((delta, sums))
    return plan


def _slot_bytes(total: int) -> int:
    """Bytes per field of a packed row after a row whose fields sum to at
    most ``total``: the fewest whole bytes above its bit length."""
    return total.bit_length() // 8 + 1


def _steps(plan, m: int, c: int, size: int):
    """(field bits, field-0 mask, steps) for fields of ``size`` bytes.

    steps[r] is (ops, grow) for the rows n = r (mod m): ops holds one
    (shift in bits, first source, sums) per level change of ``plan``, the
    first sum less the source its chain starts from, and grow is the
    number of fields the row gains at its top.
    """
    bits = 8 * size
    steps = []
    for r in range(m):
        base, prev_base = c * r % m, c * (r - 1) % m
        ops, grow = [], 0
        for delta, sums in plan:
            shift = (base - delta - prev_base) // m  # target field j reads field j + shift
            grow = max(grow, -shift)
            (dst, sources, into), rest = sums[0], sums[1:]
            ops.append((shift * bits, sources[0], [(dst, sources[1:], into), *rest]))
        steps.append((ops, grow))
    return bits, (1 << bits) - 1, steps


def _widen(x: int, size: int, wide: int) -> int:
    """The packed row ``x`` with each field of ``size`` bytes widened to ``wide``."""
    data = x.to_bytes(-(-x.bit_length() // (8 * size)) * size, "little")
    fields = [data[i : i + size] for i in range(0, len(data), size)]
    return int.from_bytes(bytes(wide - size).join(fields), "little")


_from_bytes = int.from_bytes  # looked up once, not once per cell


def _cells(row: list[int], size: int, count: int, one: int) -> list[list[int]]:
    """The lowest ``count`` fields of each layer of the packed ``row``, as ints."""
    if count <= 1:
        return [[x & one] if count else [] for x in row]
    end = size * count
    mask = (1 << 8 * end) - 1
    data = b"".join([(x & mask).to_bytes(end, "little") for x in row])
    cells = [_from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]
    return [cells[:count], cells[count : 2 * count], cells[2 * count :]]


def _bad_layer(layer) -> ValueError:
    return ValueError(f"layer must be one of 'F', 'G', 'H', got {layer!r}")


class CountTable:
    """Immutable table of exact counts indexed by (steps n, level k, layer).

    A layer is its letter, "F", "G" or "H".  Row n holds one list per
    layer, in that order; cell j of a list is level (c*n) % m + m*j, up
    to k_max.  Levels off that class, or above the highest level n steps
    reach, are out of reach and read zero.
    """

    def __init__(self, n_max: int, k_max: int, closed: tuple[int, ...], period, grid):
        self.n_max = n_max
        self.k_max = k_max
        self._closed = closed  # indices of the layers summed by closed_count
        self._m, self._c = period
        self._grid = grid  # grid[n][layer-index][j] is level (c*n) % m + m*j

    def _check(self, n: int, k: int) -> None:
        if not (0 <= n <= self.n_max and 0 <= k <= self.k_max):
            raise ValueError(
                f"cell (n={n}, k={k}) outside the table bounds "
                f"(n<={self.n_max}, k<={self.k_max})"
            )

    def count(self, n: int, k: int, layer: str) -> int:
        self._check(n, k)
        try:
            cells = self._grid[n][_LIDX[layer]]
        except KeyError:
            raise _bad_layer(layer) from None
        j, residue = divmod(k, self._m)
        return cells[j] if residue == self._c * n % self._m and j < len(cells) else 0

    def column(self, k: int, layer: str, length: int) -> list[int]:
        """count(n, k, layer) for n = 0..length - 1, reading only the rows
        whose residue class holds level k; 1 <= length <= n_max + 1."""
        if length < 1:
            raise ValueError(f"column length must be >= 1, got {length}")
        self._check(length - 1, k)
        try:
            i = _LIDX[layer]
        except KeyError:
            raise _bad_layer(layer) from None
        m, c = self._m, self._c
        j, residue = divmod(k, m)
        out = [0] * length
        for first in range(m):
            if c * first % m == residue:
                for n in range(first, length, m):
                    cells = self._grid[n][i]
                    if j < len(cells):
                        out[n] = cells[j]
        return out

    def closed_count(self, n: int) -> int:
        """Closed words of length n.

        Left-to-right this sums the three level-0 layers.  Right-to-left
        the G column alone carries the closed total (its seed counts the
        empty word exactly once; the H seed would double-count it).
        """
        self._check(n, 0)
        if self._c * n % self._m:
            return 0  # level 0 is off the class n steps reach
        row = self._grid[n]
        return sum(row[i][0] for i in self._closed)


def dp_counts(t: int, n_max: int, k_max: int, direction: str = "LR") -> CountTable:
    """Build the counting table for down-step size t.

    ``k_max`` bounds the stored levels (left to right, k_max = n_max
    stores them all: no word outlevels its step count).  Row n is walked
    up to the highest level that n steps can reach and that can still
    fall to k_max by step n_max, so every stored cell is exact.  Only the
    levels k = c*n (mod m) are walked and stored (see ``_period``), so a
    table takes O(n_max * k_max / m) memory.  Each row runs the plan of
    ``_plan``: one chain of sums per level change, each extending the
    one before, and one shift per target.

    The rows are packed, one int per layer (see the module docstring).
    The width rule is ``_slot_bytes``: a new cell sums distinct fields of
    the row before, so a field wider than that row's total cannot carry.
    The fields above the window are cut a few rows at a time, which is
    exact: a level above one row's top feeds only levels above the next.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")

    backward, seeds, closed, pinned = _SCANS[direction]
    arcs = _arcs(t, backward)
    rise = max(delta for _, _, delta in arcs)
    drop = -min(delta for _, _, delta in arcs)
    m, c = _period(arcs)
    plan = _plan(arcs)

    # The rows' ints grow row by row, and glibc maps each block above its
    # mmap threshold afresh, raising the threshold only to the largest
    # block freed so far: at n_max = 4000 nearly every sum would fault its
    # pages in anew (ten times the minor faults of a walk over lists).
    # Freeing one untouched block wider than any row keeps them on the
    # heap: a row holds at most rise*n_max/m + 1 + _SLACK fields, of at
    # most n_max/4 + 3 bytes (its total is below 2 * 3**n_max).
    bytes(min(16 << 20, (rise * n_max // m + 1 + _SLACK) * (n_max // 4 + 3)))
    pin = [_LIDX[layer] for layer in pinned]
    row = [0, 0, 0]  # row[layer-index]: field j holds level base + m*j
    for layer in seeds:
        row[_LIDX[layer]] = 1
    totals = row[:]  # per layer, a bound on the sum of the row's fields
    grid = [[[cell] for cell in row]]
    size = _slot_bytes(sum(totals))
    bits, one, steps = _steps(plan, m, c, size)
    held = 1  # fields the row may hold, the window's and those above it
    for n in range(1, n_max + 1):
        need = _slot_bytes(sum(totals))
        if need > size:  # widen with headroom: widening copies every row
            wide = need + need // 8 + 1
            row = [_widen(x, size, wide) for x in row]
            size = wide
            bits, one, steps = _steps(plan, m, c, size)
        base = c * n % m
        hi = min(rise * n, k_max + drop * (n_max - n))
        width = (hi - base) // m + 1  # levels base, base + m, ... <= hi
        new, news = [0, 0, 0], [0, 0, 0]
        ops, grow = steps[n % m]
        for shift, first, sums in ops:
            acc, tot = row[first], totals[first]
            for dst, sources, into in sums:
                for src in sources:
                    acc += row[src]
                    tot += totals[src]
                if shift > 0:  # the fields below level 0 fall off; the bound sheds field 0
                    cell, part = acc >> shift, tot - (acc & one)
                elif shift:
                    cell, part = acc << -shift, tot
                else:  # x >> 0 would copy x
                    cell, part = acc, tot
                if into:
                    new[dst] += cell
                    news[dst] += part
                else:
                    new[dst], news[dst] = cell, part
        if base == 0:
            for i in pin:
                low = new[i] & one
                new[i] -= low
                news[i] -= low
        held += grow
        if held > width + _SLACK:  # cut the fields above hi, a few rows at a time
            mask = (1 << bits * width) - 1
            new = [x & mask for x in new]
            held = width
        stored = min(width, (k_max - base) // m + 1)  # levels <= k_max
        grid.append(_cells(new, size, stored, one))
        row, totals = new, news

    return CountTable(n_max, k_max, tuple(_LIDX[layer] for layer in closed), (m, c), grid)
