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
that residue class, and every arrow becomes one index shift per row.
The walk computes only the levels that can still fall back into the
stored window, and the table stores the walked rows themselves, clipped
to k_max: a table of levels k <= k_max takes O(n * k_max / m) memory,
and the cells off the class read zero without being stored.  One row
plan, built from the edge list, adds each shared source sum once.

This table is the oracle the closed forms are measured against, so the
arithmetic is plain Python integers end to end: no modulus, no floats,
no overflow.  The module is the table route alone; the relations the
table is checked against, the paper's layer equations among them, are
written in `verify`, apart from this edge list.
"""

from __future__ import annotations

from math import gcd
from operator import add
from typing import NamedTuple

LAYERS = ("F", "G", "H")
_LIDX = {layer: i for i, layer in enumerate(LAYERS)}  # a layer's index in a row


def _lr_edges(t: int) -> tuple[tuple[str, str, int], ...]:
    """Left-to-right transitions as (source letters, target letter, level change)."""
    return (
        ("FG", "F", 1),  # U never follows L
        ("FGH", "G", -t),  # D
        ("GH", "H", -t),  # L never follows U
    )


class _Scan(NamedTuple):
    """What a scan direction fixes besides the direction of the arrows."""

    backward: bool  # walk every edge from its target to its sources
    seeds: str  # letters of the level-0 layers holding the empty word
    closed: str  # letters of the level-0 layers summed into the closed count
    pinned: str  # letters of the level-0 layers held at zero after step 0


_SCANS = {
    "LR": _Scan(False, seeds="F", closed="FGH", pinned=""),
    "RL": _Scan(True, seeds="GH", closed="G", pinned="F"),
}

DIRECTIONS = tuple(_SCANS)


def _arcs(t: int, scan: _Scan) -> list[tuple[int, int, int]]:
    """(source index, target index, level change) for every arrow of a scan."""
    arcs = []
    for sources, target, delta in _lr_edges(t):
        for source in sources:
            if scan.backward:
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


class _Sum(NamedTuple):
    """One target's sum within one level change: the sum before it plus sources."""

    target: int  # layer index written
    sources: tuple[int, ...]  # layer indices added on top of the sum before
    into: bool  # an earlier level change wrote the target: add into the row


def _plan(arcs: list[tuple[int, int, int]]) -> list[tuple[int, list[_Sum]]]:
    """(level change, sums) for each level change of the arcs, in arc order.

    Within one level change every source row is read at one shift, so
    each is sliced once.  The targets' source sets nest (a ``ValueError``
    says where they do not), so the sums of one level change form one
    chain, smallest set first: each extends the sum before it by the
    sources that sum lacks.  Every sum but the last is made a list,
    because the next one reads it and a ``map`` can be read only once.
    """
    changes: dict[int, dict[int, set[int]]] = {}
    for src, dst, delta in arcs:
        changes.setdefault(delta, {}).setdefault(dst, set()).add(src)
    plan, written = [], set()
    for delta, targets in changes.items():
        made: set[int] = set()  # the sources of the sum before
        sums: list[_Sum] = []
        for dst, srcs in sorted(targets.items(), key=lambda item: len(item[1])):
            if not made <= srcs:
                raise ValueError(f"level change {delta}: the targets' source sets do not nest")
            sums.append(_Sum(dst, tuple(sorted(srcs - made)), dst in written))
            made = srcs
        written.update(targets)
        plan.append((delta, sums))
    return plan


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
    ``_plan``: one shifted slice per source row and level change, and
    one chain of sums per level change, each extending the one before.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")

    scan = _SCANS[direction]
    arcs = _arcs(t, scan)
    rise = max(delta for _, _, delta in arcs)
    drop = -min(delta for _, _, delta in arcs)
    m, c = _period(arcs)
    plan = _plan(arcs)

    prev = [[0], [0], [0]]  # prev[layer-index][j] is level prev_base + m*j
    for layer in scan.seeds:
        prev[_LIDX[layer]][0] = 1
    prev_base = 0
    grid = [prev]
    for n in range(1, n_max + 1):
        base = c * n % m
        hi = min(rise * n, k_max + drop * (n_max - n))
        width = (hi - base) // m + 1  # levels base, base + m, ... <= hi
        row = [[0] * width, [0] * width, [0] * width]  # F, G, H
        for delta, sums in plan:
            # row cell j reads prev cell j + shift, at level (base + m*j) - delta
            shift = (base - delta - prev_base) // m
            lo, top = max(0, -shift), min(width, len(prev[0]) - shift)
            if lo >= top:
                continue
            cells, last = None, len(sums) - 1
            for i, (dst, sources, into) in enumerate(sums):
                for src in sources:
                    part = prev[src][lo + shift : top + shift]
                    cells = part if cells is None else map(add, cells, part)
                if i < last:
                    cells = list(cells)
                row[dst][lo:top] = map(add, cells, row[dst][lo:top]) if into else cells
        if base == 0:
            for layer in scan.pinned:
                row[_LIDX[layer]][0] = 0
        stored = (k_max - base) // m + 1  # levels base, base + m, ... <= k_max
        f, g, h = row
        grid.append(row if width <= stored else [f[:stored], g[:stored], h[:stored]])
        prev, prev_base = row, base

    closed = tuple(_LIDX[layer] for layer in scan.closed)
    return CountTable(n_max, k_max, closed, (m, c), grid)
