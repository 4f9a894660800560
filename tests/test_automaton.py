"""Counting-table tests: oracle equivalence, totals, the split identity, and
the table against the kernel recurrence and the layer equations."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdyck import automaton
from skewdyck.automaton import LAYERS, dp_counts
from skewdyck.kernel import kernel_poly
from skewdyck.paths import prefix_ends, words
from skewdyck.verify import _equations, _equations_check, first_violation
from test_paths import walk_of, words_of


def total(t, n):
    # closed words of length n, from a table that stores level 0 alone
    return dp_counts(t, n, k_max=0).closed_count(n)


def walked_cells(t, n):
    # the words of length n from the open-word walk, counted by (final
    # level, layer): the layer read off the last step, and the empty word
    # in layer F
    layer_of = {None: "F", "U": "F", "D": "G", "L": "H"}
    return Counter((level, layer_of[last]) for length, level, last in prefix_ends(t, n) if length == n)


class TestTotals:
    def test_printed_totals_t2(self):
        assert [total(2, n) for n in (3, 6, 9, 12)] == [1, 4, 19, 100]

    def test_parity_zero(self):
        assert total(2, 7) == 0
        assert total(2, 8) == 0

    def test_t3_small(self):
        assert total(3, 4) == 1
        assert ["".join(steps) for steps, _ in walk_of(3, 8)] == [
            "UUUUUUDD", "UUUUUUDL", "UUUUUDUD", "UUUUDUUD", "UUUDUUUD",
        ]
        assert total(3, 8) == 5

    def test_empty_word(self):
        assert total(2, 0) == 1
        assert total(3, 0) == 1


class TestCells:
    def test_seed_is_layer_f(self):
        table = dp_counts(2, 0, k_max=0)
        assert table.count(0, 0, "F") == 1
        assert table.count(0, 0, "G") == 0
        assert table.count(0, 0, "H") == 0

    def test_level_one_after_four_steps(self):
        table = dp_counts(2, 4, k_max=4)
        assert table.count(4, 1, "F") == 1  # UUDU
        assert table.count(4, 1, "G") == 1  # UUUD
        assert table.count(4, 1, "H") == 0

    def test_level_zero_after_six_steps(self):
        table = dp_counts(2, 6, k_max=6)
        assert table.count(6, 0, "F") == 0
        assert table.count(6, 0, "G") == 3
        assert table.count(6, 0, "H") == 1

    def test_prefix_count_examples(self):
        # one cell each, from a table cut to the cell's own length and level
        assert dp_counts(2, 4, k_max=1).count(4, 1, "F") == 1
        assert dp_counts(2, 6, k_max=0).count(6, 0, "H") == 1
        assert dp_counts(2, 9, k_max=0).count(9, 0, "H") == 6

    def test_out_of_bounds(self):
        table = dp_counts(2, 5, k_max=3)
        with pytest.raises(ValueError, match="bounds"):
            table.count(6, 0, "F")
        with pytest.raises(ValueError, match="bounds"):
            table.count(2, 4, "F")
        with pytest.raises(ValueError, match="bounds"):
            table.closed_count(6)
        with pytest.raises(ValueError, match="bounds"):
            table.closed_count(-1)

    def test_unknown_layer(self):
        # a bad letter is refused in the words kernel.prefix_series uses
        table = dp_counts(2, 4, k_max=4)
        message = "layer must be one of 'F', 'G', 'H', got 'X'"
        with pytest.raises(ValueError, match=message):
            table.count(4, 1, "X")
        with pytest.raises(ValueError, match=message):
            table.column(1, "X", 5)

    def test_h_layer_unreachable_early(self):
        for t in (2, 3):
            table = dp_counts(t, 2 * t, k_max=2 * t)
            for n in range(2 * t):
                for k in range(n + 1):
                    assert table.count(n, k, "H") == 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            dp_counts(1, 5, k_max=5)
        with pytest.raises(ValueError):
            dp_counts(2, -1, k_max=-1)
        with pytest.raises(ValueError):
            dp_counts(2, 5, k_max=5, direction="down")


class TestOracleEquivalence:
    @pytest.mark.parametrize("t", [2, 3])
    def test_every_cell_matches_enumeration(self, t):
        n_hi = 15
        table = dp_counts(t, n_hi, k_max=n_hi)
        for n in range(n_hi + 1):
            cells = walked_cells(t, n)
            for k in range(n + 1):
                for layer in LAYERS:
                    assert table.count(n, k, layer) == cells[k, layer], (
                        t, n, k, layer,
                    )

    @pytest.mark.parametrize("t", [2, 3])
    def test_closed_counts_match_enumeration(self, t):
        for n in range(16):
            assert total(t, n) == len(words_of(words(t, n, plain=False)))


def failed_splits(lr, rl, t):
    # the splits (n, a) of n = a + b, a >= 1, at which the closed count
    # of length n is not the sum over states (k, X) of LR(a, k, X) times
    # RL(b, k, X): a word splits after step a at a state the LR table
    # reaches in a steps and from which the RL table closes it in b
    n_max = lr.n_max
    return [
        (a + b, a)
        for a in range(1, n_max + 1)
        for b in range(n_max - a + 1)
        if lr.closed_count(a + b) != sum(
            lr.count(a, k, layer) * rl.count(b, k, layer)
            for k in range(min(a, t * b) + 1)
            for layer in LAYERS
        )
    ]


class TestReversedTable:
    def test_seeds(self):
        table = dp_counts(2, 0, k_max=0, direction="RL")
        assert table.count(0, 0, "G") == 1
        assert table.count(0, 0, "H") == 1
        assert table.count(0, 0, "F") == 0

    def test_one_step_lands_at_level_t(self):
        # both reversed step kinds climb by t, so level 1 is empty after
        # one step and level 2 holds everything
        table = dp_counts(2, 1, k_max=4, direction="RL")
        assert sum(table.count(1, 1, layer) for layer in LAYERS) == 0
        assert table.count(1, 2, "F") == 1
        assert table.count(1, 2, "G") == 2
        assert table.count(1, 2, "H") == 2

    def test_origin_f_cell_stays_zero(self):
        table = dp_counts(2, 12, k_max=12, direction="RL")
        assert all(table.count(n, 0, "F") == 0 for n in range(13))

    def test_closed_counts_via_g_column(self):
        table = dp_counts(2, 15, k_max=0, direction="RL")
        assert [table.closed_count(n) for n in (0, 3, 6, 9, 12, 15)] == [
            1, 1, 4, 19, 100, 563,
        ]

    def test_mirror_consistency(self):
        lr = dp_counts(2, 30, k_max=0)
        rl = dp_counts(2, 30, k_max=0, direction="RL")
        for n in range(31):
            assert lr.closed_count(n) == rl.closed_count(n)

    def test_mirror_consistency_t3(self):
        lr = dp_counts(3, 24, k_max=0)
        rl = dp_counts(3, 24, k_max=0, direction="RL")
        for n in range(25):
            assert lr.closed_count(n) == rl.closed_count(n)

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_mirror_consistency_through_40(self, t):
        lr = dp_counts(t, 40, k_max=0)
        rl = dp_counts(t, 40, k_max=0, direction="RL")
        assert [lr.closed_count(n) for n in range(41)] == [rl.closed_count(n) for n in range(41)]

    # the split identity holds for any edge list: it tests the two scan
    # directions of `dp_counts` against each other (the row plan, the
    # seeds, the pins and the stored classes), not the edges themselves;
    # a = 0 is left out, as RL pins the level-0 F cell the empty word is in
    @settings(deadline=None, max_examples=30)
    @given(t=st.integers(2, 6), n_max=st.integers(1, 40))
    def test_tables_multiply_at_every_split(self, t, n_max):
        lr = dp_counts(t, n_max, k_max=n_max)
        rl = dp_counts(t, n_max, k_max=n_max, direction="RL")
        assert failed_splits(lr, rl, t) == []

    def test_a_bumped_cell_fails_the_splits_that_read_it(self):
        # the mirror row and the RL equations read neither level 5 nor
        # length 25 of the RL table; the splits through (25, 5, G) do
        lr = dp_counts(2, 40, k_max=40)
        rl = dp_counts(2, 40, k_max=40, direction="RL")
        rl._grid[25][1][1] += 1  # row 25 stores levels 2, 5, 8, ...
        assert failed_splits(lr, rl, 2) == [(33, 8), (36, 11), (39, 14)]


class TestRandomCells:
    @settings(deadline=None, max_examples=300)
    @given(
        t=st.integers(2, 5),
        n=st.integers(0, 12),
        k=st.integers(0, 12),
        layer=st.sampled_from(LAYERS),
    )
    def test_cell_matches_enumeration(self, t, n, k, layer):
        expected = walked_cells(t, n)[k, layer]
        # the narrow window n_max = n, k_max = k prunes every level that
        # cannot fall back to k by step n
        assert dp_counts(t, n, k_max=k).count(n, k, layer) == expected

    @settings(deadline=None, max_examples=150)
    @given(
        t=st.integers(2, 5),
        n_max=st.integers(0, 20),
        a=st.integers(0, 30),
        extra=st.integers(0, 3),
        direction=st.sampled_from(["LR", "RL"]),
    )
    def test_pruned_window_matches_unpruned(self, t, n_max, a, extra, direction):
        # no level above n_max (LR) or t*n_max (RL) is ever reached, so a
        # table that wide prunes nothing
        reach = n_max if direction == "LR" else t * n_max
        b = max(a + 1, reach) + extra
        pruned = dp_counts(t, n_max, k_max=a, direction=direction)
        full = dp_counts(t, n_max, k_max=b, direction=direction)
        for n in range(n_max + 1):
            for k in range(a + 1):
                for layer in LAYERS:
                    assert pruned.count(n, k, layer) == full.count(n, k, layer), (n, k, layer)


def dense_walk(t, n_max, direction, k_top):
    """rows[n][layer][k] for every level k <= k_top, from the step rules alone.

    Left to right, U (+1) may follow U, D or nothing; D (-t) may follow
    anything; L (-t) may follow D or L; no level goes below 0.  Right to
    left undoes one step per row: the G and H seeds hold the empty word,
    and the level-0 F cell is held at zero after step 0.
    """
    F, G, H = LAYERS
    width = max(k_top, t * n_max) + t + 2  # above every level either scan reaches
    row = {layer: [0] * width for layer in LAYERS}
    for layer in (F,) if direction == "LR" else (G, H):
        row[layer][0] = 1
    rows = [row]
    for _ in range(n_max):
        old, row = row, {layer: [0] * width for layer in LAYERS}
        for k in range(width - t):
            if direction == "LR":
                row[F][k + 1] += old[F][k] + old[G][k]
                row[G][k] += old[F][k + t] + old[G][k + t] + old[H][k + t]
                row[H][k] += old[G][k + t] + old[H][k + t]
            else:  # each rule above, from its target back to its sources
                row[F][k] += old[F][k + 1]
                row[G][k] += old[F][k + 1]
                row[F][k + t] += old[G][k]
                row[G][k + t] += old[G][k] + old[H][k]
                row[H][k + t] += old[G][k] + old[H][k]
        if direction == "RL":
            row[F][0] = 0
        rows.append(row)
    return rows


class TestStridedWalk:
    @settings(deadline=None, max_examples=150)
    @given(
        t=st.integers(2, 7),
        n_max=st.integers(0, 40),
        k_max=st.one_of(st.none(), st.integers(0, 12)),
        direction=st.sampled_from(["LR", "RL"]),
    )
    def test_cells_match_dense_walk(self, t, n_max, k_max, direction):
        table = dp_counts(t, n_max, k_max=n_max if k_max is None else k_max, direction=direction)
        rows = dense_walk(t, n_max, direction, table.k_max)
        # every step changes the level by 1 (LR) or -1 (RL) mod t+1
        c = 1 if direction == "LR" else t
        for n in range(n_max + 1):
            for k in range(table.k_max + 1):
                for layer in LAYERS:
                    got = table.count(n, k, layer)
                    assert got == rows[n][layer][k], (n, k, layer)
                    if (k - c * n) % (t + 1):
                        assert got == 0, (n, k, layer)

    @settings(deadline=None, max_examples=150)
    @given(
        t=st.integers(2, 7),
        n_max=st.integers(0, 40),
        k_max=st.one_of(st.none(), st.integers(0, 12)),
        direction=st.sampled_from(["LR", "RL"]),
        length=st.integers(1, 41),
    )
    def test_column_matches_cells(self, t, n_max, k_max, direction, length):
        table = dp_counts(t, n_max, k_max=n_max if k_max is None else k_max, direction=direction)
        length = min(length, n_max + 1)  # a column reads lengths n < length
        for k in range(table.k_max + 1):
            for layer in LAYERS:
                want = [table.count(n, k, layer) for n in range(n_max + 1)]
                assert table.column(k, layer, n_max + 1) == want, (k, layer)
                assert table.column(k, layer, length) == want[:length], (k, layer, length)
        for k, bound in ((table.k_max + 1, n_max + 1), (0, n_max + 2)):
            with pytest.raises(ValueError, match="outside the table bounds"):
                table.column(k, "F", bound)
        for bound in (0, -1):  # a length below 1 is named, not read as a cell
            with pytest.raises(ValueError, match=f"^column length must be >= 1, got {bound}$"):
                table.column(0, "F", bound)

    @pytest.mark.parametrize("direction", ["LR", "RL"])
    @pytest.mark.parametrize("t", [2, 3, 7])
    def test_plan_slices_each_source_once(self, t, direction):
        # the plan sums, for every level change, exactly the arcs' sources
        # of each target, and reads each source row once per level change
        backward = automaton._SCANS[direction][0]
        arcs = automaton._arcs(t, backward)
        for delta, sums in automaton._plan(arcs):
            read = [src for _, sources, _ in sums for src in sources]
            assert len(read) == len(set(read))
            wanted = {dst: {s for s, d, change in arcs if d == dst and change == delta}
                      for _, dst, _ in arcs}
            full = set()  # each sum extends the one before it
            for target, sources, _ in sums:
                full |= set(sources)
                assert full == wanted[target]

    def test_plan_shares_nested_sums(self):
        F, G, H = 0, 1, 2
        plan = dict(automaton._plan(automaton._arcs(3, backward=False)))
        # left to right at -t: H <- G+H, then G extends that sum by F
        assert [(target, sources) for target, sources, _ in plan[-3]] == [(H, (G, H)), (G, (F,))]
        plan = dict(automaton._plan(automaton._arcs(3, backward=True)))
        # right to left at -1, F and G share the F slice; at +t, G extends
        # F's G slice by H, and H is G's sum; F and G add into the row
        assert plan[-1] == [
            (F, (F,), False), (G, (), False),
        ]
        assert plan[3] == [
            (F, (G,), True), (G, (H,), True), (H, (), False),
        ]

    def test_plan_refuses_sets_that_do_not_nest(self):
        # two targets of one level change with disjoint sources form no chain
        with pytest.raises(ValueError, match="level change 1: .* do not nest"):
            automaton._plan([(0, 0, 1), (1, 1, 1)])

    @pytest.mark.parametrize("direction", ["LR", "RL"])
    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_stores_only_the_reachable_class(self, t, direction):
        # a full-window table keeps each row as three layer lists of one
        # level in t+1, not a zero-filled cell for every level up to k_max
        table = dp_counts(t, 60, k_max=60, direction=direction)
        bound = table.k_max // (t + 1) + 1
        for row in table._grid:
            assert len(row) == 3 and all(len(cells) <= bound for cells in row)


@pytest.fixture(scope="module")
def dense_200():
    # dense_walk rows to n = 200, one walk per (t, direction); the walk
    # prunes nothing, so its rows serve every n_max <= 200 and every k_max
    walks = {}

    def rows(t, direction):
        if (t, direction) not in walks:
            walks[t, direction] = dense_walk(t, 200, direction, 200)
        return walks[t, direction]

    return rows


def mismatches(table, rows):
    return [
        (n, k, layer)
        for n in range(table.n_max + 1)
        for k in range(table.k_max + 1)
        for layer in LAYERS
        if table.count(n, k, layer) != rows[n][layer][k]
    ]


class TestPackedRows:
    # a walked row packs each layer into one int, a field of whole bytes
    # per level; the fields widen as the counts grow, several times by
    # n = 120, and the window's top is clipped a few rows at a time
    @pytest.mark.parametrize("direction", ["LR", "RL"])
    @pytest.mark.parametrize("t", [2, 3, 5])
    @pytest.mark.parametrize("n_max", [120, 200])
    def test_widened_rows_match_dense_walk(self, dense_200, t, n_max, direction):
        for k_max in (0, 12, n_max):
            table = dp_counts(t, n_max, k_max=k_max, direction=direction)
            assert mismatches(table, dense_200(t, direction)) == [], k_max

    @pytest.mark.parametrize("direction", ["LR", "RL"])
    def test_one_byte_narrower_fields_carry(self, dense_200, monkeypatch, direction):
        # the width rule is load-bearing: one byte less and some field
        # carries into the next, so the table no longer matches the walk
        # (a field keeps at least one byte: a zero-width field holds nothing)
        width = automaton._slot_bytes
        monkeypatch.setattr(automaton, "_slot_bytes", lambda total: max(1, width(total) - 1))
        for k_max in (0, 12, 120):
            table = dp_counts(2, 120, k_max=k_max, direction=direction)
            assert mismatches(table, dense_200(2, direction)) != [], k_max

    def test_slot_is_whole_bytes_above_the_total(self):
        # the fewest whole bytes whose bits exceed the total's bit length
        for total, size in ((0, 1), (1, 1), (127, 1), (128, 2), (2**63 - 1, 8), (2**63, 9)):
            assert automaton._slot_bytes(total) == size, total
            assert 8 * (size - 1) <= total.bit_length() < 8 * size


def kernel_terms(t, layer):
    # the kernel's terms c z^e u^p as relation terms on one layer's columns
    return tuple((c, layer, p, e, ()) for p, zp in kernel_poly(t).items() for e, c in zp.items())


class TestColumnRecurrence:
    # K_t annihilates every level column: the u^(k + 2t) coefficient of
    # K_t times a layer's column sum is the recurrence's residual at level k
    @settings(deadline=None, max_examples=30)
    @given(t=st.integers(2, 6), n_max=st.integers(0, 40))
    def test_every_level_satisfies_kernel_recurrence(self, t, n_max):
        # every level a word of at most n_max steps reaches, k <= n_max
        table = dp_counts(t, n_max, k_max=n_max + 2 * t)
        for layer in LAYERS:
            assert first_violation(table, 0, kernel_terms(t, layer), 2 * t, n_max + 2 * t, n_max) == ""

    def test_bumped_cell_is_reported(self):
        # level 10 at n = 19 first meets the residual at u^10, through the
        # kernel's -z^3 u^0 term: z^(19 + 3)
        table = dp_counts(2, 24, k_max=14)
        table._grid[19][0][3] += 1  # row 19 stores levels 1, 4, 7, 10, ...
        assert first_violation(table, 0, kernel_terms(2, "F"), 4, 14, 24) == "u^10 z^22 term -1"
        assert first_violation(table, 0, kernel_terms(2, "G"), 4, 14, 24) == ""
        # the z-bound is the caller's: the kernel's -u^3 term reads the
        # bumped cell at u^13 z^19, so through z^18 nothing is reached
        assert first_violation(table, 0, kernel_terms(2, "F"), 4, 14, 19) == "u^13 z^19 term -1"
        assert first_violation(table, 0, kernel_terms(2, "F"), 4, 14, 18) == ""

    def test_z_bound_past_the_table_is_refused(self):
        # a residual longer than the table's columns would check less than asked
        table = dp_counts(2, 20, k_max=10)
        with pytest.raises(ValueError, match="past the table's lengths"):
            first_violation(table, 0, kernel_terms(2, "F"), 4, 10, 21)


class TestFunctionalEquations:
    # `verify` checks the equations on a table it is handed, u^0..u^8
    # through z^20; it runs the left-to-right ones at every t
    cases = [(2, "LR"), (3, "LR"), (2, "RL"), *((t, "LR") for t in range(4, 9))]

    @pytest.mark.parametrize("t,direction", cases)
    def test_equations_hold(self, t, direction):
        table = dp_counts(t, 20, k_max=8, direction=direction)
        assert _equations_check(table, t, direction, 20) == (True, "")

    @pytest.mark.parametrize("t,direction", cases)
    def test_violation_is_reported_not_raised(self, t, direction):
        # a corrupted table must produce a finding, not silence
        table = dp_counts(t, 20, k_max=8, direction=direction)
        table._grid[9][1][0] += 1  # tamper with row 9's lowest stored G cell
        ok, detail = _equations_check(table, t, direction, 20)
        assert not ok and " violated at u^" in detail

    def test_rl_requires_t2(self):
        with pytest.raises(ValueError, match="t=2"):
            _equations(3, "RL")
        table = dp_counts(3, 20, k_max=8, direction="RL")
        with pytest.raises(ValueError, match="t=2"):
            _equations_check(table, 3, "RL", 20)
