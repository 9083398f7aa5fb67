import random
import re
import tracemalloc
from itertools import accumulate

import pytest

from nestcount import core, gtree, series
from nestcount.table1 import TABLE1


def widen_by_field(rows, old, w):
    """Reference: every field of every row padded with zero bytes on its own,
    as next_level widened rows before it re-laid the whole level at once."""
    pad = bytes((w - old) // 8)
    return {
        key: int.from_bytes(b"".join(f + pad for f in gtree._fields(row, old)), "little")
        for key, row in rows.items()
    }


def widen_joined(rows, old, w):
    """Reference: the whole-level re-layout as first written, from the join
    of a list of every row's bytes rather than one preallocated buffer."""
    a, b = old // 8, w // 8
    fields = [-(-row.bit_length() // old) for row in rows.values()]
    data = b"".join([row.to_bytes(f * a, "little") for row, f in zip(rows.values(), fields)])
    buf = bytearray(len(data) // a * b)
    for i in range(a):
        buf[i::b] = data[i::a]
    view = memoryview(buf)
    sizes = [f * b for f in fields]
    return {
        key: int.from_bytes(view[end - n : end], "little")
        for key, n, end in zip(rows, sizes, accumulate(sizes))
    }


def next_counts_by_label(m, counts):
    """Reference: the label-keyed next level, as next_level computed it
    before levels were held as rows. For each coordinate j, parents that
    agree off a_j are grouped, and a running sum walks v from the group's
    largest a_j down to a_{j-1}+1, one child label at a time."""
    out = {tuple(a + 1 for a in lab): c for lab, c in counts.items()}
    for j in range(m):
        groups = {}
        for lab, c in counts.items():
            groups.setdefault(lab[:j] + lab[j + 1 :], {})[lab[j]] = c
        for rest, g in groups.items():
            start = rest[j - 1] + 1 if j else 2
            head = tuple(a + 1 for a in rest[:j])
            tail = rest[j:]
            s = 0
            for v in range(max(g), start - 1, -1):
                s += g.get(v, 0)
                child = head + (v,) + tail
                out[child] = out.get(child, 0) + s
    return out


def next_rows_two_pass(ms):
    """Reference: (rows, w) of the next level as next_level formed them when
    it first wrote every row's suffix child, then walked each coordinate
    below a_m and added the walk children in with a lookup each."""
    m, w, k, src = ms.m, ms.w, ms.k, ms.rows
    need = ((ms.level + 1) * ms.total()).bit_length()
    if need > w:
        old = w
        w = -(-max(need, w * 5 // 4) // 8) * 8
        src = gtree._widen(src, old, w)
    if m == 1:
        return {0: gtree._suffix_sums(src[0], w) << w}, w
    mask = (1 << k) - 1
    ones = gtree._pack((1,) * (m - 1), k)
    rows = {key + ones: gtree._suffix_sums(row, w) for key, row in src.items()}
    keys = sorted(src)
    for j in range(m - 1):
        shift = w if j == m - 2 else 0
        step = 1 << k * j
        low = ones & step - 1
        clear = ~(mask * step)
        for rest, top in {key & clear: key for key in keys}.items():
            stop = rest + (rest >> k * (j - 1) & mask if j else 1) * step
            run = 0
            for key in range(top, stop, -step):
                run = (run << shift) + src.get(key, 0)
                child = key + low
                rows[child] = rows.get(child, 0) + run
    return rows, w


def level_of(m, level, counts, w=gtree._W0, k=3):
    """A hand-built level: counts by label, as rows keyed by prefix."""
    rows = {}
    for lab, c in counts.items():
        key = gtree._pack(lab[:-1], k)
        rows[key] = rows.get(key, 0) + (c << w * (lab[-1] - (lab[-2] if m > 1 else 1)))
    return gtree.LabelMultiset(m, level, rows, w, k)


class TestLabelChildren:
    def test_m3_running_example(self):
        assert gtree.label_children((3, 4, 5)) == [
            (4, 5, 6),
            (2, 4, 5),
            (3, 4, 5),
            (4, 4, 5),
            (4, 5, 5),
        ]

    def test_m1_catalan_rule(self):
        # (k) -> (k+1)(2)(3)..(k)
        assert gtree.label_children((3,)) == [(4,), (2,), (3,)]
        assert gtree.label_children((1,)) == [(2,)]

    def test_minimal_label_single_child(self):
        assert gtree.label_children((1, 1)) == [(2, 2)]

    def test_m2_rewriting_rule(self):
        # (i,j) -> (i+1,j+1)(2,j)..(i,j)(i+1,i+1)(i+1,i+2)..(i+1,j)
        i, j = 3, 5
        want = [(i + 1, j + 1)]
        want += [(l, j) for l in range(2, i + 1)]
        want += [(i + 1, l) for l in range(i + 1, j + 1)]
        assert gtree.label_children((i, j)) == want

    def test_child_count_and_monotonicity(self):
        for lab in [(1, 1, 1), (2, 2, 4), (3, 4, 5), (2, 5, 5)]:
            kids = gtree.label_children(lab)
            assert len(kids) == lab[-1]
            for k in kids:
                assert all(a <= b for a, b in zip(k, k[1:]))

    def test_matches_object_level_children(self):
        for n in range(7):
            for p in core.enumerate_partitions(n):
                for m in (1, 2, 3):
                    d = core.standard_representation(p)
                    if core.max_nesting(d) > m:
                        continue
                    got = [
                        core.label(c, m) for c in core.children_partitions(p, m)
                    ]
                    assert got == gtree.label_children(core.label(p, m))


class TestLevels:
    def test_root(self):
        ms = gtree.root(2, 0)
        assert ms.level == 0 and ms.counts == {(1, 1): 1} and ms.k == 1

    def test_first_step(self):
        ms = gtree.next_level(gtree.root(3, 1))
        assert ms.level == 1 and ms.counts == {(2, 2, 2): 1}

    def test_depth_one_m1_node(self):
        w = gtree._W0
        ms = gtree.LabelMultiset(1, 1, {0: 1 << w}, w, 2)  # label (2,), count 1
        assert gtree.next_level(ms).counts == {(3,): 1, (2,): 1}

    def test_level_three_m2_matches_oracle_then_total_15(self):
        levels = list(gtree.levels(2, 4))
        assert levels[3].counts == core.label_distribution(3, 2)
        assert levels[4].total() == 15

    def test_children_count_identity(self):
        for m in (1, 2, 3):
            prev = None
            for ms in gtree.levels(m, 8):
                if prev is not None:
                    expect = sum(c * lab[-1] for lab, c in prev.counts.items())
                    assert ms.total() == expect
                prev = ms

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            list(gtree.levels(2, -1))

    def test_next_level_pushes_counts_through_label_children(self):
        for m in range(1, 6):
            for ms in gtree.levels(m, 9):
                want = {}
                for lab, c in ms.counts.items():
                    for child in gtree.label_children(lab):
                        want[child] = want.get(child, 0) + c
                assert gtree.next_level(ms).counts == want

    @pytest.mark.parametrize(
        "m,N", [(1, 12), (2, 12), (3, 12), (4, 12), (5, 12), (6, 12), (5, 20)]
    )
    def test_rows_equal_label_keyed_levels(self, m, N):
        want = gtree.root(m, N).counts
        for ms in gtree.levels(m, N):
            assert ms.counts == want
            assert 0 not in ms.counts.values()
            assert ms.total() == sum(want.values())
            want = next_counts_by_label(m, want)

    def test_width_holds_a_total_at_its_bound(self):
        # (4,) at level 3 has 4 children, so total(4) = 4 * total(3) = 2^8:
        # the next total meets the width bound (n + 1) * total(n) exactly.
        ms = gtree.LabelMultiset(1, 3, {0: 64 << 24}, 8, 3)
        nxt = gtree.next_level(ms)
        assert nxt.counts == {(5,): 64, (2,): 64, (3,): 64, (4,): 64}
        assert nxt.total() == 256 and nxt.w > 8

    @pytest.mark.parametrize("level", [5, 6])
    def test_key_width_holds_a_prefix_at_its_bound(self, level):
        # 3-bit keys serve a run to level 6: the step from level 5 forms
        # a_j + 1 = 7, which fills a field, and the step from level 6 would
        # form 8, which does not fit
        top = level + 1
        counts = {(top, top, top): 1, (2, top, top): 2, (3, 4, top): 3,
                  (top - 1, top, top): 5, (2, 2, 2): 7}
        w = gtree._W0
        rows = {}
        for (a, b, c), n in counts.items():
            rows[a | b << 3] = rows.get(a | b << 3, 0) + (n << w * (c - b))
        ms = gtree.LabelMultiset(3, level, rows, w, 3)
        assert ms.counts == counts
        if level == 5:
            assert gtree.next_level(ms).counts == next_counts_by_label(3, counts)
        else:
            with pytest.raises(ValueError, match="level 7 does not fit 3-bit keys"):
                gtree.next_level(ms)

    @pytest.mark.parametrize("m", [1, 3])
    def test_refuses_a_step_past_its_run(self, m):
        *_, last = gtree.levels(m, 6)
        with pytest.raises(ValueError, match="level 7 does not fit 3-bit keys"):
            gtree.next_level(last)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_widened_rows_equal_label_keyed_levels(self, monkeypatch, m):
        monkeypatch.setattr(gtree, "_W0", 8)  # one byte: the smallest width
        want = gtree.root(m, 20).counts
        widths = []
        for ms in gtree.levels(m, 20):
            assert ms.counts == want
            assert ms.total() == sum(want.values())
            widths.append(ms.w)
            want = next_counts_by_label(m, want)
        assert widths[0] == 8 and len(set(widths)) >= 3  # two widenings or more

    def test_matches_enumeration_key_for_key(self):
        for m in (1, 2, 3):
            for n, ms in enumerate(gtree.levels(m, 8)):
                assert ms.counts == core.label_distribution(n, m)


class TestOnePassStep:
    @pytest.mark.parametrize("w0", [gtree._W0, 8])
    @pytest.mark.parametrize("m", range(1, 8))
    def test_rows_equal_two_pass_step(self, monkeypatch, m, w0):
        # full levels from the root on, and every projection of each
        monkeypatch.setattr(gtree, "_W0", w0)
        for ms in gtree.levels(m, 12):
            while True:
                want, w = next_rows_two_pass(ms)
                got = gtree.next_level(ms)
                assert got.rows == want and got.w == w
                if ms.m == 1:
                    break
                ms = gtree._drop_first(ms)

    @pytest.mark.parametrize(
        "m,counts",
        [
            # the a_1 walk passes the absent a_1 = 2 on its way down to 1
            (2, {(3, 4): 1, (3, 6): 2, (1, 2): 3}),
            # a_2 = 3 is absent between (2, 4) and (2, 2); (3, 5) walks down
            # to a_2 = 3 over two absent rows, its stop among them
            (3, {(2, 4, 4): 1, (2, 4, 6): 2, (2, 2, 5): 3, (3, 5, 5): 4, (1, 1, 3): 5}),
            # a_3 walks with gaps, and the walks for a_1 and a_2 add into its rows
            (4, {(1, 2, 5, 6): 1, (1, 2, 2, 2): 2, (2, 3, 6, 6): 3, (2, 2, 2, 3): 4}),
        ],
    )
    def test_gaps_in_the_a_m_minus_1_walk(self, m, counts):
        ms = level_of(m, 5, counts)
        assert ms.counts == counts
        want, w = next_rows_two_pass(ms)
        got = gtree.next_level(ms)
        assert got.rows == want and got.w == w
        assert got.counts == next_counts_by_label(m, counts)

    @pytest.mark.parametrize("prefix", [(3, 2), (5, 3)])
    def test_row_outside_its_walk_raises(self, prefix):
        # a_2 < a_1 puts the row below its group's stop a_2 = a_1, so the a_2
        # walk never reaches it (for (5, 3) the walk is empty), and its
        # children would be lost
        rows = {gtree._pack(prefix, 3): 1, gtree._pack((2, 2), 3): 1}
        ms = gtree.LabelMultiset(3, 5, rows, gtree._W0, 3)
        msg = "gtree, m=3, level 6: the a_2 walk reached 1 of level 5's 2 rows"
        with pytest.raises(series.SeriesConsistencyError, match=f"^{re.escape(msg)}$"):
            gtree.next_level(ms)

WIDENINGS = [(8, 16), (64, 80), (80, 104), (552, 696)]


class TestRelayout:
    @pytest.mark.parametrize("old,w", WIDENINGS)
    def test_widen_equals_padding_each_field(self, old, w):
        rng = random.Random(old)
        full = (1 << old) - 1
        rows = {}
        for key in range(40):
            fields = [rng.choice([0, 1, full, rng.getrandbits(old)]) for _ in range(rng.randint(1, 12))]
            fields += [0] * rng.randint(0, 3)  # zero top fields: the row has fewer fields
            rows[key] = sum(f << old * i for i, f in enumerate(fields))
        rows[40] = 0
        got = gtree._widen(rows, old, w)
        assert got == widen_by_field(rows, old, w) == widen_joined(rows, old, w)
        assert list(got) == list(rows)

    @pytest.mark.parametrize("old,w", WIDENINGS)
    def test_widen_one_row_and_empty_levels(self, old, w):
        row = sum(((1 << old) - 1 - i) << old * i for i in range(30))  # as an m = 1 level
        assert gtree._widen({0: row}, old, w) == widen_by_field({0: row}, old, w)
        assert gtree._widen({}, old, w) == {}

    def test_widen_peak_memory(self):
        # 64 rows of 1000 fields, widened 64 -> 80 bits as the first
        # widening of a run. The peak may hold the old and the new layout,
        # two copies of one byte lane of the old (the strided copy's source)
        # and one row, plus 16 KiB: not the new layout beside all the new rows.
        rng = random.Random(5)
        old, w = 64, 80
        rows = {key: rng.getrandbits(old * 1000) | 1 << old * 1000 - 1 for key in range(64)}
        old_bytes, new_bytes = 64 * 1000 * old // 8, 64 * 1000 * w // 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = gtree._widen(rows, old, w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got == widen_joined(rows, old, w)
        assert peak < old_bytes + new_bytes + 2 * old_bytes // (old // 8) + 1000 * w // 8 + 16384


class TestSequence:
    def test_m2_through_8(self):
        assert gtree.sequence(2, 8) == [1, 1, 2, 5, 15, 52, 202, 859, 3930]

    def test_m3_tail(self):
        seq = gtree.sequence(3, 10)
        assert seq[8] == 4139 and seq[9] == 21119

    def test_m1_is_catalan(self):
        assert gtree.sequence(1, 15)[1:] == list(TABLE1[1])

    def test_deep_levels_match_u_engine(self):
        assert gtree.sequence(2, 60) == series.u_engine(2, 60)
        assert gtree.sequence(3, 30) == series.u_engine(3, 30)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("m", range(2, 7))
    def test_last_step_fills_a_key_field(self, m, k):
        # a run to 2^k - 2 is keyed at k bits, and its last step forms 2^k - 1
        N = 2**k - 2
        assert gtree.sequence(m, N) == series.u_engine(m, N)

    def test_deterministic(self):
        assert gtree.sequence(4, 12) == gtree.sequence(4, 12)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gtree.sequence(0, 5)
        with pytest.raises(ValueError):
            gtree.sequence(2, -1)


def project(counts, d):
    """Reference: counts with the first d label coordinates summed away."""
    out = {}
    for lab, c in counts.items():
        out[lab[d:]] = out.get(lab[d:], 0) + c
    return out


class TestProjection:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_sequence_equals_full_label_totals(self, m):
        full = [ms.total() for ms in gtree.levels(m, 18)]
        for N in range(19):
            assert gtree.sequence(m, N) == full[: N + 1]

    @pytest.mark.parametrize("m", range(2, 7))
    def test_projected_step_equals_projected_full_step(self, m):
        for ms in gtree.levels(m, 9):
            nxt = gtree.next_level(ms)
            low = ms
            for d in range(1, m):
                low = gtree._drop_first(low)
                assert low.m == m - d and low.counts == project(ms.counts, d)
                assert low.total() == ms.total()
                step = gtree.next_level(low)
                if d < m - 1:
                    assert gtree._drop_first(step).counts == project(nxt.counts, d + 1)
                assert step.total() == nxt.total()

    def test_two_coordinates_rebase_onto_one(self):
        # rows of (a_1, a_2): a_1 = 1 holds a_2 = 1, 2, 3; a_1 = 3 holds a_2 = 3, 4
        w, k = 8, 3
        ms = gtree.LabelMultiset(2, 4, {1: 5 | 7 << 2 * w, 3: 11 | 13 << w}, w, k)
        assert ms.counts == {(1, 1): 5, (1, 3): 7, (3, 3): 11, (3, 4): 13}
        low = gtree._drop_first(ms)
        assert (low.m, low.level, low.w, low.k) == (1, 4, w, k)
        assert low.rows == {0: 5 | 18 << 2 * w | 13 << 3 * w}
        assert low.counts == {(1,): 5, (3,): 18, (4,): 13}

    def test_three_coordinates_add_rows_that_agree_off_a1(self):
        w, k = 8, 3
        rows = {1 | 2 << k: 1 | 2 << w, 2 | 2 << k: 4 << w, 2 | 3 << k: 8}
        low = gtree._drop_first(gtree.LabelMultiset(3, 4, rows, w, k))
        assert low.rows == {2: 1 | 6 << w, 3: 8}
        assert low.counts == {(2, 2): 1, (2, 3): 6, (3, 3): 8}


class TestMarginal:
    def test_level_one(self):
        levels = list(gtree.levels(2, 1))
        assert gtree.marginal(levels[1], 2) == {2: 1}

    def test_level_zero(self):
        assert gtree.marginal(gtree.root(2, 0), 2) == {1: 1}

    def test_children_sum_relation(self):
        levels = list(gtree.levels(2, 4))
        f3 = gtree.marginal(levels[3], 2)
        assert sum(k * c for k, c in f3.items()) == 15

    def test_children_statistic_through_20(self):
        # F_n = sum_k F_n(k) and F_{n+1} = sum_k k*F_n(k), m = 2
        totals = gtree.sequence(2, 21)
        for n, ms in enumerate(gtree.levels(2, 20)):
            dist = gtree.marginal(ms, 2)
            assert sum(dist.values()) == totals[n]
            assert sum(k * c for k, c in dist.items()) == totals[n + 1]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            gtree.marginal(gtree.root(2, 0), 3)
        with pytest.raises(IndexError):
            gtree.marginal(gtree.root(2, 0), 0)
