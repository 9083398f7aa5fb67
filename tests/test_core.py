from itertools import combinations

import pytest

from nestcount import core
from nestcount.core import (
    ArcDiagram,
    SetPartition,
    bell_numbers,
    children_partitions,
    count_noncrossing,
    count_nonnesting,
    enumerate_partitions,
    label,
    label_distribution,
    max_crossing,
    max_nesting,
    standard_representation,
)

RUNNING_EXAMPLE = SetPartition.from_blocks([[1], [2, 5, 6, 8], [3, 7], [4]])

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def brute_max_nesting(arcs):
    for r in range(len(arcs), 0, -1):
        for sub in combinations(arcs, r):
            if all(
                sub[t][0] < sub[t + 1][0] and sub[t + 1][1] < sub[t][1]
                for t in range(r - 1)
            ):
                return r
    return 0


def brute_max_crossing(arcs):
    for r in range(len(arcs), 0, -1):
        for sub in combinations(arcs, r):
            if (
                all(sub[t][1] < sub[t + 1][1] for t in range(r - 1))
                and sub[-1][0] < sub[0][1]
            ):
                return r
    return 0


class TestSetPartition:
    def test_rgs_validation(self):
        with pytest.raises(ValueError):
            SetPartition((2,))
        with pytest.raises(ValueError):
            SetPartition((1, 3))

    def test_from_blocks_roundtrip(self):
        assert RUNNING_EXAMPLE.rgs == (1, 2, 3, 4, 2, 2, 3, 2)
        assert str(RUNNING_EXAMPLE) == "1|2 5 6 8|3 7|4"

    def test_block_order_by_descending_max(self):
        assert RUNNING_EXAMPLE.blocks_by_max_desc() == [
            [2, 5, 6, 8],
            [3, 7],
            [4],
            [1],
        ]


class TestEnumeration:
    def test_empty(self):
        assert list(enumerate_partitions(0)) == [SetPartition(())]

    def test_counts_are_bell(self):
        for n in range(9):
            assert sum(1 for _ in enumerate_partitions(n)) == BELL[n]

    def test_no_duplicates(self):
        ps = list(enumerate_partitions(6))
        assert len(set(ps)) == len(ps)


class TestStandardRepresentation:
    def test_running_example(self):
        d = standard_representation(RUNNING_EXAMPLE)
        assert d.arcs == ((2, 5), (3, 7), (5, 6), (6, 8))

    def test_singletons(self):
        assert standard_representation(SetPartition((1, 2, 3))).arcs == ()

    def test_single_block_chains(self):
        d = standard_representation(SetPartition((1, 1, 1)))
        assert d.arcs == ((1, 2), (2, 3))

    def test_arc_count(self):
        for p in enumerate_partitions(6):
            d = standard_representation(p)
            assert len(d.arcs) == p.n - p.block_count


class TestNestingCrossing:
    def test_running_example(self):
        d = standard_representation(RUNNING_EXAMPLE)
        assert max_nesting(d) == 2
        assert max_crossing(d) == 2

    def test_arc_over_fixed_point_is_1_nesting(self):
        d = standard_representation(SetPartition.from_blocks([[1, 3], [2]]))
        assert max_nesting(d) == 1

    def test_empty_diagram(self):
        d = ArcDiagram(3, ())
        assert max_nesting(d) == 0
        assert max_crossing(d) == 0

    def test_definitional_2_crossing(self):
        assert max_crossing(ArcDiagram(4, ((1, 3), (2, 4)))) == 2

    @pytest.mark.parametrize("n", range(10))
    def test_nesting_matches_subset_brute_force(self, n):
        for p in enumerate_partitions(n):
            arcs = standard_representation(p).arcs
            assert max_nesting(ArcDiagram(n, arcs)) == brute_max_nesting(arcs)

    @pytest.mark.parametrize("n", range(9))
    def test_crossing_matches_subset_brute_force(self, n):
        for p in enumerate_partitions(n):
            arcs = standard_representation(p).arcs
            assert max_crossing(ArcDiagram(n, arcs)) == brute_max_crossing(arcs)


class TestLabel:
    def test_running_example(self):
        assert label(RUNNING_EXAMPLE, 3) == (3, 4, 5)

    def test_empty_partition(self):
        for m in (1, 2, 4):
            assert label(SetPartition(()), m) == (1,) * m

    def test_singletons_of_2(self):
        assert label(SetPartition((1, 2)), 2) == (3, 3)

    def test_labels_nondecreasing(self):
        for n in range(8):
            for p in enumerate_partitions(n):
                for m in (1, 2, 3):
                    lab = label(p, m)
                    assert all(a <= b for a, b in zip(lab, lab[1:]))
                    assert lab[-1] <= n + 1


class TestChildren:
    def test_running_example_children(self):
        kids = children_partitions(RUNNING_EXAMPLE, 3)
        assert [label(k, 3) for k in kids] == [
            (4, 5, 6),
            (2, 4, 5),
            (3, 4, 5),
            (4, 4, 5),
            (4, 5, 5),
        ]
        assert str(kids[1]) == "1|2 5 6 8 9|3 7|4"

    def test_empty_partition_single_child(self):
        for m in (1, 3):
            assert children_partitions(SetPartition(()), m) == [SetPartition((1,))]

    def test_two_singletons_m1(self):
        kids = children_partitions(SetPartition((1, 2)), 1)
        assert len(kids) == 3
        assert label(SetPartition((1, 2)), 1) == (3,)
        for k in kids:
            assert max_nesting(standard_representation(k)) <= 1

    def test_rejects_too_nested_input(self):
        nested = SetPartition.from_blocks([[1, 4], [2, 3]])
        with pytest.raises(ValueError):
            children_partitions(nested, 1)

    def test_child_count_is_a_m(self):
        for p in enumerate_partitions(6):
            for m in (1, 2):
                if max_nesting(standard_representation(p)) <= m:
                    kids = children_partitions(p, m)
                    assert len(kids) == label(p, m)[-1]
                    assert len(set(kids)) == len(kids)


class TestCounts:
    def test_nonnesting_reference_values(self):
        assert count_nonnesting(5, 1) == 42
        assert count_nonnesting(8, 2) == 3930
        assert count_nonnesting(0, 3) == 1

    def test_noncrossing_reference_values(self):
        assert count_noncrossing(8, 2) == 3930
        assert count_noncrossing(3, 1) == 5
        assert count_noncrossing(4, 1) == 14

    def test_resource_guard(self):
        with pytest.raises(ValueError, match="refusing"):
            count_nonnesting(14, 2)
        with pytest.raises(ValueError, match="refusing"):
            count_noncrossing(20, 1)

    def test_nonnesting_sequence(self, monkeypatch):
        assert core.nonnesting_sequence(1, 5) == [1, 1, 2, 5, 14, 42]
        # the scale guard runs on N before any partition is enumerated
        monkeypatch.setattr(core, "enumerate_partitions", None)
        with pytest.raises(ValueError, match="refusing"):
            core.nonnesting_sequence(2, 14)

    def test_bell_for_small_n(self):
        # an (m+1)-nesting needs 2(m+1) vertices
        for m in (1, 2, 3):
            for n in range(min(2 * (m + 1), 9)):
                assert count_nonnesting(n, m) == BELL[n]


class TestLabelDistribution:
    def test_empty(self):
        assert label_distribution(0, 2) == {(1, 1): 1}

    def test_size_one(self):
        assert label_distribution(1, 2) == {(2, 2): 1}

    def test_size_three_m2(self):
        assert label_distribution(3, 2) == {
            (4, 4): 1,
            (3, 3): 2,
            (2, 2): 1,
            (2, 3): 1,
        }

    def test_totals(self):
        for n in range(7):
            for m in (1, 2):
                dist = label_distribution(n, m)
                assert sum(dist.values()) == count_nonnesting(n, m)


class TestBellNumbers:
    def test_known_values(self):
        assert bell_numbers(10) == BELL

    def test_bell_14(self):
        assert bell_numbers(14)[14] == 190899322
