"""Generating-tree counting: evolve multisets of labels level by level.

A level-n state maps each label (a_1,..,a_m) to the number of partitions of
[n] with nesting number <= m carrying that label. One step applies the
children rule to every key; no partition is ever materialized, so this
counts far beyond oracle scale. Counts are Python ints (arbitrary
precision) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass


def label_children(lab: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Labels of the a_m children of a node labelled lab.

    First the singleton child (every entry +1). Then, for each block index
    l in 1..a_m-1, with a_0 := 1 and j the unique index such that
    a_{j-1} <= l <= a_j - 1: entries 1..j-1 become a_i+1, entry j becomes
    l+1, entries j+1..m are unchanged. The index ranges
    [a_0, a_1-1], [a_1, a_2-1], .., [a_{m-1}, a_m-1] tile 1..a_m-1, so j
    is well defined.
    """
    out = [tuple(a + 1 for a in lab)]
    j = 1
    for l in range(1, lab[-1]):
        while l > lab[j - 1] - 1:
            j += 1
        out.append(tuple(lab[i] + 1 for i in range(j - 1)) + (l + 1,) + lab[j:])
    return out


@dataclass(frozen=True)
class LabelMultiset:
    """One generating-tree level: label -> count of partitions of [level]."""

    m: int
    level: int
    counts: dict

    def total(self) -> int:
        return sum(self.counts.values())


def root(m: int) -> LabelMultiset:
    """Level 0: the empty partition, label (1,..,1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return LabelMultiset(m, 0, {(1,) * m: 1})


def next_level(ms: LabelMultiset) -> LabelMultiset:
    """The next level: every label's count pushed through label_children.

    No child list is built. Besides its singleton, a label with count c has,
    for each coordinate j = 1..m (a_0 := 1), the children
    (a_1+1,..,a_{j-1}+1, v, a_{j+1},..,a_m) for v = a_{j-1}+1..a_j. Parents
    that agree off coordinate j share those children, so the child at v gets
    the sum of c over the group's parents with a_j >= v: a suffix sum, taken
    one coordinate at a time so that only one coordinate's groups are alive.
    The loop below counts j from 0.
    """
    counts = {tuple(a + 1 for a in lab): c for lab, c in ms.counts.items()}
    for j in range(ms.m):
        groups: dict = {}
        for lab, c in ms.counts.items():
            groups.setdefault(lab[:j] + lab[j + 1 :], {})[lab[j]] = c
        for rest, g in groups.items():
            start = rest[j - 1] + 1 if j else 2
            head = tuple(a + 1 for a in rest[:j])
            tail = rest[j:]
            s = 0
            for v in range(max(g), start - 1, -1):
                s += g.get(v, 0)
                child = head + (v,) + tail
                counts[child] = counts.get(child, 0) + s
    return LabelMultiset(ms.m, ms.level + 1, counts)


def sequence(m: int, N: int) -> list[int]:
    """Counts of (m+1)-nonnesting partitions for sizes 0..N."""
    return [ms.total() for ms in levels(m, N)]


def levels(m: int, N: int):
    """Yield the multisets for levels 0..N (for marginals and tables)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    ms = root(m)
    yield ms
    for _ in range(N):
        ms = next_level(ms)
        yield ms


def marginal(ms: LabelMultiset, j: int) -> dict:
    """Distribution of a_j over the multiset; j = m gives the number of
    children per node, i.e. the F_n(k) statistic."""
    if not 1 <= j <= ms.m:
        raise IndexError(f"j={j} out of range for m={ms.m}")
    out: dict = {}
    for lab, c in ms.counts.items():
        k = lab[j - 1]
        out[k] = out.get(k, 0) + c
    return out
