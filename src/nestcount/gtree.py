"""Generating-tree counting: evolve multisets of labels level by level.

A level-n state gives each label (a_1,..,a_m) the number of partitions of
[n] with nesting number <= m carrying that label, one row of counts per
prefix (a_1,..,a_{m-1}). One step applies the children rule to every label,
a whole row at a time; no partition is ever materialized, so this counts
far beyond oracle scale. Counts are Python ints (arbitrary precision)
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import add


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
    """One generating-tree level, held as rows: rows[(a_1,..,a_{m-1})][i] is
    the number of partitions of [level] labelled (a_1,..,a_{m-1}, b + i),
    where b = a_{m-1} (a_0 := 1, so b = 1 when m = 1). Since a_m >= a_{m-1},
    a row starts at the smallest a_m its prefix allows. A row may hold zeros.
    """

    m: int
    level: int
    rows: dict

    @cached_property
    def counts(self) -> dict:
        """The level as label -> count, for the labels with a nonzero count."""
        out = {}
        for prefix, row in self.rows.items():
            for a, c in enumerate(row, prefix[-1] if prefix else 1):
                if c:
                    out[(*prefix, a)] = c
        return out

    def total(self) -> int:
        return sum(map(sum, self.rows.values()))


def root(m: int) -> LabelMultiset:
    """Level 0: the empty partition, label (1,..,1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return LabelMultiset(m, 0, {(1,) * (m - 1): [1]})


def _add(a: list, b: list) -> list:
    """A new row: a + b entrywise, as long as the longer of the two."""
    if len(a) < len(b):
        a, b = b, a
    return [*map(add, a, b), *a[len(b) :]]


def next_level(ms: LabelMultiset) -> LabelMultiset:
    """The next level: every label's count pushed through label_children.

    No child list is built. Besides its singleton, a label with count c has,
    for each coordinate j = 1..m (a_0 := 1), the children
    (a_1+1,..,a_{j-1}+1, v, a_{j+1},..,a_m) for v = a_{j-1}+1..a_j, so the
    child at v gets the sum of c over the parents that agree off a_j and
    have a_j >= v: a suffix sum. Rows turn each sum into whole-row adds. For
    j = m, a row's singletons and suffix sums land in the row of its prefix
    plus one, whose index i gets the row's suffix sum from index i. For
    j < m, rows are grouped by the prefix without a_j (one coordinate's
    groups at a time), and a running sum of them walks v down from the
    largest a_j; for j = m - 1 each row starts at its own a_j, so the running
    sum moves up one index per step. The loop counts j from 0.
    """
    m = ms.m
    rows = {
        tuple(a + 1 for a in prefix): list(accumulate(reversed(row)))[::-1]
        for prefix, row in ms.rows.items()
    }
    if m == 1:  # a_0 = 1 does not move, so the sums start at a_1 = 2
        rows[()] = [0, *rows[()]]
    for j in range(m - 1):
        shift = j == m - 2
        groups: dict = {}
        for prefix, row in ms.rows.items():
            groups.setdefault(prefix[:j] + prefix[j + 1 :], {})[prefix[j]] = row
        for rest, g in groups.items():
            start = rest[j - 1] + 1 if j else 2
            head = tuple(a + 1 for a in rest[:j])
            tail = rest[j:]
            run: list = []
            for v in range(max(g), start - 1, -1):
                if shift:
                    run = [0, *run]
                row = g.get(v)
                if row is not None:
                    run = _add(run, row)
                child = (*head, v, *tail)
                old = rows.get(child)
                rows[child] = run if old is None else _add(old, run)
    return LabelMultiset(m, ms.level + 1, rows)


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
