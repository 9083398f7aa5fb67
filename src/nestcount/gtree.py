"""Generating-tree counting: evolve multisets of labels level by level.

A level-n state gives each label (a_1,..,a_m) the number of partitions of
[n] with nesting number <= m carrying that label, one row of counts per
prefix (a_1,..,a_{m-1}). One step applies the children rule to every label,
a whole row at a time; no partition is ever materialized, so this counts
far beyond oracle scale. Counts are Python ints (arbitrary precision)
throughout.

Each row is one int: field i, bits w*i .. w*i + w - 1, holds the count at
a_m = a_{m-1} + i (a_0 := 1). So a running sum of rows is one add, a move of
every count one a_m up is one shift by w, and a row's suffix sums are
ceil(log2 L) shift-and-add passes over its L fields. w is a multiple of 8,
so a row splits into fields as bytes. The root has w = _W0. Before a step
from level n, next_level repacks the rows at max(b, 5w/4) bits, rounded up
to a multiple of 8, if b, the bit length of (n + 1) * total(n), exceeds w.
So (n + 1) * total(n) < 2^w during the step, and widths grow geometrically.
No field overflows: at level n every a_m <= n + 1 (the root has a_m = 1, and
a child's a_m is at most its parent's plus one), so a label has at most
n + 1 children and total(n + 1) <= (n + 1) * total(n) < 2^w. Every value a
step forms in a field is a sum of level-n counts of distinct labels, so at
most total(n): a row's suffix sum and each pass's partial sum (counts of one
prefix at distinct a_m), a running sum (counts of rows with distinct a_j, at
one a_m; for j = m - 1 each row starts at its own a_j, and the shift keeps
each field at one a_m). Or it is a partial sum of one level-(n + 1) count,
so at most total(n + 1): a child row's field only adds what goes to its one
child label. total() of level n or n + 1 sums the rows field-wise, so
field i sums the counts of distinct prefixes at a_m = a_{m-1} + i, and its
passes form sums of those, all at most that level's total. The bound holds
at the root, and each step restores it, so every field of every level fits
in w bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


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


_W0 = 64  # the root's field width in bits; next_level widens it as counts grow


@dataclass(frozen=True)
class LabelMultiset:
    """One generating-tree level, held as rows: field i (bits w*i ..
    w*i + w - 1) of the int rows[(a_1,..,a_{m-1})] is the number of
    partitions of [level] labelled (a_1,..,a_{m-1}, b + i), where
    b = a_{m-1} (a_0 := 1, so b = 1 when m = 1). Since a_m >= a_{m-1}, a row
    starts at the smallest a_m its prefix allows. A row may hold zeros. The
    width w is a multiple of 8 with (level + 1) * total() < 2^w after each
    step's widening, which the module docstring proves is enough for no
    field to overflow.
    """

    m: int
    level: int
    rows: dict
    w: int

    @cached_property
    def counts(self) -> dict:
        """The level as label -> count, for the labels with a nonzero count."""
        out = {}
        for prefix, row in self.rows.items():
            for a, f in enumerate(_fields(row, self.w), prefix[-1] if prefix else 1):
                c = int.from_bytes(f, "little")
                if c:
                    out[(*prefix, a)] = c
        return out

    def total(self) -> int:
        """The sum of all counts, computed once per level."""
        return self._total

    @cached_property
    def _total(self) -> int:
        # field 0 of the suffix sums of the rows' field-wise sum
        return _suffix_sums(sum(self.rows.values()), self.w) & ((1 << self.w) - 1)


def _fields(row: int, w: int) -> list[bytes]:
    """The fields of row, lowest first, as w // 8 little-endian bytes each."""
    step = w // 8
    data = row.to_bytes(-(-row.bit_length() // w) * step, "little")
    return [data[i : i + step] for i in range(0, len(data), step)]


def _suffix_sums(row: int, w: int) -> int:
    """Field i becomes the sum of row's fields i, i+1, ..: after the pass
    that adds row >> k, field i holds fields i .. i + 2k/w - 1."""
    k, top = w, row.bit_length()
    while k < top:
        row += row >> k
        k += k
    return row


def root(m: int) -> LabelMultiset:
    """Level 0: the empty partition, label (1,..,1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return LabelMultiset(m, 0, {(1,) * (m - 1): 1}, _W0)


def next_level(ms: LabelMultiset) -> LabelMultiset:
    """The next level: every label's count pushed through label_children.

    No child list is built. Besides its singleton, a label with count c has,
    for each coordinate j = 1..m (a_0 := 1), the children
    (a_1+1,..,a_{j-1}+1, v, a_{j+1},..,a_m) for v = a_{j-1}+1..a_j, so the
    child at v gets the sum of c over the parents that agree off a_j and
    have a_j >= v: a suffix sum. Rows turn each sum into whole-row adds. For
    j = m, a row's singletons and suffix sums land in the row of its prefix
    plus one, whose field i gets the row's suffix sum from field i. For
    j < m, rows are grouped by the prefix without a_j (one coordinate's
    groups at a time), and a running sum of them walks v down from the
    largest a_j; for j = m - 1 each row starts at its own a_j, so the running
    sum moves up one field per step. The loop counts j from 0. First the
    rows are widened, if need be, so that (level + 1) * total() < 2^w.
    """
    m, w, src = ms.m, ms.w, ms.rows
    need = ((ms.level + 1) * ms.total()).bit_length()
    if need > w:
        old = w
        w = -(-max(need, w * 5 // 4) // 8) * 8
        pad = bytes((w - old) // 8)
        src = {
            prefix: int.from_bytes(b"".join(f + pad for f in _fields(row, old)), "little")
            for prefix, row in src.items()
        }
    rows = {tuple([a + 1 for a in p]): _suffix_sums(row, w) for p, row in src.items()}
    if m == 1:  # a_0 = 1 does not move, so the sums start at a_1 = 2
        rows[()] <<= w
    for j in range(m - 1):
        shift = w if j == m - 2 else 0
        groups: dict = {}
        for prefix, row in src.items():
            groups.setdefault(prefix[:j] + prefix[j + 1 :], {})[prefix[j]] = row
        for rest, g in groups.items():
            start = rest[j - 1] + 1 if j else 2
            head = tuple([a + 1 for a in rest[:j]])
            tail = rest[j:]
            run = 0
            for v in range(max(g), start - 1, -1):
                run = (run << shift) + g.get(v, 0)
                child = (*head, v, *tail)
                rows[child] = rows.get(child, 0) + run
    return LabelMultiset(m, ms.level + 1, rows, w)


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
