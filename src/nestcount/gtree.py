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
The repack re-lays the whole level at once (_widen), giving the same ints
as padding each field with zero bytes one at a time.
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

Each row is keyed by one int holding its prefix: field i, bits k*i ..
k*i + k - 1, holds a_{i+1}, with k = bit length of N + 1 for the run, set
once by root(m, N). No key field carries or borrows: every field a step
from level n forms is a_j, a_{j-1} or a_j + 1 of a level-n label, and at
level n every a_j <= n + 1 (as a_m above), so between 1 and n + 2; a step
from level n < N forms fields <= n + 2 <= N + 1 < 2^k, and next_level
refuses a step that could form 2^k. The singleton move and the child move
add one to fields holding at most n + 1, a walk's bound sets field j,
cleared by the grouping mask, to a_{j-1}, and each walked key lowers field
j of its group's top key by one per step, from a_j to v >= a_{j-1} + 1 >= 2.
So keys are distinct iff prefixes are, and keys that agree off field j sort
by a_j.

sequence(m, N) sums away the coordinates no remaining level reads. Write
pi_p for "keep (a_p,..,a_m)" and step_r for the children rule on r
coordinates (a_0 := 1 at any r). For 1 <= p <= m, the children of a label
a, each under pi_{p+1}, are the children of b = pi_p(a) = (a_p,..,a_m) under
step_{m-p+1}, each with its first coordinate dropped:
- The singleton child maps to (a_{p+1} + 1,..,a_m + 1), as b's does.
- A child at j <= p changes no a_i with i > j, so maps to (a_{p+1},..,a_m).
  There are sum over j <= p of (a_j - a_{j-1}) = a_p - 1 of them, and b's
  children at its first coordinate, v = 2..a_p, are a_p - 1 children
  (v, a_{p+1},..,a_m) with that image.
- A child at j > p, (.., a_{j-1} + 1, v, a_{j+1},..) for v = a_{j-1} + 1..a_j,
  reads only a_{j-1} and a_j, and j - 1 >= p keeps both in b, where they
  are b's coordinates j - p and j - p + 1. So it is b's child at
  coordinate j - p + 1 with the same v, and the two map alike.
Summed over a level, with counts: if a level holds pi_p of level n's labels,
one next_level step and then dropping the first coordinate give pi_{p+1}
of level n + 1's labels, exactly. With p = m the image is empty: the step
gives level n + 1's total. Dropping a coordinate adds counts, so it keeps
a level's total. A run to level N reads only total(N), so level n needs
only max(1, N - n) coordinates: sequence drops a_1 after each step while
the level holds more. For r >= 3 coordinates the rows whose keys agree off
field 0 add into key >> k. From 2 to 1, each row is re-based to start at
a_m = 1 (shifted up by w * (a_1 - 1)) and added into the one m = 1 row,
keyed 0.

Both proofs above still hold on projected levels. Each field of a level a
step starts from is a sum of counts of distinct full labels at one a_m, so
every sum the step forms from them is still at most total(n). Its a_m are
the full labels' a_m, so at most n + 1, and the level the step forms has
the total of level n + 1, at most (n + 1) * total(n) < 2^w; each of its
fields, and each sum the drop forms from them, is at most that total. Every
key field is a coordinate of a full label, so the key bound is unchanged.
"""

from __future__ import annotations

from functools import cached_property
from io import BytesIO
from itertools import accumulate, repeat


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


class LabelMultiset:
    """One generating-tree level, held as rows: field i (bits w*i ..
    w*i + w - 1) of the int rows[key], where key packs (a_1,..,a_{m-1}) at
    k bits per field (0 when m = 1), is the number of
    partitions of [level] labelled (a_1,..,a_{m-1}, b + i), where
    b = a_{m-1} (a_0 := 1, so b = 1 when m = 1). Since a_m >= a_{m-1}, a row
    starts at the smallest a_m its prefix allows. A row may hold zeros. The
    width w is a multiple of 8 with (level + 1) * total() < 2^w after each
    step's widening, which the module docstring proves is enough for no
    field to overflow. k is set once per run, by root(m, N), and
    next_level steps only while the keys it forms fit k bits.

    A level of sequence's run may be projected: its labels are the last m
    coordinates of the run's labels, renumbered from 1, and each count sums
    the partitions whose full labels end that way (module docstring). Its
    total is the full level's.
    """

    def __init__(self, m: int, level: int, rows: dict, w: int, k: int):
        self.m, self.level, self.rows, self.w, self.k = m, level, rows, w, k

    @cached_property
    def counts(self) -> dict:
        """The level as label -> count, for the labels with a nonzero count."""
        out = {}
        for key, row in self.rows.items():
            prefix = _unpack(key, self.k, self.m - 1)
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


def _pack(prefix, k: int) -> int:
    """The key of prefix, k bits per field."""
    return sum(a << k * i for i, a in enumerate(prefix))


def _unpack(key: int, k: int, n: int) -> tuple[int, ...]:
    """The n fields of key, k bits each, as a prefix tuple."""
    mask = (1 << k) - 1
    return tuple([key >> k * i & mask for i in range(n)])


def _widen(rows: dict, old: int, w: int) -> dict:
    """rows with every field moved from old to w bits, whole level at once:
    each row's old fields written in turn into one preallocated little-endian
    buffer, one strided copy per byte lane of a field into a zeroed buffer of
    w-bit fields, and each row read back from its slice, last row first,
    cutting the buffer as it goes (a bytearray cut below half full
    reallocates down), so the new buffer is never held whole beside all the
    new rows. Both widths are multiples of 8, so the ints are those of
    padding each field with zero bytes."""
    a, b = old // 8, w // 8
    sizes = [-(-row.bit_length() // old) * a for row in rows.values()]
    out = BytesIO(bytes(sum(sizes)))  # its only reference: written in place
    out.writelines(map(int.to_bytes, rows.values(), sizes, repeat("little")))
    data = out.getvalue()  # the same bytes object, not a copy
    buf = bytearray(len(data) // a * b)
    for i in range(a):
        buf[i::b] = data[i::a]
    del out, data  # free the old layout before the new rows are built
    new = []
    for start in reversed(list(accumulate((n // a * b for n in sizes), initial=0))[:-1]):
        new.append(int.from_bytes(buf[start:], "little"))
        del buf[start:]
    return dict(zip(rows, reversed(new)))


def _suffix_sums(row: int, w: int) -> int:
    """Field i becomes the sum of row's fields i, i+1, ..: after the pass
    that adds row >> k, field i holds fields i .. i + 2k/w - 1."""
    k, top = w, row.bit_length()
    while k < top:
        row += row >> k
        k += k
    return row


def root(m: int, N: int) -> LabelMultiset:
    """Level 0 of a run to level N: the empty partition, label (1,..,1),
    keyed at k = (N + 1).bit_length() bits per field for the whole run."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    k = (N + 1).bit_length()
    return LabelMultiset(m, 0, {_pack((1,) * (m - 1), k): 1}, _W0, k)


def next_level(ms: LabelMultiset) -> LabelMultiset:
    """The next level: every label's count pushed through label_children.

    No child list is built. Besides its singleton, a label with count c has,
    for each coordinate j = 1..m (a_0 := 1), the children
    (a_1+1,..,a_{j-1}+1, v, a_{j+1},..,a_m) for v = a_{j-1}+1..a_j, so the
    child at v gets the sum of c over the parents that agree off a_j and
    have a_j >= v: a suffix sum. Rows turn each sum into whole-row adds. For
    j = m, a row's singletons and suffix sums land in the row of its prefix
    plus one, whose field i gets the row's suffix sum from field i. For
    j < m, the sorted keys map each group of rows that agree off a_j to its
    largest key, and a running sum of the group's rows walks v down from
    there; for j = m - 1 each row starts at its own a_j, so the running sum
    moves up one field per step. The loop counts j from 0. First the rows
    are widened, if need be, so that (level + 1) * total() < 2^w: the one
    re-layout, a few C-level passes over all the level's rows, giving the
    same ints as moving one field at a time. A step that could form a key
    field of 2^k, past the level its run was sized for, raises ValueError.
    """
    m, w, k, src = ms.m, ms.w, ms.k, ms.rows
    if ms.level + 2 >= 1 << k:
        raise ValueError(f"level {ms.level + 1} does not fit {k}-bit keys")
    need = ((ms.level + 1) * ms.total()).bit_length()
    if need > w:
        old = w
        w = -(-max(need, w * 5 // 4) // 8) * 8
        src = _widen(src, old, w)
    if m == 1:  # one row, keyed 0; a_0 = 1 does not move, so the sums start at a_1 = 2
        return LabelMultiset(m, ms.level + 1, {0: _suffix_sums(src[0], w) << w}, w, k)
    mask = (1 << k) - 1
    ones = _pack((1,) * (m - 1), k)
    rows = {key + ones: _suffix_sums(row, w) for key, row in src.items()}
    keys = sorted(src)
    for j in range(m - 1):
        shift = w if j == m - 2 else 0
        step = 1 << k * j
        low = ones & step - 1  # one in each field below j
        clear = ~(mask * step)
        for rest, top in {key & clear: key for key in keys}.items():
            stop = rest + (rest >> k * (j - 1) & mask if j else 1) * step  # v stops above a_{j-1}
            run = 0
            for key in range(top, stop, -step):
                run = (run << shift) + src.get(key, 0)
                child = key + low
                rows[child] = rows.get(child, 0) + run
    return LabelMultiset(m, ms.level + 1, rows, w, k)


def sequence(m: int, N: int) -> list[int]:
    """Counts of (m+1)-nonnesting partitions for sizes 0..N. After each
    step, level n keeps only its last max(1, N - n) label coordinates, which
    is all that the later levels read (module docstring)."""
    ms = root(m, N)
    out = [ms.total()]
    for _ in range(N):
        ms = next_level(ms)
        while ms.m > max(1, N - ms.level):
            ms = _drop_first(ms)
        out.append(ms.total())
    return out


def _drop_first(ms: LabelMultiset) -> LabelMultiset:
    """ms with a_1 summed away: a level on m - 1 coordinates, same total."""
    w, k = ms.w, ms.k
    if ms.m == 2:  # re-base each row from a_2 = a_1 to a_1 = 1 (a_0 := 1)
        rows = {0: sum(row << w * (key - 1) for key, row in ms.rows.items())}
    else:
        rows = {}
        for key, row in ms.rows.items():
            key >>= k
            rows[key] = rows.get(key, 0) + row
    return LabelMultiset(ms.m - 1, ms.level, rows, w, k)


def levels(m: int, N: int):
    """Yield the multisets for levels 0..N (for marginals and tables)."""
    ms = root(m, N)
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
