"""Set partitions, arc diagrams, nesting/crossing statistics and the
exhaustive counting oracle.

A partition of [n] = {1,..,n} is stored as a restricted-growth string (RGS):
position i holds the 1-based index of the block containing i, blocks numbered
by first appearance. Its standard representation is the arc diagram joining
consecutive elements of each block in numerical order; nesting and crossing
statistics are read off that diagram. The oracle counts them in one walk
over RGS prefixes that adds one arc per step and carries, per open block,
its last element, the largest depth of an arc opening right of it, the
patience tails of the arcs spanning it and their count, so a step costs
O(blocks). It places n - 1 and n together, reading their arcs' depths and
crossings off the blocks of [n - 2] in one tally pass without building
more, and tallies into a table of side n // 2 + 1, since a k-nesting or
k-crossing needs 2k elements. The per-diagram functions are the
definitions that walk is tested against.

Everything here is exhaustive-enumeration scale (Bell-number growth); the
fast counting lives in `gtree` and `series`.
"""

from bisect import bisect_left
from collections import Counter
from functools import lru_cache

from .table1 import bell_numbers  # re-exported as core.bell_numbers

#: Largest n the exhaustive oracle accepts by default. Bell(13) ~ 27.6M
#: items is the practical desk-scale ceiling.
ORACLE_LIMIT = 13


class _Frozen:
    """An immutable value over the fields named in __slots__, each set once
    by __init__: equal and hashed by its fields, with a dataclass-style repr.
    A plain class, since importing dataclasses took over half of core's
    import time."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class SetPartition(_Frozen):
    """A set partition of [n] in restricted-growth encoding."""

    __slots__ = ("rgs",)

    def __init__(self, rgs: tuple[int, ...]):
        mx = 0
        for r in rgs:
            if not 1 <= r <= mx + 1:
                raise ValueError(f"not a restricted-growth string: {rgs!r}")
            if r > mx:
                mx = r
        object.__setattr__(self, "rgs", rgs)

    @classmethod
    def from_blocks(cls, blocks) -> "SetPartition":
        """Build from an iterable of blocks (any order, elements 1..n)."""
        owner = {}
        for block in blocks:
            least = min(block, default=None)
            if least is None:
                raise ValueError("blocks must partition 1..n")
            for v in block:
                if v in owner:
                    raise ValueError("blocks must partition 1..n")
                owner[v] = least
        n = len(owner)
        if sorted(owner) != list(range(1, n + 1)):
            raise ValueError("blocks must partition 1..n")
        first_seen = {}
        rgs = []
        for i in range(1, n + 1):
            key = owner[i]
            if key not in first_seen:
                first_seen[key] = len(first_seen) + 1
            rgs.append(first_seen[key])
        return cls(tuple(rgs))

    @property
    def n(self) -> int:
        return len(self.rgs)

    @property
    def block_count(self) -> int:
        return max(self.rgs, default=0)

    def blocks(self) -> list[list[int]]:
        """Blocks in first-appearance order, each sorted increasingly."""
        out = [[] for _ in range(self.block_count)]
        for i, r in enumerate(self.rgs, start=1):
            out[r - 1].append(i)
        return out

    def blocks_by_max_desc(self) -> list[list[int]]:
        """Blocks numbered the construction way: by maximal element, descending."""
        return sorted(self.blocks(), key=lambda b: -b[-1])

    def __str__(self):
        if not self.rgs:
            return "(empty)"
        return "|".join(" ".join(map(str, b)) for b in self.blocks())


class ArcDiagram(_Frozen):
    """Standard representation: arcs (i, j), i < j, sorted lexicographically."""

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs: tuple[tuple[int, int], ...]):
        opens = [i for i, _ in arcs]
        closes = [j for _, j in arcs]
        if len(set(opens)) != len(opens) or len(set(closes)) != len(closes):
            raise ValueError("each vertex may open / close at most one arc")
        for i, j in arcs:
            if not 1 <= i < j <= n:
                raise ValueError(f"bad arc ({i},{j}) for n={n}")
        if list(arcs) != sorted(arcs):
            raise ValueError("arcs must be sorted")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)


def standard_representation(p: SetPartition) -> ArcDiagram:
    """Arc diagram joining consecutive elements of each block."""
    arcs = []
    for block in p.blocks():
        arcs.extend(zip(block, block[1:]))
    return ArcDiagram(p.n, tuple(sorted(arcs)))


def _outermost_chain_lengths(arcs):
    """For each arc, the length of the longest nested chain having that arc
    outermost (the arc itself counts, so every arc gets >= 1).

    Arcs are processed by increasing span so inner arcs are ready first.
    """
    order = sorted(range(len(arcs)), key=lambda k: arcs[k][1] - arcs[k][0])
    depth = [1] * len(arcs)
    for k in order:
        i, j = arcs[k]
        best = 0
        for b in order:
            bi, bj = arcs[b]
            if i < bi and bj < j and depth[b] > best:
                best = depth[b]
        depth[k] = 1 + best
    return depth


def max_nesting(d: ArcDiagram) -> int:
    """Largest m such that m arcs form a strict containment chain."""
    if not d.arcs:
        return 0
    return max(_outermost_chain_lengths(d.arcs))


def max_crossing(d: ArcDiagram) -> int:
    """Largest m such that m arcs pairwise cross.

    A pairwise-crossing family, sorted by opens, has opens increasing,
    closes increasing, and the last open before the first close. Fix the
    first arc (minimal close) and take the longest opens/closes-increasing
    chain among arcs opening inside it and closing after it.
    """
    arcs = d.arcs
    best = 0
    for fi, fj in arcs:
        cand = sorted((i, j) for i, j in arcs if fi < i < fj < j)
        # longest chain with both coordinates strictly increasing
        chain = [1] * len(cand)
        for a in range(len(cand)):
            for b in range(a):
                if cand[b][0] < cand[a][0] and cand[b][1] < cand[a][1]:
                    chain[a] = max(chain[a], chain[b] + 1)
        best = max(best, 1 + max(chain, default=0))
    return best


def label(p: SetPartition, m: int) -> tuple[int, ...]:
    """The m-vector (a_1,..,a_m) steering the generating tree.

    a_j is one plus the number of blocks ending strictly to the right of the
    smallest vertex of the rightmost j-nesting, or one plus the block count
    when there is no j-nesting. The rightmost j-nesting is the one whose
    smallest vertex is maximal; ties share that vertex, so no tie-breaking
    is needed.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    arcs = standard_representation(p).arcs
    depths = _outermost_chain_lengths(arcs)
    block_maxes = [b[-1] for b in p.blocks()]
    out = []
    for j in range(1, m + 1):
        starts = [a[0] for a, d in zip(arcs, depths) if d >= j]
        if not starts:
            out.append(1 + p.block_count)
        else:
            r = max(starts)
            out.append(1 + sum(1 for bm in block_maxes if bm > r))
    return tuple(out)


def children_partitions(p: SetPartition, m: int) -> list[SetPartition]:
    """The partitions of [n+1] reachable from p without creating an
    (m+1)-nesting: the singleton extension, then n+1 joined to blocks
    1..a_m-1 in descending-max block order.
    """
    if max_nesting(standard_representation(p)) > m:
        raise ValueError(f"partition has an {m + 1}-nesting; not in the m={m} tree")
    a_m = label(p, m)[-1]
    kids = [SetPartition(p.rgs + (p.block_count + 1,))]
    blocks_desc = p.blocks_by_max_desc()
    for l in range(1, a_m):
        block_id = p.rgs[blocks_desc[l - 1][0] - 1]
        kids.append(SetPartition(p.rgs + (block_id,)))
    return kids


def enumerate_partitions(n: int):
    """Yield every set partition of [n] once, in RGS-lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def rec(prefix, mx):
        if len(prefix) == n:
            yield SetPartition(tuple(prefix))
            return
        for v in range(1, mx + 2):
            prefix.append(v)
            yield from rec(prefix, max(mx, v))
            prefix.pop()

    yield from rec([], 0)


def check_oracle_scale(n):
    """Refuse exhaustive enumeration of partitions of [n] past ORACLE_LIMIT."""
    if n > ORACLE_LIMIT:
        raise ValueError(
            f"refusing exhaustive enumeration at n={n}: Bell-number growth "
            f"makes this impractical beyond n={ORACLE_LIMIT}"
        )


def _nesting_crossing_walk(n):
    """Dict of (max_nesting, max_crossing) -> count over all partitions of
    [n], by one depth-first walk over restricted-growth prefixes.

    Joining i to a block with last element a closes (a, i) after every arc
    so far, so its depth is 1 + the largest depth of an arc opening right
    of a, and its crossing number 1 + the longest chain of increasing
    opens, in close order, of arcs spanning a. Each open block carries
    (last, deep, tails, count): that largest depth for a = last (0 if
    none), the patience tails of those opens (tails[k]: least last open of
    an increasing chain of k + 1) and count = len(tails), so a join reads
    deep + 1 and count + 1. Every other last element l is < i, so the new
    arc spans l iff a < l and opens right of l iff a > l (its depth into
    l's deep). In the first case a goes into l's tails at k =
    bisect_left(tails, a), replacing tails[k] or, when k == count,
    appending, so count becomes count + (k == count). The joined block
    restarts as (i, 0, (), 0). Arcs close in increasing order, so
    inserting each open as its arc closes builds the tails a batch pass in
    close order would. No closed arc opens at a, the last element of its
    block, and opens are distinct, so nothing ties.

    n - 1 and n are placed together, building no blocks. If n - 1 is a
    singleton, n alone adds 1 at (ne, cr) and n joined to n - 1 adds 1 at
    (max(ne, 1), max(cr, 1)). n joined to a then reads what n - 1 joined
    to a reads: the singleton n - 1 spans no arc and opens none, so the
    arcs opening right of a and the arcs spanning a are the same for
    (a, n) as for (a, n - 1), and so are its depth and crossing. So after
    n - 1 joins a, with maxima (ne', cr'), three placements of n land at
    (ne', cr'): n joined to a with n - 1 alone, n alone, and n joined to
    n - 1. Then n joined to l < a has depth max(deep + 1, dl) + 1 and
    crossing cl + 1; n joined to l > a has depth dl + 1 and crossing
    cl + 1, plus 1 iff a exceeds every tail of l (only then is a
    appended). A k-nesting or k-crossing needs 2k elements, so the counts
    go into a table of side n // 2 + 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        return {(0, 0): 1}
    tally = [[0] * (n // 2 + 1) for _ in range(n // 2 + 1)]

    def grow(i, blocks, ne, cr):
        if i == n - 1:
            tally[ne][cr] += 1  # n - 1 and n alone
            tally[ne or 1][cr or 1] += 1  # n joined to the singleton n - 1
            for a, d, _, c in blocks:
                d, c = d + 1, c + 1
                ne2, cr2 = (d if d > ne else ne), (c if c > cr else cr)
                tally[ne2][cr2] += 3
                for l, dl, tl, cl in blocks:
                    if l < a:
                        e, c = (d if d > dl else dl) + 1, cl + 1
                    elif l > a:
                        e, c = dl + 1, cl + (not cl or tl[-1] < a) + 1
                    else:
                        continue
                    tally[e if e > ne2 else ne2][c if c > cr2 else cr2] += 1
            return
        grow(i + 1, blocks + [(i, 0, (), 0)], ne, cr)
        for a, d, _, c in blocks:
            d, c = d + 1, c + 1
            kids = [(i, 0, (), 0)]
            for l, dl, tl, cl in blocks:
                if l < a:
                    kids.append((l, d if d > dl else dl, tl, cl))
                elif l > a:
                    k = bisect_left(tl, a)
                    kids.append((l, dl, tl[:k] + (a,) + tl[k + 1 :], cl + (k == cl)))
            grow(i + 1, kids, d if d > ne else ne, c if c > cr else cr)

    grow(1, [], 0, 0)
    return {(ne, cr): c for ne, row in enumerate(tally) for cr, c in enumerate(row) if c}


@lru_cache(maxsize=None)
def _joint_profile(n):
    """_nesting_crossing_walk(n) for n <= ORACLE_LIMIT, walked once per size."""
    check_oracle_scale(n)
    return _nesting_crossing_walk(n)


def count_nonnesting(n: int, m: int) -> int:
    """Number of partitions of [n] with maximal nesting number <= m,
    i.e. (m+1)-nonnesting partitions, by exhaustive enumeration. Refuses
    n > ORACLE_LIMIT.
    """
    return sum(c for (ne, _), c in _joint_profile(n).items() if ne <= m)


def nonnesting_sequence(m: int, N: int) -> list[int]:
    """count_nonnesting for sizes 0..N, refusing N past the oracle ceiling
    before any partition is enumerated, and m < 1 and N < 0 as the other
    engines do."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    check_oracle_scale(N)
    return [count_nonnesting(n, m) for n in range(N + 1)]


def count_noncrossing(n: int, m: int) -> int:
    """Same as count_nonnesting with crossings; exists to test
    the nesting/crossing equidistribution. Refuses n > ORACLE_LIMIT."""
    return sum(c for (_, cr), c in _joint_profile(n).items() if cr <= m)


def label_distribution(n: int, m: int) -> dict:
    """Map label -> number of partitions of [n] with nesting <= m carrying it.
    Refuses n > ORACLE_LIMIT."""
    check_oracle_scale(n)
    counts = Counter()
    for p in enumerate_partitions(n):
        if max_nesting(standard_representation(p)) <= m:
            counts[label(p, m)] += 1
    return dict(counts)


def joint_nesting_crossing(n: int) -> dict:
    """Map (max_nesting, max_crossing) -> count over all partitions of [n]."""
    return dict(_joint_profile(n))
