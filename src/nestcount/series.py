"""Truncated-series engines for the two functional equations.

Both engines compute the counting sequence of (m+1)-nonnesting partitions
with exact integer coefficients.

* The u-engine iterates the label generating function order by order in t:
  P_{n+1} is the shift of P_n (a polynomial in u_1..u_m), P_n times
  u_1..u_m, plus, for each u_j, the exact quotient of P_n - P_n|merge by
  u_j - 1 times u_1..u_j. The merge sets u_j's exponent to a, u_{j-1}'s
  (1 for j = 1), so in each group of P_n's keys that differ only in u_j the
  quotient is a synthetic division: its u_j^(k-1) coefficient, for k > a,
  is the sum of the group's coefficients at exponents k and up. The step
  reads each group in place in P_n, walking from its top key down one
  exponent of u_j at a time to a, adding each present coefficient into a
  running sum (an absent exponent is a gap). For u_m the shift and the
  quotient are one write per key: the quotient's term at K + (1, .., 1)
  is the sum from K + u_m up, and the shift of K adds P_n's coefficient
  at K. So u_m's walk builds P_{n+1}, setting each K + (1, .., 1), K from
  the top key down to a (absent from P_n at m = 1), to the sum from K up;
  each later walk adds its running sums into it.
  So a label e (a key of P_n; L_n is their set) has the children
  e + (1, .., 1), its shift, and for each j and e_{j-1} < k <= e_j
  (e_0 := 1) its child at j, k: e with e_j := k and e_i + 1 for i < j.
  By induction from L_0 = {(1, .., 1)}, labels are weakly increasing, and
  for n >= 1 every label has 2 <= e_1 and e_m <= n + 1. Two more facts, by
  the same induction, give each group's top key without a search; in both
  proofs e is a child of f in L_{n-1}, and f[j := v] is f with f_j := v.
  (A) For j < m, e in L_n has e[j := v] in L_n for every v in [e_j, e_{j+1}].
      If e is f's shift, e[j := v] is the shift of f[j := v - 1]. If e is
      f's child at i, k: for j > i or j < i - 1, it is the child at i, k of
      f with field j raised to v (to v - 1 if j < i), which leaves f_{i-1}
      and f_i alone; for j = i, the child at i, v of f[i := f_{i+1}]; for
      j = i - 1, the child at i, k of f[j := v - 1], as v - 1 < k <= f_i.
  (B) For m >= 2, e in L_n has e[m := v] in L_n for every v in [e_{m-1}, e_m].
      This is i = m of (F): for n >= 1 and 1 <= i <= m, e in L_n has
      (e_1, .., e_{i-1}, x, .., x) in L_n for x in [e_{i-1}, e_i], e_0 := 2.
      L_1 = {(2, .., 2)} holds it. At i = 1 it follows from (x, .., x) in L_n
      for 2 <= x <= n + 1: the shift of (x-1, .., x-1), and (2, .., 2) is its
      own child at 1, 2. For i >= 2: if e is f's shift or its child at j >= i,
      e_{i-1} = f_{i-1} + 1 and e_i <= f_i + 1, so the target is the shift of
      (f_1, .., f_{i-1}, x-1, .., x-1). If j < i - 1, it is the child at j, k
      of (f_1, .., f_{i-1}, x, .., x). If j = i - 1, then e_{i-1} = k and
      e_i = f_i, and it is the child at j, k of (f_1, .., f_{i-1}, x, .., x)
      for x >= f_{i-1}, and of (f_1, .., f_{i-2}, x, .., x), (F) at i - 1 for
      f as x >= k >= 2, for x < f_{i-1}.
  By (B), the u_m exponents of a group run without a gap up to its top key's
  (at m = 1, L_n = {2, .., n + 1} for n >= 1), so u_m's top keys are the
  keys of P_n whose next exponent of u_m is absent, one per group. By (A),
  the top key of a u_j
  group, j < m, has e_j = e_{j+1}: it is the key at a of its u_{j+1} group,
  which u_{j+1}'s walk tests for. So the step walks u_m, then u_{m-1} down
  to u_1, and each walk returns the keys at a it finds in P_n as the next
  walk's top keys. u_m's walk raises at once at a gap, which (B) excludes,
  naming the missing exponent and the group's top key: a gap would make a
  second top key in its group. So each u_m group is walked from one top
  key, and so is each u_j group, j < m: its top keys are keys at a of
  distinct u_{j+1} groups, and two with e_j = e_{j+1} that agree off e_j
  are equal. No group is walked twice, so each walk, counting its steps
  less its gaps, plus its keys at a, counts distinct keys of P_n; it raises,
  naming the keys not walked, unless that is the size of P_n. The step
  raises at once for a top key below a.
  Inside the engine a monomial u^e is one int holding e_i in bits
  w*(i-1) .. w*i - 1, with w = (N + 1).bit_length(). No field overflows
  or borrows: an exponent of P_n is at most n + 1 <= N + 1 < 2^w, the shift
  and the quotient's u_1..u_{j-1} factor raise one of P_n's exponents by
  one, and a walked key's u_j exponent lies between its top key's and a,
  both exponents of P_n and so between 1 and n + 1.
  So the shift adds one constant, a group's rest clears one field, and the
  walk steps down by 1 << w*(j-1). No entry of P_{n+1} cancels to 0: P_n's
  coefficients are positive, so every running sum is > 0 once the top key
  is read, and the step only adds. `u_series` unpacks each order into
  exponent tuples.
  `u_engine` projects its late orders as `gtree.sequence` projects its
  levels. The children rule above is gtree's, and so is the argument in
  gtree's module docstring. Let Q hold P_n summed over the first p - 1
  exponents, keyed by (e_p, .., e_m). A step at m - p + 1 with e_0 := 1,
  then a sum over Q's first exponent (each coefficient added into K >> w),
  gives P_{n+1} summed over its first p exponents, with the same total. A
  run to N reads only the sum of P_N, so P_n needs only its last
  max(1, N - n) exponents. After each step `u_engine` sums u_1 away while
  the order holds more. The width w stays; every exponent of Q is one of
  P_n's. The guards hold on Q, whose keys are the tails (e_p, .., e_m) of
  the labels e of L_n. (A) at Q's coordinate j < m - p + 1 is (A) at
  e's coordinate j + p - 1 < m, and (B) reads the same last two
  coordinates. With one coordinate left, Q's exponents are L_n's e_m,
  which hold every value 2 .. n + 1 (the labels (x, .., x) of (F)) and
  none above: no gap, as at m = 1. Q's first exponent, an e_p >= 2,
  merges at 1 as e_1 does. So the top-key chain, the gap raise and the
  coverage count apply as stated, and a step's error names the m it ran
  at. `u_series`, and so `v_identity_check`, keep full orders.
  Independence: gtree and the u-engine now share this argument, though no
  code. If it were wrong, they would agree with each other on the last
  m - 1 terms. The x-engine truncates by weight, a different mechanism,
  and does not project, so only its cross-engine check and the table1
  suite would catch it.

* The x-engine solves the rearranged kernel-form equation
      F = s + s*t*h*F
            - s*t*( (s/(s-x_1)) * F(0,x_2,..,x_m;t)/x_1
                    + sum_j F(.., x_{j-1}+x_j, 0, ..;t)/x_j )
  with s = 1+x_1+..+x_m and h = 1 + 1/x_1 + .. + 1/x_m. Each right-hand
  term but s carries a factor t, so one forward sweep from F_0 = s builds
  t-order k+1 from t-order k alone, once.
  With q = x_2+..+x_m and G = F(0,x_2,..,x_m;t), s/(s-x_1) = 1 + x_1/(1+q)
  and each 1/x_j of h pairs with a kernel term, so a step is
      s * (F - G/(1+q) + sum_{j=1..m} (F - F(.., x_{j-1}+x_j, 0, ..))/x_j)
  with x_0 := 0. Each divided difference drops the x_j-free part of F
  before it divides by x_j, so no key the step forms has a negative
  exponent. No step divides by 1+q: s at x_1 = 0 is 1 + q, so with A_k the
  bracket at order k, G_{k+1} is (1+q)*A_k(0,x_2,..,x_m) cut to A_k's
  degrees, <= W - k - 1 (W the weight bound below), and G_{k+1}/(1+q) is
  A_k's x_1-free part in every degree order k+1 reads, <= W - k - 2. So each
  step returns that part of its accumulator, H, with the order, starting
  from H_0 = 1 (F_0 = s); at m = 1, q = 0 and H is the constant term. The
  product by s is the input plus its m copies with one x_i exponent raised.
  States are kept finite by a grading: a monomial at t-order k is retained
  iff its total x-degree is <= W - k.
  Every right-hand operator moves a monomial of weight degree + order to
  monomials of no lower weight (a division by x_j costs one degree but
  always rides a factor of t), so the grading is closed under the sweep;
  `x_engine(..., check_stable=True)` confirms the counts are unchanged
  under a doubled bound.
  Inside the engine a monomial x^e is one int K: field i < m (bits w*i ..
  w*i + w - 1) holds e_i + 1, and the top field (from bit w*m) holds the
  degree + m. With U_i = (1 << w*i) + (1 << w*m), a product by x_i^(+-1) is
  K +- U_i, degree <= d is K < (d + m + 1) << w*m, and x_j-free is field
  j-1 == 1. No subtraction borrows: committed fields are >= 1 (F_0's, and
  the guard checks each new order), and a divided difference takes one
  unit from a field >= 2, or i <= a units from a field holding a + 1 and
  one of the i + 1 the next field then holds; so every field formed is
  >= 1 and the low fields sum to the top one. The offset keeps the guard
  sound: a wrong division shows as a field of 0, not as a borrow from the
  next field. No field overflows: every key formed has degree <= W, so a
  field is <= W + m < 2^(w-1) for w = (W + m).bit_length() + 1. The guard
  adds 2^(w-1) - 1 to every field: all m spare top bits are then set iff
  no field is 0. `x_engine` reads [x^0], one key, from each packed order;
  only `x_series` unpacks the orders into exponent tuples.

Coefficients of committed states are non-negative integers, and no x-engine
key has a negative exponent; the guard checks each committed order, where an
exponent of -1 raises SeriesConsistencyError.
"""

from collections import defaultdict
from math import comb


class SeriesConsistencyError(RuntimeError):
    """An exactness guarantee failed; signals an implementation bug."""


# ---------------------------------------------------------------------------
# u-engine

def _pack(e, w):
    """The exponent tuple e as one int, u_i's exponent in bits w*(i-1) .. w*i - 1."""
    return sum(x << w * i for i, x in enumerate(e))


def _unpack(K, m, w):
    mask = (1 << w) - 1
    return tuple((K >> w * i) & mask for i in range(m))


def _merge_pair(p, m, w):
    """u_m's top keys: the keys of p whose next exponent of u_m is absent, one
    per group, since u_m's groups have no gaps (fact (B), module docstring)."""
    step = 1 << w * (m - 1)
    return [K for K in p if K + step not in p]


def _merge_masks(var, w):
    """clear, prev, first for u_{var+1} (var 0-based): a top key K's key at the
    merge exponent a, K with u_{var+1}'s exponent set to u_var's, or to 1 for
    var 0, is (K & clear) + ((K & prev) << w | first)."""
    mask = (1 << w) - 1
    prev, first = (mask << w * (var - 1), 0) if var else (0, 1)
    return ~(mask << w * var), prev, first


def _groups(tops, var, m, w):
    """Yield each top key with its u_{var+1} group's key at the merge exponent
    a. Raises for a top key below a. Only the error paths use it: the walks
    compute a in their own loops."""
    s = w * var
    mask = (1 << w) - 1
    clear, prev, first = _merge_masks(var, w)
    for top in tops:
        base = (top & clear) + ((top & prev) << w | first)
        if top < base:
            raise SeriesConsistencyError(
                f"exponent {(top >> s) & mask} of u_{var + 1} below the merge exponent "
                f"{(base >> s) & mask}, dividing by u_{var + 1} - 1, "
                f"in the monomial {_unpack(top, m, w)}"
            )
        yield top, base


def _check_walked(p, tops, seen, var, m, w):
    """Raise, naming the keys of p that no group's walk reaches, unless seen
    (the walks' steps less their gaps, plus the keys at a found in p) is the
    size of p."""
    if seen != len(p):
        step = 1 << w * var
        walked = {K for top, base in _groups(tops, var, m, w) for K in range(top, base - 1, -step)}
        missed = [_unpack(K, m, w) for K in sorted(p) if K not in walked]
        raise SeriesConsistencyError(
            f"{seen} of {len(p)} monomials walked or at the merge exponent, dividing by "
            f"u_{var + 1} - 1; not walked: {missed}"
        )


def _divide_by_var_minus_one(p, tops, var, out, m, w):
    """Add the exact quotient of p - p|merge by u_{var+1} - 1, times u_1 ..
    u_{var+1}, into out (var 0-based; the step walks u_m in `_shift`), walking
    each group from its top key in tops down to its merge exponent a, as the
    module docstring says. Each group's key at a comes from its top key and
    `_merge_masks`; a one-key group is not walked. Returns the keys at a that
    p holds: u_var's top keys."""
    s = w * var
    step = 1 << s
    low = (step - 1) // ((1 << w) - 1)  # u_1 .. u_var
    clear, prev, first = _merge_masks(var, w)
    get = p.get
    seen = 0
    bases = []
    for top in tops:
        base = (top & clear) + ((top & prev) << w | first)
        if top > base:
            seen += (top - base) >> s  # every step walked, less each gap below
            running = 0
            for key in range(top, base, -step):
                c = get(key)
                if c:
                    running += c
                else:
                    seen -= 1
                dest = key + low
                out[dest] = out.get(dest, 0) + running
        elif top < base:
            next(_groups((top,), var, m, w))  # raises, naming top and a
        if base in p:
            bases.append(base)
    _check_walked(p, tops, seen + len(bases), var, m, w)
    return bases


def _shift(p, tops, m, w):
    """p times u_1 .. u_m plus the exact quotient of p - p|merge by u_m - 1
    times u_1 .. u_m, in one write per key: each key K of a u_m group, from its
    top key in tops down to its merge exponent a, sets K + (1, .., 1) to the
    group's sum from K up, p's coefficient at K (the shift) plus the
    quotient's sum from K + u_m up. Each group's key at a comes from its top
    key and `_merge_masks`; a one-key group is not walked. Returns it and the
    keys at a that p holds: u_{m-1}'s top keys."""
    s = w * (m - 1)
    step = 1 << s
    ones = _pack((1,) * m, w)
    clear, prev, first = _merge_masks(m - 1, w)
    get = p.get
    new = {}
    seen = 0
    bases = []
    for top in tops:
        base = (top & clear) + ((top & prev) << w | first)
        running = 0
        if top > base:
            seen += (top - base) >> s
            for key in range(top, base, -step):
                c = get(key)
                if not c:  # u_m's groups have no gaps (fact (B))
                    raise SeriesConsistencyError(
                        f"exponent {key >> s} of u_{m} missing, dividing by u_{m} - 1, "
                        f"in the group of the top key {_unpack(top, m, w)}"
                    )
                running += c
                new[key + ones] = running
        elif top < base:
            next(_groups((top,), m - 1, m, w))  # raises, naming top and a
        c = get(base)
        if c:
            running += c
            bases.append(base)
        new[base + ones] = running
    _check_walked(p, tops, seen + len(bases), m - 1, m, w)
    return new, bases


def _u_step(p, m, w):
    """P_{n+1} from P_n = p: u_m's walk builds it with the shift, and the walks
    of u_{m-1} .. u_1 add into it."""
    new, tops = _shift(p, _merge_pair(p, m, w), m, w)
    for var in range(m - 2, -1, -1):
        tops = _divide_by_var_minus_one(p, tops, var, new, m, w)
    return new


def _drop_first(p, w):
    """p summed over u_1: each coefficient added into K >> w, a series in the
    last m - 1 exponents (module docstring)."""
    out = {}
    for K, c in p.items():
        K >>= w
        out[K] = out.get(K, 0) + c
    return out


def _u_orders(m, N, project=False):
    """Yield P_0..P_N with packed keys, keeping only the order being built
    from. With project, P_n keeps only its last max(1, N - n) exponents,
    all that the sum of P_N reads; a step's errors name the m it ran at."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    w = (N + 1).bit_length()
    p = {_pack((1,) * m, w): 1}
    yield p
    for n in range(1, N + 1):
        try:
            p = _u_step(p, m, w)
        except SeriesConsistencyError as exc:
            raise SeriesConsistencyError(f"u-engine, m={m}, t-order {n}: {exc}") from exc
        while project and m > max(1, N - n):
            p, m = _drop_first(p, w), m - 1
        yield p


def u_series(m: int, N: int) -> list[dict]:
    """t-coefficients P_0..P_N of the label generating function; P_n maps
    exponent tuples (the labels) to counts."""
    w = (N + 1).bit_length()
    return [{_unpack(K, m, w): c for K, c in p.items()} for p in _u_orders(m, N)]


def u_engine(m: int, N: int) -> list[int]:
    """Counting sequence via the u-equation: P_n at u_1=..=u_m=1, with each
    P_n summed over all but its last max(1, N - n) exponents."""
    m = min(m, max(1, N // 2))  # a k-nesting needs 2k elements; m < 1 still raises
    return [sum(p.values()) for p in _u_orders(m, N, project=True)]


# ---------------------------------------------------------------------------
# x-engine

def substitute_pair(P: dict, j: int) -> dict:
    """x_{j-1} <- x_{j-1} + x_j and x_j <- 0, by binomial expansion.

    Total degree of every monomial is preserved. Requires a true
    polynomial (no negative exponents) and 2 <= j <= m.
    """
    if not P:
        return {}
    m = len(next(iter(P)))
    if not 2 <= j <= m:
        raise ValueError(f"j={j} out of range for m={m}")
    bad = next((e for e in P if min(e) < 0), None)
    if bad is not None:
        raise SeriesConsistencyError(f"substitute_pair on a Laurent input: monomial {bad}")
    out = {}
    for e, c in P.items():
        if e[j - 1] != 0:
            continue  # x_j -> 0 kills the monomial
        a = e[j - 2]
        for i in range(a + 1):
            key = e[: j - 2] + (a - i, i) + e[j:]
            s = out.get(key, 0) + c * comb(a, i)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _x_width(W, m):
    """Bits per field of a packed x-engine key at weight bound W: W + m fits
    below the spare top bit (see the module docstring)."""
    return (W + m).bit_length() + 1


def _xpack(e, w):
    """The exponent tuple e as one int: e_i + 1 in field i, degree + m on top."""
    m = len(e)
    return sum((x + 1) << w * i for i, x in enumerate(e)) + (sum(e) + m << w * m)


def _xunpack(keys, m, w):
    """The exponent tuples of packed keys, in order, built field by field."""
    mask = (1 << w) - 1
    return list(zip(*[[(K >> w * i & mask) - 1 for K in keys] for i in range(m)]))


def _first_negative(keys, m, w):
    """The first key with an exponent of -1 (a field of 0), or None: adding
    2^(w-1) - 1 to a field sets its spare top bit iff the field is >= 1."""
    ones = sum(1 << w * i for i in range(m))
    spare = ones << w - 1
    fill = spare - ones
    return next((K for K in keys if K + fill & spare != spare), None)


def _times_units(p, lim, m, w):
    """p * s = p * (1 + x_1 + .. + x_m) on packed keys below lim: p plus its m
    copies moved up by a unit of field i and of the degree. Every key of p is
    below lim already: the x-step's accumulator holds F cut to lim, H cut below
    the next cap, and divided differences of F, which lower the degree."""
    top = 1 << w * m
    out = defaultdict(int, p)
    shifted = [(K, c) for K, c in p.items() if K < lim - top]
    for i in range(m):
        d = (1 << w * i) + top
        for K, c in shifted:
            out[K + d] += c
    return {K: c for K, c in out.items() if c}


def _divided_difference(p, j, acc, w, top):
    """Add (p - p(.., x_{j-1} + x_j, 0, ..)) / x_j, x_0 := 0, into acc, for a
    true polynomial p on packed keys, 1 <= j <= m and top the degree's unit.
    A key with e_j >= 1 moves down one unit of field j-1 and of the degree;
    an x_j-free key with x_{j-1}^a adds -C(a, i) x_{j-1}^(a-i) x_j^(i-1),
    i = 1..a (the difference cancels its i = 0 term, the key itself)."""
    mask = (1 << w) - 1
    hi, lo = w * (j - 1), w * (j - 2)
    down = (1 << hi) + top
    move = (1 << hi) - (1 << lo) if j > 1 else 0
    for K, c in p.items():
        if K >> hi & mask > 1:
            acc[K - down] += c
        elif j > 1:
            a, key = (K >> lo & mask) - 1, K - down
            for i in range(1, a + 1):
                key += move  # x_{j-1}^(a-i) x_j^(i-1)
                acc[key] -= c * comb(a, i)


def _x_step(F, H, k, m, W):
    """t-order k+1 of the right-hand side from the final t-order k of F, both
    on packed keys, with H = G/(1 + q) below the order's cap: s * (F - H + the
    m divided differences), as the module docstring says. Returns it and the
    next order's H, the accumulator's x_1-free part below the next cap."""
    w = _x_width(W, m)
    top = 1 << w * m
    lim = W - k + m << w * m  # total degree <= W - (k + 1)
    acc = defaultdict(int, {K: c for K, c in F.items() if K < lim})
    for K, c in H.items():
        acc[K] -= c
    for j in range(1, m + 1):
        _divided_difference(F, j, acc, w, top)
    out = _times_units(acc, lim, m, w)
    bad = _first_negative(out, m, w)
    if bad is not None:
        raise SeriesConsistencyError(f"negative exponent survived in {_xunpack([bad], m, w)[0]}")
    return out, {K: c for K, c in acc.items() if K & (1 << w) - 1 == 1 and K < lim - top}


def _x_orders(m, N, W):
    """Yield F_0..F_N on packed keys at weight bound W, each built from the last."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    if W < N:
        raise ValueError("weight_bound must be >= N")
    w = _x_width(W, m)
    one = _xpack((0,) * m, w)  # F_0 = s, cut to degree <= W, so G_0/(1 + q) = 1
    F, H = {one: 1, **{one + (1 << w * i) + (1 << w * m): 1 for i in range(m) if W}}, {one: 1}
    yield F
    for k in range(N):
        try:
            F, H = _x_step(F, H, k, m, W)
        except SeriesConsistencyError as exc:
            raise SeriesConsistencyError(f"x-engine, m={m}, t-order {k + 1}: {exc}") from exc
        yield F


def x_series(m: int, N: int, weight_bound: int | None = None) -> list[dict]:
    """t-coefficients F_0..F_N of the kernel-form series, in one forward sweep.

    Each coefficient is truncated to total x-degree <= weight_bound - order
    (weight_bound >= N defaults to N, which is exact for the constant term;
    pass 2*N+2 for full coefficients through t^N).
    """
    W = N if weight_bound is None else weight_bound
    w = _x_width(W, m)
    return [dict(zip(_xunpack(F, m, w), F.values())) for F in _x_orders(m, N, W)]


def x_engine(m: int, N: int, check_stable: bool = False) -> list[int]:
    """Counting sequence via the modified x-equation: [x^0] per t-order.

    With check_stable, a second sweep at weight bound 2N must give the same
    counts; the bound N is exact for them, so only a truncation bug moves one.
    """
    m = min(m, max(1, N // 2))  # a k-nesting needs 2k elements; m < 1 still raises
    one = _xpack((0,) * m, _x_width(N, m))  # [x^0] is the coefficient of 1
    counts = [F.get(one, 0) for F in _x_orders(m, N, N)]
    if check_stable:
        one = _xpack((0,) * m, _x_width(2 * N, m))
        wide = [F.get(one, 0) for F in _x_orders(m, N, 2 * N)]
        k = next((k for k in range(N + 1) if counts[k] != wide[k]), None)
        if k is not None:
            raise SeriesConsistencyError(
                f"x-engine, m={m}, t-order {k}: count {counts[k]} at weight bound "
                f"{N}, {wide[k]} at {2 * N}"
            )
    return counts


# ---------------------------------------------------------------------------
# cross-check between the two engines (covers the v-form of the equation)

def v_identity_check(m: int, N: int, sample_points) -> bool:
    """Check F(v_1,..,v_{m+1};t) = Ftilde(v_1/v_2,..,v_m/v_{m+1}; v_{m+1} t)
    numerically at the given x-points with v_{m+1}=1 and
    v_j = 1 + x_m + .. + x_j.

    Both engines are computed independently; the x-engine runs with an
    enlarged weight bound so coefficients through t^N are complete. True
    iff every t-coefficient agrees at every point.
    """
    from fractions import Fraction
    from itertools import accumulate
    from .polyops import poly_eval
    pts = [tuple(Fraction(c) for c in pt) for pt in sample_points]
    us = []
    for pt in pts:
        # v_1..v_{m+1}, with v_j = 1 + x_m + .. + x_j and v_{m+1} = 1
        v = list(accumulate(reversed(pt), initial=Fraction(1)))[::-1]
        if len(pt) != m or 0 in pt or 0 in v:
            raise ValueError(f"invalid sample point {pt}: need m nonzero coords and nonzero v_j")
        us.append(tuple(a / b for a, b in zip(v, v[1:])))  # u_j = v_j / v_{j+1}
    useries = u_series(m, N)
    xseries = x_series(m, N, weight_bound=2 * N + 2)
    for pt, u in zip(pts, us):
        for n in range(N + 1):
            if poly_eval(useries[n], u) != poly_eval(xseries[n], pt):
                return False
    return True
