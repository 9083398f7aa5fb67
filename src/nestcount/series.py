"""Truncated-series engines for the two functional equations.

Both engines compute the counting sequence of (m+1)-nonnesting partitions
with exact integer coefficients.

* The u-engine iterates the label generating function order by order in t:
  P_{n+1} is P_n (a polynomial in u_1..u_m) times u_1..u_m plus, for each
  u_j, the exact quotient of P_n - P_n|merge by u_j - 1 times u_1..u_j,
  added straight into P_{n+1}. The merge sets u_j's exponent to a, u_{j-1}'s
  (1 for j = 1), so in each group of P_n's keys that differ only in u_j the
  quotient is a synthetic division: its u_j^(k-1) coefficient, for k > a,
  is the sum of the group's coefficients at exponents k and up. The step
  reads each group in place in P_n, walking from its top key down one
  exponent of u_j at a time to a, adding each present coefficient into a
  running sum (an absent exponent is a gap) and the sum into P_{n+1}.
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
  no field is 0. `x_series` unpacks each order as it is built, sharing one
  exponent tuple per key across orders.

Coefficients of committed states are non-negative integers, and no x-engine
key has a negative exponent; the guard checks each committed order, where an
exponent of -1 raises SeriesConsistencyError.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from math import comb

from .polyops import poly_eval, truncate_total_degree, zero_mono


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


def _divide_by_var_minus_one(p, tops, var, out, m, w):
    """Add the exact quotient of p - p|merge by u_{var+1} - 1, times u_1 ..
    u_{var+1}, into out (var 0-based), walking each group from its top key in
    tops down to its merge exponent a, as the module docstring says. Returns
    the keys at a that p holds: u_var's top keys."""
    s = w * var
    step = 1 << s
    mask = (1 << w) - 1
    low = (step - 1) // mask  # u_1 .. u_var
    clear = ~(mask << s)
    # a group's key at a is rest + a(rest): a is u_var's exponent, or 1
    prev, first = (mask << s - w, 0) if var else (0, 1)
    get = p.get
    seen = 0
    bases = []
    for top in tops:
        rest = top & clear
        base = rest + ((rest & prev) << w | first)
        if top < base:
            raise SeriesConsistencyError(
                f"exponent {(top >> s) & mask} of u_{var + 1} below the merge exponent "
                f"{(base >> s) & mask}, dividing by u_{var + 1} - 1, "
                f"in the monomial {_unpack(top, m, w)}"
            )
        seen += (top - base) >> s  # every step walked, less each gap below
        running = 0
        for key in range(top, base, -step):
            c = get(key)
            if c:
                running += c
            elif var == m - 1:  # u_m's groups have no gaps (fact (B))
                raise SeriesConsistencyError(
                    f"exponent {(key >> s) & mask} of u_{m} missing, dividing by u_{m} - 1, "
                    f"in the group of the top key {_unpack(top, m, w)}"
                )
            else:
                seen -= 1
            dest = key + low
            out[dest] = out.get(dest, 0) + running
        if base in p:
            bases.append(base)
    seen += len(bases)
    if seen != len(p):
        walked = {top & clear: top for top in tops}  # one top key per group
        missed = [
            _unpack(K, m, w)
            for K in sorted(p)
            if not (K & clear) + ((K & prev) << w | first) <= K <= walked.get(K & clear, -1)
        ]
        raise SeriesConsistencyError(
            f"{seen} of {len(p)} monomials walked or at the merge exponent, dividing by "
            f"u_{var + 1} - 1; not walked: {missed}"
        )
    return bases


def _shift(p, ones):
    """Multiply by u_1 u_2 .. u_m (add 1 to every exponent field)."""
    return {K + ones: c for K, c in p.items()}


def _u_step(p, m, w):
    new = _shift(p, _pack((1,) * m, w))
    tops = _merge_pair(p, m, w)
    for var in range(m - 1, -1, -1):
        tops = _divide_by_var_minus_one(p, tops, var, new, m, w)
    return new


def _u_orders(m, N):
    """Yield P_0..P_N with packed keys, keeping only the order being built from."""
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
        yield p


def u_series(m: int, N: int) -> list[dict]:
    """t-coefficients P_0..P_N of the label generating function; P_n maps
    exponent tuples (the labels) to counts."""
    w = (N + 1).bit_length()
    return [{_unpack(K, m, w): c for K, c in p.items()} for p in _u_orders(m, N)]


def u_engine(m: int, N: int) -> list[int]:
    """Counting sequence via the u-equation: P_n at u_1=..=u_m=1."""
    m = min(m, max(1, N // 2))  # a k-nesting needs 2k elements; m < 1 still raises
    return [sum(p.values()) for p in _u_orders(m, N)]


# ---------------------------------------------------------------------------
# x-engine

def _s_poly(m):
    p = {zero_mono(m): 1}
    for i in range(m):
        p[tuple(1 if k == i else 0 for k in range(m))] = 1
    return p


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
            a = (K >> lo & mask) - 1
            for i in range(1, a + 1):
                acc[K + i * move - down] -= c * comb(a, i)


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


def x_series(m: int, N: int, weight_bound: int | None = None) -> list[dict]:
    """t-coefficients F_0..F_N of the kernel-form series, in one forward sweep.

    Each coefficient is truncated to total x-degree <= weight_bound - order
    (weight_bound >= N defaults to N, which is exact for the constant term;
    pass 2*N+2 for full coefficients through t^N).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    W = N if weight_bound is None else weight_bound
    if W < N:
        raise ValueError("weight_bound must be >= N")
    w = _x_width(W, m)
    exps = {}  # one exponent tuple per packed key, shared by every order

    def unpacked(F):
        fresh = [K for K in F if K not in exps]
        exps.update(zip(fresh, _xunpack(fresh, m, w)))
        return {exps[K]: c for K, c in F.items()}

    F = {_xpack(e, w): c for e, c in truncate_total_degree(_s_poly(m), W).items()}
    H = {_xpack(zero_mono(m), w): 1}  # F_0 = s, so G_0/(1 + q) = 1
    out = [unpacked(F)]
    for k in range(N):
        try:
            F, H = _x_step(F, H, k, m, W)
        except SeriesConsistencyError as exc:
            raise SeriesConsistencyError(f"x-engine, m={m}, t-order {k + 1}: {exc}") from exc
        out.append(unpacked(F))
    return out


def x_engine(m: int, N: int, check_stable: bool = False) -> list[int]:
    """Counting sequence via the modified x-equation: [x^0] per t-order.

    With check_stable, a second sweep at weight bound 2N must give the same
    counts; the bound N is exact for them, so only a truncation bug moves one.
    """
    m = min(m, max(1, N // 2))  # a k-nesting needs 2k elements; m < 1 still raises
    zero = zero_mono(m)
    counts = [Fk.get(zero, 0) for Fk in x_series(m, N)]
    if check_stable:
        wide = [Fk.get(zero, 0) for Fk in x_series(m, N, 2 * N)]
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
