"""Closed-form and coefficient-extraction results for small m.

m=1 (2-nonnesting, Catalan): the binomial recurrence and its convolution
form, plus a full Laurent-series check of the one-variable kernel equation.

m=2 (3-nonnesting): the count F_n decomposes into a multinomial "first
term" minus contributions indexed by the children statistic F_{n*}(k) (the
number of partitions of [n*] whose label has a_2 = k), which the pieces
read from `marginals[n*]`, a list of `gtree.marginal(level, 2)`. Each
piece is validated against `ct_reference`, an independent numeric
constant-term oracle that expands the underlying Laurent expressions exactly.

Sums with fractional summands (e.g. 1 - l_1/(l_2+1)) are evaluated in
exact rational arithmetic and asserted integral at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .polyops import constant_term_of_product, poly_mul, poly_pow, poly_sub
from .series import SeriesConsistencyError, u_series


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def catalan_recurrence(N: int) -> list[int]:
    """F_0..F_N from F_n = (1/2) C(2n+2, n+1) - sum_j C(2j+2, j+1) F_{n-1-j}."""
    out: list[int] = []
    for n in range(N + 1):
        val = comb(2 * n + 2, n + 1) // 2
        for j in range(n):
            val -= comb(2 * j + 2, j + 1) * out[n - 1 - j]
        out.append(val)
    return out


def catalan_convolution_check(N: int) -> bool:
    """sum_{k<=n} C(2k,k) F_{n-k} = (1/2) C(2n+2, n+1) with F = Catalan."""
    cats = [catalan(n) for n in range(N + 1)]
    for n in range(N + 1):
        lhs = sum(comb(2 * k, k) * cats[n - k] for k in range(n + 1))
        if 2 * lhs != comb(2 * n + 2, n + 1):
            return False
    return True


def _multinom3(top, a, b, c):
    if a < 0 or b < 0 or c < 0 or a + b + c != top:
        return 0
    return comb(top, a) * comb(top - a, b)


def m2_first_term(n: int) -> int:
    """First piece of the m=2 decomposition, as a multinomial sum:

        sum over l_1+l_2+l_3 = n of
            multinom(n; l_1,l_2,l_3) * multinom(n+1; l_1,l_2,l_3+1)
                                     * (1 - l_1/(l_2+1)).

    The rational factor rewrites the pair of multinomial sums coming out
    of the constant-term extraction as a single sum:
    multinom(n+1; l_1-1, l_2+1, l_3+1) = multinom(n+1; l_1,l_2,l_3+1)
    * l_1/(l_2+1). Summands are rational; the total must be integral.
    """
    total = Fraction(0)
    for l1 in range(n + 1):
        for l2 in range(n - l1 + 1):
            l3 = n - l1 - l2
            total += (
                _multinom3(n, l1, l2, l3)
                * _multinom3(n + 1, l1, l2, l3 + 1)
                * (1 - Fraction(l1, l2 + 1))
            )
    if total.denominator != 1:
        raise SeriesConsistencyError(f"non-integer first-term sum at n={n}: {total}")
    return total.numerator


# Laurent building blocks in (x_1, x_2)
_S2 = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
_H2 = {(0, 0): 1, (-1, 0): 1, (0, -1): 1}


def _binomial_series(dist, shift=0, axis=0):
    """sum_k F(k) (1+x)^(k+shift) as a polynomial on the given axis of
    (x_1, x_2). Exponent windows stay within 0..max(k)+shift, the only
    range that can cancel the prefactor's Laurent exponents."""
    out = {}
    for k, c in dist.items():
        for i in range(k + shift + 1):
            key = (i, 0) if axis == 0 else (0, i)
            out[key] = out.get(key, 0) + c * comb(k + shift, i)
    return {e: c for e, c in out.items() if c}


def _mono_shift(p, dx1, dx2):
    return {(e[0] + dx1, e[1] + dx2): c for e, c in p.items()}


def ct_reference(term: str, n: int, marginals: list[dict] | None = None) -> int:
    """Constant-term oracle for the three m=2 pieces.

    Expands the rational prefactor 1/(1 - t*h*s) as a geometric series in t
    (order n needs h^a s^(a+1) only), multiplies by the explicit Laurent
    factors and the series rebuilt from `marginals`, and reads off the
    x_1^0 x_2^0 t^n coefficient exactly.
    """
    if term == "first":
        pref = poly_mul(poly_pow(_H2, n), poly_pow(_S2, n + 1))
        return constant_term_of_product(pref, {(0, 0): 1, (1, -1): -1})
    if term not in ("second", "third"):
        raise ValueError(f"unknown term {term!r}")
    if marginals is None or len(marginals) < n:
        raise ValueError(f"need F_n*(k) for all n* < {n}")
    total = 0
    for nstar in range(n):
        a = n - nstar - 1
        pref = poly_mul(poly_pow(_H2, a), poly_pow(_S2, a + 1))
        dist = marginals[nstar]
        if term == "second":
            # (1/x_1) G(x_2) - (x_1/x_2^2) G(x_1), G = sum_k F(k)(1+x)^k
            part = _mono_shift(_binomial_series(dist, 0, axis=1), -1, 0)
            part = poly_sub(part, _mono_shift(_binomial_series(dist, 0, axis=0), 1, -2))
        else:
            # G(x_2)/(x_2+1) - (x_1/x_2) G(x_1)/(x_1+1)
            part = _binomial_series(dist, -1, axis=1)
            part = poly_sub(part, _mono_shift(_binomial_series(dist, -1, axis=0), 1, -1))
        total += constant_term_of_product(pref, part)
    return total


def m2_full_expression(n: int, marginals: list[dict], as_printed: bool = False) -> int:
    """Assembled expression for F_n (m=2) in terms of F_{n*}(k), n* < n.

    The default reading takes the inner second-piece index condition as
    j_1 + j_3 = n - n* - 2 - l_2, which keeps every multinomial
    well-formed; as_printed instead uses j_1 + j_3 = n - 2 - l_2, whose
    inner sum vanishes for n* > 0 (its multinomial parts no longer add up)
    and does not reproduce the counting sequence. The verify suite reports
    the discrepancy.
    """
    total = Fraction(m2_first_term(n))
    for nstar in range(n):
        M = n - nstar - 1
        nn = n - nstar
        per_k = {}
        for l1 in range(M + 1):
            for l2 in range(M - l1 + 1):
                l3 = M - l1 - l2
                base = _multinom3(M, l1, l2, l3)
                if not base:
                    continue
                t2b_sum = (n - 2 - l2) if as_printed else (nn - 2 - l2)
                for k in marginals[nstar]:
                    inner = 0
                    # second piece, identity part
                    for j2 in range(nn - 1 - l1 + 1):
                        j3 = nn - 1 - l1 - j2
                        inner += _multinom3(nn, l1 + 1, j2, j3) * _comb0(k, l2 - j2)
                    # second piece, swapped part
                    for j1 in range(max(t2b_sum, -1) + 1):
                        j3 = t2b_sum - j1
                        inner -= _multinom3(nn, j1, l2 + 2, j3) * _comb0(k, l1 - j1 - 1)
                    # third piece, identity part
                    for j2 in range(nn - l1 + 1):
                        j3 = nn - l1 - j2
                        inner += _multinom3(nn, l1, j2, j3) * _comb0(k - 1, l2 - j2)
                    # third piece, swapped part
                    for j1 in range(nn - 1 - l2 + 1):
                        j3 = nn - 1 - l2 - j1
                        inner -= _multinom3(nn, j1, l2 + 1, j3) * _comb0(k - 1, l1 - j1 - 1)
                    per_k[k] = per_k.get(k, 0) + base * inner
        for k, c in marginals[nstar].items():
            total -= c * per_k.get(k, 0)
    if total.denominator != 1:
        raise SeriesConsistencyError(f"non-integer assembled value at n={n}")
    return total.numerator


def _comb0(k, r):
    if r < 0 or k < 0 or r > k:
        return 0
    return comb(k, r)


def m1_series_check(N: int) -> bool:
    """Expand both sides of the one-variable kernel equation through t^N.

    The left side is the label series with u = 1 + x_1; the right side is
    h^n s^(n+1) - sum_{n* < n} (h s)^(n-n*) F_{n*} with F the Catalan
    numbers. Exact Laurent polynomials in x_1 on both sides.
    """
    F = [catalan(k) for k in range(N + 1)]
    s1 = {(0,): 1, (1,): 1}
    h1 = {(0,): 1, (-1,): 1}
    hs = poly_mul(h1, s1)
    lhs_series = u_series(1, N)
    for n in range(N + 1):
        lhs = {}
        for e, c in lhs_series[n].items():
            for i in range(e[0] + 1):
                key = (i,)
                lhs[key] = lhs.get(key, 0) + c * comb(e[0], i)
        lhs = {e: c for e, c in lhs.items() if c}
        rhs = poly_mul(poly_pow(h1, n), poly_pow(s1, n + 1))
        for nstar in range(n):
            rhs = poly_sub(rhs, {e: c * F[nstar] for e, c in poly_pow(hs, n - nstar).items()})
        if lhs != rhs:
            return False
    return True
