"""Sparse arithmetic for multivariate Laurent polynomials.

A polynomial in k variables is a dict mapping exponent tuples of length k to
nonzero coefficients (int or Fraction); the zero polynomial is the empty
dict. Exponents may be negative. All operations drop zero coefficients.
"""


def zero_mono(nvars):
    return (0,) * nvars


def poly_sub(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(p, q):
    """Product of two sparse polynomials."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_pow(p, k):
    nvars = len(next(iter(p))) if p else 0
    out = {zero_mono(nvars): 1}
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def poly_eval(p, point):
    """Evaluate at a point of nonzero coordinates (exact: ints/Fractions)."""
    total = 0
    for e, c in p.items():
        term = c
        for x, a in zip(point, e):
            term *= x ** a
        total += term
    return total


def constant_term_of_product(p, q):
    """[x^0](p*q) without forming the product: sum of p[e]*q[-e]."""
    total = 0
    for e, c in p.items():
        neg = tuple(-a for a in e)
        d = q.get(neg)
        if d:
            total += c * d
    return total
