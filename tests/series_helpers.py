"""Series checks that only tests call: no engine, CLI command or CI step
runs them, so they live beside the tests rather than in the package."""

from nestcount.polyops import poly_mul, poly_sub, zero_mono


def poly_add(p, q):
    return poly_sub(p, {e: -c for e, c in q.items()})


def _s_poly(m):
    p = {zero_mono(m): 1}
    for i in range(m):
        p[tuple(1 if k == i else 0 for k in range(m))] = 1
    return p


def _h_poly(m):
    p = {zero_mono(m): 1}
    for i in range(m):
        p[tuple(-1 if k == i else 0 for k in range(m))] = 1
    return p


def kernel_transposition_invariant(m: int) -> bool:
    """The kernel factor s*h, expanded, is fixed by every transposition."""
    sh = poly_mul(_s_poly(m), _h_poly(m))
    for a in range(m - 1):
        b = a + 1

        def swap(e):
            e = list(e)
            e[a], e[b] = e[b], e[a]
            return tuple(e)

        if {swap(e): c for e, c in sh.items()} != sh:
            return False
    return True
