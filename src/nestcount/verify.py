"""The suites of `nestcount verify`: each returns a list of (check-name, ok,
detail) triples.

cli.SUITES maps each suite name to its function here. This module loads
only when `verify` runs, since every module that `nestcount.cli` imports is
compiled or read again at each start.
"""

from . import gtree
from .cli import ENGINES, _decimal, engine_fn
from .table1 import OEIS_IDS, TABLE1, bell_numbers


def _agree(name, got, want, detail, first=0):
    """The triple for term lists got and want; a mismatch's detail names the
    first n (list index + first) where they differ, or else their lengths."""
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    if bad is not None:
        g, w = _decimal(got[bad]), _decimal(want[bad])
        detail += f"; first mismatch n={bad + first}: {g} != {w}"
    elif len(got) != len(want):
        detail += f"; length {len(got)} != {len(want)}"
    return name, bad is None and len(got) == len(want), detail


def suite_table1(m, N):
    top = len(TABLE1[1])
    N = top if N is None else N
    if m is not None and m not in TABLE1:
        raise ValueError(f"table1 covers m = {min(TABLE1)}..{max(TABLE1)}, not m = {m}")
    if N > top:
        raise ValueError(f"table1 covers n = 1..{top}, not n = {N}")
    ms = tuple(TABLE1) if m is None else (m,)
    return [
        _agree(f"table1 m={mm}", gtree.sequence(mm, N)[1:], TABLE1[mm][:N],
               f"m={mm} ({OEIS_IDS[mm]}), n=1..{N}", first=1)
        for mm in ms
    ]


def suite_cross_engine(m, N):
    m = 2 if m is None else m
    N = N if N is not None else 10
    ref = engine_fn("gtree")(m, N)
    return [
        _agree(f"cross-engine {name}", engine_fn(name)(m, N), ref, f"m={m}, N={N} vs gtree")
        for name, (_, _, top) in ENGINES.items()
        if name != "gtree" and top is None  # a capped engine has its own suite, as the oracle does
    ]


def suite_oracle(m, N):
    m = 2 if m is None else m
    N = N if N is not None else 9
    want = engine_fn("oracle")(m, N)
    return [
        _agree(f"oracle vs {name}", engine_fn(name)(m, N), want, f"m={m}, n<={N}")
        for name in ENGINES
        if name != "oracle"
    ]


def suite_catalan(m, N):
    if m not in (None, 1):
        raise ValueError(f"catalan is the m = 1 suite, not m = {m}")
    from . import formulas
    N = N if N is not None else 30
    closed = [formulas.catalan(n) for n in range(N + 1)]
    return [
        _agree("catalan recurrence", formulas.catalan_recurrence(N), closed,
               f"n<={N} vs closed form"),
        ("catalan convolution", formulas.catalan_convolution_check(N), f"n<={N}"),
        ("m=1 series identity", formulas.m1_series_check(8), "t^8, exact Laurent"),
    ]


def suite_labels(m, N):
    from . import core
    m = 2 if m is None else m
    N = N if N is not None else 8
    core.check_oracle_scale(N)
    out = []
    for n, ms in enumerate(gtree.levels(m, N)):
        got, want = ms.counts, core.label_distribution(n, m)
        detail = f"m={m}, gtree level vs enumeration"
        bad = next((lab for lab in sorted(got.keys() | want.keys())
                    if got.get(lab, 0) != want.get(lab, 0)), None)
        if bad is not None:
            g, w = _decimal(got.get(bad, 0)), _decimal(want.get(bad, 0))
            detail += f"; first mismatch label=[{','.join(map(str, bad))}]: {g} != {w}"
        out.append((f"labels n={n}", bad is None, detail))
    return out


def suite_equidistribution(m, N):
    from . import core
    m = 4 if m is None else m
    N = N if N is not None else 10
    return [
        _agree(f"equidistribution m={mm}", core.nonnesting_sequence(mm, N),
               [core.count_noncrossing(n, mm) for n in range(N + 1)], f"n<={N}")
        for mm in range(1, m + 1)
    ]


def suite_bell_prefix(m, N):
    m = 6 if m is None else m
    out = []
    for mm in range(1, m + 1):
        top = N if N is not None else 2 * mm + 2
        last = min(top, 2 * mm + 2)  # the last n checked: Bell-1 at 2m+2
        want = bell_numbers(last)
        detail = f"m={mm}: equals Bell for n<=min({top},{2 * mm + 1})"
        if last == 2 * mm + 2:
            want[-1] -= 1
            detail += f", Bell-1 at n={last}"
        out.append(_agree(f"bell-prefix m={mm}", gtree.sequence(mm, last), want, detail))
    return out


def suite_m2_formula(m, N):
    if m not in (None, 2):
        raise ValueError(f"m2-formula is the m = 2 suite, not m = {m}")
    N = N if N is not None else 10
    if N > len(TABLE1[2]):
        raise ValueError(f"m2-formula's reference row covers n <= {len(TABLE1[2])}, not n = {N}")
    from . import formulas
    marginals = [gtree.marginal(ms, 2) for ms in gtree.levels(2, N)]
    first = [formulas.m2_first_term(n) for n in range(13)]
    oracle = [formulas.ct_reference("first", n) for n in range(13)]
    out = [_agree("m2 first term vs CT oracle", first, oracle, "n<=12")]
    full = [formulas.m2_full_expression(n, marginals) for n in range(N + 1)]
    want = [1] + list(TABLE1[2][:N])
    out.append(_agree("m2 assembled expression", full, want, f"n<={N} vs reference row"))
    printed = [formulas.m2_full_expression(n, marginals, as_printed=True) for n in range(N + 1)]
    if printed != want:
        bad = next(i for i in range(N + 1) if printed[i] != want[i])
        out.append((
            "m2 as-printed index variant",
            True,
            f"documented discrepancy: as-printed inner-sum bound first diverges "
            f"at n={bad} ({printed[bad]} != {want[bad]}); reconciled reading is used",
        ))
    else:
        out.append(("m2 as-printed index variant", True, "agrees with reconciled reading"))
    return out
