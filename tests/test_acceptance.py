"""Acceptance suite: one test per exit criterion, all equalities exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The non-gating performance target (m=2, 40+ series terms) is
opt-in via NESTCOUNT_BENCH=1.
"""

import os
import time

import pytest

from nestcount import core, formulas, gtree, series
from nestcount.cli import main
from nestcount.table1 import TABLE1


def report(num, ok, desc):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def gtree_sequences():
    return {m: gtree.sequence(m, 15) for m in range(1, 7)}


@pytest.fixture(scope="module")
def engine_sequences_n12():
    out = {}
    for m in range(1, 5):
        out[m] = {
            "gtree": gtree.sequence(m, 12),
            "useries": series.u_engine(m, 12),
            "xseries": series.x_engine(m, 12),
        }
    return out


def test_criterion_01_table1_reproduction(gtree_sequences):
    ok = all(
        tuple(gtree_sequences[m][1:16]) == TABLE1[m] for m in range(1, 7)
    )
    report(1, ok, "gtree reproduces all 90 reference values, m=1..6, n=1..15")


def test_criterion_02_cross_engine_equality(engine_sequences_n12):
    ok = all(
        seqs["useries"] == seqs["gtree"] and seqs["xseries"] == seqs["gtree"]
        for seqs in engine_sequences_n12.values()
    )
    report(2, ok, "u-engine and x-engine match gtree, m=1..4, N=12")


def test_criterion_03_oracle_equality(engine_sequences_n12):
    ok = True
    for m in range(1, 5):
        want = [core.count_nonnesting(n, m) for n in range(11)]
        for name in ("gtree", "useries", "xseries"):
            ok = ok and engine_sequences_n12[m][name][:11] == want
    report(3, ok, "all engines equal the exhaustive oracle, n<=10, m=1..4")


def test_criterion_04_equidistribution():
    ok = all(
        core.count_nonnesting(n, m) == core.count_noncrossing(n, m)
        for n in range(11)
        for m in range(1, 5)
    )
    report(4, ok, "nonnesting = noncrossing counts, n<=10, m=1..4")


def test_criterion_05_bell_prefix(gtree_sequences):
    bells = core.bell_numbers(15)
    ok = True
    for m in range(1, 7):
        seq = gtree_sequences[m] if 2 * m + 2 <= 15 else gtree.sequence(m, 2 * m + 2)
        if 2 * m + 2 > 15:
            bells_m = core.bell_numbers(2 * m + 2)
        else:
            bells_m = bells
        ok = ok and all(seq[n] == bells_m[n] for n in range(2 * m + 2))
        ok = ok and seq[2 * m + 2] == bells_m[2 * m + 2] - 1
    report(5, ok, "terms equal Bell below n=2m+2 and Bell-1 there, m=1..6")


def test_criterion_06_children_soundness():
    ok = True
    for n in range(9):
        for p in core.enumerate_partitions(n):
            d = core.standard_representation(p)
            nest = core.max_nesting(d)
            for m in (1, 2, 3):
                if nest > m:
                    continue
                lab = core.label(p, m)
                kids = core.children_partitions(p, m)
                ok = ok and len(kids) == lab[-1]
                ok = ok and [
                    core.label(c, m) for c in kids
                ] == gtree.label_children(lab)
                # joining past a_m - 1 must create an (m+1)-nesting
                blocks_desc = p.blocks_by_max_desc()
                for l in range(lab[-1], p.block_count + 1):
                    bid = p.rgs[blocks_desc[l - 1][0] - 1]
                    q = core.SetPartition(p.rgs + (bid,))
                    qd = core.standard_representation(q)
                    ok = ok and core.max_nesting(qd) == m + 1
            if not ok:
                break
    report(6, ok, "object-level children match the label rule exhaustively, n<=8, m<=3")


def test_criterion_07_catalan_suite():
    ok = formulas.catalan_recurrence(30) == [formulas.catalan(n) for n in range(31)]
    ok = ok and formulas.catalan_convolution_check(30)
    ok = ok and formulas.m1_series_check(8)
    report(7, ok, "Catalan recurrence, convolution identity, m=1 series identity")


def test_criterion_08_m2_formulas():
    marginals = [gtree.marginal(ms, 2) for ms in gtree.levels(2, 10)]
    ok = all(
        formulas.m2_first_term(n) == formulas.ct_reference("first", n)
        for n in range(13)
    )
    got = [formulas.m2_full_expression(n, marginals) for n in range(11)]
    ok = ok and got == [1] + list(TABLE1[2][:10])
    printed = [formulas.m2_full_expression(n, marginals, as_printed=True) for n in range(11)]
    note = ""
    if printed != got:
        bad = next(i for i in range(11) if printed[i] != got[i])
        note = f" (as-printed index variant diverges at n={bad}: recorded, expected)"
    report(8, ok, "m=2 first term vs CT oracle and assembled expression" + note)


def test_criterion_09_truncation_soundness():
    def wide(m, N):
        zero = (0,) * m
        return [F.get(zero, 0) for F in series.x_series(m, N, 2 * N)]

    ok = all(series.x_engine(m, N) == wide(m, N) for m in (1, 2, 3) for N in (4, 6, 8))
    report(9, ok, "x-engine counts invariant under doubled weight bound, m<=3, N<=8")


def test_criterion_10_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = main(["sequence", "-m", "2", "--terms", "12", "--format", "json"])
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
    code = main(["verify", "--suite", "table1"])
    first_verify = capsys.readouterr().out
    code2 = main(["verify", "--suite", "table1"])
    second_verify = capsys.readouterr().out
    ok = (
        outputs[0] == outputs[1]
        and code == code2 == 0
        and first_verify == second_verify
    )
    with capsys.disabled():
        report(10, ok, "repeated CLI runs are byte-identical")


@pytest.mark.skipif(
    not os.environ.get("NESTCOUNT_BENCH"),
    reason="non-gating benchmark; set NESTCOUNT_BENCH=1 to run",
)
def test_benchmark_m2_40_terms():
    start = time.monotonic()
    seq = series.x_engine(2, 40)
    elapsed = time.monotonic() - start
    assert seq == gtree.sequence(2, 40)
    print(f"[benchmark] x-engine m=2, 40 terms in {elapsed:.1f}s (target < 600s)")
    assert elapsed < 600
