from fractions import Fraction

import pytest

from nestcount import core, formulas, gtree, series
from nestcount.formulas import (
    catalan,
    catalan_convolution_check,
    catalan_recurrence,
    ct_reference,
    m1_series_check,
    m2_first_term,
    m2_full_expression,
)
from nestcount.table1 import TABLE1


@pytest.fixture(scope="module")
def marginals():
    return [gtree.marginal(ms, 2) for ms in gtree.levels(2, 10)]


class TestCatalan:
    def test_base_case(self):
        assert catalan_recurrence(0) == [1]

    def test_reference_values(self):
        seq = catalan_recurrence(15)
        assert seq[5] == 42
        assert seq[15] == 9694845

    def test_equals_closed_form(self):
        assert catalan_recurrence(30) == [catalan(n) for n in range(31)]

    def test_equals_generating_tree(self):
        assert catalan_recurrence(15) == gtree.sequence(1, 15)

    def test_convolution_n2_by_hand(self):
        # 1*2 + 2*1 + 6*1 = 10 = C(6,3)/2
        assert 1 * 2 + 2 * 1 + 6 * 1 == 10

    def test_convolution_identity(self):
        assert catalan_convolution_check(30)

    def test_convolution_detects_wrong_term(self, monkeypatch):
        catalan = formulas.catalan
        monkeypatch.setattr(formulas, "catalan", lambda k: catalan(k) + (k == 3))
        assert not catalan_convolution_check(5)


class TestM2FirstTerm:
    def test_n0(self):
        assert m2_first_term(0) == 1

    def test_matches_ct_oracle(self):
        for n in range(13):
            assert m2_first_term(n) == ct_reference("first", n)

    def test_non_integer_sum_raises(self, monkeypatch):
        # a whole-number slip in one multinomial keeps the sum integral, so
        # only a fractional one reaches the integrality guard
        multinom3 = formulas._multinom3
        monkeypatch.setattr(formulas, "_multinom3", lambda *args: multinom3(*args)
                            + (Fraction(1, 3) if args == (2, 0, 0, 2) else 0))
        with pytest.raises(series.SeriesConsistencyError, match="non-integer first-term sum at n=2: 40/3"):
            m2_first_term(2)


class TestCTReference:
    def test_first_n0(self):
        assert ct_reference("first", 0) == 1

    def test_second_requires_table(self):
        with pytest.raises(ValueError):
            ct_reference("second", 3)

    def test_unknown_term(self):
        with pytest.raises(ValueError):
            ct_reference("fourth", 1)

    def test_assembled_identity(self, marginals):
        # first - second - third reproduces the counting sequence
        for n in range(11):
            val = (
                ct_reference("first", n)
                - ct_reference("second", n, marginals)
                - ct_reference("third", n, marginals)
            )
            assert val == sum(marginals[n].values())


class TestM2FullExpression:
    def test_small_values(self, marginals):
        assert m2_full_expression(1, marginals) == 1
        assert m2_full_expression(8, marginals) == 3930
        assert m2_full_expression(10, marginals) == 97566

    def test_non_integer_value_raises(self, marginals):
        bad = [dict(dist) for dist in marginals]
        bad[1][2] += Fraction(1, 3)
        with pytest.raises(series.SeriesConsistencyError, match="non-integer assembled value at n=2"):
            m2_full_expression(2, bad)

    def test_matches_reference_row(self, marginals):
        got = [m2_full_expression(n, marginals) for n in range(11)]
        assert got == [1] + list(TABLE1[2][:10])

    def test_as_printed_variant_disagrees(self, marginals):
        # the index bound as printed drops the n* offset; its inner sum
        # collapses for n* > 0 and the totals drift from n=3 on
        printed = [m2_full_expression(n, marginals, as_printed=True) for n in range(6)]
        assert printed != [1] + list(TABLE1[2][:5])
        assert printed[:3] == [1, 1, 2]


class TestM1SeriesCheck:
    def test_order_zero(self):
        assert m1_series_check(0)

    def test_through_t8(self):
        assert m1_series_check(8)

    def test_perturbation_detected(self, monkeypatch):
        catalan = formulas.catalan
        monkeypatch.setattr(formulas, "catalan", lambda k: catalan(k) + (k == 3))
        assert not m1_series_check(8)


class TestM2Recurrence:
    # The m = 2 counts satisfy the P-recurrence
    # (n+6)(n+7) a(n+2) = 2(5n^2+32n+42) a(n+1) - 9n(n+3) a(n), a(0) = a(1) = 1,
    # checked term by term; it shares no code with any engine.
    @pytest.mark.parametrize(
        "fn, N",
        [(gtree.sequence, 100), (series.u_engine, 100), (series.x_engine, 100),
         (core.nonnesting_sequence, 10)],
        ids=["gtree", "useries", "xseries", "oracle"],
    )
    def test_engine_satisfies_recurrence(self, fn, N):
        a = fn(2, N)
        assert len(a) == N + 1 and a[:2] == [1, 1]
        for n in range(N - 1):
            lhs = (n + 6) * (n + 7) * a[n + 2]
            assert lhs == 2 * (5 * n * n + 32 * n + 42) * a[n + 1] - 9 * n * (n + 3) * a[n], n
