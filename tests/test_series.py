from collections import defaultdict
from itertools import product

import pytest

from nestcount import core, gtree, series
from nestcount.polyops import (
    poly_mul,
    poly_sub,
    truncate_total_degree,
    zero_mono,
)
from nestcount.series import (
    SeriesConsistencyError,
    substitute_pair,
    u_engine,
    u_series,
    v_identity_check,
    x_engine,
    x_series,
)
from series_helpers import kernel_transposition_invariant, poly_add


def mul_upto(p, q, D):
    """p * q less its monomials of total degree above D."""
    return truncate_total_degree(poly_mul(p, q), D)


def geometric_inverse(m, D):
    """Power series of 1/(1 + x_2 + .. + x_m) to total degree <= D."""
    q = {tuple(1 if k == i else 0 for k in range(m)): -1 for i in range(1, m)}
    inv = power = {zero_mono(m): 1}
    for _ in range(D):
        power = mul_upto(power, q, D)
        inv = poly_add(inv, power)
    return inv


def x_series_by_passes(m, N, W):
    """Reference: the whole right-hand operator applied to every t-order,
    N+1 times from F = s, with each product truncated as it is formed and
    s/(s - x_1) taken as s times the truncated inverse of 1 + x_2 + .. + x_m."""
    units = [tuple(1 if k == i else 0 for k in range(m)) for i in range(m)]
    s = {zero_mono(m): 1, **{e: 1 for e in units}}
    h = {zero_mono(m): 1, **{tuple(-a for a in e): 1 for e in units}}
    ginv = geometric_inverse(m, W)
    F = [truncate_total_degree(s, W)]
    for r in range(1, N + 2):
        new = [truncate_total_degree(s, W)]
        for k in range(min(r, N)):
            Fk = F[k]
            cap = W - (k + 1)
            pos = mul_upto(mul_upto(Fk, h, cap), s, cap)
            # F(0, x_2, .., x_m) / x_1
            g = {(-1,) + e[1:]: c for e, c in Fk.items() if e[0] == 0}
            inner = mul_upto(mul_upto(g, ginv, cap), s, cap)
            for j in range(2, m + 1):
                # F(.., x_{j-1} + x_j, 0, ..) / x_j
                sub = substitute_pair(Fk, j)
                sub = {e[: j - 1] + (e[j - 1] - 1,) + e[j:]: c for e, c in sub.items()}
                inner = poly_add(inner, sub)
            new.append(poly_sub(pos, mul_upto(inner, s, cap)))
        F = new
    return F


pack = series._pack


def packed(p, w):
    return {pack(e, w): c for e, c in p.items()}


def unpacked(p, m, w):
    return {series._unpack(K, m, w): c for K, c in p.items()}


def group_tops(p, var, w):
    """The largest key of each group of packed keys that differ only in field var."""
    clear = ~(((1 << w) - 1) << w * var)
    return list({K & clear: K for K in sorted(p)}.values())


def xpacked(p, w):
    return {series._xpack(e, w): c for e, c in p.items()}


def xunpacked(p, m, w):
    return dict(zip(series._xunpack(p, m, w), p.values()))


def u_series_by_chain(m, N):
    """Reference: the unfused u-step, in which each divided difference is
    built as p - p|merge with poly_sub, divided one polynomial at a time,
    shifted, and added with poly_add."""

    def merged(p, j):
        # u_j's exponent set to u_{j-1}'s, or to 1 for j = 1
        out = {}
        for e, c in p.items():
            key = e[: j - 1] + ((e[j - 2],) if j > 1 else (1,)) + e[j:]
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return out

    def divide(p, var):
        groups = {}
        for e, c in p.items():
            groups.setdefault(e[:var] + e[var + 1 :], {})[e[var]] = c
        out = {}
        for rest, coeffs in groups.items():
            assert sum(coeffs.values()) == 0
            running = 0
            for k in range(max(coeffs) - 1, min(coeffs) - 1, -1):
                running += coeffs.get(k + 1, 0)
                if running:
                    out[rest[:var] + (k,) + rest[var:]] = running
        return out

    def shift(p, upto):
        return {
            tuple(x + 1 if i < upto else x for i, x in enumerate(e)): c
            for e, c in p.items()
        }

    P = [{(1,) * m: 1}]
    for _ in range(N):
        p = P[-1]
        new = shift(p, m)
        for j in range(1, m + 1):
            new = poly_add(new, shift(divide(poly_sub(p, merged(p, j)), j - 1), j))
        P.append(new)
    return P


class TestUEngine:
    def test_m2_t3_coefficient(self):
        p3 = u_series(2, 3)[3]
        assert p3 == {(4, 4): 1, (3, 3): 2, (2, 2): 1, (2, 3): 1}

    def test_m1_counts(self):
        assert u_engine(1, 5) == [1, 1, 2, 5, 14, 42]

    def test_m4_tail(self):
        assert u_engine(4, 9)[9] == 21147

    def test_coefficients_are_label_distributions(self):
        # exponent vectors of P_n are exactly the labels at level n
        for m in (1, 2, 3):
            ps = u_series(m, 7)
            for n, ms in enumerate(gtree.levels(m, 7)):
                assert ps[n] == ms.counts

    def test_coefficient_positivity(self):
        for p in u_series(3, 9):
            assert all(c > 0 for c in p.values())

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            u_series(2, -1)

    @pytest.mark.parametrize("m,N", [(1, 12), (2, 12), (3, 12), (4, 12), (5, 12), (6, 9)])
    def test_fused_step_equals_unfused_chain(self, m, N):
        assert u_series(m, N) == u_series_by_chain(m, N)

    @staticmethod
    def divide(p, var, out, m, w):
        """One walk of the fused step over the exponent tuples p, into out,
        from each group's largest key; returns out and the keys at the merge
        exponent that the walk found in p."""
        p, out = packed(p, w), packed(out, w)
        bases = series._divide_by_var_minus_one(p, group_tops(p, var, w), var, out, m, w)
        return unpacked(out, m, w), [series._unpack(K, m, w) for K in bases]

    def test_division_adds_shifted_quotient(self):
        # u_1 = 1 merges u_1^3 u_2^2 into u_1 u_2^2: (u_1^3 - u_1) / (u_1 - 1) * u_1
        # = u_1^3 + u_1^2, at u_2's exponent 2; u_1^2 is read at the gap u_1^2 u_2^2
        out = self.divide({(3, 2): 1}, 0, {(3, 2): 4, (1, 1): 5}, 2, 3)
        assert out == ({(3, 2): 5, (2, 2): 1, (1, 1): 5}, [])
        # u_2 = u_1 merges 2 u_1 u_2^3 + 3 u_1 u_2^2 into 5 u_1 u_2; the quotient
        # 2 u_2^2 + 5 u_2 is times u_1 u_2; u_1 u_2 sits at the merge exponent,
        # adds nothing and is returned as the top key of its u_1 group
        out = self.divide({(1, 3): 2, (1, 2): 3, (1, 1): 7}, 1, {}, 2, 3)
        assert out == ({(2, 3): 2, (2, 2): 5}, [(1, 1)])

    def test_division_rejects_unwalked_key(self):
        # a group left out of the tops is never walked, so the count comes up short
        p = packed({(1, 1): 1, (2, 3): 1}, 3)
        tops = [pack((1, 1), 3)]
        with pytest.raises(SeriesConsistencyError, match=r"1 of 2 .* not walked: \[\(2, 3\)\]"):
            series._divide_by_var_minus_one(p, tops, 1, {}, 2, 3)

    def test_division_rejects_group_walked_twice(self):
        # u_2's exponents 2 and 4 with a gap at 3: the top pass finds a top key
        # at each, so the group would be walked twice; the gap raises first
        p = packed({(2, 2): 1, (2, 4): 1}, 3)
        tops = series._merge_pair(p, 2, 3)
        assert sorted(tops) == sorted(p)
        with pytest.raises(
            SeriesConsistencyError,
            match=r"^exponent 3 of u_2 missing, dividing by u_2 - 1, in the group of the top key \(2, 4\)$",
        ):
            series._divide_by_var_minus_one(p, tops, 1, {}, 2, 3)

    def test_gap_under_a_second_top_key_is_named_in_u_m(self):
        # u_2's gap at 4 makes (3, 3) a top key besides (3, 5); (3, 3)'s walk is
        # empty and its base (3, 3) would be handed on twice, cancelling the
        # unread (3, 2) in the count. The gap raises in u_2's walk instead.
        p = packed({(3, 2): 1, (3, 3): 1, (3, 5): 1}, 3)
        tops = series._merge_pair(p, 2, 3)
        assert sorted(tops) == sorted(packed({(3, 3): 1, (3, 5): 1}, 3))
        with pytest.raises(
            SeriesConsistencyError, match=r"exponent 4 of u_2 missing, .* top key \(3, 5\)"
        ):
            series._divide_by_var_minus_one(p, tops, 1, {}, 2, 3)
        with pytest.raises(SeriesConsistencyError, match=r"u_2 .* top key \(3, 5\)"):
            series._u_step(p, 2, 3)

    def test_group_walked_twice_names_engine_order_and_group(self, monkeypatch):
        shift = series._shift
        calls = []

        def add_gap_to_order_2(p, ones):
            out = shift(p, ones)
            calls.append(None)
            if len(calls) == 2:
                out[pack((2, 4), 3)] = 1  # u_2's group at u_1^2 is then {2, 4}
            return out

        monkeypatch.setattr(series, "_shift", add_gap_to_order_2)
        with pytest.raises(SeriesConsistencyError) as info:
            u_series(2, 3)  # 3-bit fields
        msg = str(info.value)
        for field in (
            "u-engine",
            "m=2",
            "t-order 3",
            "exponent 3 of u_2 missing",
            "u_2 - 1",
            "top key (2, 4)",
        ):
            assert field in msg

    @staticmethod
    def lower_first_walking_top(tops, m, var, w):
        """Move the first top key of a group that walks a step down one step."""
        for i, top in enumerate(tops):
            e = series._unpack(top, m, w)
            if e[var] > (e[var - 1] if var else 1):
                tops[i] = top - (1 << w * var)
                break
        return tops

    def test_dropped_merge_term_is_caught(self, monkeypatch):
        # u_m's top pass loses the top key u_1^2 u_2^3 of P_3
        merge = series._merge_pair

        def drop_one_top(p, m, w):
            return self.lower_first_walking_top(merge(p, m, w), m, m - 1, w)

        monkeypatch.setattr(series, "_merge_pair", drop_one_top)
        with pytest.raises(SeriesConsistencyError, match=r"not walked: \[\(2, 3\)\]"):
            u_series(2, 4)

    def test_dropped_walk_top_is_caught(self, monkeypatch):
        # u_2's walk hands u_1 a wrong top key for P_1's u_1^2 u_2^2
        divide = series._divide_by_var_minus_one

        def drop_one_base(p, tops, var, out, m, w):
            bases = divide(p, tops, var, out, m, w)
            return self.lower_first_walking_top(bases, m, var - 1, w) if var else bases

        monkeypatch.setattr(series, "_divide_by_var_minus_one", drop_one_base)
        with pytest.raises(SeriesConsistencyError, match=r"not walked: \[\(2, 2\)\]"):
            u_series(2, 3)

    def test_consistency_error_names_engine_order_and_group(self, monkeypatch):
        P2 = u_series(2, 2)[2]
        merge = series._merge_pair

        def corrupt_order_3_in_u2(p, m, w):
            tops = merge(p, m, w)
            if {series._unpack(K, 2, w) for K in p} == set(P2):
                tops.append(pack((7, 4), w))
            return tops

        monkeypatch.setattr(series, "_merge_pair", corrupt_order_3_in_u2)
        with pytest.raises(SeriesConsistencyError) as info:
            u_series(2, 7)  # N = 7 packs 4-bit fields
        msg = str(info.value)
        for field in ("u-engine", "m=2", "t-order 3", "u_2 - 1", "merge exponent 7", "(7, 4)"):
            assert field in msg

    @pytest.mark.parametrize("m,N", [(m, 14) for m in range(1, 7)] + [(2, 40)])
    def test_top_keys_need_no_search(self, m, N):
        # the facts of the module docstring: (A) for j < m, u_j's exponent can
        # rise to u_{j+1}'s; (B) for m >= 2, u_m's exponent can fall to u_{m-1}'s,
        # and at m = 1 P_n's exponents are 2 .. n + 1
        w = (N + 1).bit_length()
        P = u_series(m, N)
        for n, p in enumerate(P):
            for e in p:
                for j in range(m - 1):
                    assert all(e[:j] + (v,) + e[j + 1 :] in p for v in range(e[j], e[j + 1] + 1))
                if m >= 2:
                    assert all(e[:-1] + (v,) in p for v in range(e[-2], e[-1] + 1))
            if m == 1 and n:
                assert set(p) == {(v,) for v in range(2, n + 2)}
        # so u_m's top pass and each walk's keys at the merge exponent are
        # every group's largest key
        for p in P[:-1]:
            p = packed(p, w)
            tops = series._merge_pair(p, m, w)
            for var in range(m - 1, -1, -1):
                assert sorted(tops) == sorted(group_tops(p, var, w))
                tops = series._divide_by_var_minus_one(p, tops, var, {}, m, w)

    def test_walk_crosses_gaps(self):
        # a group's exponents of u_j between the merge exponent and its top
        # key need not all be present; the walk steps over each absent one
        m, N = 3, 8
        P = u_series(m, N)
        gaps = 0
        for p in P[:-1]:
            for j in range(1, m + 1):
                groups = defaultdict(set)
                for e in p:
                    groups[e[: j - 1] + e[j:]].add(e)
                for es in groups.values():
                    a = next(iter(es))[j - 2] if j > 1 else 1
                    present = {e[j - 1] for e in es}
                    gaps += sum(k not in present for k in range(a + 1, max(present)))
        assert gaps >= 1  # 53 here
        assert P == u_series_by_chain(m, N)
        assert P == [ms.counts for ms in gtree.levels(m, N)]

    @pytest.mark.parametrize(
        "labels,named",
        [
            # u_1^3 u_2^2 is alone in its u_2-group: its top key lies below a = 3
            ([(1, 1), (3, 2)], r"exponent 2 of u_2 below the merge exponent 3, .*\(3, 2\)"),
            # u_1^3 u_2^2 lies under u_1^3 u_2^4 with a gap at 3 between them, so
            # the top pass takes it as a top key of its own, below a = 3
            ([(1, 1), (3, 2), (3, 4)], r"exponent 2 of u_2 below the merge exponent 3, .*\(3, 2\)"),
        ],
        ids=["top_key", "under_top_key"],
    )
    def test_step_rejects_key_below_merge_exponent(self, labels, named):
        with pytest.raises(SeriesConsistencyError, match=named):
            series._u_step({pack(e, 3): 1 for e in labels}, 2, 3)

    def test_step_rejects_out_of_order_label(self):
        # a_1 = 3 > a_2 = 2 is no label; its merge in u_2 would divide into a
        # negative quotient that cancels a shifted term
        step = {pack((1, 1), 3): 1, pack((3, 2), 3): 1}
        with pytest.raises(SeriesConsistencyError, match=r"u_2 .*\(3, 2\)"):
            series._u_step(step, 2, 3)

    def test_out_of_order_error_names_engine_order_and_monomial(self, monkeypatch):
        shift = series._shift
        calls = []

        def add_bad_label_to_order_2(p, ones):
            out = shift(p, ones)
            calls.append(None)
            if len(calls) == 2:
                out[pack((3, 2), 3)] = 1
            return out

        monkeypatch.setattr(series, "_shift", add_bad_label_to_order_2)
        with pytest.raises(SeriesConsistencyError) as info:
            u_series(2, 3)  # 3-bit fields
        msg = str(info.value)
        for field in ("u-engine", "m=2", "t-order 3", "u_2", "(3, 2)"):
            assert field in msg

    def test_step_calls_each_layer_hook(self, monkeypatch):
        calls = {"_shift": 0, "_merge_pair": 0, "_divide_by_var_minus_one": 0}

        def counted(name):
            fn = getattr(series, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        P = u_series(3, 4)
        for name in calls:
            monkeypatch.setattr(series, name, counted(name))
        assert unpacked(series._u_step(packed(P[3], 3), 3, 3), 3, 3) == P[4]
        assert calls == {"_shift": 1, "_merge_pair": 1, "_divide_by_var_minus_one": 3}

    @pytest.mark.parametrize("m", range(1, 7))
    def test_pack_unpack_round_trip(self, m):
        for w in (1, 2, 6):
            values = range(1 << w) if w < 6 else (0, 1, 31, 62, 63)
            exps = list(product(values, repeat=m))
            keys = [pack(e, w) for e in exps]
            assert [series._unpack(K, m, w) for K in keys] == exps
            assert len(set(keys)) == len(exps)
            assert max(keys) < 1 << w * m

    @pytest.mark.parametrize("m,N", [(2, 14), (3, 14), (2, 62)])
    def test_largest_exponent_fills_its_field(self, m, N):
        # w = (N + 1).bit_length() and N + 1 = 2^w - 1: the top label entry
        # N + 1 sets every bit of its field
        P = u_series(m, N)
        assert max(max(e) for e in P[N]) == N + 1 == (1 << (N + 1).bit_length()) - 1
        if N <= 14:
            assert P == u_series_by_chain(m, N)
        assert P == [ms.counts for ms in gtree.levels(m, N)]


class TestXEngine:
    def test_m1_counts(self):
        assert x_engine(1, 5) == [1, 1, 2, 5, 14, 42]

    def test_m3_tail(self):
        seq = x_engine(3, 12)
        assert seq[11] == 671969 and seq[12] == 4132936

    def test_m2_order_zero(self):
        assert x_engine(2, 0) == [1]

    def test_rejects_weight_bound_below_n(self):
        with pytest.raises(ValueError):
            x_series(2, 3, weight_bound=2)

    def test_weight_doubling_invariance(self):
        for m in (1, 2, 3):
            for N in (4, 8):
                zero = zero_mono(m)
                assert x_engine(m, N) == [F.get(zero, 0) for F in x_series(m, N, 2 * N)]

    def test_stabilization_debug_mode(self):
        assert x_engine(2, 6, check_stable=True) == [1, 1, 2, 5, 15, 52, 202]

    @pytest.mark.parametrize(
        "helper,call,bad,named",
        [
            # an x_2^-1 term added to the accumulator, too large for any term
            # of the order to cancel; at m = 2 the difference runs twice per
            # step (j = 1, 2), so call 6 is t-order 3's
            ("_divided_difference", 6, {(1, -1): 10**30}, r"\([12], -1\)"),
            # a term no other term of the order can cancel; the product by s
            # runs once per step, so call 3 is t-order 3's
            ("_times_units", 3, {(-1, 0): 10**30}, r"\(-1, 0\)"),
        ],
        ids=["divided_difference", "times_units"],
    )
    def test_consistency_error_names_engine_m_and_order(
        self, monkeypatch, helper, call, bad, named
    ):
        calls = []
        real = getattr(series, helper)
        w = series._x_width(5, 2)

        def corrupt(*args):
            calls.append(None)
            out = real(*args)
            if len(calls) == call:
                # the difference adds into its accumulator argument
                (args[2] if out is None else out).update(xpacked(bad, w))
            return out

        monkeypatch.setattr(series, helper, corrupt)
        with pytest.raises(SeriesConsistencyError, match=named) as info:
            x_series(2, 5)
        msg = str(info.value)
        for field in ("x-engine", "m=2", "t-order 3"):
            assert field in msg
        assert isinstance(info.value.__cause__, SeriesConsistencyError)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_no_negative_key_reaches_the_product_by_s(self, monkeypatch, m):
        # the divided differences drop each x_j-free part before dividing by
        # x_j, so not even a cancelled term with an exponent of -1 is formed
        found = []
        real = series._times_units

        def checked(p, *args):
            found.append(series._first_negative(p, *args[-2:]))
            return real(p, *args)

        monkeypatch.setattr(series, "_times_units", checked)
        for N in range(9):
            for W in (N, 2 * N + 2):
                x_series(m, N, W)
        assert found and found == [None] * len(found)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_product_by_s_gets_no_key_at_or_above_its_limit(self, monkeypatch, m):
        # _times_units does not cut its input: the accumulator holds F cut to
        # lim, H cut below the next cap and differences that lower the degree
        over = []
        real = series._times_units

        def checked(p, lim, *args):
            over.append(sum(K >= lim for K in p))
            return real(p, lim, *args)

        monkeypatch.setattr(series, "_times_units", checked)
        for N in range(9):
            for W in (N, 2 * N + 2):
                x_series(m, N, W)
        assert over and over == [0] * len(over)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_carried_quotient_divides_next_x1_free_part(self, monkeypatch, m):
        # s at x_1 = 0 is 1 + q, so the H a step returns times 1 + q is the
        # x_1-free part of the order it returns, in every degree the next step
        # reads; H holds no term above those degrees
        steps = []
        real = series._x_step

        def captured(F, H, k, m, W):
            out = real(F, H, k, m, W)
            steps.append((k, out))
            return out

        monkeypatch.setattr(series, "_x_step", captured)
        one_plus_q = {zero_mono(m): 1}
        for i in range(1, m):
            one_plus_q[tuple(1 if k == i else 0 for k in range(m))] = 1
        for N in range(9):
            for W in (N, 2 * N + 2):
                steps.clear()
                x_series(m, N, W)
                assert len(steps) == N
                w = series._x_width(W, m)
                for k, (F, H) in steps:
                    cap = W - k - 2
                    F, H = xunpacked(F, m, w), xunpacked(H, m, w)
                    assert all(sum(e) <= cap for e in H)
                    x1_free = {e: c for e, c in F.items() if e[0] == 0 and sum(e) <= cap}
                    assert mul_upto(one_plus_q, H, cap) == x1_free

    def test_unstable_order_is_named(self, monkeypatch):
        calls = []
        step = series._x_step

        def corrupt_eighth_call(F, H, k, m, W):
            # calls 1-5 build t-orders 1-5; calls 6-10 the sweep at the doubled bound
            calls.append(k)
            out, H = step(F, H, k, m, W)
            zero = series._xpack((0, 0), series._x_width(W, m))
            return ({**out, zero: out.get(zero, 0) + 1} if len(calls) == 8 else out), H

        monkeypatch.setattr(series, "_x_step", corrupt_eighth_call)
        with pytest.raises(SeriesConsistencyError) as info:
            x_engine(2, 5, check_stable=True)
        msg = str(info.value)
        for field in ("x-engine", "m=2", "t-order 3"):
            assert field in msg

    def test_check_stable_catches_truncation_off_by_one(self, monkeypatch):
        step = series._x_step

        def drop_cap_degree(F, H, k, m, W):
            cap = W - (k + 1)
            w = series._x_width(W, m)
            out, H = step(F, H, k, m, W)
            # the top field holds the total degree + m
            return {K: c for K, c in out.items() if K >> w * m != cap + m}, H

        monkeypatch.setattr(series, "_x_step", drop_cap_degree)
        assert x_engine(2, 5) == [1, 1, 2, 5, 15, 0]
        with pytest.raises(SeriesConsistencyError) as info:
            x_engine(2, 5, check_stable=True)
        msg = str(info.value)
        for field in ("x-engine", "m=2", "t-order 5"):
            assert field in msg

    @pytest.mark.parametrize("N,m", [(N, m) for N in range(9) for m in range(1, 6) if m < 4 or N <= 5])
    @pytest.mark.parametrize("wide", [False, True])
    def test_sweep_equals_fixpoint_passes(self, m, N, wide):
        W = 2 * N + 2 if wide else N
        assert x_series(m, N, W) == x_series_by_passes(m, N, W)

    def test_committed_states_are_nonneg_polynomials(self):
        for p in x_series(2, 8, weight_bound=18):
            assert all(min(e) >= 0 for e in p)
            assert all(c > 0 for c in p.values())


class TestPackedKeys:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_pack_unpack_round_trip(self, m):
        vectors = list(product(range(-1, 4), repeat=m))
        for W in (3 * m, 100):
            w = series._x_width(W, m)
            keys = [series._xpack(e, w) for e in vectors]
            assert series._xunpack(keys, m, w) == vectors
            assert len(set(keys)) == len(vectors)
            assert [K >> w * m for K in keys] == [sum(e) + m for e in vectors]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_any_field_zero_agrees_with_per_field_check(self, m):
        w = series._x_width(3 * m, m)  # every vector's degree is <= 3m
        vectors = list(product(range(-1, 4), repeat=m))
        for e in vectors:
            K = series._xpack(e, w)
            assert series._first_negative([K], m, w) == (K if min(e) < 0 else None)
        keys = [series._xpack(e, w) for e in vectors]
        first = next(e for e in vectors if min(e) < 0)
        assert series._first_negative(keys, m, w) == series._xpack(first, w)

    @pytest.mark.parametrize("m,N,W", [(1, 6, 14), (2, 6, 13), (3, 5, 12)])
    def test_fields_fit_where_the_width_steps(self, m, N, W):
        # W + m = 15 is the largest bound packed in 5-bit fields (4 bits and
        # the spare bit); one more and the width steps to 6
        w = series._x_width(W, m)
        assert (w, series._x_width(W + 1, m)) == (5, 6)
        F = x_series(m, N, W)
        top_exponent = max(max(e) for Fk in F for e in Fk)
        top_degree = max(sum(e) for Fk in F for e in Fk)
        assert top_exponent + 1 <= top_degree + m <= W + m < 1 << w - 1
        assert F == x_series_by_passes(m, N, W)


class TestTimesUnitSum:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_poly_mul(self, m):
        units = [tuple(1 if k == i else 0 for k in range(m)) for i in range(m)]
        factor = {zero_mono(m): 1, **{e: 1 for e in units}}
        # the copy of 3 x_1^2 shifted by x_1 cancels -3 x_1^3, whose key must go
        base = (2,) + (0,) * (m - 1)
        gone = (3,) + base[1:]
        p = {base: 3, gone: -3}
        p[tuple(3 if k else 0 for k in range(m))] = 5
        p[tuple(5 if k == m - 1 else 0 for k in range(m))] = -7
        assert len(p) == 4
        top = max(map(sum, p))
        w = series._x_width(top + 3, m)
        for cap in range(top - 2, top + 3):
            lim = cap + m + 1 << w * m
            # the product takes keys below lim only, as the x-step's are
            below = {K: c for K, c in xpacked(p, w).items() if K < lim}
            out = series._times_units(below, lim, m, w)
            assert xunpacked(out, m, w) == mul_upto(p, factor, cap)
        lim = top + m + 1 << w * m
        assert series._xpack(gone, w) not in series._times_units(xpacked(p, w), lim, m, w)
        assert series._times_units({}, lim, m, w) == {}


class TestDividedDifference:
    @staticmethod
    def reference(p, j):
        """(p - p(.., x_{j-1} + x_j, 0, ..)) / x_j with x_0 := 0, on tuples."""
        image = substitute_pair(p, j) if j > 1 else {e: c for e, c in p.items() if e[0] == 0}
        diff = poly_sub(p, image)
        return {e[: j - 1] + (e[j - 1] - 1,) + e[j:]: c for e, c in diff.items()}

    @pytest.mark.parametrize("m,N,W", [(1, 6, 14), (3, 6, 14), (4, 5, 12)])
    def test_equals_tuple_reference(self, m, N, W):
        w = series._x_width(W, m)
        for p in x_series(m, N, W):
            for j in range(1, m + 1):
                acc = defaultdict(int)
                series._divided_difference(xpacked(p, w), j, acc, w, 1 << w * m)
                want = self.reference(p, j)
                assert all(min(e) >= 0 for e in want)
                assert xunpacked({K: c for K, c in acc.items() if c}, m, w) == want


class TestSubstitutePair:
    def test_kills_monomials_with_second_variable(self):
        assert substitute_pair({(1, 1): 1}, 2) == {}

    def test_binomial_expansion(self):
        assert substitute_pair({(2, 0): 1}, 2) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_constant_term_preserved_on_series(self):
        zero = zero_mono(3)
        for p in x_series(3, 6, weight_bound=14):
            for j in (2, 3):
                assert substitute_pair(p, j).get(zero, 0) == p.get(zero, 0)

    def test_degree_preserved(self):
        out = substitute_pair({(2, 0, 1): 7, (3, 0, 0): 2}, 2)
        assert set(map(sum, out)) == {3}

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            substitute_pair({(0, 0): 1}, 1)

    def test_laurent_input_names_the_monomial(self):
        with pytest.raises(SeriesConsistencyError, match=r"\(2, -1, 0\)") as info:
            substitute_pair({(1, 0, 0): 3, (2, -1, 0): 1, (0, 0, -2): 5}, 2)
        assert "(0, 0, -2)" not in str(info.value)


class TestKernel:
    def test_transposition_invariance(self):
        for m in (2, 3, 4):
            assert kernel_transposition_invariant(m)


class TestVIdentity:
    def test_m1(self):
        assert v_identity_check(1, 4, [(1,)])

    def test_m2(self):
        assert v_identity_check(2, 4, [(1, 2)])

    def test_order_zero(self):
        assert v_identity_check(2, 0, [(3, 7)])

    def test_several_points(self):
        from fractions import Fraction

        pts = [(1, 1), (Fraction(1, 2), 2), (-1, 3)]
        assert v_identity_check(2, 3, pts)
        # full coefficients at m >= 3, where a truncation slip in the x-step
        # would show above the constant term
        assert v_identity_check(3, 10, [(1, 2, 3), (Fraction(1, 2), -1, 4)])
        assert v_identity_check(4, 8, [(1, 1, 2, 3), (2, Fraction(-1, 3), 1, 5)])

    def test_invalid_point(self):
        with pytest.raises(ValueError):
            v_identity_check(2, 3, [(0, 1)])
        with pytest.raises(ValueError):
            v_identity_check(2, 3, [(1,)])
        with pytest.raises(ValueError, match="invalid sample point"):
            v_identity_check(2, 2, [(1, -1)])


class TestCrossEngine:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_engines_agree(self, m):
        assert u_engine(m, 10) == x_engine(m, 10) == gtree.sequence(m, 10)

    @pytest.mark.parametrize("engine", [gtree.sequence, u_engine, x_engine])
    @pytest.mark.parametrize("m, N", [(2, 0), (2, 1), (3, 5), (7, 12), (40, 4)])
    def test_bell_past_half_n(self, engine, m, N):
        # an m-nesting needs 2m elements, so past m = N // 2 every count is Bell
        assert engine(m, N) == core.bell_numbers(N)

    @pytest.mark.parametrize("m, N, ran", [(9, 8, 4), (9, 3, 1), (4, 8, 4), (2, 9, 2)])
    def test_engines_run_at_clamped_m(self, monkeypatch, m, N, ran):
        seen = {"gtree": set(), "u": set(), "x": set()}
        root, u_step, x_step = gtree.root, series._u_step, series._x_step

        def gtree_root(m, N):
            seen["gtree"].add(m)
            return root(m, N)

        def recorded_u_step(p, m, w):
            seen["u"].add(m)
            return u_step(p, m, w)

        def recorded_x_step(F, H, k, m, W):
            seen["x"].add(m)
            return x_step(F, H, k, m, W)

        monkeypatch.setattr(gtree, "root", gtree_root)
        monkeypatch.setattr(series, "_u_step", recorded_u_step)
        monkeypatch.setattr(series, "_x_step", recorded_x_step)
        assert gtree.sequence(m, N) == u_engine(m, N) == x_engine(m, N)
        assert seen == {"gtree": {ran}, "u": {ran}, "x": {ran}}
