import argparse
import json
import os
import re
import subprocess
import sys
import zlib

import pytest

from nestcount import __version__, core, formulas, gtree, series, verify
from nestcount.cli import (COMMANDS, ENGINES, SUITES, _parse, cmd_labels, cmd_sequence,
                           cmd_stats, cmd_verify, engine_fn, main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


BIG = 10**5000 + 7  # 5001 digits, past the default 4300-digit int <-> str limit


def wrong_list(fn, n):
    """fn, a term-list function, with its entry n raised by one."""
    def wrong(*args, **kwargs):
        out = list(fn(*args, **kwargs))
        if n < len(out):
            out[n] += 1
        return out
    return wrong


def wrong_term(fn, n):
    """fn, a function of (n, ...), with its value at n raised by one."""
    return lambda k, *args, **kwargs: fn(k, *args, **kwargs) + (k == n)


class TestSequence:
    def test_oracle_csv(self, capsys):
        code, out = run_cli(
            capsys, "sequence", "--max-nesting", "1", "--terms", "5",
            "--engine", "oracle",
        )
        assert code == 0
        assert out == "n,count\n0,1\n1,1\n2,2\n3,5\n4,14\n5,42\n"

    def test_gtree_m2_15_terms(self, capsys):
        code, out = run_cli(
            capsys, "sequence", "--max-nesting", "2", "--terms", "15",
            "--engine", "gtree", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[-1] == "15,580864901"

    def test_zero_terms(self, capsys):
        code, out = run_cli(capsys, "sequence", "--max-nesting", "3", "--terms", "0")
        assert code == 0
        assert out == "n,count\n0,1\n"

    def test_json_roundtrip(self, capsys):
        code, out = run_cli(
            capsys, "sequence", "-m", "2", "--terms", "6", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["m"] == 2 and rec["engine"] == "gtree"
        assert rec["terms"] == ["1", "1", "2", "5", "15", "52", "202"]
        assert json.loads(json.dumps(rec)) == rec

    def test_term_past_digit_limit_printed(self, capsys, monkeypatch):
        monkeypatch.setattr(gtree, "sequence", lambda m, N: [1, 1, 2, 5, 15, BIG])
        code, out = run_cli(capsys, "sequence", "-m", "2", "-n", "5")
        assert code == 0
        assert out == "n,count\n0,1\n1,1\n2,2\n3,5\n4,15\n5,1" + "0" * 4999 + "7\n"

    def test_oracle_guard_is_usage_error(self, capsys):
        code, _ = run_cli(
            capsys, "sequence", "-m", "1", "--terms", "20", "--engine", "oracle",
        )
        assert code == 2

    def test_unknown_engine_is_usage_error(self, capsys):
        assert main(["sequence", "-m", "1", "--terms", "3", "--engine", "magic"]) == 2


class TestCache:
    def test_cache_hit_equals_fresh(self, capsys, tmp_path):
        args = ["sequence", "-m", "2", "--terms", "10", "--cache-dir", str(tmp_path)]
        code1, out1 = run_cli(capsys, *args)
        assert (tmp_path / "m2_gtree.json").exists()
        code2, out2 = run_cli(capsys, *args)
        code3, fresh = run_cli(capsys, "sequence", "-m", "2", "--terms", "10")
        assert (code1, code2, code3) == (0, 0, 0)
        assert out1 == out2 == fresh

    def test_record_digest_is_crc32_of_sorted_sources(self, capsys, tmp_path):
        # README: zlib.crc32 over the bytes of the package's *.py files in sorted order
        package = os.path.dirname(os.path.abspath(gtree.__file__))
        crc = 0
        for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
            with open(os.path.join(package, name), "rb") as f:
                crc = zlib.crc32(f.read(), crc)
        run_cli(capsys, "sequence", "-m", "2", "--terms", "4", "--cache-dir", str(tmp_path))
        assert json.loads((tmp_path / "m2_gtree.json").read_text())["meta"]["source_crc32"] == crc

    def test_cached_prefix_reused_for_fewer_terms(self, capsys, tmp_path):
        run_cli(capsys, "sequence", "-m", "2", "--terms", "10",
                "--cache-dir", str(tmp_path))
        _, out = run_cli(capsys, "sequence", "-m", "2", "--terms", "4",
                         "--cache-dir", str(tmp_path))
        assert out == "n,count\n0,1\n1,1\n2,2\n3,5\n4,15\n"

    def test_corrupt_cache_recomputed(self, capsys, tmp_path):
        path = tmp_path / "m2_gtree.json"
        path.write_text('{"m": 2, "engine": "gtree", "terms": ["1", "999"]}')
        _, out = run_cli(capsys, "sequence", "-m", "2", "--terms", "4",
                         "--cache-dir", str(tmp_path))
        assert out == "n,count\n0,1\n1,1\n2,2\n3,5\n4,15\n"
        # bad file replaced by a valid record
        assert json.loads(path.read_text())["terms"][:3] == ["1", "1", "2"]

    @pytest.mark.parametrize(
        "content",
        [
            b"[1, 2]",
            b'{"m": 2, "engine": "gtree", "terms": ["1", "\xe9"]}',
            json.dumps({"m": 2, "engine": "gtree", "meta": {"version": __version__},
                        "terms": ["1", "1", "2", "5", "15", "²"]}).encode(),
            b"[" * 100000,
        ],
        ids=["json-list", "non-utf8", "non-ascii-digit", "deeply-nested"],
    )
    def test_unreadable_cache_recomputed(self, capsys, tmp_path, content):
        path = tmp_path / "m2_gtree.json"
        path.write_bytes(content)
        code, out = run_cli(capsys, "sequence", "-m", "2", "--terms", "4",
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert out == "n,count\n0,1\n1,1\n2,2\n3,5\n4,15\n"
        assert json.loads(path.read_text())["meta"]["version"] == __version__

    def test_overlong_term_recomputed(self, capsys, tmp_path):
        # a term past int()'s digit limit is read, and fails the Bell bound
        args = ["sequence", "-m", "2", "-n", "3", "--cache-dir", str(tmp_path)]
        run_cli(capsys, *args)
        path = tmp_path / "m2_gtree.json"
        record = json.loads(path.read_text())
        record["terms"][3] = "5" * 5001
        path.write_text(json.dumps(record))
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert out == "n,count\n0,1\n1,1\n2,2\n3,5\n"
        assert json.loads(path.read_text())["terms"] == ["1", "1", "2", "5"]

    def test_long_terms_read_back(self, capsys, tmp_path, monkeypatch):
        # terms past the interpreter's int/str digit limit, here lowered to
        # its floor so that Bell numbers pass it at n = 400, are stored and
        # then served from the cache
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            bells = core.bell_numbers(400)
            assert bells[-1] >= 10**640
            monkeypatch.setattr(gtree, "sequence", lambda m, N: bells[: N + 1])
            args = ["sequence", "-m", "2", "-n", "400", "--cache-dir", str(tmp_path)]
            code1, out1 = run_cli(capsys, *args)
            monkeypatch.setattr(gtree, "sequence", lambda m, N: pytest.fail("not cached"))
            code2, out2 = run_cli(capsys, *args)
        finally:
            sys.set_int_max_str_digits(old)
        assert (code1, code2) == (0, 0) and out1 == out2
        assert out1.splitlines()[-1] == f"400,{bells[400]}"

    def test_other_version_record_rejected(self, capsys, tmp_path):
        # a plausible record (Bell prefix, nondecreasing) with a wrong count at n=6
        terms = ["1", "1", "2", "5", "15", "52", "203"]
        record = {"m": 2, "engine": "gtree", "terms": terms,
                  "meta": {"version": "0.0.0", "timestamp": None, "wall_time_s": None}}
        (tmp_path / "m2_gtree.json").write_text(json.dumps(record))
        code, out = run_cli(capsys, "sequence", "-m", "2", "--terms", "6",
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.splitlines()[-1] == "6,202"

    def stored_with_wrong_term_8(self, capsys, tmp_path):
        """An m = 2 gtree record as a run writes it, with term 8 raised to 3931."""
        run_cli(capsys, "sequence", "-m", "2", "-n", "8", "--cache-dir", str(tmp_path))
        path = tmp_path / "m2_gtree.json"
        record = json.loads(path.read_text())
        assert record["terms"][8] == "3930"
        record["terms"][8] = "3931"
        path.write_text(json.dumps(record))
        return path

    @pytest.mark.parametrize(
        "edit",
        [lambda meta: meta.update(source_crc32=meta["source_crc32"] ^ 1),
         lambda meta: meta.pop("source_crc32"),
         lambda meta: meta.update(source_crc32=str(meta["source_crc32"]))],
        ids=["other-digest", "absent", "as-string"],
    )
    def test_other_source_record_recomputed(self, capsys, tmp_path, edit):
        # same version, m and engine, but not written by this code
        path = self.stored_with_wrong_term_8(capsys, tmp_path)
        record = json.loads(path.read_text())
        edit(record["meta"])
        path.write_text(json.dumps(record))
        code, out = run_cli(capsys, "sequence", "-m", "2", "-n", "8", "--cache-dir", str(tmp_path))
        assert code == 0 and out.splitlines()[-1] == "8,3930"
        assert json.loads(path.read_text())["terms"][8] == "3930"

    def test_current_source_record_is_a_hit(self, capsys, tmp_path):
        self.stored_with_wrong_term_8(capsys, tmp_path)
        code, out = run_cli(capsys, "sequence", "-m", "2", "-n", "8", "--cache-dir", str(tmp_path))
        assert code == 0 and out.splitlines()[-1] == "8,3931"

    def test_unreadable_sources_never_hit(self, capsys, tmp_path, monkeypatch):
        from nestcount import cache
        path = self.stored_with_wrong_term_8(capsys, tmp_path)
        monkeypatch.setattr(cache, "__file__", str(tmp_path / "gone" / "cache.py"))
        _, out = run_cli(capsys, "sequence", "-m", "2", "-n", "8", "--cache-dir", str(tmp_path))
        assert out.splitlines()[-1] == "8,3930"
        # a second run with no readable sources recomputes again
        path.write_text(path.read_text().replace('"3930"', '"3931"'))
        _, out = run_cli(capsys, "sequence", "-m", "2", "-n", "8", "--cache-dir", str(tmp_path))
        assert out.splitlines()[-1] == "8,3930"

    def test_json_stdout_names_no_digest(self, capsys, tmp_path):
        args = ["sequence", "-m", "2", "-n", "5", "--format", "json"]
        _, fresh = run_cli(capsys, *args)
        _, cached = run_cli(capsys, *args, "--cache-dir", str(tmp_path))
        _, hit = run_cli(capsys, *args, "--cache-dir", str(tmp_path))
        assert fresh == cached == hit
        assert set(json.loads(hit)["meta"]) == {"version", "timestamp", "wall_time_s"}

    def test_cache_dir_is_a_file(self, capsys, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("")
        code = main(["sequence", "-m", "2", "-n", "4", "--cache-dir", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_failed_write_keeps_old_record(self, capsys, tmp_path, monkeypatch):
        run_cli(capsys, "sequence", "-m", "2", "--terms", "4", "--cache-dir", str(tmp_path))
        path = tmp_path / "m2_gtree.json"
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        code = main(["sequence", "-m", "2", "-n", "8", "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.count("\n") == 1
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m2_gtree.json"]

    def test_decreasing_record_recomputed(self, capsys, tmp_path):
        # term 6 lowered below term 5; at n = 6 >= 2(m + 1) the Bell prefix
        # does not reach it, so only the nondecreasing check rejects the record
        args = ["sequence", "-m", "1", "-n", "8", "--cache-dir", str(tmp_path)]
        run_cli(capsys, *args)
        path = tmp_path / "m1_gtree.json"
        record = json.loads(path.read_text())
        assert record["terms"][5:7] == ["42", "132"]
        record["terms"][6] = "41"
        path.write_text(json.dumps(record))
        code, out = run_cli(capsys, *args)
        assert code == 0 and out.splitlines()[-3:] == ["6,132", "7,429", "8,1430"]
        assert json.loads(path.read_text())["terms"][6] == "132"


class TestEngineRegistry:
    def test_engines_resolved_at_call_time(self, capsys, monkeypatch):
        # perfbench's tracer rebinds engines after nestcount.cli is imported
        calls = []

        def fake(m, N):
            calls.append((m, N))
            return [1] * (N + 1)

        monkeypatch.setattr(series, "x_engine", fake)
        code, out = run_cli(capsys, "sequence", "-m", "2", "-n", "3", "--engine", "xseries")
        assert code == 0 and calls == [(2, 3)]
        assert out == "n,count\n0,1\n1,1\n2,1\n3,1\n"

    def test_consistency_error_exits_1(self, capsys, monkeypatch):
        def broken(m, N):
            raise series.SeriesConsistencyError("u-engine, m=2, t-order 3: a test fault")

        monkeypatch.setattr(series, "u_engine", broken)
        code = main(["sequence", "-m", "2", "-n", "5", "--engine", "useries"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "internal consistency error: u-engine, m=2, t-order 3: a test fault\n"

    def test_gtree_step_that_drops_a_row_exits_1(self, capsys, monkeypatch):
        # level 4's row (3, 3) moved to (3, 2), below its group's stop
        # a_2 = a_1, so the a_2 walk drops it
        step = gtree.next_level

        def dropping(ms):
            if ms.level == 4:
                rows = dict(ms.rows)
                rows[gtree._pack((3, 2), ms.k)] = rows.pop(gtree._pack((3, 3), ms.k))
                ms = gtree.LabelMultiset(ms.m, ms.level, rows, ms.w, ms.k)
            return step(ms)

        monkeypatch.setattr(gtree, "next_level", dropping)
        code = main(["sequence", "-m", "3", "-n", "8"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("internal consistency error: gtree, m=3, level 5: ")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("m, N, message", [(0, 3, "m must be >= 1"), (-1, 3, "m must be >= 1"),
                                               (2, -1, "N must be >= 0")], ids=["m=0", "m=-1", "N=-1"])
    def test_every_engine_refuses_bad_m_and_N(self, engine, m, N, message):
        # the CLI refuses these first, so only a direct call reaches the engine
        with pytest.raises(ValueError, match=message):
            engine_fn(engine)(m, N)


class TestVerify:
    def test_registry_names_every_suite_of_verify(self):
        # SUITES is the one list: its values are verify's public functions, all of them
        from nestcount import verify
        public = {name for name, obj in vars(verify).items()
                  if callable(obj) and getattr(obj, "__module__", None) == verify.__name__
                  and not name.startswith("_")}
        assert sorted(SUITES.values()) == sorted(public)

    def test_table1_row4(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "table1", "--max-nesting", "4",
            "--terms", "15",
        )
        assert code == 0
        assert "PASS table1 m=4" in out

    def test_bell_prefix_m6(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "bell-prefix", "--max-nesting", "6",
            "--terms", "14",
        )
        assert code == 0
        assert "Bell-1 at n=14" in out

    def test_cross_engine_m2(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "cross-engine", "--max-nesting", "2",
            "--terms", "10",
        )
        assert code == 0
        assert "FAIL" not in out

    def test_equidistribution_small(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "equidistribution", "-m", "2", "-n", "7",
        )
        assert code == 0

    def test_equidistribution_walks_each_size_once(self, capsys, monkeypatch):
        # the nesting and crossing profiles of a size share one walk
        core._joint_profile.cache_clear()
        sizes = []
        walk = core._nesting_crossing_walk

        def counted(n):
            sizes.append(n)
            return walk(n)

        monkeypatch.setattr(core, "_nesting_crossing_walk", counted)
        code, out = run_cli(capsys, "verify", "--suite", "equidistribution", "-m", "4", "--terms", "8")
        assert code == 0 and "FAIL" not in out
        assert sorted(sizes) == list(range(9))

    def test_labels_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "labels", "-m", "2", "-n", "6")
        assert code == 0

    @pytest.mark.parametrize(
        "extra, named",
        [
            ({(3, 3): 1}, "label=[3,3]: 4 != 5"),
            # a label on one side only counts as 0 on the other
            ({(2, 3): -3, (9, 9): 1}, "label=[2,3]: 3 != 0"),
            ({(9, 9): 1}, "label=[9,9]: 0 != 1"),
            ({(3, 3): BIG}, "label=[3,3]: 4 != 1" + "0" * 4998 + "11"),
        ],
        ids=["raised", "missing-in-enumeration", "missing-in-gtree", "past-digit-limit"],
    )
    def test_labels_fail_names_first_mismatch(self, capsys, monkeypatch, extra, named):
        distribution = core.label_distribution

        def wrong(n, m):
            dist = distribution(n, m)
            if n == 4:
                for lab, c in extra.items():
                    dist[lab] = dist.get(lab, 0) + c
                dist = {lab: c for lab, c in dist.items() if c}
            return dist

        monkeypatch.setattr(core, "label_distribution", wrong)
        code, out = run_cli(capsys, "verify", "--suite", "labels", "-m", "2", "-n", "5")
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert fails == [
            f"FAIL labels n=4: m=2, gtree level vs enumeration; first mismatch {named}"
        ]
        assert "PASS labels n=5: m=2, gtree level vs enumeration\n" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_table1_names_covered_m_values(self, capsys):
        code = main(["verify", "--suite", "table1", "-m", "9"])
        err = capsys.readouterr().err
        assert code == 2 and "m = 1..6" in err

    @pytest.mark.parametrize(
        "module, attr, suite",
        [(gtree, "sequence", "table1"), (series, "x_engine", "cross-engine")],
    )
    def test_fail_names_term_past_digit_limit(self, capsys, monkeypatch, module, attr, suite):
        monkeypatch.setattr(module, attr, lambda m, N: [1, 1, 2, 5, 15, BIG])
        code, out = run_cli(capsys, "verify", "--suite", suite, "-m", "2", "--terms", "5")
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert len(fails) == 1
        assert fails[0].endswith("; first mismatch n=5: 1" + "0" * 4999 + "7 != 52")

    @pytest.mark.parametrize(
        "module, attr, wrong, argv, check",
        [
            (gtree, "sequence", wrong_list, ["table1", "-m", "2", "-n", "6"], "table1 m=2"),
            (series, "u_engine", wrong_list, ["cross-engine", "-m", "3", "-n", "8"], "cross-engine useries"),
            (series, "x_engine", wrong_list, ["oracle", "-m", "2", "-n", "7"], "oracle vs xseries"),
            (core, "count_noncrossing", wrong_term, ["equidistribution", "-m", "2", "-n", "7"], "equidistribution m=1"),
            (formulas, "catalan_recurrence", wrong_list, ["catalan", "-n", "9"], "catalan recurrence"),
            (formulas, "m2_first_term", wrong_term, ["m2-formula", "-n", "8"], "m2 first term vs CT oracle"),
            (formulas, "m2_full_expression", wrong_term, ["m2-formula", "-n", "8"], "m2 assembled expression"),
            (gtree, "sequence", wrong_list, ["bell-prefix", "-m", "2", "-n", "6"], "bell-prefix m=2"),
        ],
    )
    @pytest.mark.parametrize("n", [1, 5])
    def test_fail_names_first_mismatch(self, capsys, monkeypatch, module, attr, wrong, argv, check, n):
        # one term off by one, fed through a rebound function; for bell-prefix
        # m=2, n=5 is in the Bell prefix and n=6 below would be the Bell-1 term
        monkeypatch.setattr(module, attr, wrong(getattr(module, attr), n))
        code, out = run_cli(capsys, "verify", "--suite", *argv)
        assert code == 1
        line = next(line for line in out.splitlines() if line.startswith(f"FAIL {check}: "))
        got, want = re.search(rf"; first mismatch n={n}: (\d+) != (\d+)$", line).groups()
        assert abs(int(got) - int(want)) == 1

    def test_fail_names_short_term_list(self, capsys, monkeypatch):
        monkeypatch.setattr(series, "x_engine", lambda m, N: gtree.sequence(m, N)[:-1])
        code, out = run_cli(capsys, "verify", "--suite", "cross-engine", "-m", "2", "--terms", "5")
        assert code == 1
        assert "FAIL cross-engine xseries: m=2, N=5 vs gtree; length 5 != 6\n" in out

    def test_bell_prefix_builds_only_the_terms_it_checks(self, monkeypatch):
        # bell-prefix compares n <= 2m+2 at each m; a longer gtree sequence is
        # wasted work (-n 60 once took minutes to check n <= 14)
        calls, sequence = [], gtree.sequence

        def recorded(m, N):
            calls.append((m, N))
            return sequence(m, min(N, 2 * m + 2))

        monkeypatch.setattr(gtree, "sequence", recorded)
        verify.suite_bell_prefix(None, 60)
        assert [m for m, _ in calls] == list(range(1, 7))
        assert [(m, N) for m, N in calls if N > 2 * m + 2] == []

    def test_bell_prefix_fail_at_bell_minus_one(self, capsys, monkeypatch):
        monkeypatch.setattr(gtree, "sequence", wrong_list(gtree.sequence, 6))
        code, out = run_cli(capsys, "verify", "--suite", "bell-prefix", "-m", "2", "-n", "7")
        assert code == 1
        assert "FAIL bell-prefix m=2: m=2: equals Bell for n<=min(7,5), Bell-1 at n=6; first mismatch n=6: 203 != 202\n" in out


class TestLabels:
    def test_empty_partition_row(self, capsys):
        code, out = run_cli(capsys, "labels", "-m", "2", "-n", "0")
        assert code == 0
        assert out == "label,count\n[1,1],1\n"

    def test_m2_n3_rows(self, capsys):
        _, out = run_cli(capsys, "labels", "-m", "2", "-n", "3")
        assert out.splitlines() == [
            "label,count",
            "[2,2],1",
            "[2,3],1",
            "[3,3],2",
            "[4,4],1",
        ]

    def test_m3_n9_contains_example_label(self, capsys):
        _, out = run_cli(capsys, "labels", "-m", "3", "-n", "9")
        rows = dict(
            line.rsplit(",", 1) for line in out.splitlines()[1:]
        )
        assert int(rows["[3,4,5]"]) >= 1

    def test_oracle_engine_agrees(self, capsys):
        _, a = run_cli(capsys, "labels", "-m", "2", "-n", "6")
        _, b = run_cli(capsys, "labels", "-m", "2", "-n", "6", "--engine", "oracle")
        assert a == b

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_count_past_digit_limit_printed(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(core, "label_distribution", lambda n, m: {(2, 3): BIG})
        code, out = run_cli(
            capsys, "labels", "-m", "2", "-n", "3", "--engine", "oracle", "--format", fmt,
        )
        digits = "1" + "0" * 4999 + "7"
        assert code == 0
        if fmt == "csv":
            assert out == "label,count\n[2,3]," + digits + "\n"
        else:
            assert json.loads(out)["labels"] == {"[2,3]": digits}


class TestStats:
    def test_n3_all_below_2(self, capsys):
        code, out = run_cli(capsys, "stats", "-n", "3")
        assert code == 0
        assert out == "nesting,crossing,count\n0,0,1\n1,1,4\n"

    def test_n4_single_extremes(self, capsys):
        _, out = run_cli(capsys, "stats", "-n", "4")
        rows = {tuple(map(int, r.split(",")))[:2]: int(r.split(",")[2])
                for r in out.splitlines()[1:]}
        assert rows[(2, 1)] == 1 and rows[(1, 2)] == 1
        assert sum(rows.values()) == 15

    def test_n0(self, capsys):
        _, out = run_cli(capsys, "stats", "-n", "0")
        assert out == "nesting,crossing,count\n0,0,1\n"

    def test_oracle_refusal_names_ceiling_only(self, capsys):
        code = main(["stats", "-n", "14"])
        err = capsys.readouterr().err
        assert code == 2
        assert "beyond n=13" in err and "raise the limit" not in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sequence", "-m", "2", "-n", "-1", "--engine", "useries"],
            ["sequence", "-m", "2", "-n", "-1", "--engine", "oracle"],
            ["labels", "-m", "2", "-n", "-1"],
            ["verify", "--suite", "table1", "-m", "9"],
            ["verify", "--suite", "table1", "-m", "0"],
            ["verify", "--suite", "cross-engine", "-m", "0"],
            ["verify", "--suite", "bell-prefix", "-m", "0"],
            ["verify", "--suite", "equidistribution", "-m", "-1"],
            ["sequence", "-m", "0", "-n", "3", "--engine", "oracle"],
            ["sequence", "-m", "-1", "-n", "3", "--engine", "oracle"],
            ["verify", "--suite", "catalan", "-n", "-1"],
            ["verify", "--suite", "equidistribution", "-n", "-1"],
            ["verify", "--suite", "m2-formula", "-n", "-1"],
            ["verify", "--suite", "table1", "-n", "20"],
            ["verify", "--suite", "table1", "-n", "0"],
            ["verify", "--suite", "m2-formula", "-n", "16"],
            ["verify", "--suite", "catalan", "-m", "3"],
            ["verify", "--suite", "m2-formula", "-m", "3"],
            ["verify", "--suite", "oracle", "-n", "20"],
            ["verify", "--suite", "equidistribution", "-n", "20"],
            ["verify", "--suite", "labels", "-n", "14"],
            ["verify", "--suite", "cross-engine", "-n", "0"],
            ["verify", "--suite", "oracle", "-n", "0"],
            ["verify", "--suite", "catalan", "-n", "0"],
            ["verify", "--suite", "labels", "-n", "0"],
            ["verify", "--suite", "equidistribution", "-n", "0"],
            ["verify", "--suite", "bell-prefix", "-n", "0"],
            ["verify", "--suite", "m2-formula", "-n", "0"],
        ],
    )
    def test_exit_2_with_one_line(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["frob", "-n", "3"], "frob"),
            ([], "command"),
            (["--bogus", "sequence"], "--bogus"),
            (["sequence", "-m", "2", "-n", "3", "--bogus", "1"], "--bogus"),
            (["sequence", "-m", "2", "-n"], "-n"),
            (["sequence", "-m", "-n", "3"], "-m"),
            (["sequence", "-m", "x", "-n", "3"], "'x'"),
            (["sequence", "-m", "2", "-n", "3", "--engine", "magic"], "'magic'"),
            (["labels", "-m", "2", "-n", "3", "--format", "xml"], "'xml'"),
            (["verify", "--suite", "nope"], "'nope'"),
            (["verify", "--suite", "table1", "--terms=x"], "'x'"),
            (["sequence", "-n", "3"], "--max-nesting"),
            (["sequence", "-m", "2"], "--terms"),
            (["labels", "-m", "2"], "--size"),
            (["stats"], "--size"),
            (["verify", "-m", "2"], "--suite"),
            (["stats", "-n", "3", "extra"], "'extra'"),
            (["sequence", "--max", "2", "-n", "3"], "--max"),
            (["sequence", "-m", "2", "-n", "3", "--version"], "--version"),
            (["sequence", "-m", "2", "-n", "3", "--cache-dir", ""], "--cache-dir"),
            (["sequence", "-m", "2", "-n", "3", "--cache-dir="], "--cache-dir"),
        ],
        ids=["unknown-command", "no-command", "unknown-top-option", "unknown-option",
             "no-value-at-end", "no-value-before-option", "non-integer", "unknown-engine",
             "unknown-format", "unknown-suite", "non-integer-joined", "missing-m",
             "missing-n", "missing-size", "stats-missing-size", "missing-suite",
             "stray-positional", "abbreviation", "version-after-command", "empty-cache-dir",
             "empty-cache-dir-joined"],
    )
    def test_parse_error_is_one_line(self, capsys, argv, token):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert token in captured.err


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI once built, kept as the reference that
    _parse must agree with on every valid argv."""
    parser = argparse.ArgumentParser(
        prog="nestcount",
        description="Exact counting of set partitions avoiding an (m+1)-nesting.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    mn_help = (
        "bound m on the maximal nesting number; counts partitions avoiding "
        "an (m+1)-nesting"
    )

    p_seq = sub.add_parser("sequence", help="compute a counting sequence")
    p_seq.add_argument("--max-nesting", "-m", type=int, required=True, help=mn_help)
    p_seq.add_argument(
        "--terms",
        "-n",
        type=int,
        required=True,
        help="largest size N; output rows run n=0..N (n=0 has count 1)",
    )
    p_seq.add_argument("--engine", choices=ENGINES, default="gtree")
    p_seq.add_argument("--format", choices=("json", "csv"), default="csv")
    p_seq.add_argument("--cache-dir", default=None, help="cache file m{M}_{engine}.json")
    p_seq.set_defaults(fn=cmd_sequence)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=SUITES, required=True)
    p_ver.add_argument("--max-nesting", "-m", type=int, default=None, help=mn_help)
    p_ver.add_argument("--terms", "-n", type=int, default=None)
    p_ver.set_defaults(fn=cmd_verify)

    p_lab = sub.add_parser("labels", help="dump a label distribution")
    p_lab.add_argument("--max-nesting", "-m", type=int, required=True, help=mn_help)
    p_lab.add_argument("--size", "-n", type=int, required=True)
    p_lab.add_argument("--engine", choices=("gtree", "oracle"), default="gtree")
    p_lab.add_argument("--format", choices=("json", "csv"), default="csv")
    p_lab.set_defaults(fn=cmd_labels)

    p_st = sub.add_parser("stats", help="joint nesting/crossing distribution")
    p_st.add_argument("--size", "-n", type=int, required=True)
    p_st.set_defaults(fn=cmd_stats)
    return parser


# Valid argvs: every command of the README and of CI, every valid argv the
# tests and the benchmark pass to main, and the --opt=value and repeated
# forms. Range errors (-n -1, -m 0) are usage errors of _parse, which
# argparse never checked; RANGE_ERRORS holds them.
PARSE_CORPUS = [
    # README
    "sequence --max-nesting 2 --terms 15",
    "sequence -m 2 --terms 15 --engine xseries --format json",
    "sequence -m 3 --terms 20 --cache-dir ./cache",
    "verify --suite table1",
    "verify --suite cross-engine -m 2 --terms 10",
    "labels -m 2 -n 3",
    "stats -n 6",
    # CI
    *(f"sequence -m 2 -n 10 --engine {e}" for e in ENGINES),
    "labels -m 2 -n 5 --engine oracle",
    "sequence -m 3 -n 12 --cache-dir cache",
    *(f"verify --suite {s}" for s in ("catalan", "labels", "bell-prefix", "m2-formula",
                                      "equidistribution")),
    "verify --suite labels -m 3 -n 7",
    "verify --suite m2-formula -n 15",
    "verify --suite equidistribution -m 4 --terms 11",
    "verify --suite oracle -m 2 --terms 11",
    *(f"verify --suite cross-engine -m {m} --terms {n}" for m, n in (
        (5, 24), (4, 14), (4, 30), (3, 40), (2, 62), (2, 150), (1, 100), (6, 16), (7, 16),
        (3, 60), (5, 30), (2, 254), (3, 62), (6, 24), (7, 18))),
    # benchmark workloads and its warm-up call
    "sequence -m 2 --engine xseries -n 31",
    "sequence -m 3 --engine useries -n 37",
    "sequence -m 3 --engine gtree -n 30",
    "stats -n 9",
    "sequence -m 1 -n 1",
    # tests
    "sequence --max-nesting 1 --terms 5 --engine oracle",
    "sequence --max-nesting 2 --terms 15 --engine gtree --format csv",
    "sequence --max-nesting 3 --terms 0",
    "sequence -m 2 --terms 6 --format json",
    "sequence -m 2 -n 5",
    "sequence -m 1 --terms 20 --engine oracle",
    "sequence -m 2 --terms 10 --cache-dir cache",
    "sequence -m 2 -n 400 --cache-dir cache",
    "sequence -m 2 -n 3 --engine xseries",
    "sequence -m 3 --terms 12 --format json",
    "verify --suite table1 --max-nesting 4 --terms 15",
    "verify --suite bell-prefix --max-nesting 6 --terms 14",
    "verify --suite equidistribution -m 2 -n 7",
    "verify --suite table1 -m 9",
    "verify --suite catalan -n 9",
    "verify --suite m2-formula -n 8",
    "labels -m 2 -n 0",
    "labels -m 2 -n 3 --engine oracle --format json",
    "stats -n 14",
    # --opt=value
    "sequence --max-nesting=2 --terms=15 --engine=xseries --format=json --cache-dir=cache",
    "sequence -m 2 --terms=4 --cache-dir=a=b",
    "verify --suite=oracle -m 2 --terms=11",
    "labels --max-nesting=2 --size=3 --engine=oracle --format=csv",
    "stats --size=6",
    # repeated options: the last wins
    "sequence -m 2 -m 3 -n 4 --terms 5",
    "sequence --engine oracle -m 2 --engine xseries -n 3 --format json --format csv",
    "verify --suite table1 --suite=oracle -n 3 -n 4",
    "labels -m 2 --size 3 -n 4 --engine oracle --engine gtree",
    "stats -n 3 --size 4",
    # options in any order
    "sequence --format json -n 3 --cache-dir cache -m 2",
]


# Argvs that parse as argparse read them but have an integer option below
# its least value in COMMANDS, with the flag that the error names.
RANGE_ERRORS = [
    ("sequence -m 2 -n -1 --engine useries", "-n/--terms"),
    ("sequence -m -1 -n 3 --engine oracle", "-m/--max-nesting"),
    ("verify --suite equidistribution -m -1", "-m/--max-nesting"),
    ("verify --suite m2-formula -n -1", "-n/--terms"),
    ("labels -m 2 -n -1", "-n/--size"),
    ("sequence -m 2 --terms=-1 --cache-dir=a=b", "-n/--terms"),
]


class TestParse:
    @pytest.mark.parametrize("argv", PARSE_CORPUS)
    def test_agrees_with_reference(self, argv):
        assert vars(_parse(argv.split())) == vars(reference_parser().parse_args(argv.split()))

    @pytest.mark.parametrize("argv, flag", RANGE_ERRORS, ids=[argv for argv, _ in RANGE_ERRORS])
    def test_range_error_names_its_flag(self, capsys, argv, flag):
        reference_parser().parse_args(argv.split())  # argparse took it
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: option {flag} must be >= ")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_command(self, capsys, flag):
        code = main([flag])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("usage: nestcount ")
        assert all(f"  {name} " in out for name in COMMANDS)

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_names_every_option(self, capsys, command, flag):
        code = main([command, flag, "--bogus"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(f"usage: nestcount {command} ")
        for long, short, kind, _, _ in COMMANDS[command][2]:
            assert long in out and (short is None or short in out)
            assert isinstance(kind, int) or kind is str or all(choice in out for choice in kind)

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"{__version__}\n"


class TestImports:
    # A CLI call pays for every module it imports; each command imports only
    # what it runs. Checked in a fresh interpreter, against the modules its
    # startup had already loaded. The child runs with -S, so that no .pth
    # file of site-packages imports a HEAVY module (zlib or pathlib, say) at
    # startup and hides it from the check; PYTHONPATH is still read.
    HEAVY = ("nestcount.core", "nestcount.formulas", "nestcount.polyops", "dataclasses",
             "inspect", "fractions", "decimal", "datetime", "argparse", "gettext", "locale",
             "json", "zlib", "pathlib", "__future__")
    # The start path: the package modules that `import nestcount.cli` loads.
    START = {"nestcount", "nestcount.cli", "nestcount.gtree", "nestcount.series"}
    CHILD = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "print(' '.join(sorted(before)))\n"
        "from nestcount.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv.split()) == 0\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )

    def loaded(self, *argvs):
        src = os.path.dirname(os.path.dirname(os.path.abspath(gtree.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-S", "-c", self.CHILD, *argvs], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        startup, new = proc.stdout.split("\n")[:2]
        assert sorted(set(startup.split()).intersection(self.HEAVY)) == []
        return set(new.split())

    def test_start_path_is_the_cli_and_its_engines(self):
        new = self.loaded()
        assert {mod for mod in new if mod.split(".")[0] == "nestcount"} == self.START
        assert sorted(new.intersection(self.HEAVY)) == []

    def test_sequence_engines_load_no_heavy_module(self):
        new = self.loaded(*(f"sequence -m 2 -n 5 --engine {e}" for e in ("gtree", "useries", "xseries")))
        assert {"nestcount.gtree", "nestcount.series"} <= new
        assert sorted(new.intersection(self.HEAVY)) == []

    def test_stats_loads_core_not_formulas(self):
        new = self.loaded("stats -n 4")
        assert sorted(new.intersection(self.HEAVY)) == ["nestcount.core"]

    def test_sequence_and_stats_load_no_verify_or_cache(self):
        new = self.loaded(*(f"sequence -m 2 -n 5 --engine {e}" for e in ("gtree", "useries", "xseries")),
                          "stats -n 4")
        assert sorted(new.intersection({"nestcount.verify", "nestcount.cache"})) == []

    def test_table1_suite_loads_verify_and_table1(self):
        assert {"nestcount.verify", "nestcount.table1"} <= self.loaded("verify --suite table1 -m 2")

    def test_cache_hit_loads_no_core(self, tmp_path):
        # the hit's Bell bound comes from table1, which cache imports
        argv = f"sequence -m 3 -n 12 --cache-dir {tmp_path}"
        self.loaded(argv)  # an earlier process writes the record
        record = (tmp_path / "m3_gtree.json").read_bytes()
        new = self.loaded(argv)
        assert (tmp_path / "m3_gtree.json").read_bytes() == record  # read, not rewritten
        assert "nestcount.core" not in new
        assert {"nestcount.cache", "nestcount.table1", "json", "zlib", "pathlib"} <= new

    def test_bell_prefix_suite_loads_no_heavy_module(self):
        assert sorted(self.loaded("verify --suite bell-prefix -m 3").intersection(self.HEAVY)) == []

    def test_csv_labels_loads_no_heavy_module(self):
        assert sorted(self.loaded("labels -m 2 -n 5").intersection(self.HEAVY)) == []

    def test_module_run_loads_cli_once(self):
        # under -m, cli.py runs as __main__; verify's import of nestcount.cli
        # must find that module, not load cli.py a second time
        src = os.path.dirname(os.path.dirname(os.path.abspath(gtree.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-X", "importtime", "-m", "nestcount.cli", "verify", "--suite", "catalan", "-n", "3"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "nestcount.verify" in imported
        assert "nestcount.cli" not in imported


class TestClosedStdout:
    # A reader that closes stdout early (`nestcount ... | head -1`) ends the
    # run quietly: a short output fails at main's flush, a long one at a write.
    # Checked with stdout block-buffered, as it is by default, and unbuffered.
    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", ["sequence -m 2 -n 5", "sequence -m 2 -n 150",
                                      "verify --suite catalan -n 3", "--help", "stats -h"])
    def test_no_traceback_when_reader_is_gone(self, argv, flags):
        src = os.path.dirname(os.path.dirname(os.path.abspath(gtree.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, *flags, "-m", "nestcount.cli", *argv.split()], env=env,
                                  stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write)
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr == "" and proc.returncode == 141


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sequence", "-m", "3", "--terms", "12", "--format", "json"],
            ["sequence", "-m", "2", "--terms", "10", "--engine", "xseries"],
            ["labels", "-m", "2", "-n", "8"],
        ],
    )
    def test_repeated_runs_identical(self, capsys, argv):
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1.encode() == out2.encode()


def test_cli_smoke_script_parses():
    # tests/cli_smoke.sh is CI's packaging smoke run; bash -n reads it without running it
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_smoke.sh")
    proc = subprocess.run(["bash", "-n", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
