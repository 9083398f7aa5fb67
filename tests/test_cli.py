import json
import os
import re
import subprocess
import sys

import pytest

from nestcount import __version__, core, formulas, gtree, series
from nestcount.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


BIG = 10**5000 + 7  # 5001 digits, past the default 4300-digit int <-> str limit


def wrong_list(fn, n):
    """fn, a term-list function, with its entry n raised by one."""
    def wrong(*args, **kwargs):
        out = list(fn(*args, **kwargs))
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
        with pytest.raises(SystemExit) as exc:
            main(["sequence", "-m", "1", "--terms", "3", "--engine", "magic"])
        assert exc.value.code == 2


class TestCache:
    def test_cache_hit_equals_fresh(self, capsys, tmp_path):
        args = ["sequence", "-m", "2", "--terms", "10", "--cache-dir", str(tmp_path)]
        code1, out1 = run_cli(capsys, *args)
        assert (tmp_path / "m2_gtree.json").exists()
        code2, out2 = run_cli(capsys, *args)
        code3, fresh = run_cli(capsys, "sequence", "-m", "2", "--terms", "10")
        assert (code1, code2, code3) == (0, 0, 0)
        assert out1 == out2 == fresh

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


class TestVerify:
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
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

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


class TestImports:
    # A CLI call pays for every module it imports; each command imports only
    # what it runs. Checked in a fresh interpreter, against the modules its
    # startup had already loaded.
    HEAVY = ("nestcount.core", "nestcount.formulas", "dataclasses", "inspect",
             "fractions", "decimal", "datetime")
    CHILD = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from nestcount.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv.split()) == 0\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )

    def loaded(self, *argvs):
        src = os.path.dirname(os.path.dirname(os.path.abspath(gtree.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", self.CHILD, *argvs], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_sequence_engines_load_no_heavy_module(self):
        new = self.loaded(*(f"sequence -m 2 -n 5 --engine {e}" for e in ("gtree", "useries", "xseries")))
        assert {"nestcount.gtree", "nestcount.series"} <= new
        assert sorted(new.intersection(self.HEAVY)) == []

    def test_stats_loads_core_not_formulas(self):
        new = self.loaded("stats -n 4")
        assert "nestcount.core" in new and "nestcount.formulas" not in new


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
