"""Command-line driver: sequences, verification suites, label dumps, stats.

Indexing note: sequences are reported from n=0 (count 1), one row more
than the published tables that start at n=1.

Output is deterministic for fixed flags: cached records keep their real
timestamp and wall time, but stdout normalizes both to null so repeated
runs are byte-identical.

Imports: each command imports only the modules it runs, since every module
imported is loaded again at each start. gtree (the default engine, which
most verify suites call) and series (the series engines, and main's
SeriesConsistencyError) load with this module, so that no call pays their
load; core, formulas, json, datetime, zlib, decimal and pathlib are imported
where they are used.
Arguments are read from the COMMANDS table by _parse, not by argparse,
whose import and parser build took about half the time of a
`sequence -m 2 -n 31 --engine xseries` call.
"""

import os
import sys
import time
from importlib import import_module
from types import SimpleNamespace

from . import __version__, gtree, series
from .series import SeriesConsistencyError
from .table1 import OEIS_IDS, TABLE1, bell_numbers


# Engine name -> (module, function) of fn(m, N), the counts for sizes 0..N.
ENGINES = {"oracle": ("core", "nonnesting_sequence"), "gtree": ("gtree", "sequence"),
           "useries": ("series", "u_engine"), "xseries": ("series", "x_engine")}


def engine_fn(name: str):
    """ENGINES[name]'s function, looked up at call time, so that an engine
    rebound on its module (as perfbench's tracer does) is the one that runs."""
    module, fn = ENGINES[name]
    return getattr(import_module(f".{module}", __package__), fn)


def _decimal(t: int) -> str:
    """t in decimal digits, also past int <-> str's digit limit."""
    try:
        return str(t)
    except ValueError:
        # Decimal has no digit limit. It is used only past the limit: its
        # first use raised every run's peak RSS by about 0.1 MiB.
        from decimal import Decimal

        return str(Decimal(t))


def _make_record(m, engine, terms, timestamp=None, wall_time=None):
    meta = {"version": __version__, "timestamp": timestamp, "wall_time_s": wall_time}
    return {"m": m, "engine": engine, "terms": [_decimal(t) for t in terms], "meta": meta}


def _source_digest() -> int | None:
    """zlib.crc32 over the bytes of this package's *.py files in sorted
    order, or None if they cannot be read. A cache record carries the digest
    of the code that wrote it, since __version__ does not move with every
    change to the engines."""
    import zlib
    from pathlib import Path
    paths, crc = sorted(Path(__file__).parent.glob("*.py")), 0
    try:
        for path in paths:
            crc = zlib.crc32(path.read_bytes(), crc)
    except OSError:
        return None
    return crc if paths else None


def _load_cached(path, m: int, engine: str, N: int, digest: int | None) -> list[int] | None:
    """Counts 0..N from a cache file, or None unless it is a readable record
    of this version, source digest (never None), m and engine with at least
    N + 1 terms that pass cheap consistency checks: ASCII decimal digits, of
    any length, starting at 1, nondecreasing, and the Bell-prefix relation
    where it applies."""
    import json
    try:
        cached = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return None
    if not (
        isinstance(cached, dict)
        and isinstance(cached.get("meta"), dict)
        and cached["meta"].get("version") == __version__
        and digest is not None
        and cached["meta"].get("source_crc32") == digest
        and cached.get("m") == m
        and cached.get("engine") == engine
        and isinstance(cached.get("terms"), list)
        and len(cached["terms"]) >= N + 1
        and all(isinstance(t, str) and t.isascii() and t.isdigit() for t in cached["terms"])
    ):
        return None
    try:
        vals = [int(t) for t in cached["terms"]]
    except ValueError:  # a term past int()'s digit limit; see _decimal
        from decimal import Decimal

        vals = [int(Decimal(t)) for t in cached["terms"]]
    if vals[0] != 1 or any(a > b for a, b in zip(vals, vals[1:])):
        return None
    bells = bell_numbers(len(vals) - 1)
    for n, v in enumerate(vals):
        if v > bells[n] or (n < 2 * (m + 1) and v != bells[n]):
            return None
    return vals[: N + 1]


def _store_cached(path, record: dict) -> None:
    """Atomic write (a pid-suffixed sibling, then os.replace): no torn file."""
    import json
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise ValueError(f"cannot write cache file {path}: {exc.strerror}") from None


def cmd_sequence(args) -> int:
    m, N, engine = args.max_nesting, args.terms, args.engine
    cache_path = digest = None
    if args.cache_dir:
        from pathlib import Path
        cache_path = Path(args.cache_dir) / f"m{m}_{engine}.json"
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use --cache-dir {args.cache_dir}: {exc.strerror}") from None
        digest = _source_digest()
    terms = _load_cached(cache_path, m, engine, N, digest) if cache_path else None
    if terms is None:
        start = time.monotonic()
        terms = engine_fn(engine)(m, N)
        wall = round(time.monotonic() - start, 6)
        if cache_path is not None:
            from datetime import datetime, timezone
            stamp = datetime.now(timezone.utc).isoformat()
            stored = _make_record(m, engine, terms, stamp, wall)
            stored["meta"]["source_crc32"] = digest  # in the file, not on stdout
            _store_cached(cache_path, stored)
    record = _make_record(m, engine, terms)
    if args.format == "csv":
        sys.stdout.write("n,count\n")
        for n, t in enumerate(record["terms"]):
            sys.stdout.write(f"{n},{t}\n")
    else:
        import json
        sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_labels(args) -> int:
    m, n = args.max_nesting, args.size
    if args.engine == "oracle":
        from . import core
        dist = core.label_distribution(n, m)
    else:
        ms = None
        for ms in gtree.levels(m, n):
            pass
        dist = ms.counts
    rows = [("[" + ",".join(map(str, k)) + "]", _decimal(c)) for k, c in sorted(dist.items())]
    if args.format == "json":
        import json
        payload = {"m": m, "n": n, "labels": dict(rows)}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("label,count\n")
        for k, c in rows:
            sys.stdout.write(f"{k},{c}\n")
    return 0


def cmd_stats(args) -> int:
    from . import core
    n = args.size
    joint = core.joint_nesting_crossing(n)
    sys.stdout.write("nesting,crossing,count\n")
    for (ne, cr), c in sorted(joint.items()):
        sys.stdout.write(f"{ne},{cr},{c}\n")
    return 0


# ---------------------------------------------------------------------------
# verify suites: each returns a list of (check-name, ok, detail) triples

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


def _suite_table1(m, N):
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


def _suite_cross_engine(m, N):
    m = 2 if m is None else m
    N = N if N is not None else 10
    ref = engine_fn("gtree")(m, N)
    return [
        _agree(f"cross-engine {name}", engine_fn(name)(m, N), ref, f"m={m}, N={N} vs gtree")
        for name in ENGINES
        if name not in ("gtree", "oracle")  # exhaustive: the oracle suite checks it at oracle scale
    ]


def _suite_oracle(m, N):
    m = 2 if m is None else m
    N = N if N is not None else 9
    want = engine_fn("oracle")(m, N)
    return [
        _agree(f"oracle vs {name}", engine_fn(name)(m, N), want, f"m={m}, n<={N}")
        for name in ENGINES
        if name != "oracle"
    ]


def _suite_catalan(m, N):
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


def _suite_labels(m, N):
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


def _suite_equidistribution(m, N):
    from . import core
    m = 4 if m is None else m
    N = N if N is not None else 10
    return [
        _agree(f"equidistribution m={mm}", core.nonnesting_sequence(mm, N),
               [core.count_noncrossing(n, mm) for n in range(N + 1)], f"n<={N}")
        for mm in range(1, m + 1)
    ]


def _suite_bell_prefix(m, N):
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
        seq = gtree.sequence(mm, top)
        out.append(_agree(f"bell-prefix m={mm}", seq[: last + 1], want, detail))
    return out


def _suite_m2_formula(m, N):
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


SUITES = {
    "table1": _suite_table1,
    "cross-engine": _suite_cross_engine,
    "oracle": _suite_oracle,
    "catalan": _suite_catalan,
    "labels": _suite_labels,
    "equidistribution": _suite_equidistribution,
    "bell-prefix": _suite_bell_prefix,
    "m2-formula": _suite_m2_formula,
}


def cmd_verify(args) -> int:
    checks = SUITES[args.suite](args.max_nesting, args.terms)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        failed += 0 if ok else 1
        sys.stdout.write(f"{status} {name}: {detail}\n")
    sys.stdout.write(
        f"suite {args.suite}: {len(checks) - failed}/{len(checks)} checks passed\n"
    )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# arguments: one table, read by _parse and by the help text

REQUIRED = object()  # the default of an option that must be given
M_HELP = "bound m on the maximal nesting number; counts partitions avoiding an (m+1)-nesting"

# Command name -> (function, help line, options). An option is (long name,
# short name or None, kind, default or REQUIRED, help): kind is int, str or
# the tuple or dict of the values allowed. Its value is stored under _dest
# of its long name, as argparse named it.
COMMANDS = {
    "sequence": (cmd_sequence, "compute a counting sequence", (
        ("--max-nesting", "-m", int, REQUIRED, M_HELP),
        ("--terms", "-n", int, REQUIRED, "largest size N; output rows run n=0..N (n=0 has count 1)"),
        ("--engine", None, ENGINES, "gtree", ""),
        ("--format", None, ("json", "csv"), "csv", ""),
        ("--cache-dir", None, str, None, "cache file m{M}_{engine}.json"),
    )),
    "verify": (cmd_verify, "run a verification suite", (
        ("--suite", None, SUITES, REQUIRED, ""),
        ("--max-nesting", "-m", int, None, M_HELP),
        ("--terms", "-n", int, None, ""),
    )),
    "labels": (cmd_labels, "dump a label distribution", (
        ("--max-nesting", "-m", int, REQUIRED, M_HELP),
        ("--size", "-n", int, REQUIRED, ""),
        ("--engine", None, ("gtree", "oracle"), "gtree", ""),
        ("--format", None, ("json", "csv"), "csv", ""),
    )),
    "stats": (cmd_stats, "joint nesting/crossing distribution", (
        ("--size", "-n", int, REQUIRED, ""),
    )),
}


def _usage(message: str):
    """A usage error: one line on stderr, exit code 2."""
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(2)


def _flags(long, short) -> str:
    return f"{short}/{long}" if short else long


def _dest(long) -> str:
    return long[2:].replace("-", "_")


def _help(command=None) -> str:
    """Usage of the program, or of one command, read from COMMANDS."""
    if command is None:
        lines = ["usage: nestcount [-h] [--version] COMMAND [options]", "",
                 "Exact counting of set partitions avoiding an (m+1)-nesting.", "",
                 "commands (nestcount COMMAND -h lists its options):"]
        lines += [f"  {name:<10}{text}" for name, (_, text, _) in COMMANDS.items()]
        return "\n".join(lines) + "\n"
    _, text, options = COMMANDS[command]
    lines = [f"usage: nestcount {command} [-h] [options]", "", text, "", "options:"]
    for long, short, kind, default, about in options:
        value = _dest(long).upper() if kind in (int, str) else "{" + ",".join(kind) + "}"
        when = "required" if default is REQUIRED else "optional" if default is None else f"default {default}"
        lines.append(f"  {_flags(long, short)} {value}  ({when}) {about}".rstrip())
    return "\n".join(lines) + "\n"


def _parse(argv: list[str]):
    """argv read against COMMANDS: a namespace of the command, its function
    (fn) and every option's value. Takes --opt value, --opt=value and
    -x value, the last of a repeated option winning; -h/--help and --version
    print to stdout and exit 0, and anything else exits through _usage."""
    if not argv:
        _usage(f"missing command: one of {', '.join(COMMANDS)}")
    command, rest = argv[0], iter(argv[1:])
    if command in ("-h", "--help", "--version"):
        sys.stdout.write(f"{__version__}\n" if command == "--version" else _help())
        raise SystemExit(0)
    if command.startswith("-"):
        _usage(f"unknown option {command!r}")
    if command not in COMMANDS:
        _usage(f"unknown command {command!r}: one of {', '.join(COMMANDS)}")
    fn, _, options = COMMANDS[command]
    by_name = {name: opt for opt in options for name in opt[:2] if name}
    values = {}
    for tok in rest:
        if tok in ("-h", "--help"):
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        name, eq, text = tok.partition("=") if tok.startswith("--") else (tok, "", "")
        if name not in by_name:
            _usage(f"unknown option {name!r}" if tok.startswith("-") else f"unexpected argument {tok!r}")
        long, short, kind, _, _ = by_name[name]
        if not eq:
            text = next(rest, None)
            # a value may be a negative integer, but no other option-like token
            if text is None or text.startswith("-") and not text[1:].isdecimal():
                _usage(f"option {_flags(long, short)} needs a value")
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                _usage(f"option {_flags(long, short)}: {text!r} is not an integer")
        elif kind is not str and text not in kind:
            _usage(f"option {_flags(long, short)}: {text!r} is not one of {', '.join(kind)}")
        values[_dest(long)] = text
    for long, short, _, default, _ in options:
        if _dest(long) not in values:
            if default is REQUIRED:
                _usage(f"missing option {_flags(long, short)}")
            values[_dest(long)] = default
    return SimpleNamespace(command=command, fn=fn, **values)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    m = getattr(args, "max_nesting", None)
    n = getattr(args, "terms", getattr(args, "size", None))
    n_min = 1 if args.command == "verify" else 0  # a suite at n = 0 checks nothing
    try:
        if m is not None and m < 1:
            raise ValueError(f"m must be >= 1, not {m}")
        if n is not None and n < n_min:
            raise ValueError(f"n must be >= {n_min}, not {n}")
        return args.fn(args)
    except SeriesConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
