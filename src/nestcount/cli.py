"""Command-line driver: sequences, verification suites, label dumps, stats.

Indexing note: sequences are reported from n=0 (count 1), one row more
than the published tables that start at n=1.

Output is deterministic for fixed flags: cached records keep their real
timestamp and wall time, but stdout normalizes both to null so repeated
runs are byte-identical.

Imports: each command imports only the modules it runs, since every module
imported is loaded again at each start. Only gtree (the default engine)
and series (the series engines, and main's SeriesConsistencyError) load
with this module. The verify suites live in verify, loaded only by
`verify`, and the --cache-dir records in cache, loaded only with
--cache-dir; both import table1. core, formulas, json, datetime and
decimal are imported where they are used.
Arguments are read from the COMMANDS table by _parse, not by argparse,
whose import and parser build took about half the time of a
`sequence -m 2 -n 31 --engine xseries` call. An integer option's kind in
COMMANDS is its least value, so the table holds every lower bound too; an
engine's largest N is in ENGINES, checked by cmd_sequence before any work.
main returns the exit code of every argv; each usage error is a ValueError.
"""

import os
import sys
import time
from importlib import import_module
from types import SimpleNamespace

from . import __version__, gtree
from .series import SeriesConsistencyError


# Engine name -> (module, function, largest N or None) of fn(m, N), the counts
# for sizes 0..N. The oracle's 13 is core.ORACLE_LIMIT, written out: cli loads no core.
ENGINES = {"oracle": ("core", "nonnesting_sequence", 13), "gtree": ("gtree", "sequence", None),
           "useries": ("series", "u_engine", None), "xseries": ("series", "x_engine", None)}


def engine_fn(name: str):
    """ENGINES[name]'s function, looked up at call time, so that an engine
    rebound on its module (as perfbench's tracer does) is the one that runs."""
    module, fn, _ = ENGINES[name]
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


def cmd_sequence(args) -> int:
    m, N, engine = args.max_nesting, args.terms, args.engine
    top = ENGINES[engine][2]
    if top is not None and N > top:
        raise ValueError(f"option -n/--terms: engine {engine} accepts at most {top}, not {N}")
    cache_path = terms = None
    if args.cache_dir is not None:
        from . import cache
        cache_path = cache.record_path(args.cache_dir, m, engine)
        digest = cache.source_digest()
        terms = cache.load(cache_path, m, engine, N, digest)
    if terms is None:
        start = time.monotonic()
        terms = engine_fn(engine)(m, N)
        wall = round(time.monotonic() - start, 6)
        if cache_path is not None:
            from datetime import datetime, timezone
            stamp = datetime.now(timezone.utc).isoformat()
            stored = _make_record(m, engine, terms, stamp, wall)
            stored["meta"]["source_crc32"] = digest  # in the file, not on stdout
            cache.store(cache_path, stored)
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


# Suite name -> the function of nestcount.verify that runs it, looked up at
# call time, so that only `verify` loads that module.
SUITES = {"table1": "suite_table1", "cross-engine": "suite_cross_engine",
          "oracle": "suite_oracle", "catalan": "suite_catalan", "labels": "suite_labels",
          "equidistribution": "suite_equidistribution", "bell-prefix": "suite_bell_prefix",
          "m2-formula": "suite_m2_formula"}


def cmd_verify(args) -> int:
    from . import verify
    checks = getattr(verify, SUITES[args.suite])(args.max_nesting, args.terms)
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
# short name or None, kind, default or REQUIRED, help): kind is the least
# value of an integer option, str, or the tuple or dict of the values
# allowed. Its value is stored under _dest of its long name, as argparse
# named it. verify's -n is at least 1, since a suite at n = 0 checks nothing.
COMMANDS = {
    "sequence": (cmd_sequence, "compute a counting sequence", (
        ("--max-nesting", "-m", 1, REQUIRED, M_HELP),
        ("--terms", "-n", 0, REQUIRED, "largest size N; output rows run n=0..N (n=0 has count 1)"),
        ("--engine", None, ENGINES, "gtree", ""),
        ("--format", None, ("json", "csv"), "csv", ""),
        ("--cache-dir", None, str, None, "cache file m{M}_{engine}.json"),
    )),
    "verify": (cmd_verify, "run a verification suite", (
        ("--suite", None, SUITES, REQUIRED, ""),
        ("--max-nesting", "-m", 1, None, M_HELP),
        ("--terms", "-n", 1, None, ""),
    )),
    "labels": (cmd_labels, "dump a label distribution", (
        ("--max-nesting", "-m", 1, REQUIRED, M_HELP),
        ("--size", "-n", 0, REQUIRED, ""),
        ("--engine", None, ("gtree", "oracle"), "gtree", ""),
        ("--format", None, ("json", "csv"), "csv", ""),
    )),
    "stats": (cmd_stats, "joint nesting/crossing distribution", (
        ("--size", "-n", 0, REQUIRED, ""),
    )),
}


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
        value = "{" + ",".join(kind) + "}" if isinstance(kind, (tuple, dict)) else _dest(long).upper()
        when = "required" if default is REQUIRED else "optional" if default is None else f"default {default}"
        lines.append(f"  {_flags(long, short)} {value}  ({when}) {about}".rstrip())
    return "\n".join(lines) + "\n"


def _parse(argv: list[str]):
    """argv read against COMMANDS: a namespace of the command, its function
    (fn) and every option's value, or the text of -h/--help/--version. Takes
    --opt value, --opt=value and -x value, the last of a repeated option
    winning, and checks each integer option's final value against its least
    value. Any usage error raises ValueError with a one-line message."""
    if not argv:
        raise ValueError(f"missing command: one of {', '.join(COMMANDS)}")
    command, rest = argv[0], iter(argv[1:])
    if command in ("-h", "--help", "--version"):
        return f"{__version__}\n" if command == "--version" else _help()
    if command.startswith("-"):
        raise ValueError(f"unknown option {command!r}")
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}: one of {', '.join(COMMANDS)}")
    fn, _, options = COMMANDS[command]
    by_name = {name: opt for opt in options for name in opt[:2] if name}
    values = {}
    for tok in rest:
        if tok in ("-h", "--help"):
            return _help(command)
        name, eq, text = tok.partition("=") if tok.startswith("--") else (tok, "", "")
        if name not in by_name:
            raise ValueError(f"unknown option {name!r}" if tok.startswith("-") else f"unexpected argument {tok!r}")
        long, short, kind, _, _ = by_name[name]
        if not eq:
            text = next(rest, None)
            # a value may be a negative integer, but no other option-like token
            if text is None or text.startswith("-") and not text[1:].isdecimal():
                raise ValueError(f"option {_flags(long, short)} needs a value")
        if isinstance(kind, int):
            try:
                text = int(text)
            except ValueError:
                raise ValueError(f"option {_flags(long, short)}: {text!r} is not an integer")
        elif kind is str and not text:
            raise ValueError(f"option {_flags(long, short)} needs a non-empty value")
        elif kind is not str and text not in kind:
            raise ValueError(f"option {_flags(long, short)}: {text!r} is not one of {', '.join(kind)}")
        values[_dest(long)] = text
    for long, short, kind, default, _ in options:
        value = values.setdefault(_dest(long), default)
        if value is REQUIRED:
            raise ValueError(f"missing option {_flags(long, short)}")
        if isinstance(kind, int) and value is not None and value < kind:
            raise ValueError(f"option {_flags(long, short)} must be >= {kind}, not {value}")
    return SimpleNamespace(command=command, fn=fn, **values)


def main(argv=None) -> int:
    """Run the CLI on argv (sys.argv[1:] by default) and return its exit code."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the text of -h, --help or --version
            sys.stdout.write(args)
            code = 0
        else:
            code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except SeriesConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: exit quietly, with 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    # Under `python -m nestcount.cli` this module is __main__; registered under
    # its own name too, it is not loaded a second time by verify's import of it.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
