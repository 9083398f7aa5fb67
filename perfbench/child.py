"""Run one nestcount CLI call in this fresh interpreter and report on it.

    python3 perfbench/child.py '{"argv": [...], "trace": false, "core_n": null, "run_id": "..."}'

`nestcount` must be importable (run.py puts the checkout's src on
PYTHONPATH). Prints one JSON line: the clock reading once `nestcount.cli` is
imported (the parent subtracts its spawn time), the wall time of
`cli.main`, its exit code and captured stdout, the peak RSS of this process,
the sizes of the process-wide memo caches before the call, the median time
of a fixed calibration loop run just before and just after the call, and
with "trace" the tracer's report.
"""

import time

import nestcount.cli as cli

READY = time.perf_counter()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# Process-wide lru_caches that would let one call reuse another's work.
MEMO_CACHES = (
    "nestcount.core:_nesting_profile",
    "nestcount.core:_crossing_profile",
    "nestcount.series:_geometric_inverse_cached",
)


def cache_sizes() -> dict:
    """currsize of each memo cache; None for a cache that no longer exists."""
    out = {}
    for binding in MEMO_CACHES:
        modname, attr = binding.split(":")
        fn = getattr(importlib.import_module(modname), attr, None)
        out[binding] = fn.cache_info().currsize if hasattr(fn, "cache_info") else None
    return out


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key):
        self.key = key
        self.kids = []


def _chains(prefix, top, depth):
    if len(prefix) == depth:
        yield tuple(prefix)
        return
    for v in range(1, top + 2):
        prefix.append(v)
        yield from _chains(prefix, max(top, v), depth)
        prefix.pop()


def calibration_loop() -> int:
    """Fixed pure-Python work in the engines' styles: tuple keys rebuilt into
    dicts of big integers, recursive generators, small objects, sorting and
    integer arithmetic. It uses no nestcount code, so no change to the
    program can speed it up."""
    d = {(a, b, 1): 3 ** (a + b) for a in range(30) for b in range(30)}
    e = {}
    for k, v in d.items():
        shifted = tuple(x + 1 for x in k)
        e[shifted] = e.get(shifted, 0) + v
        e[k] = e.get(k, 0) + v * 3
    nodes = [_Node(c) for c in _chains([], 0, 6)]
    nodes.sort(key=lambda n: (-n.key[-1], n.key))
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return len(e) + len(nodes) + acc


def calibrate(reps: int = 6) -> list[float]:
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        calibration_loop()
        out.append(time.perf_counter() - t)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    payload = {"ready": READY, "caches": cache_sizes()}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    cal = calibrate()
    out = io.StringIO()
    start = time.perf_counter()
    span = tracer.open("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(spec["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception:
        code = None
        payload["error"] = traceback.format_exc()
    finally:
        if tracer:
            tracer.close(span)
    payload["wall_s"] = time.perf_counter() - start
    cal += calibrate()
    payload["calib_s"] = statistics.median(cal)
    payload["exit"] = code
    payload["stdout"] = out.getvalue()
    payload["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        if spec.get("core_n") is not None:
            tracer.drive_core(spec["core_n"])
        payload["trace"] = tracer.report()
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
