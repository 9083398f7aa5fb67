"""Time-to-sequence benchmark for nestcount.

    python3 perfbench/run.py --workload xseries-m2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload xseries-m2 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports nestcount from ./src. Each
call runs `nestcount.cli.main` in a fresh interpreter (child.py), one call at
a time, so every call starts with empty memo caches and has its own peak
RSS. Every output is checked (workloads.py); a call fails when its output is
wrong, it raises, it exits non-zero, it times out or a memo cache was not
empty before it.

--trace 0 runs rounds until --seconds have passed. A round calls the CLI once
for every size in the workload's window, in an order drawn from the seed,
so that every seed measures the same work. It reports
  wall_s        median over rounds of the round's mean cli.main time
  peak_rss_mib  median over rounds of the round's mean child peak RSS
  setup_s       median over calls of the time from spawning the child until
                nestcount.cli is imported
Both times are in reference seconds: each call's time is multiplied by
CAL_REF_S / calib_s, where calib_s is the median time of
child.calibration_loop, run in the same process just before and after the
call. Shared machines run the same code up to 1.8x slower for minutes at a
time; on two cores the plain times of one run spread by 20-30% from run to
run, and the scaled times by 3-9%. The plain times are printed as
wall_raw_s and setup_raw_s, unbounded, with calib_s.
A round with a failed call is left out of every timing.

--trace 1 lets the seed pick one size from the window and runs pairs of an
untraced and a traced call (tracer.py) until --seconds have passed. The
traced output must equal the untraced one and the traced counts must repeat
exactly from pair to pair. It reports the per-layer metrics of
tracer.LAYER_METRICS: counts from the first pair, times as medians over
pairs, and trace.overhead_s, the median of traced minus untraced wall time.

Both print error_rate (failed / attempted calls) and the environment, then a
`record` line with every sample, then the result as the last line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--smoke runs every workload at toy size, timed and traced, in a second or so each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, check_output, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RUN_LIMIT_S = 170  # no call may run past this much time after a run starts
# Reference seconds are seconds on a machine that runs child.calibration_loop
# in this time; a two-core Xeon VM shared with other tenants takes 4.5-10 ms.
CAL_REF_S = 0.005

END_TO_END = (("wall_s", "s"), ("peak_rss_mib", "MiB"), ("setup_s", "s"))
# Sizes for the warm-up call, which writes bytecode caches before any timing.
WARM_UP_ARGV = ["sequence", "-m", "1", "-n", "1"]


def call(spec: dict, deadline: float) -> dict:
    """Run child.py once; its payload plus setup_s, or ok=False with a reason."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = max(1.0, deadline - time.perf_counter())
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": f"timed out after {timeout:.0f} s"}
    try:
        payload = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"ok": False, "reason": f"child exited {proc.returncode}: {tail[0]}"}
    payload["setup_s"] = payload["ready"] - spawn
    return payload


def judge(wl, n: int, payload: dict, ref) -> str | None:
    """Why a call failed, or None."""
    if "reason" in payload:
        return payload["reason"]
    if "error" in payload:
        return payload["error"].strip().splitlines()[-1]
    if payload["exit"] != 0:
        return f"exit code {payload['exit']}"
    used = [name for name, size in payload["caches"].items() if size]
    if used:
        return "memo cache not empty before the call: " + ", ".join(used)
    return check_output(wl, n, payload["stdout"], ref)


def run_call(wl, n: int, ref, deadline: float, trace: bool = False, run_id: str = "") -> dict:
    spec = {
        "argv": wl.cli_argv(n),
        "trace": trace,
        "core_n": n if trace and wl.m is None else None,
        "run_id": run_id,
    }
    payload = call(spec, deadline)
    payload["n"] = n
    payload["reason"] = judge(wl, n, payload, ref)
    payload["ok"] = payload["reason"] is None
    return payload


def _keep_going(start: float, done: int, seconds: float, deadline: float) -> bool:
    """Another round fits if the mean round so far still ends in time."""
    now = time.perf_counter()
    per_round = (now - start) / done
    return now - start + per_round <= seconds and now + per_round <= deadline


def timed_run(wl, sizes, rng, seconds, ref, deadline) -> tuple[list, dict, dict]:
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append([run_call(wl, n, ref, deadline) for n in rng.sample(sizes, len(sizes))])
        if not _keep_going(start, len(rounds), seconds, deadline):
            break
    good = [r for r in rounds if all(c["ok"] for c in r)]
    calls = [c for r in rounds for c in r]
    metrics, raw = {}, {}
    if good:
        ok = [c for c in calls if c["ok"]]
        raw = {
            "wall_raw_s": statistics.median(statistics.fmean(c["wall_s"] for c in r) for r in good),
            "setup_raw_s": statistics.median(c["setup_s"] for c in ok),
            "calib_s": statistics.median(c["calib_s"] for c in ok),
        }
        metrics = {
            "wall_s": statistics.median(
                statistics.fmean(c["wall_s"] * CAL_REF_S / c["calib_s"] for c in r) for r in good
            ),
            "peak_rss_mib": statistics.median(
                statistics.fmean(c["rss_kib"] / 1024 for c in r) for r in good
            ),
            "setup_s": statistics.median(c["setup_s"] * CAL_REF_S / c["calib_s"] for c in ok),
        }
    samples = {
        "rounds": len(rounds),
        "good_rounds": len(good),
        "raw": raw,
        "calls": [
            {k: c.get(k) for k in ("n", "ok", "reason", "wall_s", "calib_s", "rss_kib", "setup_s")}
            for c in calls
        ],
    }
    return calls, metrics, samples


def traced_run(wl, sizes, rng, seconds, ref, deadline, tag) -> tuple[list, dict, dict]:
    n = rng.choice(sizes)
    calls, pairs, reports = [], [], []
    first_counts = missing_hooks = None
    start = time.perf_counter()
    while True:
        k = len(pairs)
        plain = run_call(wl, n, ref, deadline)
        traced = run_call(wl, n, ref, deadline, trace=True, run_id=f"{tag}-{k}")
        if traced["ok"] and plain["ok"] and traced["stdout"] != plain["stdout"]:
            traced.update(ok=False, reason="traced output differs from untraced output")
        if traced["ok"]:
            counts = traced["trace"]["counts"]
            if first_counts is None:
                first_counts, missing_hooks = counts, traced["trace"]["missing"]
            elif counts != first_counts:
                traced.update(ok=False, reason="traced counts differ between pairs")
        calls += [plain, traced]
        if plain["ok"] and traced["ok"]:
            pairs.append(traced["wall_s"] - plain["wall_s"])
            reports.append(layer_metrics(traced["trace"]))
        if not _keep_going(start, len(calls) // 2, seconds, deadline):
            break
    metrics, missing = {}, {}
    if reports:
        for name, unit, hook in LAYER_METRICS:
            if hook is None:
                metrics[name] = statistics.median(pairs)
            elif reports[0][name] is None:
                missing[name] = missing_hooks[hook]
            elif unit == "s":
                metrics[name] = statistics.median(r[name] for r in reports)
            else:
                metrics[name] = reports[0][name]
    samples = {
        "n": n,
        "pairs": len(calls) // 2,
        "overhead_s": pairs,
        "missing": missing,
        "calls": [
            {k: c.get(k) for k in ("n", "ok", "reason", "wall_s", "setup_s")}
            | {"traced": "trace" in c}
            for c in calls
        ],
    }
    return calls, metrics, samples


def environment() -> dict:
    git = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip()
            git = {"sha": sha or None, "dirty": bool(dirty)}
        except (OSError, subprocess.TimeoutExpired):
            git = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None
            )
    except OSError:
        pass
    return {
        "git": git,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "loadavg": os.getloadavg(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, ref=None) -> dict:
    """One benchmark run; the result dict plus a `record` of every sample."""
    wl = WORKLOADS[name]
    ref = ref or load_reference()
    sizes = list(wl.smoke if smoke else wl.window)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    env = environment()
    warm = call({"argv": WARM_UP_ARGV, "trace": False, "core_n": None, "run_id": ""}, deadline)
    if "reason" in warm or warm.get("exit") != 0:
        raise RuntimeError(f"warm-up call failed: {warm.get('reason') or warm.get('error')}")
    rng = random.Random(seed)
    if trace:
        calls, values, samples = traced_run(wl, sizes, rng, seconds, ref, deadline, f"{name}-{seed}")
        units = {m: u for m, u, _ in LAYER_METRICS}
    else:
        calls, values, samples = timed_run(wl, sizes, rng, seconds, ref, deadline)
        units = dict(END_TO_END)
    failed = sum(1 for c in calls if not c["ok"])
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "record": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "smoke": smoke,
            "sizes": sizes,
            "env": env,
            "layers": {
                "stresses": wl.stresses,
                "bypasses": wl.bypasses,
                "predictions": wl.predictions,
            },
            "samples": samples,
            "run_s": time.perf_counter() - start,
        },
    }


def summary(result: dict) -> list[str]:
    rec = result["record"]
    attempted, failed = result["attempted"], result["failed"]
    s = rec["samples"]
    size = f"n={s['n']}" if rec["trace"] else "n in " + ",".join(map(str, rec["sizes"]))
    if rec["trace"]:
        runs = f"{s['pairs']} traced/untraced pairs"
    else:
        runs = f"{s['good_rounds']}/{s['rounds']} good rounds"
    lines = [f"{rec['workload']} seed={rec['seed']} {size}: {runs}, {attempted} calls"]
    for k, v in s.get("raw", {}).items():
        lines.append(f"  {k:40s} {v:.6g} s")
    for k, m in result["metrics"].items():
        lines.append(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'error_rate':40s} {failed / attempted:.6g} ratio ({failed} of {attempted} calls failed)")
    for c in s["calls"]:
        if not c["ok"]:
            lines.append(f"  failed n={c['n']}: {c['reason']}")
    for k, why in s.get("missing", {}).items():
        lines.append(f"  missing {k}: {why}")
    lines.append("env " + json.dumps(rec["env"]))
    return lines


def smoke() -> int:
    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result = run(name, seed=0, seconds=0, trace=trace, smoke=True)
            print("\n".join(summary(result)))
            bad += not result["correct"]
    print(f"smoke: {'ok' if not bad else f'{bad} runs failed'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at toy size")
    args = parser.parse_args(argv)
    if not (SRC / "nestcount" / "cli.py").is_file():
        print(f"error: {SRC / 'nestcount'} not found; run from a nestcount checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary(result)))
    print("record " + json.dumps(result.pop("record")))
    if not result["metrics"]:
        print("error: no call succeeded", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
