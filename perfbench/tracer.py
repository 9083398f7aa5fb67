"""Spans and counts for a traced nestcount run, recorded from outside the package.

The tracer swaps a wrapper in for each function that runs once per t-order,
fixpoint pass or tree level. Nothing that runs per label or per partition is
wrapped, because such a wrapper would cost more than the work it measures;
those counts are derived from the data the wrapped functions return, inside
`trace.stats` spans so that the bookkeeping is not billed to any layer. The
oracle's four stages are timed as separate passes over all partitions.

A span is [name, start, end, parent index]; spans stay in memory until the
run reports them. A hook whose functions a refactor renamed or reshaped is
listed as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# Per-layer metrics: (name, unit, hook it depends on). `<span>.self_s` is the
# span's duration minus its child spans; `core.<stage>.s` is a whole pass.
LAYER_METRICS = (
    ("polyops.poly_mul.calls", "count", "polyops.poly_mul"),
    ("polyops.poly_mul.term_pairs", "count", "polyops.poly_mul"),
    ("polyops.poly_mul.out_terms", "count", "polyops.poly_mul"),
    ("polyops.poly_mul.self_s", "s", "polyops.poly_mul"),
    ("polyops.poly_add_sub.calls", "count", "polyops.poly_add_sub"),
    ("polyops.poly_add_sub.self_s", "s", "polyops.poly_add_sub"),
    ("series.x_step.calls", "count", "series.x_step"),
    ("series.x_step.self_s", "s", "series.x_step"),
    ("series.substitute_pair.self_s", "s", "series.substitute_pair"),
    ("series.x.monomials", "count", "series.x_series"),
    ("series.x.coeff_bits_max", "bits", "series.x_series"),
    ("series.u_step.calls", "count", "series.u_step"),
    ("series.u_step.self_s", "s", "series.u_step"),
    ("series.shift.self_s", "s", "series.shift"),
    ("series.divide_by_var_minus_one.self_s", "s", "series.divide_by_var_minus_one"),
    ("series.merge_pair.self_s", "s", "series.merge_pair"),
    ("series.u.monomials_max", "count", "series.u_step"),
    ("series.u.coeff_bits_max", "bits", "series.u_step"),
    ("gtree.next_level.self_s", "s", "gtree.next_level"),
    ("gtree.children", "count", "gtree.next_level"),
    ("gtree.labels_max", "count", "gtree.next_level"),
    ("gtree.merge_ratio", "ratio", "gtree.next_level"),
    ("gtree.coeff_bits_max", "bits", "gtree.next_level"),
    ("core.partitions", "count", "core.passes"),
    ("core.enumerate_partitions.s", "s", "core.passes"),
    ("core.standard_representation.s", "s", "core.passes"),
    ("core.max_nesting.s", "s", "core.passes"),
    ("core.max_crossing.s", "s", "core.passes"),
    ("cli.main.self_s", "s", "engine"),
    ("trace.overhead_s", "s", None),  # traced wall_s minus untraced wall_s
)

CORE_STAGES = ("enumerate_partitions", "standard_representation", "max_nesting", "max_crossing")


def _bits(values) -> int:
    return max((abs(c).bit_length() for c in values), default=0)


def _count(name):
    def after(counts, args, out):
        counts[name] += 1

    return after


def _poly_mul(counts, args, out):
    counts["polyops.poly_mul.calls"] += 1
    counts["polyops.poly_mul.term_pairs"] += len(args[0]) * len(args[1])
    counts["polyops.poly_mul.out_terms"] += len(out)


def _x_series(counts, args, F):
    counts["series.x.monomials"] += sum(len(Fk) for Fk in F)
    bits = max((_bits(Fk.values()) for Fk in F), default=0)
    counts["series.x.coeff_bits_max"] = max(counts["series.x.coeff_bits_max"], bits)


def _u_step(counts, args, P):
    counts["series.u_step.calls"] += 1
    counts["series.u.monomials_max"] = max(counts["series.u.monomials_max"], len(P))
    counts["series.u.coeff_bits_max"] = max(counts["series.u.coeff_bits_max"], _bits(P.values()))


def _next_level(counts, args, ms):
    counts["gtree.children"] += sum(lab[-1] for lab in args[0].counts)
    counts["gtree.next_labels"] += len(ms.counts)
    counts["gtree.labels_max"] = max(counts["gtree.labels_max"], len(ms.counts))
    counts["gtree.coeff_bits_max"] = max(counts["gtree.coeff_bits_max"], _bits(ms.counts.values()))


# (span name, "module:attr" bindings, after-call counter). A name bound in two
# modules is wrapped in each, since `from .polyops import poly_mul` copies it.
HOOKS = (
    (
        "engine",
        (
            "nestcount.series:u_engine",
            "nestcount.series:x_engine",
            "nestcount.gtree:sequence",
            "nestcount.core:joint_nesting_crossing",
        ),
        None,
    ),
    ("polyops.poly_mul", ("nestcount.polyops:poly_mul", "nestcount.series:poly_mul"), _poly_mul),
    (
        "polyops.poly_add_sub",
        (
            "nestcount.polyops:poly_add",
            "nestcount.polyops:poly_sub",
            "nestcount.series:poly_add",
            "nestcount.series:poly_sub",
        ),
        _count("polyops.poly_add_sub.calls"),
    ),
    ("series.x_step", ("nestcount.series:_x_step",), _count("series.x_step.calls")),
    ("series.substitute_pair", ("nestcount.series:substitute_pair",), None),
    ("series.x_series", ("nestcount.series:x_series",), _x_series),
    ("series.u_step", ("nestcount.series:_u_step",), _u_step),
    ("series.shift", ("nestcount.series:_shift",), None),
    ("series.divide_by_var_minus_one", ("nestcount.series:_divide_by_var_minus_one",), None),
    ("series.merge_pair", ("nestcount.series:_merge_pair",), None),
    ("gtree.next_level", ("nestcount.gtree:next_level",), _next_level),
)


def _lookup(binding):
    modname, attr = binding.split(":")
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return None, attr
    return module, attr


class Tracer:
    """Records spans and counts for one traced run."""

    def __init__(self, run_id: str, hooks=HOOKS):
        self.run_id = run_id
        self.hooks = hooks
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(int)
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _after(self, span: str, after, args, out) -> None:
        idx = self.open("trace.stats")
        try:
            after(self.counts, args, out)
        except Exception as exc:  # a reshaped return value must not fail the run
            self.missing.setdefault(span, f"counter failed: {exc!r}")
        finally:
            self.close(idx)

    def _wrap(self, span: str, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                self._after(span, after, args, out)
            return out

        return wrapper

    def install(self) -> None:
        for span, bindings, after in self.hooks:
            found = False
            for binding in bindings:
                module, attr = _lookup(binding)
                fn = getattr(module, attr, None) if module is not None else None
                if not callable(fn):
                    continue
                found = True
                self._installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(span, fn, after))
            if not found:
                self.missing[span] = "not found: " + ", ".join(bindings)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def drive_core(self, n: int) -> None:
        """Time each oracle stage as its own pass over all partitions of [n]."""
        core = importlib.import_module("nestcount.core")
        fns = [getattr(core, name, None) for name in CORE_STAGES]
        if not all(callable(fn) for fn in fns):
            self.missing["core.passes"] = "not found: one of nestcount.core." + ", ".join(CORE_STAGES)
            return
        enumerate_partitions, standard_representation, max_nesting, max_crossing = fns
        idx = self.open("core.enumerate_partitions")
        parts = list(enumerate_partitions(n))
        self.close(idx)
        idx = self.open("core.standard_representation")
        diagrams = [standard_representation(p) for p in parts]
        self.close(idx)
        idx = self.open("core.max_nesting")
        for d in diagrams:
            max_nesting(d)
        self.close(idx)
        idx = self.open("core.max_crossing")
        for d in diagrams:
            max_crossing(d)
        self.close(idx)
        self.counts["core.partitions"] += len(parts)

    def report(self) -> dict:
        counts = dict(self.counts)
        children = counts.get("gtree.children", 0)
        counts["gtree.merge_ratio"] = counts.pop("gtree.next_labels", 0) / children if children else 0.0
        return {
            "fields": ["name", "start", "end", "parent", "run_id"],
            "spans": [[*s, self.run_id] for s in self.spans],
            "counts": counts,
            "missing": self.missing,
        }


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    out: defaultdict = defaultdict(float)
    for i, (name, start, end, *_) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def layer_metrics(report: dict) -> dict[str, float | None]:
    """Per-layer metric values from a trace report; None marks a missing hook.
    trace.overhead_s is left to the caller, which times untraced runs too."""
    times = self_times(report["spans"])
    counts = report["counts"]
    out = {}
    for name, _unit, hook in LAYER_METRICS:
        if hook is None:
            continue
        if hook in report["missing"]:
            out[name] = None
        elif name.endswith(".self_s"):
            out[name] = times.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".s"):
            out[name] = times.get(name[: -len(".s")], 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out
