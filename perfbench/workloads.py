"""The benchmark's workloads, its reference data and the checks on CLI output.

Every workload is one `nestcount` CLI command. Its input is a size from a
small fixed window: a timed run sweeps the whole window, so every seed
measures the same work, and a traced run lets the seed pick one size, so
that a claim made on one size can be re-checked on another. The sizes keep
one call near a second on two cores, which gives 20 or more calls in a run;
longer calls (x-engine at N = 40, stats -n 10) left too few samples to
steady the median. `reference.json` (written by `make_reference.py`) holds
the counting sequences that two engines agreed on; the oracle workload is
checked by identities instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments; the size flag `-n N` is appended
    m: int | None  # nesting bound of a `sequence` workload, None for `stats`
    window: tuple[int, ...]  # the sizes a timed run sweeps and a traced run picks from
    smoke: tuple[int, ...]  # toy sizes for the smoke run
    why: str
    stresses: str
    bypasses: str
    predictions: str

    def cli_argv(self, n: int) -> list[str]:
        return [*self.argv, "-n", str(n)]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="xseries-m2",
            argv=("sequence", "-m", "2", "--engine", "xseries"),
            m=2,
            window=(30, 31, 32),
            smoke=(6, 7, 8),
            why="The paper's headline case (x-engine, m = 2; the paper claims 40+ terms in seconds) and "
            "the opt-in acceptance test's case; nearly all its time is in poly_mul.",
            stresses="series (x_step, substitute_pair), polyops (poly_mul, poly_add/sub), cli",
            bypasses="gtree, core, the u-engine helpers",
            predictions="polyops.poly_mul.* and series.x_* move wall_s here; "
            "series.u_*, gtree.* and core.* read 0.",
        ),
        Workload(
            name="useries-m3",
            argv=("sequence", "-m", "3", "--engine", "useries"),
            m=3,
            window=(36, 37, 38),
            smoke=(8, 9, 10),
            why="u-engine at m = 3: polyops additions, not products, plus "
            "_shift/_divide_by_var_minus_one/_merge_pair; the engine ROADMAP item 5 needs to scale.",
            stresses="series (u_step, shift, divide_by_var_minus_one, merge_pair), polyops (poly_add/sub), cli",
            bypasses="polyops.poly_mul, the x-engine helpers, gtree, core",
            predictions="poly_mul work has no effect here (polyops.poly_mul.calls reads 0); "
            "series.u.monomials_max moves peak_rss_mib.",
        ),
        Workload(
            name="gtree-m3",
            argv=("sequence", "-m", "3", "--engine", "gtree"),
            m=3,
            window=(29, 30, 31),
            smoke=(8, 9, 10),
            why="Generating tree at m = 3: same sequence as useries-m3 through "
            "label_children/next_level and bigint dict merges, with no series or polyops.",
            stresses="gtree (next_level, label_children), cli",
            bypasses="series, polyops, core",
            predictions="polyops.* and series.* read 0; gtree.labels_max moves peak_rss_mib.",
        ),
        Workload(
            name="oracle-stats",
            argv=("stats",),
            m=None,
            window=(9,),
            smoke=(6,),
            why="stats -n 9 over all Bell(9) = 21147 partitions: the only workload "
            "for core, since the engines share no counting code with it.",
            stresses="core (enumerate_partitions, standard_representation, max_nesting, max_crossing), cli",
            bypasses="series, polyops, gtree",
            predictions="polyops.*, series.* and gtree.* read 0; core.*.s move wall_s.",
        ),
    )
}


@dataclass
class Reference:
    """What outputs are checked against: sequences by m, TABLE1 rows by m."""

    sequences: dict[int, list[int]]
    table1: dict[int, tuple[int, ...]]


def load_reference() -> Reference:
    """Read reference.json and check its n <= 15 prefix against TABLE1.

    Needs `nestcount` importable (the caller puts the checkout's src first).
    """
    from nestcount.table1 import TABLE1

    raw = json.loads(REFERENCE_FILE.read_text())
    sequences = {int(m): [int(t) for t in terms] for m, terms in raw["sequences"].items()}
    for m, terms in sequences.items():
        prefix = tuple(terms[1:16])
        if prefix != TABLE1[m][: len(prefix)]:
            raise ValueError(f"reference.json m={m} disagrees with TABLE1")
    return Reference(sequences, dict(TABLE1))


def bell_numbers(N: int) -> list[int]:
    """B_0..B_N by the Bell triangle, kept here so the check shares no code
    with the program under test."""
    out, row = [1], [1]
    for _ in range(N):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        out.append(nxt[0])
        row = nxt
    return out


def check_output(wl: Workload, n: int, text: str, ref: Reference) -> str | None:
    """None when the CLI output for size n is right, else why it is wrong."""
    if wl.m is not None:
        return _check_sequence(ref.sequences.get(wl.m, []), n, text)
    return _check_stats(n, text, ref)


def _check_sequence(terms: list[int], n: int, text: str) -> str | None:
    if len(terms) <= n:
        return f"reference has no term n={n}"
    want = ["n,count"] + [f"{i},{t}" for i, t in enumerate(terms[: n + 1])]
    got = text.splitlines()
    if got == want:
        return None
    if len(got) != len(want):
        return f"{len(got)} lines, expected {len(want)}"
    bad = next(i for i in range(len(want)) if got[i] != want[i])
    return f"line {bad}: {got[bad]!r} != {want[bad]!r}"


def _check_stats(n: int, text: str, ref: Reference) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != "nesting,crossing,count":
        return "missing header"
    nesting: dict[int, int] = {}
    crossing: dict[int, int] = {}
    try:
        for line in lines[1:]:
            ne, cr, c = (int(x) for x in line.split(","))
            nesting[ne] = nesting.get(ne, 0) + c
            crossing[cr] = crossing.get(cr, 0) + c
    except ValueError:
        return f"malformed row {line!r}"
    total = sum(nesting.values())
    if total != bell_numbers(n)[n]:
        return f"total {total} != Bell({n})"
    if nesting != crossing:
        return "nesting marginal != crossing marginal"
    if 1 <= n <= 15:
        for m, row in ref.table1.items():
            below = sum(c for k, c in nesting.items() if k <= m)
            if below != row[n - 1]:
                return f"{below} partitions with nesting <= {m}, TABLE1 has {row[n - 1]}"
    return None
