"""Write reference.json: the sequences the benchmark checks its outputs against.

    python3 perfbench/make_reference.py

Each sequence is kept only when two independent engines agree on it
(m = 2: useries and xseries; m = 3: useries and gtree) and its n <= 15
prefix matches TABLE1. It runs past every workload window, so a window can
move without regenerating the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nestcount import gtree, series  # noqa: E402
from nestcount.table1 import TABLE1  # noqa: E402

from workloads import REFERENCE_FILE, WORKLOADS  # noqa: E402

TOP = 48
PAIRS = {2: (series.u_engine, series.x_engine), 3: (series.u_engine, gtree.sequence)}


def main() -> int:
    tops = [max(wl.window) for wl in WORKLOADS.values() if wl.m is not None]
    if max(tops) > TOP:
        raise SystemExit(f"a workload window runs past n={TOP}; raise TOP")
    sequences = {}
    for m, (first, second) in PAIRS.items():
        a, b = first(m, TOP), second(m, TOP)
        if a != b:
            raise SystemExit(f"m={m}: {first.__name__} and {second.__name__} disagree")
        if tuple(a[1:16]) != TABLE1[m]:
            raise SystemExit(f"m={m}: n <= 15 prefix disagrees with TABLE1")
        sequences[str(m)] = [str(t) for t in a]
    record = {
        "agreed_by": {str(m): [f"{f.__module__}.{f.__name__}" for f in fs] for m, fs in PAIRS.items()},
        "sequences": sequences,
    }
    REFERENCE_FILE.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
