"""The --cache-dir records of `nestcount sequence`: one JSON file per m and
engine, served only when it passes load's checks, and written atomically.

This module loads only with --cache-dir, since every module that
`nestcount.cli` imports is compiled or read again at each start.
"""

import json
import os
import zlib
from pathlib import Path

from . import __version__
from .table1 import bell_numbers


def record_path(cache_dir: str, m: int, engine: str) -> Path:
    """The record file of m and engine in cache_dir, which is created if
    it is missing."""
    path = Path(cache_dir) / f"m{m}_{engine}.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use --cache-dir {cache_dir}: {exc.strerror}") from None
    return path


def source_digest() -> int | None:
    """zlib.crc32 over the bytes of this package's *.py files in sorted
    order, or None if they cannot be read. A cache record carries the digest
    of the code that wrote it, since __version__ does not move with every
    change to the engines."""
    paths, crc = sorted(Path(__file__).parent.glob("*.py")), 0
    try:
        for path in paths:
            crc = zlib.crc32(path.read_bytes(), crc)
    except OSError:
        return None
    return crc if paths else None


def load(path, m: int, engine: str, N: int, digest: int | None) -> list[int] | None:
    """Counts 0..N from a cache file, or None unless it is a readable record
    of this version, source digest (never None), m and engine with at least
    N + 1 terms that pass cheap consistency checks: ASCII decimal digits, of
    any length, starting at 1, nondecreasing, and the Bell-prefix relation
    where it applies."""
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
    except ValueError:  # a term past int()'s digit limit; see cli._decimal
        from decimal import Decimal

        vals = [int(Decimal(t)) for t in cached["terms"]]
    if vals[0] != 1 or any(a > b for a, b in zip(vals, vals[1:])):
        return None
    bells = bell_numbers(len(vals) - 1)
    for n, v in enumerate(vals):
        if v > bells[n] or (n < 2 * (m + 1) and v != bells[n]):
            return None
    return vals[: N + 1]


def store(path, record: dict) -> None:
    """Atomic write (a pid-suffixed sibling, then os.replace): no torn file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise ValueError(f"cannot write cache file {path}: {exc.strerror}") from None
