"""Env-gated counters and timers for the per-frame hot path.

Design constraints:

* **near-zero overhead when off** — instrumented sites guard with a single
  module-attribute check (``if counters.ACTIVE:``), no function call, no
  allocation;
* **deterministic** — counters observe the simulation, they never feed back
  into it, so enabling them cannot change RNG draws, event ordering or any
  metric (the byte-identical determinism guarantee is unaffected);
* **process-local** — the registry is a module singleton; sweep workers in
  other processes carry their own.

Enable with ``REPRO_PERF=1`` in the environment (read once at import) or
programmatically with :func:`enable`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

#: instrumented sites guard on this module attribute; flipped by enable()
ACTIVE: bool = os.environ.get("REPRO_PERF", "") not in ("", "0")

_counts: Dict[str, int] = {}
_timings: Dict[str, Tuple[int, float]] = {}


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return ACTIVE


def enable(on: bool = True) -> None:
    """Turn instrumentation on/off at runtime (overrides ``REPRO_PERF``)."""
    global ACTIVE
    ACTIVE = bool(on)


def reset() -> None:
    """Drop all recorded counters and timings."""
    _counts.clear()
    _timings.clear()


def incr(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` (call only under an ``ACTIVE`` guard)."""
    _counts[name] = _counts.get(name, 0) + n


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Accumulate wall-clock time under ``name``; no-op when disabled."""
    if not ACTIVE:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        calls, total = _timings.get(name, (0, 0.0))
        _timings[name] = (calls + 1, total + (time.perf_counter() - t0))


def snapshot() -> dict:
    """Counters, timings and crypto-cache statistics as a plain dict."""
    from repro.comms.crypto.primitives import _cached_keystream

    info = _cached_keystream.cache_info()
    return {
        "counters": dict(_counts),
        "timers": {
            name: {"calls": calls, "total_s": round(total, 6)}
            for name, (calls, total) in _timings.items()
        },
        "keystream_cache": {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
        },
    }


def report() -> str:
    """Human-readable one-line-per-metric report."""
    snap = snapshot()
    counts = snap["counters"]
    lines = [f"{name:<40} {counts[name]}" for name in sorted(counts)]
    for name in sorted(snap["timers"]):
        entry = snap["timers"][name]
        per_call_us = (
            entry["total_s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0
        )
        lines.append(
            f"{name:<40} {entry['calls']} calls, "
            f"{entry['total_s'] * 1e3:.2f} ms total, {per_call_us:.2f} us/call"
        )
    canopy_hits = counts.get("world.canopy_cache_hit", 0)
    canopy_total = canopy_hits + counts.get("world.canopy_cache_miss", 0)
    if canopy_total:
        lines.append(
            f"{'canopy.memo_hit_rate':<40} {canopy_hits / canopy_total:.3f}"
        )
    cache = snap["keystream_cache"]
    lines.append(
        f"{'crypto.keystream_cache':<40} {cache['hits']} hits, "
        f"{cache['misses']} misses, {cache['size']} entries"
    )
    return "\n".join(lines)
