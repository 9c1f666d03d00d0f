#!/usr/bin/env python
"""Benchmark baseline writer: micro + macro hot-path numbers -> BENCH_*.json.

Measures the per-frame comms pipeline from both ends:

* **micro** — `stream_xor`, the AEAD record layer (`SecureChannel.seal`/
  `open`), the medium's interference query, and `World.canopy_blockage`,
  each against a straightforward reference implementation kept in this file
  so the speedup ratio is machine-independent;
* **macro** — wall-clock of the Figure 1 worksite scenario.

Results are merged into a JSON file (default ``BENCH_PR2.json``) under a
record key, so a *baseline* captured before an optimisation round and the
*current* numbers after it live side by side::

    PYTHONPATH=src python tools/bench_baseline.py --record baseline
    ... optimise ...
    PYTHONPATH=src python tools/bench_baseline.py --record current --check

``--check`` enforces generous, reference-relative regression thresholds
(used by the CI benchmark-smoke job): it fails when the optimised crypto or
medium paths fall back below a fraction of their reference throughput.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import struct
import sys
import time
from pathlib import Path


# --------------------------------------------------------------------------
# reference implementations (the "before" semantics, kept verbatim so the
# speedup ratios in the JSON are self-contained and machine-independent)
# --------------------------------------------------------------------------

def reference_stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Byte-at-a-time CTR-mode XOR (the pre-optimisation implementation)."""
    out = bytearray(len(data))
    for block_index in range(0, (len(data) + 31) // 32):
        block = hashlib.sha256(
            key + nonce + struct.pack(">Q", block_index)
        ).digest()
        offset = block_index * 32
        chunk = data[offset : offset + 32]
        for i, byte in enumerate(chunk):
            out[offset + i] = byte ^ block[i]
    return bytes(out)


def reference_interference(recent_tx, jammers, position, channel, now):
    """List-rebuild interference query (the pre-optimisation semantics)."""
    import math

    from repro.comms.radio import combine_noise_dbm, received_power_dbm

    components = [j.interference_at(position, channel) for j in jammers]
    recent = [t for t in recent_tx if t[0] > now]
    for _, pos, power, ch in recent:
        if ch == channel and pos.distance_to(position) > 0.5:
            d = pos.distance_to(position)
            components.append(received_power_dbm(power, d, antenna_gain_db=0.0) - 6.0)
    components = [c for c in components if c != -math.inf]
    if not components:
        return -math.inf
    return combine_noise_dbm(*components)


# --------------------------------------------------------------------------
# timing helpers
# --------------------------------------------------------------------------

def _best_of(fn, *, repeats: int = 5, inner: int = 1) -> float:
    """Best per-call seconds over ``repeats`` timed batches of ``inner`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        dt = (time.perf_counter() - t0) / inner
        if dt < best:
            best = dt
    return best


def bench_stream_xor(payload_bytes: int = 1024) -> dict:
    """1 KiB stream cipher: roundtrip (the simulator's seal→open pattern)
    and fresh-nonce (cold keystream) costs vs the byte-loop reference."""
    import struct as _struct

    from repro.comms.crypto.primitives import stream_xor

    key = b"k" * 32
    data = bytes(range(256)) * (payload_bytes // 256)
    nonce = b"n" * 16
    assert stream_xor(key, nonce, data) == reference_stream_xor(key, nonce, data)

    state = {"seq": 0}

    def roundtrip():
        # fresh nonce per record, each keystream used twice (seal + open)
        state["seq"] += 1
        record_nonce = _struct.pack(">QQ", 1, state["seq"])
        ct = stream_xor(key, record_nonce, data)
        stream_xor(key, record_nonce, ct)

    def reference_roundtrip():
        state["seq"] += 1
        record_nonce = _struct.pack(">QQ", 2, state["seq"])
        ct = reference_stream_xor(key, record_nonce, data)
        reference_stream_xor(key, record_nonce, ct)

    def fresh():
        state["seq"] += 1
        stream_xor(key, _struct.pack(">QQ", 3, state["seq"]), data)

    current = _best_of(roundtrip, inner=50)
    reference = _best_of(reference_roundtrip, inner=10)
    fresh_cost = _best_of(fresh, inner=50)
    return {
        "payload_bytes": payload_bytes,
        "roundtrip_us": round(current * 1e6, 3),
        "reference_roundtrip_us": round(reference * 1e6, 3),
        "fresh_nonce_per_op_us": round(fresh_cost * 1e6, 3),
        "mb_per_s_roundtrip": round(2 * payload_bytes / current / 1e6, 2),
        "speedup_vs_reference": round(reference / current, 2),
    }


def bench_aead_record(payload_bytes: int = 256) -> dict:
    """SecureChannel seal+open roundtrip vs per-record subkey re-derivation."""
    from repro.comms.crypto.primitives import aead_decrypt, aead_encrypt, nonce_from_sequence
    from repro.comms.crypto.secure_channel import SecureChannel, SecurityProfile

    key = hashlib.sha256(b"bench-key").digest()
    payload = b"p" * payload_bytes

    def roundtrip():
        a = SecureChannel("a", "b", key, key, SecurityProfile.AEAD)
        b = SecureChannel("b", "a", key, key, SecurityProfile.AEAD)
        for _ in range(64):
            b.open(a.seal(payload))

    def reference_roundtrip():
        # the pre-optimisation path: every record re-derives enc/MAC subkeys
        seq = 0
        for _ in range(64):
            seq += 1
            nonce = nonce_from_sequence(seq)
            sealed = aead_encrypt(key, nonce, payload)
            aead_decrypt(key, nonce, sealed)

    current = _best_of(roundtrip, inner=4)
    reference = _best_of(reference_roundtrip, inner=4)
    return {
        "payload_bytes": payload_bytes,
        "records_per_batch": 64,
        "batch_ms": round(current * 1e3, 3),
        "reference_batch_ms": round(reference * 1e3, 3),
        "records_per_s": round(64 / current),
        "speedup_vs_reference": round(reference / current, 2),
    }


def bench_interference(n_tx: int = 64) -> dict:
    from repro.comms.medium import WirelessMedium
    from repro.comms.radio import RadioConfig
    from repro.sim.engine import Simulator
    from repro.sim.events import EventLog
    from repro.sim.geometry import Vec2
    from repro.sim.rng import RngStreams

    sim = Simulator()
    medium = WirelessMedium(sim, EventLog(), RngStreams(7))

    class _Src:
        def __init__(self, position):
            self.position = position

    config = RadioConfig()
    raw_tx = []
    for i in range(n_tx):
        pos = Vec2(float(i % 17) * 10.0, float(i % 13) * 10.0)
        medium._record_tx(0.0, 1e9, _Src(pos), config)
        raw_tx.append((1e9, pos, config.tx_power_dbm, config.channel))
    query = Vec2(55.0, 35.0)

    result = medium.interference_at(query, 1, 0.5)
    assert result == reference_interference(raw_tx, [], query, 1, 0.5)
    current = _best_of(lambda: medium.interference_at(query, 1, 0.5), inner=200)
    reference = _best_of(
        lambda: reference_interference(raw_tx, [], query, 1, 0.5), inner=200
    )
    return {
        "active_transmissions": n_tx,
        "per_query_us": round(current * 1e6, 3),
        "reference_per_query_us": round(reference * 1e6, 3),
        "speedup_vs_reference": round(reference / current, 2),
    }


def bench_canopy(n_pairs: int = 32) -> dict:
    """Repeated canopy queries over a fixed endpoint set (the comms pattern)."""
    from repro.sim.geometry import Vec2
    from repro.sim.rng import RngStreams
    from repro.sim.world import generate_forest

    world = generate_forest(RngStreams(11), width=200.0, height=200.0)
    pairs = [
        (Vec2(10.0 + i * 3.0, 20.0), Vec2(180.0 - i * 2.0, 170.0))
        for i in range(n_pairs)
    ]

    def sweep():
        for a, b in pairs:
            world.canopy_blockage(a, b)

    cold = _best_of(sweep, repeats=1)  # first sweep: caches cold
    steady = _best_of(sweep, repeats=5)
    return {
        "pairs": n_pairs,
        "steady_per_query_us": round(steady / n_pairs * 1e6, 3),
        "cold_sweep_ms": round(cold * 1e3, 3),
        "steady_sweep_ms": round(steady * 1e3, 3),
    }


def bench_fig1_worksite(
    horizon_s: float = 300.0, seed: int = 11, repeats: int = 3
) -> dict:
    from repro.scenarios.worksite import ScenarioConfig, build_worksite

    wall = float("inf")
    scenario = None
    for _ in range(max(1, repeats)):
        scenario = build_worksite(ScenarioConfig(seed=seed))
        t0 = time.perf_counter()
        scenario.run(horizon_s)
        wall = min(wall, time.perf_counter() - t0)
    return {
        "seed": seed,
        "horizon_s": horizon_s,
        "repeats": max(1, repeats),
        "wall_s": round(wall, 3),
        "events_processed": scenario.sim.events_processed,
        "frames_sent": scenario.medium.frames_sent,
        "events_per_s": round(scenario.sim.events_processed / wall),
        "sim_speedup_x": round(horizon_s / wall, 1),
    }


# --------------------------------------------------------------------------
# observability-plane benches (--obs -> BENCH_PR8.json)
# --------------------------------------------------------------------------

def bench_span_overhead(
    horizon_s: float = 120.0, seed: int = 11, repeats: int = 5
) -> dict:
    """Traced fig1 worksite run, spans off vs on (writer-less tracer).

    The span emitter rides the tracer's emit hook, so this isolates the
    marginal cost of the span layer on an already-traced run — the number
    the <5 % budget in docs/observability.md is about.
    """
    from repro.scenarios.worksite import ScenarioConfig, build_worksite
    from repro.telemetry import Tracer, installed

    def timed_run(spans: bool) -> tuple:
        best = float("inf")
        span_records = 0
        for _ in range(max(1, repeats)):
            scenario = build_worksite(ScenarioConfig(seed=seed))
            tracer = Tracer(scenario.sim, spans=spans)
            tracer.meta(seed=seed, horizon_s=horizon_s)
            t0 = time.perf_counter()
            with installed(tracer):
                scenario.run(horizon_s)
            tracer.close()
            best = min(best, time.perf_counter() - t0)
            span_records = tracer.summary().get("spans", {}).get("records", 0)
        return best, span_records

    off, _ = timed_run(False)
    on, span_records = timed_run(True)
    return {
        "seed": seed,
        "horizon_s": horizon_s,
        "repeats": max(1, repeats),
        "spans_off_wall_s": round(off, 4),
        "spans_on_wall_s": round(on, 4),
        "span_records": span_records,
        "overhead_pct": round((on - off) / off * 100.0, 2),
    }


def bench_histogram_observe(n: int = 100_000) -> dict:
    """Hot-path cost of Histogram.observe and a full quantile read-out."""
    from repro.sim.metrics import Histogram

    values = [0.0001 * (1 + i % 997) for i in range(n)]

    def fill():
        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        return histogram

    per_fill = _best_of(fill, repeats=3)
    histogram = fill()
    per_quantiles = _best_of(
        lambda: (histogram.quantile(0.5), histogram.quantile(0.95),
                 histogram.quantile(0.99)),
        inner=200,
    )
    return {
        "observations": n,
        "observe_ns": round(per_fill / n * 1e9, 1),
        "quantile_readout_us": round(per_quantiles * 1e6, 3),
        "buckets": len(histogram.counts),
    }


def bench_prometheus_render(n_collectors: int = 8, n_metrics: int = 16) -> dict:
    """Full hub -> Prometheus text exposition for a mid-sized registry."""
    from repro.sim.metrics import MetricsCollector
    from repro.telemetry.hub import TelemetryHub

    hub = TelemetryHub()
    for c in range(n_collectors):
        collector = MetricsCollector()
        for m in range(n_metrics):
            collector.increment(f"counter_{m}", m + 1)
            collector.set_gauge(f"gauge_{m}", m * 0.5)
            collector.sample(f"series_{m}", float(m), float(m))
            collector.observe(f"hist_{m}", 0.001 * (m + 1))
        hub.register_collector(f"c{c}", collector)

    per_render = _best_of(hub.render_prometheus, inner=20)
    lines = len(hub.render_prometheus().splitlines())
    return {
        "collectors": n_collectors,
        "metrics_per_collector": n_metrics,
        "render_ms": round(per_render * 1e3, 3),
        "exposition_lines": lines,
    }


# --------------------------------------------------------------------------
# thresholds for --check (generous: catch regressions, not machine noise)
# --------------------------------------------------------------------------

CHECKS = (
    ("stream_xor", "speedup_vs_reference", 3.0),
    # 1.0 rather than 1.2: single-vCPU CI hosts jitter the short AEAD batch
    # by tens of percent; at parity-with-reference the subkey cache is gone
    ("aead_record", "speedup_vs_reference", 1.0),
    ("interference", "speedup_vs_reference", 0.8),
)


# span layer must stay under 5 % of traced-run wall clock (the budget
# documented in docs/observability.md); generous for single-vCPU jitter
OBS_OVERHEAD_CEILING_PCT = 5.0


def run_checks(micro: dict) -> list:
    failures = []
    for bench, key, floor in CHECKS:
        value = micro.get(bench, {}).get(key)
        if value is None or value < floor:
            failures.append(f"{bench}.{key} = {value} below floor {floor}")
    return failures


def run_obs_checks(obs: dict) -> list:
    failures = []
    value = obs.get("span_overhead", {}).get("overhead_pct")
    if value is None or value >= OBS_OVERHEAD_CEILING_PCT:
        failures.append(
            f"span_overhead.overhead_pct = {value} at or above ceiling "
            f"{OBS_OVERHEAD_CEILING_PCT}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="result file (default BENCH_PR2.json, or "
                             "BENCH_PR8.json with --obs)")
    parser.add_argument("--record", choices=("baseline", "current"),
                        default="current",
                        help="key to write the measurements under")
    parser.add_argument("--check", action="store_true",
                        help="fail on crypto/medium throughput regressions")
    parser.add_argument("--obs", action="store_true",
                        help="run the observability-plane benches (span "
                             "overhead, histogram, Prometheus render) instead "
                             "of the comms hot paths")
    parser.add_argument("--skip-macro", action="store_true",
                        help="skip the fig1 worksite wall-clock bench")
    parser.add_argument("--macro-horizon", type=float, default=300.0,
                        help="simulated seconds for the macro bench")
    parser.add_argument("--macro-repeats", type=int, default=3,
                        help="macro bench repetitions (best-of)")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = "BENCH_PR8.json" if args.obs else "BENCH_PR2.json"

    if args.obs:
        print("benchmarking observability plane ...", flush=True)
        obs = {
            "span_overhead": bench_span_overhead(
                args.macro_horizon if args.macro_horizon != 300.0 else 120.0,
                # best-of-5 floor: the delta is a few ms, so jitter on
                # shared CI hosts needs more samples than the macro bench
                repeats=max(args.macro_repeats, 5),
            ),
            "histogram": bench_histogram_observe(),
            "prometheus_render": bench_prometheus_render(),
        }
        for name, result in obs.items():
            print(f"  {name}: {json.dumps(result)}")
        out = Path(args.out)
        payload = json.loads(out.read_text()) if out.exists() else {}
        payload[args.record] = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "obs": obs,
        }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.record!r} record to {out}")
        if args.check:
            failures = run_obs_checks(obs)
            if failures:
                for failure in failures:
                    print(f"REGRESSION: {failure}", file=sys.stderr)
                return 1
            print("span overhead within budget")
        return 0

    print("benchmarking micro hot paths ...", flush=True)
    micro = {
        "stream_xor": bench_stream_xor(),
        "aead_record": bench_aead_record(),
        "interference": bench_interference(),
        "canopy": bench_canopy(),
    }
    for name, result in micro.items():
        print(f"  {name}: {json.dumps(result)}")

    macro = {}
    if not args.skip_macro:
        print("benchmarking fig1 worksite macro ...", flush=True)
        macro["fig1_worksite"] = bench_fig1_worksite(
            args.macro_horizon, repeats=args.macro_repeats
        )
        print(f"  fig1_worksite: {json.dumps(macro['fig1_worksite'])}")

    out = Path(args.out)
    payload = json.loads(out.read_text()) if out.exists() else {}
    payload[args.record] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "micro": micro,
        "macro": macro,
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.record!r} record to {out}")

    if args.check:
        failures = run_checks(micro)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("all throughput floors met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
