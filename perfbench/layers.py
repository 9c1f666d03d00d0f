"""The layer table: which calls are timed, and the per-layer metrics.

Each probe names the public function a layer is entered through, under the
span name its self time is reported as.  ``per_layer_metrics`` turns one
traced phase into the flat metric set ``BENCHMARK.json`` lists; a layer a
workload does not exercise reports 0 calls and 0 s.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from tracing import Probe, SpanRecorder, public_methods

#: span name -> per-layer time metric
TIME_METRICS = {
    "setup.forest": "setup.forest_s",
    "setup.handshake": "setup.handshake_s",
    "setup.build": "setup.build_s",
    "sim.dispatch": "sim.dispatch_self_s",
    "sim.world.trunk": "sim.world.trunk_s",
    "sim.world.canopy": "sim.world.canopy_s",
    "sim.world.terrain": "sim.world.terrain_s",
    "sensors.sight_line": "sensors.sight_line_s",
    "sensors.detect": "sensors.detect_s",
    "sensors.fusion": "sensors.fusion_s",
    "comms.medium.transmit": "comms.medium.transmit_s",
    "comms.medium.interference": "comms.medium.interference_s",
    "comms.crypto.seal": "comms.crypto.seal_s",
    "comms.crypto.open": "comms.crypto.open_s",
    "comms.link.send": "comms.link.send_s",
    "comms.link.receive": "comms.link.receive_s",
    "comms.network.send": "comms.network.send_s",
    "attacks.build": "attacks.build_s",
    "groundstation.issue": "groundstation.issue_s",
    "groundstation.audit_append": "groundstation.audit_append_s",
    "telemetry.tracer": "telemetry.tracer_s",
    "invariants.check": "invariants.check_s",
    "fuzz.evaluate": "fuzz.evaluate_s",
    "fuzz.digest": "fuzz.digest_s",
    "fuzz.signatures": "fuzz.signatures_s",
    "fuzz.generate": "fuzz.generate_s",
    "fuzz.corpus": "fuzz.corpus_s",
    "runner.store": "runner.store_s",
}

#: span name -> per-layer call-count metric
CALL_METRICS = {
    "sim.world.trunk": "sim.world.trunk_calls",
    "sim.world.canopy": "sim.world.canopy_calls",
    "sim.world.terrain": "sim.world.terrain_calls",
    "sensors.sight_line": "sensors.sight_lines",
    "sensors.detect": "sensors.frames",
    "comms.medium.transmit": "comms.medium.frames_sent",
    "groundstation.audit_append": "groundstation.audit_entries",
}

#: recorder counter -> per-layer count metric
COUNT_METRICS = {
    "sim.events": "sim.events",
    "comms.crypto.records": "comms.crypto.records",
    "comms.network.messages": "comms.network.messages",
    "defense.alerts": "defense.alerts",
    "telemetry.records": "telemetry.records",
    "invariants.records_checked": "invariants.records_checked",
}

#: every per-layer metric: name -> (unit, better)
PER_LAYER: Dict[str, tuple] = {"setup.import_s": ("s", "lower")}
PER_LAYER.update({m: ("s", "lower") for m in TIME_METRICS.values()})
PER_LAYER.update({m: ("count", "lower") for m in CALL_METRICS.values()})
PER_LAYER.update({m: ("count", "lower") for m in COUNT_METRICS.values()})
PER_LAYER.update({
    "sim.world.canopy_hit_ratio": ("ratio", "higher"),
    "comms.medium.delivery_ratio": ("ratio", "higher"),
    "comms.medium.query_hit_ratio": ("ratio", "higher"),
    "groundstation.rejected_ratio": ("ratio", "higher"),
    "fuzz.signatures_found": ("count", "higher"),
    "runner.cell_s": ("s", "lower"),
    "runner.dispatch_wait_s": ("s", "lower"),
    "runner.attempts_per_cell": ("ratio", "lower"),
    "bench.traced_work_s": ("s", "lower"),
    "bench.unattributed_pct": ("%", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
})

#: ``repro.perf`` counters behind the hit ratios: metric -> (hits, misses
#: or None, total or None); a ratio whose counters are gone is left out
PERF_RATIOS = {
    "sim.world.canopy_hit_ratio": (
        "world.canopy_cache_hit", "world.canopy_cache_miss", None),
    "comms.medium.query_hit_ratio": (
        "medium.query_cache_hit", None, "medium.interference_queries"),
}


def sim_probes() -> List[Probe]:
    """Probes for one worksite run: build, event loop, world, sensors,
    comms, attacks, defences, ground station and telemetry."""
    crypto = "repro.comms.crypto.secure_channel:SecureChannel"
    seal = ("comms.crypto.records", lambda channel: channel.records_sealed)
    opened = ("comms.crypto.records", lambda channel: channel.records_opened)
    messages = ("comms.network.messages", lambda node: node.messages_sent)
    probes = [
        # build_worksite binds world.canopy_blockage into the medium, so
        # these must be in place before any scenario is built
        Probe("repro.scenarios.worksite:build_worksite", "setup.build"),
        Probe("repro.scenarios.factory:build_worksite", "setup.build"),
        Probe("repro.scenarios.worksite:generate_forest", "setup.forest"),
        Probe("repro.comms.network:Network.establish_all", "setup.handshake"),
        Probe("repro.scenarios.factory:build_campaign", "attacks.build"),
        Probe("repro.sim.engine:Simulator.run_until", "sim.dispatch",
              delta=("sim.events", lambda sim: sim.events_processed)),
        Probe("repro.sim.world:World.trunk_blocks", "sim.world.trunk"),
        Probe("repro.sim.world:World.canopy_blockage", "sim.world.canopy"),
        Probe("repro.sim.world:World.terrain_blocks", "sim.world.terrain"),
        Probe("repro.sensors.occlusion:OcclusionModel.sight_line",
              "sensors.sight_line"),
        Probe("repro.sensors.detection:PeopleDetector.process_frame",
              "sensors.detect"),
        Probe("repro.sensors.fusion:TrackFusion.update", "sensors.fusion"),
        Probe("repro.comms.medium:WirelessMedium.transmit",
              "comms.medium.transmit",
              delta=("comms.medium.delivered",
                     lambda medium: medium.frames_delivered)),
        Probe("repro.comms.medium:WirelessMedium.interference_at",
              "comms.medium.interference"),
        Probe(f"{crypto}.seal", "comms.crypto.seal", delta=seal),
        Probe(f"{crypto}.seal_batch", "comms.crypto.seal", delta=seal),
        Probe(f"{crypto}.open", "comms.crypto.open", delta=opened),
        Probe(f"{crypto}.open_batch", "comms.crypto.open", delta=opened),
        Probe("repro.comms.link:LinkEndpoint.send", "comms.link.send"),
        Probe("repro.comms.link:LinkEndpoint.receive_raw",
              "comms.link.receive"),
        Probe("repro.comms.network:CommNode.send", "comms.network.send",
              delta=messages),
        Probe("repro.comms.network:CommNode.send_many", "comms.network.send",
              delta=messages),
        Probe("repro.defense.ids.base:IntrusionDetector.raise_alert",
              tally=("defense.alerts", lambda *a, **k: 1)),
        Probe("repro.groundstation.station:Operator.issue",
              "groundstation.issue"),
        Probe("repro.groundstation.audit:AuditLog.append",
              "groundstation.audit_append"),
    ]
    records = ("telemetry.records", lambda tracer: tracer.record_count)
    probes += [
        Probe(target, "telemetry.tracer", delta=records)
        for target in public_methods("repro.telemetry.tracer:Tracer")
    ]
    return probes


def fuzz_probes() -> List[Probe]:
    """Probes for the fuzz search loop around each evaluated spec."""
    probes = [
        Probe("repro.fuzz.search:evaluate_spec", "fuzz.evaluate"),
        Probe("repro.fuzz.shrink:evaluate_spec", "fuzz.evaluate"),
        Probe("repro.fuzz.evaluate:trace_digest", "fuzz.digest"),
        Probe("repro.fuzz.evaluate:signatures_from_records",
              "fuzz.signatures"),
        Probe("repro.invariants.engine:InvariantEngine.check",
              "invariants.check",
              delta=("invariants.records_checked",
                     lambda engine: engine.record_count)),
        Probe("repro.fuzz.generator:ScenarioGenerator.sample",
              "fuzz.generate"),
        Probe("repro.fuzz.generator:ScenarioGenerator.mutate",
              "fuzz.generate"),
    ]
    probes += [
        Probe(target, "fuzz.corpus")
        for target in public_methods("repro.fuzz.corpus:Corpus")
    ]
    return probes


def runner_probes() -> List[Probe]:
    """Probes on the sweep parent: the campaign store it writes through."""
    return [
        Probe(target, "runner.store")
        for target in public_methods("repro.runner.campaign:CampaignBinding")
    ]


def perf_ratios(counters: Optional[Mapping[str, int]]) -> Dict[str, float]:
    """Hit ratios from a ``repro.perf`` counter snapshot.

    A ratio whose counters never fired reads 0.0; a ratio is left out
    altogether when ``counters`` is ``None`` (``repro.perf`` is gone) or
    none of its counters appear (the cache behind it was removed).
    """
    out: Dict[str, float] = {}
    if counters is None:
        return out
    for metric, (hits, misses, total) in PERF_RATIOS.items():
        names = [hits, misses, total]
        if not any(name in counters for name in names if name):
            continue
        n_hits = counters.get(hits, 0)
        base = (n_hits + counters.get(misses, 0)) if misses else counters.get(total, 0)
        out[metric] = n_hits / base if base else 0.0
    return out


def per_layer_metrics(
    recorder: SpanRecorder,
    *,
    root: str,
    extra: Mapping[str, float],
    perf_counters: Optional[Mapping[str, int]],
) -> Dict[str, float]:
    """Every per-layer metric of one traced phase.

    ``root`` is the span around the whole traced work phase; its own self
    time is the part no probe accounts for (``bench.unattributed_pct``).
    ``extra`` supplies the metrics measured outside the spans (import
    time, runner accounting, overhead, ratios from program results).
    """
    times = recorder.self_times()
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for span, metric in TIME_METRICS.items():
        metrics[metric] = times.get(span, (0.0, 0))[0]
    for span, metric in CALL_METRICS.items():
        metrics[metric] = times.get(span, (0.0, 0))[1]
    for counter, metric in COUNT_METRICS.items():
        metrics[metric] = recorder.counts.get(counter, 0)
    frames = metrics["comms.medium.frames_sent"]
    delivered = recorder.counts.get("comms.medium.delivered", 0)
    metrics["comms.medium.delivery_ratio"] = delivered / frames if frames else 0.0
    for ratio in PERF_RATIOS:
        del metrics[ratio]
    metrics.update(perf_ratios(perf_counters))
    wall = recorder.wall(root)
    metrics["bench.traced_work_s"] = wall
    unattributed = times.get(root, (0.0, 0))[0]
    metrics["bench.unattributed_pct"] = 100.0 * unattributed / wall if wall else 0.0
    metrics.update(extra)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics not in the layer table: {sorted(unknown)}")
    return metrics
