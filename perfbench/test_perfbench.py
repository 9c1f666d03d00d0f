"""Tests of the benchmark's own machinery (run: python3 -m pytest perfbench)."""

import json
from pathlib import Path

import pytest

import layers
import run
from tracing import Patched, Probe, SpanRecorder, resolve
from workloads import Expected, Tally, scenario_seeds


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_nested_and_reentrant_children():
    # root 0..10
    #   sight_line 1..5
    #     canopy 2..3
    #   sight_line 6..9
    #     sight_line 7..8   (re-entrant: same layer inside itself)
    rec = SpanRecorder(clock=FakeClock(0, 1, 2, 3, 5, 6, 7, 8, 9, 10))
    root = rec.open("root")
    a = rec.open("sensors.sight_line")
    c = rec.open("sim.world.canopy")
    rec.close(c)
    rec.close(a)
    b = rec.open("sensors.sight_line")
    inner = rec.open("sensors.sight_line")
    rec.close(inner)
    rec.close(b)
    rec.close(root)
    times = rec.self_times()
    assert times["root"] == (3.0, 1)
    assert times["sensors.sight_line"] == (3.0 + 2.0 + 1.0, 3)
    assert times["sim.world.canopy"] == (1.0, 1)
    assert sum(s for s, _ in times.values()) == rec.wall("root") == 10.0


class Channel:
    """Stand-in with a batch method that falls back to the single one."""

    def __init__(self):
        self.sealed = 0

    def seal(self, item):
        self.sealed += 1
        return item

    def seal_batch(self, items):
        return [self.seal(item) for item in items]

    def helper(self):
        return self.seal("x")


def _channel_probes():
    sealed = ("records", lambda channel: channel.sealed)
    return [
        Probe(f"{__name__}:Channel.seal", "crypto.seal", delta=sealed),
        Probe(f"{__name__}:Channel.seal_batch", "crypto.seal", delta=sealed),
        Probe(f"{__name__}:Channel.helper", tally=("helper_calls", lambda *a: 1)),
    ]


def test_reentrant_calls_are_timed_but_counted_once():
    rec = SpanRecorder()
    with Patched(_channel_probes(), rec):
        channel = Channel()
        with rec.span("root"):
            channel.seal_batch(["a", "b", "c"])
            channel.seal("d")
            channel.helper()
    times = rec.self_times()
    # 1 batch + 3 nested seals + 1 direct + 1 via helper
    assert times["crypto.seal"][1] == 6
    assert rec.counts["records"] == 5
    assert rec.counts["helper_calls"] == 1
    total = sum(s for s, _ in times.values())
    assert total == pytest.approx(rec.wall("root"))


def test_tally_counts_failures_and_mismatches():
    lines = []
    tally = Tally(lines.append)
    tally.op(True, "run 1")
    tally.op(False, "run 2")
    tally.ops(8, 1, "iterations")
    tally.check(True, "digest")
    tally.check(False, "digest")
    assert (tally.attempted, tally.failed) == (10, 3)
    assert tally.failed_frac == pytest.approx(0.3)
    assert len(lines) == 3
    assert Tally().failed_frac == 0.0
    # a check can never push the fraction past 1
    only = Tally()
    only.op(False, "run")
    only.check(False, "digest")
    assert only.failed_frac == 1.0


def test_expected_records_first_then_requires_a_match(tmp_path):
    path = tmp_path / "expected.json"
    assert Expected(path).match("k", {"events": 3})
    assert Expected(path).match("k", {"events": 3})
    assert not Expected(path).match("k", {"events": 4})
    assert json.loads(path.read_text())["k"] == {"events": 3}


def test_scenario_seeds_keep_the_seed_and_extend_deterministically():
    seeds = scenario_seeds(11, 4)
    assert seeds[0] == 11 and len(set(seeds)) == 4
    assert scenario_seeds(11, 2) == seeds[:2]
    assert scenario_seeds(12, 4) != seeds


def test_traced_run_leaves_no_wrapper_installed():
    from repro.scenarios.worksite import ScenarioConfig, build_worksite
    from repro.sim.world import World

    probes = layers.sim_probes() + layers.fuzz_probes() + layers.runner_probes()

    def installed():
        return {p.target: vars(owner)[attr]
                for p, (owner, attr) in zip(probes, (resolve(p.target) for p in probes))}

    before = installed()
    rec = SpanRecorder()
    with pytest.raises(RuntimeError):
        with Patched(probes, rec):
            assert World.canopy_blockage is not before["repro.sim.world:World.canopy_blockage"]
            build_worksite(ScenarioConfig(seed=3)).run(2.0)
            raise RuntimeError("traced phase fails")
    assert all(installed()[target] is fn for target, fn in before.items())
    assert len(rec) > 0
    # a scenario built after the traced phase binds the original method
    scenario = build_worksite(ScenarioConfig(seed=3))
    assert scenario.medium.canopy_fn.__func__ is World.canopy_blockage
    spans = len(rec)
    scenario.run(2.0)
    assert len(rec) == spans


def test_per_layer_metrics_cover_exactly_the_layer_table():
    rec = SpanRecorder()
    with rec.span("bench.work"):
        with rec.span("sim.dispatch"):
            pass
    metrics = layers.per_layer_metrics(
        rec, root="bench.work", extra={"setup.import_s": 0.5},
        perf_counters={"world.canopy_cache_hit": 3, "world.canopy_cache_miss": 1,
                       "medium.interference_queries": 4},
    )
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["sim.world.canopy_hit_ratio"] == 0.75
    assert metrics["comms.medium.query_hit_ratio"] == 0.0
    # a ratio whose counters are gone is left out, not reported as 0
    without = layers.per_layer_metrics(
        rec, root="bench.work", extra={}, perf_counters={})
    assert "sim.world.canopy_hit_ratio" not in without


def test_benchmark_json_names_every_metric_run_py_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == layers.PER_LAYER
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
