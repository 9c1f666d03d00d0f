"""Tests for the env-gated perf-counter layer and its instrumentation."""

import pytest

from repro.comms.link import LinkEndpoint
from repro.comms.medium import WirelessMedium
from repro.perf import counters
from repro.sim.geometry import Vec2
from repro.sim.terrain import Terrain
from repro.sim.world import Tree, World


@pytest.fixture(autouse=True)
def clean_counters():
    """Each test starts disabled and empty, and leaves no residue."""
    was_active = counters.ACTIVE
    counters.enable(False)
    counters.reset()
    yield
    counters.enable(was_active)
    counters.reset()


class TestCounterPrimitives:
    def test_disabled_by_default_in_tests(self):
        assert not counters.enabled()

    def test_enable_toggle(self):
        counters.enable(True)
        assert counters.enabled()
        counters.enable(False)
        assert not counters.enabled()

    def test_incr_accumulates(self):
        counters.incr("x")
        counters.incr("x", 4)
        assert counters.snapshot()["counters"] == {"x": 5}

    def test_reset_clears(self):
        counters.incr("x")
        with counters.timed("t"):
            pass
        counters.reset()
        snap = counters.snapshot()
        assert snap["counters"] == {}
        assert snap["timers"] == {}

    def test_timed_noop_when_disabled(self):
        with counters.timed("t"):
            pass
        assert counters.snapshot()["timers"] == {}

    def test_timed_records_when_enabled(self):
        counters.enable(True)
        with counters.timed("t"):
            pass
        with counters.timed("t"):
            pass
        entry = counters.snapshot()["timers"]["t"]
        assert entry["calls"] == 2
        assert entry["total_s"] >= 0.0

    def test_timed_records_on_exception(self):
        counters.enable(True)
        with pytest.raises(RuntimeError):
            with counters.timed("t"):
                raise RuntimeError("boom")
        assert counters.snapshot()["timers"]["t"]["calls"] == 1

    def test_snapshot_includes_keystream_cache(self):
        cache = counters.snapshot()["keystream_cache"]
        assert set(cache) == {"hits", "misses", "size"}

    def test_report_is_printable(self):
        counters.enable(True)
        counters.incr("medium.frames_tx", 3)
        with counters.timed("t"):
            pass
        text = counters.report()
        assert "medium.frames_tx" in text
        assert "crypto.keystream_cache" in text
        assert "canopy.memo_hit_rate" not in text

    def test_report_includes_canopy_memo_hit_rate(self):
        counters.enable(True)
        counters.incr("world.canopy_cache_hit", 1)
        counters.incr("world.canopy_cache_miss", 3)
        line = next(
            line for line in counters.report().splitlines()
            if line.startswith("canopy.memo_hit_rate")
        )
        assert line.split()[-1] == "0.250"


class TestInstrumentation:
    def test_canopy_cache_hit_miss_counters(self):
        counters.enable(True)
        world = World(
            Terrain(100.0, 100.0),
            trees=[Tree(position=Vec2(50.0, 50.0))],
        )
        a, b = Vec2(0.0, 50.0), Vec2(100.0, 50.0)
        world.canopy_blockage(a, b)
        world.canopy_blockage(a, b)
        snap = counters.snapshot()["counters"]
        assert snap["world.canopy_cache_miss"] == 1
        assert snap["world.canopy_cache_hit"] == 1

    def test_medium_frame_counters(self, sim, log, streams):
        counters.enable(True)
        medium = WirelessMedium(sim, log, streams)
        a = LinkEndpoint("a", lambda: Vec2(0, 0), medium, sim, log)
        LinkEndpoint("b", lambda: Vec2(10, 0), medium, sim, log)
        a.send("b", b"hello", reliable=False)
        sim.run_until(1.0)
        snap = counters.snapshot()["counters"]
        assert snap["medium.frames_tx"] >= 1
        assert snap["medium.bytes_tx"] >= 5
        assert snap["medium.interference_queries"] >= 1

    def test_disabled_instrumentation_records_nothing(self):
        world = World(Terrain(100.0, 100.0))
        world.canopy_blockage(Vec2(0.0, 0.0), Vec2(10.0, 10.0))
        assert counters.snapshot()["counters"] == {}

    def test_enabling_counters_does_not_change_results(self):
        world = World(
            Terrain(100.0, 100.0),
            trees=[Tree(position=Vec2(50.0, 50.0), canopy_radius=3.0)],
        )
        a, b = Vec2(0.0, 50.0), Vec2(100.0, 50.0)
        plain = world.canopy_blockage(a, b)
        world._canopy_cache.clear()
        counters.enable(True)
        assert world.canopy_blockage(a, b) == plain
