"""Count gate: the deterministic work one fig1 run does.

Wall-clock floors jitter by tens of percent on shared CI hosts; the work a
run does does not.  This module runs the Figure 1 worksite (seed 11, 300 s)
with :mod:`repro.perf` armed and pins the exact event, frame and cache
counts.  A count that moves means the simulator now does different work
(or a memo stopped hitting) on every machine, so the pinned values change
only together with a deliberate, explained change to the hot path.

A counter that never fires on this run is absent from the snapshot and
pinned as 0.
"""

import pytest

from repro.perf import counters
from repro.scenarios.worksite import ScenarioConfig, build_worksite

SEED = 11
HORIZON_S = 300.0

EXPECTED_RUN = {
    "sim.events_processed": 10983,
    "medium.frames_sent": 3000,
    "medium.frames_delivered": 3000,
}

EXPECTED_COUNTERS = {
    "world.canopy_cache_hit": 2501,
    "world.canopy_cache_miss": 4099,
    "terrain.los_quick_reject": 3600,
    "medium.interference_queries": 3000,
    "medium.component_cache_hit": 0,
    "medium.component_cache_miss": 0,
}


@pytest.fixture(scope="module")
def fig1_counts():
    was_active = counters.ACTIVE
    counters.reset()
    counters.enable(True)
    try:
        scenario = build_worksite(ScenarioConfig(seed=SEED))
        scenario.run(HORIZON_S)
        snapshot = counters.snapshot()["counters"]
    finally:
        counters.enable(was_active)
        counters.reset()
    run = {
        "sim.events_processed": scenario.sim.events_processed,
        "medium.frames_sent": scenario.medium.frames_sent,
        "medium.frames_delivered": scenario.medium.frames_delivered,
    }
    return run, snapshot


def test_run_totals_are_unchanged(fig1_counts):
    run, _ = fig1_counts
    assert run == EXPECTED_RUN


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTERS))
def test_perf_counter_is_unchanged(fig1_counts, name):
    _, snapshot = fig1_counts
    assert snapshot.get(name, 0) == EXPECTED_COUNTERS[name]
