"""Count gate: the deterministic work one fig1 run does.

Wall-clock floors jitter by tens of percent on shared CI hosts; the work a
run does does not.  This module runs the Figure 1 worksite (seed 11, 300 s)
with :mod:`repro.perf` armed and pins the exact event, frame and cache
counts.  A count that moves means the simulator now does different work
(or a memo stopped hitting) on every machine, so the pinned values change
only together with a deliberate, explained change to the hot path.

A counter that never fires on this run is absent from the snapshot and
pinned as 0.

The candidate-tree totals are summed over every corridor the trunk and
canopy sweeps iterate (``World._corridor``, wrapped from here so the hot
path carries no counter).  The whole-bounding-box scan they replaced
iterated 18 266 trunk and 44 308 canopy candidates on this run.

Crypto work is counted the same way: ``primitives.stream_xor`` and
``primitives.hmac_sha256`` are wrapped from here, and the keystream LRU is
cleared before the build and read after the run.  Every sealed and opened
AEAD record costs one ``stream_xor`` and one MAC; the handshake's HKDF
expansions add the remaining MACs.
"""

import pytest

from repro.comms.crypto import primitives
from repro.perf import counters
from repro.scenarios.worksite import ScenarioConfig, build_worksite
from repro.sim.world import World

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

# (queries, candidate trees iterated) per sweep
EXPECTED_CANDIDATES = {
    "trunk_radius": (2426, 10980),
    "canopy_radius": (4099, 27106),
}


EXPECTED_CRYPTO = {
    "stream_xor_calls": 3000,
    "keystream_blocks": 26098,
    "mac_calls": 3042,
    "keystream_cache_hits": 1500,
    "keystream_cache_misses": 1500,
}


@pytest.fixture(scope="module")
def fig1_counts():
    candidates = {kind: (0, 0) for kind in EXPECTED_CANDIDATES}
    crypto = dict.fromkeys(EXPECTED_CRYPTO, 0)
    corridor = World._corridor
    stream_xor = primitives.stream_xor
    hmac_sha256 = primitives.hmac_sha256

    def counting_corridor(self, ax, ay, bx, by, index):
        found = corridor(self, ax, ay, bx, by, index)
        queries, trees = candidates[index.radius]
        candidates[index.radius] = (queries + 1, trees + len(found))
        return found

    def counting_stream_xor(key, nonce, data):
        crypto["stream_xor_calls"] += 1
        crypto["keystream_blocks"] += (len(data) + 31) // 32
        return stream_xor(key, nonce, data)

    def counting_hmac_sha256(key, data):
        crypto["mac_calls"] += 1
        return hmac_sha256(key, data)

    was_active = counters.ACTIVE
    counters.reset()
    counters.enable(True)
    primitives._cached_keystream.cache_clear()
    World._corridor = counting_corridor
    primitives.stream_xor = counting_stream_xor
    primitives.hmac_sha256 = counting_hmac_sha256
    try:
        scenario = build_worksite(ScenarioConfig(seed=SEED))
        scenario.run(HORIZON_S)
        snapshot = counters.snapshot()["counters"]
        cache = primitives._cached_keystream.cache_info()
    finally:
        World._corridor = corridor
        primitives.stream_xor = stream_xor
        primitives.hmac_sha256 = hmac_sha256
        counters.enable(was_active)
        counters.reset()
    crypto["keystream_cache_hits"] = cache.hits
    crypto["keystream_cache_misses"] = cache.misses
    run = {
        "sim.events_processed": scenario.sim.events_processed,
        "medium.frames_sent": scenario.medium.frames_sent,
        "medium.frames_delivered": scenario.medium.frames_delivered,
    }
    return run, snapshot, candidates, crypto


def test_run_totals_are_unchanged(fig1_counts):
    run, _, _, _ = fig1_counts
    assert run == EXPECTED_RUN


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTERS))
def test_perf_counter_is_unchanged(fig1_counts, name):
    _, snapshot, _, _ = fig1_counts
    assert snapshot.get(name, 0) == EXPECTED_COUNTERS[name]


@pytest.mark.parametrize("kind", sorted(EXPECTED_CANDIDATES))
def test_candidate_trees_are_unchanged(fig1_counts, kind):
    _, _, candidates, _ = fig1_counts
    assert candidates[kind] == EXPECTED_CANDIDATES[kind]


@pytest.mark.parametrize("name", sorted(EXPECTED_CRYPTO))
def test_crypto_work_is_unchanged(fig1_counts, name):
    _, _, _, crypto = fig1_counts
    assert crypto[name] == EXPECTED_CRYPTO[name]
