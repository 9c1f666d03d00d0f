"""Golden-equivalence properties for the batched kernels and sweep memos.

Batched AEAD sealing, the terrain line-of-sight quick reject and the
cell-rectangle candidate memos of the canopy and trunk sweeps must be
**bit-identical** to their plain counterparts.  The simulator's determinism
contract is byte-identical replay, so these tests compare with exact ``==``
on floats and bytes, and finish by digesting a whole worksite run twice.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from repro.comms.crypto.secure_channel import (
    Record,
    SecureChannel,
    SecurityProfile,
)
from repro.scenarios.worksite import ScenarioConfig, build_worksite
from repro.sim.geometry import Vec2
from repro.sim.terrain import Ridge, Terrain
from repro.sim.world import Tree, World

keys = st.binary(min_size=32, max_size=32)
payloads = st.binary(min_size=0, max_size=400)
aads = st.binary(min_size=0, max_size=32)
coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)


# --------------------------------------------------------------------------
# 1. batched AEAD sealing
# --------------------------------------------------------------------------

def channel_pair(send_key, recv_key, profile):
    alice = SecureChannel("a", "b", send_key, recv_key, profile)
    bob = SecureChannel("b", "a", recv_key, send_key, profile)
    return alice, bob


class TestAeadBatchEquivalence:
    @given(send_key=keys, recv_key=keys, aad=aads,
           plaintexts=st.lists(payloads, min_size=0, max_size=10))
    def test_seal_batch_matches_sequential(self, send_key, recv_key, aad,
                                           plaintexts):
        batch_chan, _ = channel_pair(send_key, recv_key, SecurityProfile.AEAD)
        seq_chan, _ = channel_pair(send_key, recv_key, SecurityProfile.AEAD)
        batch = batch_chan.seal_batch(plaintexts, aad)
        sequential = [seq_chan.seal(p, aad) for p in plaintexts]
        assert [(r.seq, r.body, r.profile) for r in batch] == [
            (r.seq, r.body, r.profile) for r in sequential
        ]
        assert batch_chan._send_seq == seq_chan._send_seq
        assert batch_chan.records_sealed == seq_chan.records_sealed

    @given(send_key=keys, recv_key=keys, aad=aads,
           plaintexts=st.lists(payloads, min_size=1, max_size=10))
    def test_open_batch_roundtrip(self, send_key, recv_key, aad, plaintexts):
        alice, bob = channel_pair(send_key, recv_key, SecurityProfile.AEAD)
        records = alice.seal_batch(plaintexts, aad)
        assert bob.open_batch(records, aad) == list(plaintexts)
        assert bob.records_opened == len(plaintexts)
        assert bob.records_rejected == 0

    @given(send_key=keys, recv_key=keys, aad=aads,
           plaintexts=st.lists(payloads, min_size=0, max_size=6),
           profile=st.sampled_from([SecurityProfile.PLAINTEXT,
                                    SecurityProfile.INTEGRITY]))
    def test_non_aead_profiles_fall_back(self, send_key, recv_key, aad,
                                         plaintexts, profile):
        batch_chan, _ = channel_pair(send_key, recv_key, profile)
        seq_chan, _ = channel_pair(send_key, recv_key, profile)
        batch = batch_chan.seal_batch(plaintexts, aad)
        sequential = [seq_chan.seal(p, aad) for p in plaintexts]
        assert [(r.seq, r.body) for r in batch] == [
            (r.seq, r.body) for r in sequential
        ]

    @given(send_key=keys, recv_key=keys,
           head=payloads, middle=st.lists(payloads, min_size=1, max_size=5),
           tail=payloads)
    def test_interleaved_seal_and_batch_keep_sequence(self, send_key,
                                                      recv_key, head, middle,
                                                      tail):
        # seal → seal_batch → seal must be indistinguishable from sealing
        # the same plaintexts one at a time
        mixed, _ = channel_pair(send_key, recv_key, SecurityProfile.AEAD)
        plain, bob = channel_pair(send_key, recv_key, SecurityProfile.AEAD)
        produced = [mixed.seal(head)]
        produced.extend(mixed.seal_batch(middle))
        produced.append(mixed.seal(tail))
        expected = [plain.seal(p) for p in [head, *middle, tail]]
        assert [(r.seq, r.body) for r in produced] == [
            (r.seq, r.body) for r in expected
        ]
        assert [r.seq for r in produced] == list(range(1, len(produced) + 1))
        for record, plaintext in zip(produced, [head, *middle, tail]):
            assert bob.open(record) == plaintext

    def test_tampered_batch_record_fails_like_sequential_open(self):
        alice, bob = channel_pair(b"\x01" * 32, b"\x02" * 32,
                                  SecurityProfile.AEAD)
        records = alice.seal_batch([b"ok-1", b"ok-2", b"ok-3"])
        bad = Record(seq=records[1].seq,
                     body=records[1].body[:-1] + b"\x00",
                     profile=records[1].profile)
        from repro.comms.crypto.secure_channel import ChannelError
        with pytest.raises(ChannelError):
            bob.open_batch([records[0], bad, records[2]])
        # first record was accepted before the failure, third never reached
        assert bob.records_opened == 1
        assert bob.records_rejected == 1


# --------------------------------------------------------------------------
# 2. terrain line of sight
# --------------------------------------------------------------------------

ridge_strategy = st.lists(
    st.tuples(coords, coords,
              st.floats(min_value=0.5, max_value=12.0, allow_nan=False),
              st.floats(min_value=2.0, max_value=25.0, allow_nan=False)),
    min_size=0, max_size=6,
)


def ref_height(terrain: Terrain, p: Vec2) -> float:
    """Direct ridge-sum elevation (no memo), mirroring ``height_at``."""
    total = 0.0
    for cx, cy, h, two_sigma_sq in terrain._ridge_params:
        dx = p.x - cx
        dy = p.y - cy
        total += h * math.exp(-(dx * dx + dy * dy) / two_sigma_sq)
    return terrain.base_height + total


def ref_blocks_los(terrain: Terrain, observer: Vec2, observer_height: float,
                   target: Vec2, target_height: float,
                   samples: int = 32) -> bool:
    """Plain sampled sweep — the pre-optimisation scalar loop, no quick
    reject, no caches."""
    z0 = ref_height(terrain, observer) + observer_height
    z1 = ref_height(terrain, target) + target_height
    ox, oy = observer.x, observer.y
    span_x = target.x - ox
    span_y = target.y - oy
    for i in range(1, samples):
        t = i / samples
        px = ox + span_x * t
        py = oy + span_y * t
        line_z = z0 + (z1 - z0) * t
        total = 0.0
        for cx, cy, h, two_sigma_sq in terrain._ridge_params:
            dx = px - cx
            dy = py - cy
            total += h * math.exp(-(dx * dx + dy * dy) / two_sigma_sq)
        if terrain.base_height + total > line_z:
            return True
    return False


class TestTerrainLosEquivalence:
    @given(ridges=ridge_strategy, ox=coords, oy=coords, tx=coords, ty=coords,
           oh=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
           th=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
           samples=st.sampled_from([4, 8, 32]))
    def test_matches_plain_sampled_sweep(self, ridges, ox, oy, tx, ty, oh,
                                         th, samples):
        terrain = Terrain(
            100.0, 100.0,
            ridges=[Ridge(center=Vec2(x, y), height=h, sigma=s)
                    for x, y, h, s in ridges],
        )
        observer, target = Vec2(ox, oy), Vec2(tx, ty)
        expected = ref_blocks_los(terrain, observer, oh, target, th, samples)
        assert terrain.blocks_line_of_sight(
            observer, oh, target, th, samples
        ) == expected
        # precomputed endpoint elevations (the occlusion layer's fast path)
        # must not change the verdict
        assert terrain.blocks_line_of_sight(
            observer, oh, target, th, samples,
            observer_ground=terrain.height_at(observer),
            target_ground=terrain.height_at(target),
        ) == expected


# --------------------------------------------------------------------------
# 3. canopy and trunk rectangle memos
# --------------------------------------------------------------------------

tree_strategy = st.lists(
    st.tuples(coords, coords,
              st.floats(min_value=0.5, max_value=4.0, allow_nan=False)),
    min_size=0, max_size=30,
)


def make_world(trees) -> World:
    return World(
        Terrain(100.0, 100.0),
        trees=[Tree(position=Vec2(x, y), canopy_radius=r) for x, y, r in trees],
    )


class TestCanopyBatchEquivalence:
    @given(trees=tree_strategy, ax=coords, ay=coords,
           steps=st.lists(st.tuples(
               st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
               st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)),
               min_size=1, max_size=6))
    def test_rect_memo_matches_fresh_world_along_path(self, trees, ax, ay,
                                                      steps):
        # a moving sight line re-uses (and occasionally rolls over) the
        # cell-rectangle memo; every query must match a cache-cold world
        warm = make_world(trees)
        x, y = ax, ay
        observer = Vec2(10.0, 10.0)
        for dx, dy in steps:
            x += dx
            y += dy
            target = Vec2(x, y)
            cold = make_world(trees)
            assert warm._canopy_blockage_uncached(observer, target) == \
                cold._canopy_blockage_uncached(observer, target)
            assert warm.trunk_blocks(observer, target) == \
                cold.trunk_blocks(observer, target)

    @given(trees=tree_strategy, ax=coords, ay=coords, bx=coords, by=coords)
    def test_add_tree_invalidates_rect_memo(self, trees, ax, ay, bx, by):
        world = make_world(trees)
        a, b = Vec2(ax, ay), Vec2(bx, by)
        world._canopy_blockage_uncached(a, b)   # populate rect/cell caches
        mid = Vec2((ax + bx) / 2.0, (ay + by) / 2.0)
        world.add_tree(Tree(position=mid, canopy_radius=3.0))
        fresh = make_world(trees)
        fresh.add_tree(Tree(position=mid, canopy_radius=3.0))
        assert world._canopy_blockage_uncached(a, b) == \
            fresh._canopy_blockage_uncached(a, b)


# --------------------------------------------------------------------------
# 4. whole-run digests
# --------------------------------------------------------------------------

def run_digest(seed: int, *, n_workers: int, horizon_s: float) -> str:
    """SHA-256 over the full event log of one small worksite run."""
    scenario = build_worksite(ScenarioConfig(
        seed=seed, width=200.0, height=200.0, n_workers=n_workers,
    ))
    scenario.run(horizon_s)
    digest = hashlib.sha256()
    for event in scenario.log:
        digest.update(repr(
            (event.time, event.category.value, event.kind, event.source,
             sorted(event.data.items()))
        ).encode())
    digest.update(repr(
        (scenario.sim.events_processed, scenario.medium.frames_sent,
         scenario.medium.frames_delivered, scenario.medium.frames_lost)
    ).encode())
    return digest.hexdigest()


@pytest.mark.slow
class TestWorksiteRunEquivalence:
    """End-to-end: a rerun of the same seed is byte-identical."""

    def test_repeat_run_is_deterministic(self):
        first = run_digest(7, n_workers=2, horizon_s=30.0)
        second = run_digest(7, n_workers=2, horizon_s=30.0)
        assert first == second
