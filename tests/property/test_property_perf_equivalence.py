"""Golden-equivalence properties for the PR 2 hot-path optimisations.

Each optimised implementation is checked **bit-identical** against a
straightforward reference implementation kept in this module (mirroring the
pre-optimisation code).  Exact ``==`` on floats and bytes is deliberate:
the simulator's determinism contract is byte-identical replay, so an
optimisation that changes even the last ulp of a float is a regression.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.comms.crypto.primitives import (
    aead_decrypt,
    aead_encrypt,
    aead_encrypt_subkeys,
    derive_aead_subkeys,
    hkdf_expand,
    stream_xor,
)
from repro.comms.crypto.secure_channel import (
    SecureChannel,
    SecurityProfile,
    nonce_from_sequence,
)
from repro.comms.medium import Jammer, WirelessMedium
from repro.comms.radio import (
    RadioConfig,
    combine_noise_dbm,
    received_power_dbm,
)
from repro.sim.engine import Simulator
from repro.sim.events import EventLog
from repro.sim.geometry import Segment, Vec2
from repro.sim.rng import RngStreams
from repro.sim.terrain import Terrain
from repro.sim.world import Tree, World

keys = st.binary(min_size=32, max_size=32)
nonces = st.binary(min_size=16, max_size=16)
payloads = st.binary(min_size=0, max_size=600)
aads = st.binary(min_size=0, max_size=48)
coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)


# --------------------------------------------------------------------------
# reference implementations (pre-optimisation semantics)
# --------------------------------------------------------------------------

def ref_stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Byte-at-a-time CTR keystream XOR."""
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


def ref_canopy_blockage(world: World, observer: Vec2, target: Vec2) -> float:
    """Segment-object canopy intersection sum (no memoisation)."""
    seg = Segment(observer, target)
    total = 0.0
    length = seg.length()
    if length == 0.0:
        return 0.0
    for tree in world.trees_near_segment(seg):
        params = seg.circle_intersection_params(tree.position, tree.canopy_radius)
        if params is not None:
            total += (params[1] - params[0]) * length
    return total


def ref_trunk_blocks(world: World, observer: Vec2, target: Vec2) -> bool:
    """Brute-force trunk test over the whole 1 m-padded bounding box."""
    seg = Segment(observer, target)
    for tree in world.trees_near_segment(seg, pad=1.0):
        center, trunk = tree.position, tree.trunk_radius
        # the endpoints' own immediate surroundings do not count
        if center.distance_to(observer) < trunk + 0.1:
            continue
        if center.distance_to(target) < trunk + 0.1:
            continue
        if seg.distance_to_point(center) <= trunk:
            return True
    return False


def ref_interference(all_tx, jammers, position: Vec2, channel: int,
                     now: float) -> float:
    """List-rebuild interference query over the full transmission history.

    ``all_tx`` is [(end_time, position, power, channel), ...] in
    transmission order.
    """
    components = [j.interference_at(position, channel) for j in jammers]
    recent = [t for t in all_tx if t[0] > now]
    for end, pos, power, ch in recent:
        if ch == channel:
            d = pos.distance_to(position)
            if d > 0.5:
                components.append(
                    received_power_dbm(power, d, antenna_gain_db=0.0) - 6.0
                )
    components = [c for c in components if c != -math.inf]
    if not components:
        return -math.inf
    return combine_noise_dbm(*components)


def ref_utilization(intervals, window_s: float, now: float,
                    retention_s: float) -> float:
    """Sliding-window airtime fraction over explicit (start, end) intervals."""
    if window_s <= 0.0:
        return 0.0
    window_s = min(window_s, retention_s)
    cutoff = now - window_s
    used = 0.0
    for start, end in intervals:
        overlap = min(end, now) - max(start, cutoff)
        if overlap > 0.0:
            used += overlap
    return min(1.0, used / window_s)


def make_medium() -> WirelessMedium:
    return WirelessMedium(Simulator(), EventLog(), RngStreams(7))


class _Src:
    def __init__(self, position: Vec2) -> None:
        self.position = position


# --------------------------------------------------------------------------
# 1. stream cipher
# --------------------------------------------------------------------------

class TestStreamXorEquivalence:
    @given(key=keys, nonce=nonces, data=payloads)
    def test_bit_identical_to_byte_loop(self, key, nonce, data):
        assert stream_xor(key, nonce, data) == ref_stream_xor(key, nonce, data)

    def test_large_buffer_beyond_keystream_cache(self):
        # 8 KiB = 256 blocks > _CACHE_MAX_BLOCKS: exercises the uncached path
        key, nonce = b"\x5a" * 32, b"\xa5" * 16
        data = hashlib.sha256(b"large").digest() * 256
        assert stream_xor(key, nonce, data) == ref_stream_xor(key, nonce, data)

    @given(key=keys, nonce=nonces, data=payloads)
    def test_cached_keystream_is_reused_consistently(self, key, nonce, data):
        # same (key, nonce) twice: second call hits the keystream cache and
        # must produce the identical transform
        first = stream_xor(key, nonce, data)
        second = stream_xor(key, nonce, data)
        assert first == second == ref_stream_xor(key, nonce, data)


# --------------------------------------------------------------------------
# 2. HKDF subkey cache (SecureChannel AEAD path)
# --------------------------------------------------------------------------

class TestSubkeyCacheEquivalence:
    @given(key=keys)
    def test_subkeys_match_direct_hkdf(self, key):
        enc, mac = derive_aead_subkeys(key)
        assert enc == hkdf_expand(key, b"aead-enc", 32)
        assert mac == hkdf_expand(key, b"aead-mac", 32)

    @given(key=keys, nonce=nonces, data=payloads, aad=aads)
    def test_sealed_bytes_match_per_call_derivation(self, key, nonce, data, aad):
        enc, mac = derive_aead_subkeys(key)
        assert (aead_encrypt_subkeys(enc, mac, nonce, data, aad)
                == aead_encrypt(key, nonce, data, aad))

    @given(send_key=keys, recv_key=keys,
           records=st.lists(st.tuples(payloads, aads), min_size=1, max_size=8))
    def test_channel_records_match_uncached_aead(self, send_key, recv_key,
                                                 records):
        alice = SecureChannel("a", "b", send_key, recv_key,
                              SecurityProfile.AEAD)
        bob = SecureChannel("b", "a", recv_key, send_key,
                            SecurityProfile.AEAD)
        for plaintext, aad in records:
            record = alice.seal(plaintext, aad)
            expected = aead_encrypt(
                send_key, nonce_from_sequence(record.seq), plaintext, aad
            )
            assert record.body == expected
            assert bob.open(record, aad) == plaintext
            assert aead_decrypt(
                send_key, nonce_from_sequence(record.seq), record.body, aad
            ) == plaintext


# --------------------------------------------------------------------------
# 3. per-channel interference index
# --------------------------------------------------------------------------

tx_entries = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),   # start
        st.floats(min_value=0.001, max_value=2.0, allow_nan=False),  # airtime
        coords, coords,                                              # position
        st.floats(min_value=-10.0, max_value=30.0, allow_nan=False), # power
        st.integers(min_value=1, max_value=3),                       # channel
    ),
    min_size=0, max_size=20,
)


class TestInterferenceIndexEquivalence:
    @given(entries=tx_entries, qx=coords, qy=coords,
           channel=st.integers(min_value=1, max_value=3),
           lead=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    def test_matches_list_rebuild_reference(self, entries, qx, qy, channel,
                                            lead):
        medium = make_medium()
        all_tx = []
        last_start = 0.0
        # feed in start-time order, exactly as the simulator does
        for start, air, x, y, power, ch in sorted(entries, key=lambda e: e[0]):
            pos = Vec2(x, y)
            config = RadioConfig(channel=ch, tx_power_dbm=power)
            medium._record_tx(start, air, _Src(pos), config)
            all_tx.append((start + air, pos, power, ch))
            last_start = start
        # sim time is monotone: queries never precede the latest record
        now = last_start + lead
        query = Vec2(qx, qy)
        assert medium.interference_at(query, channel, now) == ref_interference(
            all_tx, medium.jammers, query, channel, now
        )

    @given(entries=tx_entries, qx=coords, qy=coords)
    def test_monotone_queries_stay_consistent(self, entries, qx, qy):
        # repeated queries at advancing times (the lazy expiry mutates the
        # deque) must keep matching the reference at every step
        medium = make_medium()
        all_tx = []
        last_start = 0.0
        for start, air, x, y, power, ch in sorted(entries, key=lambda e: e[0]):
            pos = Vec2(x, y)
            medium._record_tx(
                start, air, _Src(pos), RadioConfig(channel=ch, tx_power_dbm=power)
            )
            all_tx.append((start + air, pos, power, ch))
            last_start = start
        query = Vec2(qx, qy)
        for lead in (0.0, 0.5, 1.0, 2.5, 30.0):
            now = last_start + lead
            for channel in (1, 2, 3):
                assert medium.interference_at(
                    query, channel, now
                ) == ref_interference(all_tx, [], query, channel, now)

    @given(entries=tx_entries, qx=coords, qy=coords, jx=coords, jy=coords,
           jam_channel=st.sampled_from([None, 1, 2]),
           channel=st.integers(min_value=1, max_value=3))
    def test_with_jammer_matches_reference(self, entries, qx, qy, jx, jy,
                                           jam_channel, channel):
        # jammer terms are folded ahead of the co-channel transmissions
        medium = make_medium()
        medium.add_jammer(
            Jammer("j", lambda: Vec2(jx, jy), power_dbm=20.0,
                   channel=jam_channel)
        )
        all_tx = []
        last_start = 0.0
        for start, air, x, y, power, ch in sorted(entries, key=lambda e: e[0]):
            pos = Vec2(x, y)
            medium._record_tx(
                start, air, _Src(pos), RadioConfig(channel=ch, tx_power_dbm=power)
            )
            all_tx.append((start + air, pos, power, ch))
            last_start = start
        query = Vec2(qx, qy)
        for lead in (0.0, 0.5, 30.0):
            now = last_start + lead
            assert medium.interference_at(query, channel, now) == \
                ref_interference(all_tx, medium.jammers, query, channel, now)


# --------------------------------------------------------------------------
# 4. sliding-window channel utilisation
# --------------------------------------------------------------------------

intervals_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),  # start
        st.floats(min_value=0.0001, max_value=1.0, allow_nan=False), # airtime
    ),
    min_size=0, max_size=30,
)


class TestUtilizationEquivalence:
    @given(raw=intervals_strategy,
           window_s=st.floats(min_value=0.1, max_value=300.0, allow_nan=False),
           lead=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_matches_interval_sum_reference(self, raw, window_s, lead):
        medium = make_medium()
        intervals = sorted(
            ((start, start + air) for start, air in raw), key=lambda iv: iv[0]
        )
        now = (max(end for _, end in intervals) if intervals else 0.0) + lead
        medium._airtime_windows[1] = deque(intervals)
        expected = ref_utilization(
            intervals, window_s, now, WirelessMedium.UTIL_RETENTION_S
        )
        assert medium.channel_utilization(1, window_s, now) == expected

    def test_empty_channel_and_degenerate_window(self):
        medium = make_medium()
        assert medium.channel_utilization(1, 10.0, 100.0) == 0.0
        assert medium.channel_utilization(1, 0.0, 100.0) == 0.0
        assert medium.channel_utilization(1, -5.0, 100.0) == 0.0


# --------------------------------------------------------------------------
# 5. canopy blockage memoisation
# --------------------------------------------------------------------------

tree_strategy = st.lists(
    st.tuples(coords, coords,
              st.floats(min_value=0.5, max_value=4.0, allow_nan=False)),
    min_size=0, max_size=25,
)


class TestCanopyMemoEquivalence:
    @given(trees=tree_strategy, ax=coords, ay=coords, bx=coords, by=coords)
    def test_matches_segment_reference(self, trees, ax, ay, bx, by):
        world = World(
            Terrain(100.0, 100.0),
            trees=[Tree(position=Vec2(x, y), canopy_radius=r)
                   for x, y, r in trees],
        )
        a, b = Vec2(ax, ay), Vec2(bx, by)
        expected = ref_canopy_blockage(world, a, b)
        assert world.canopy_blockage(a, b) == expected     # cold
        assert world.canopy_blockage(a, b) == expected     # memoised

    @given(trees=tree_strategy, ax=coords, ay=coords, bx=coords, by=coords)
    def test_cache_invalidated_by_new_tree(self, trees, ax, ay, bx, by):
        world = World(
            Terrain(100.0, 100.0),
            trees=[Tree(position=Vec2(x, y), canopy_radius=r)
                   for x, y, r in trees],
        )
        a, b = Vec2(ax, ay), Vec2(bx, by)
        world.canopy_blockage(a, b)  # populate the cache
        # plant a tree square on the sight line midpoint
        mid = Vec2((ax + bx) / 2.0, (ay + by) / 2.0)
        world.add_tree(Tree(position=mid, canopy_radius=3.0))
        assert world.canopy_blockage(a, b) == ref_canopy_blockage(world, a, b)

    def test_trunk_blocks_matches_segment_reference(self):
        world = World(
            Terrain(100.0, 100.0),
            trees=[Tree(position=Vec2(50.0, 50.0), trunk_radius=0.4)],
        )
        # line through the trunk, line missing it, and degenerate endpoints
        assert world.trunk_blocks(Vec2(40.0, 50.0), Vec2(60.0, 50.0))
        assert not world.trunk_blocks(Vec2(40.0, 60.0), Vec2(60.0, 60.0))
        assert not world.trunk_blocks(Vec2(50.2, 50.0), Vec2(60.0, 50.0))


# --------------------------------------------------------------------------
# 6. sight-line corridors
# --------------------------------------------------------------------------

# endpoints anywhere, or within a millimetre of the offsets where the
# sweeps' padded bounding boxes cross a 10 m cell boundary: there an
# endpoint sits at a corner of the square its corridor key pins it to
spans = st.one_of(
    st.floats(min_value=-60.0, max_value=160.0, allow_nan=False),
    st.builds(
        lambda k, offset, jitter: 10.0 * k + offset + jitter,
        st.integers(min_value=-6, max_value=16),
        st.sampled_from([-5.0, -1.0, 1.0, 5.0]),
        st.floats(min_value=-1e-3, max_value=1e-3),
    ),
)
# second endpoint: independent, or a short offset from the first — with
# 0.0 axis-aligned, with the middle branch sub-millimetre
extents = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False),
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)
# per-step translation of the whole line: 0 (a repeated query) or at least
# 1 cm, so no two distinct steps share a mm-quantised canopy-memo key
moves = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.01, max_value=4.0),
    st.floats(min_value=-4.0, max_value=-0.01),
)
# trunk radii up to 1.5 m and canopy radii up to 6 m: both beyond the
# sweeps' 1 m and 5 m bounding-box pads
radii = st.tuples(
    st.floats(min_value=0.05, max_value=1.5),
    st.floats(min_value=0.5, max_value=6.0),
)


@st.composite
def corridor_cases(draw):
    """A forest plus a sight line translated step by step (a warm memo)."""
    ax, ay = draw(spans), draw(spans)
    if draw(st.booleans()):
        bx, by = draw(spans), draw(spans)
    else:
        bx, by = ax + draw(extents), ay + draw(extents)
    mx, my = draw(moves), draw(moves)
    steps = draw(st.integers(min_value=1, max_value=6))
    path = [
        (Vec2(ax + mx * i, ay + my * i), Vec2(bx + mx * i, by + my * i))
        for i in range(steps)
    ]
    trees = [
        Tree(position=Vec2(x, y), trunk_radius=rt, canopy_radius=rc)
        for x, y, (rt, rc) in draw(st.lists(st.tuples(spans, spans, radii),
                                            max_size=10))
    ]
    # trees just inside their trunk or canopy radius of the first line:
    # the ones a too-narrow corridor would drop
    length = math.hypot(bx - ax, by - ay)
    nx, ny = ((ay - by) / length, (bx - ax) / length) if length else (0.0, 1.0)
    for t, side, depth, trunk_edge, (rt, rc) in draw(st.lists(
            st.tuples(st.floats(min_value=-0.1, max_value=1.1),
                      st.sampled_from([-1.0, 1.0]),
                      st.floats(min_value=0.0, max_value=0.05),
                      st.booleans(), radii),
            min_size=4, max_size=24)):
        off = side * ((rt if trunk_edge else rc) - depth)
        trees.append(Tree(
            position=Vec2(ax + (bx - ax) * t + nx * off,
                          ay + (by - ay) * t + ny * off),
            trunk_radius=rt, canopy_radius=rc))
    return World(Terrain(100.0, 100.0), trees=trees), path


class TestCorridorEquivalence:
    # an example costs ~15 ms, and a corridor that is slightly too narrow
    # drops a tree in only a few percent of them
    @settings(max_examples=300)
    @given(case=corridor_cases())
    def test_trunk_blocks_matches_brute_force(self, case):
        world, path = case
        for a, b in path:
            assert world.trunk_blocks(a, b) == ref_trunk_blocks(world, a, b)
            assert world.trunk_blocks(b, a) == ref_trunk_blocks(world, b, a)

    @settings(max_examples=300)
    @given(case=corridor_cases())
    def test_canopy_blockage_matches_reference_on_warm_memo(self, case):
        world, path = case
        for a, b in path:
            assert world.canopy_blockage(a, b) == ref_canopy_blockage(world, a, b)
            # the reverse of a sub-mm line shares its mm-quantised LRU key,
            # so check it below the LRU (the corridor memo is still warm)
            assert world._canopy_blockage_uncached(b, a) == \
                ref_canopy_blockage(world, b, a)

    def test_canopy_wider_than_pad_at_square_corner(self):
        # both endpoints within 0.1 mm of a corner of their corridor-key
        # squares, and a 6 m canopy touching the line: it is within reach
        # only because the reach includes the largest canopy radius
        world = World(Terrain(100.0, 100.0), trees=[
            Tree(position=Vec2(19.82561774365428, 47.653245156642754),
                 canopy_radius=5.9760809606148975),
        ])
        a = Vec2(65.00006942845216, 45.00008451886052)
        b = Vec2(13.302148473802852, 55.00001791694776)
        expected = ref_canopy_blockage(world, a, b)
        assert expected > 0.0
        assert world.canopy_blockage(a, b) == expected
