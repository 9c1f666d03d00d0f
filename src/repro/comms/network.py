"""Network layer: nodes, per-peer secure channels, handler dispatch.

A :class:`CommNode` binds a link endpoint to application messaging.  Between
each pair of nodes the :class:`Network` can establish a
:class:`~repro.comms.crypto.secure_channel.SecureChannel` with a chosen
security profile; records that fail to open (tampered, replayed, spoofed)
are counted and surfaced to the IDS layer.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.comms.crypto.certificates import Certificate, CertificateAuthority
from repro.comms.crypto.keys import KeyPair
from repro.comms.crypto.numbers import DhGroup, MODP_2048
from repro.comms.crypto.secure_channel import (
    ChannelError,
    HandshakeError,
    Identity,
    Record,
    SecureChannel,
    SecurityProfile,
)
from repro.comms.link import Frame, LinkEndpoint
from repro.comms.medium import WirelessMedium
from repro.comms.messages import Message
from repro.sim.engine import Simulator
from repro.sim.events import EventCategory, EventLog
from repro.telemetry import tracer as trace

_PROFILE_CODES = {
    SecurityProfile.PLAINTEXT: 0,
    SecurityProfile.INTEGRITY: 1,
    SecurityProfile.AEAD: 2,
}
_CODE_PROFILES = {v: k for k, v in _PROFILE_CODES.items()}


def encode_record(record: Record) -> bytes:
    """Wire encoding: profile(1) || seq(8) || body."""
    code = _PROFILE_CODES[SecurityProfile(record.profile)]
    return struct.pack(">BQ", code, record.seq) + record.body


def decode_record(raw: bytes) -> Record:
    if len(raw) < 9:
        raise ChannelError("truncated record")
    code, seq = struct.unpack(">BQ", raw[:9])
    profile = _CODE_PROFILES.get(code)
    if profile is None:
        raise ChannelError(f"unknown profile code {code}")
    return Record(seq=seq, body=raw[9:], profile=profile.value)


class CommNode:
    """An application-level network node.

    Parameters
    ----------
    name:
        Node name; also the link endpoint name.
    endpoint:
        The node's radio endpoint.
    sim, log:
        Kernel plumbing.
    """

    def __init__(
        self,
        name: str,
        endpoint: LinkEndpoint,
        sim: Simulator,
        log: EventLog,
    ) -> None:
        self.name = name
        self.endpoint = endpoint
        self.sim = sim
        self.log = log
        self._handlers: Dict[str, List[Callable[[Message], None]]] = {}
        self._channels: Dict[str, SecureChannel] = {}
        self._seq = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.records_rejected = 0
        self.unprotected_accepted = 0
        endpoint.on_receive(self._on_frame)

    # -- channels -----------------------------------------------------------
    def attach_channel(self, peer: str, channel: SecureChannel) -> None:
        self._channels[peer] = channel

    def channel_to(self, peer: str) -> Optional[SecureChannel]:
        return self._channels.get(peer)

    def channel_stats(self) -> Dict[str, Dict[str, int]]:
        """Record-layer counters per attached peer channel."""
        return {
            peer: channel.stats()
            for peer, channel in sorted(self._channels.items())
        }

    # -- handlers -----------------------------------------------------------
    def on_message(self, msg_type: str, handler: Callable[[Message], None]) -> None:
        """Register a handler for messages of ``msg_type`` ('*' for all)."""
        self._handlers.setdefault(msg_type, []).append(handler)

    # -- sending ------------------------------------------------------------
    def send(self, message: Message, *, reliable: bool = True) -> None:
        """Protect (if a channel exists) and transmit ``message``."""
        self._seq += 1
        # local_time == sim.now unless a clock-drift fault targets this node
        stamped = type(message)(
            sender=self.name,
            recipient=message.recipient,
            payload=message.payload,
            timestamp=self.sim.local_time(self.name),
            seq=self._seq,
        )
        raw = stamped.encode()
        channel = self._channels.get(message.recipient)
        if channel is not None:
            record = channel.seal(raw)
            wire = encode_record(record)
        else:
            record = Record(seq=self._seq, body=raw, profile="plaintext")
            wire = encode_record(record)
        if trace.ACTIVE:
            trace.TRACER.record_seal(
                self.name, message.recipient, record.profile, record.seq, len(wire)
            )
        self.endpoint.send(message.recipient, wire, reliable=reliable)
        self.messages_sent += 1

    def send_many(self, messages: List[Message], *, reliable: bool = True) -> None:
        """Sequential :meth:`send` over ``messages``, in order."""
        for message in messages:
            self.send(message, reliable=reliable)

    # -- receiving ----------------------------------------------------------
    def _on_frame(self, frame: Frame, raw: bytes) -> None:
        try:
            record = decode_record(raw)
        except ChannelError:
            self.records_rejected += 1
            if trace.ACTIVE:
                trace.TRACER.record_drop(self.name, frame.src, "decode_error")
            return
        channel = self._channels.get(frame.src)
        if channel is not None:
            try:
                plaintext = channel.open(record)
            except ChannelError as exc:
                self.records_rejected += 1
                self.log.emit(
                    self.sim.now, EventCategory.SECURITY, "record_rejected", self.name,
                    src=frame.src, reason=str(exc),
                )
                if trace.ACTIVE:
                    trace.TRACER.record_drop(
                        self.name, frame.src, "record_rejected", reason=str(exc)
                    )
                return
        else:
            if record.profile != "plaintext":
                self.records_rejected += 1
                if trace.ACTIVE:
                    trace.TRACER.record_drop(self.name, frame.src, "no_channel")
                return
            plaintext = record.body
            self.unprotected_accepted += 1
        try:
            message = Message.decode(plaintext)
        except Exception:
            self.records_rejected += 1
            if trace.ACTIVE:
                trace.TRACER.record_drop(
                    self.name, frame.src, "message_decode_error"
                )
            return
        self.messages_received += 1
        if trace.ACTIVE:
            trace.TRACER.record_open(
                self.name, frame.src, record.seq, message.msg_type
            )
        self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        for handler in self._handlers.get(message.msg_type, ()):
            handler(message)
        for handler in self._handlers.get("*", ()):
            handler(message)


class Network:
    """Factory and registry for the worksite's nodes and secure channels.

    Owns the CA, issues node identities, and runs the pairwise handshakes.
    """

    def __init__(
        self,
        sim: Simulator,
        log: EventLog,
        medium: WirelessMedium,
        *,
        group: DhGroup = MODP_2048,
        ca_name: str = "worksite-ca",
        profile: SecurityProfile = SecurityProfile.AEAD,
    ) -> None:
        self.sim = sim
        self.log = log
        self.medium = medium
        self.group = group
        self.profile = profile
        self.ca = CertificateAuthority(ca_name, group)
        self.nodes: Dict[str, CommNode] = {}
        self._identities: Dict[str, Identity] = {}
        self.handshake_failures = 0
        self.rejoins = 0

    def add_node(
        self,
        name: str,
        position_fn,
        *,
        roles: Tuple[str, ...] = (),
        radio=None,
        protected_management: bool = False,
        management_key: bytes = b"",
    ) -> CommNode:
        """Create a node with an issued identity certificate."""
        endpoint = LinkEndpoint(
            name,
            position_fn,
            self.medium,
            self.sim,
            self.log,
            radio=radio,
            protected_management=protected_management,
            management_key=management_key,
        )
        node = CommNode(name, endpoint, self.sim, self.log)
        keypair = KeyPair.generate(self.group, seed=f"node:{name}".encode())
        cert = self.ca.issue(name, keypair.public, roles=roles, now=self.sim.now)
        self._identities[name] = Identity(
            name=name,
            keypair=keypair,
            chain=[cert],
            trusted_root=self.ca.root_certificate,
            ca=self.ca,
        )
        self.nodes[name] = node
        return node

    def identity(self, name: str) -> Identity:
        return self._identities[name]

    def establish(self, a: str, b: str) -> None:
        """Run the handshake between nodes ``a`` and ``b`` and attach channels.

        With profile PLAINTEXT no channel is attached (insecure baseline).
        """
        if self.profile is SecurityProfile.PLAINTEXT:
            return
        try:
            chan_a, chan_b, _ = SecureChannel.establish_pair(
                self._identities[a],
                self._identities[b],
                profile=self.profile,
                now=self.sim.now,
            )
        except HandshakeError:
            self.handshake_failures += 1
            raise
        self.nodes[a].attach_channel(b, chan_a)
        self.nodes[b].attach_channel(a, chan_b)

    def reestablish(self, a: str, b: str) -> None:
        """Rejoin protocol: re-run the ``a``↔``b`` handshake, replacing any
        stale channels (record sequence state resets with the new keys).

        Used by the recovery path of the degraded-mode machines after a
        node restart or link death.
        """
        self.rejoins += 1
        self.log.emit(
            self.sim.now, EventCategory.COMMS, "channel_rejoin", a, peer=b
        )
        self.establish(a, b)

    def establish_all(self) -> None:
        """Establish channels between every node pair."""
        names = list(self.nodes)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                self.establish(a, b)
