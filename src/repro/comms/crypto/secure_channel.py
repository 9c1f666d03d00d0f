"""Secure channel: signed ephemeral-DH handshake plus an AEAD record layer.

The handshake is a two-round-trip signed Diffie-Hellman (SIGMA-like):

1. ``init``:     I → R : nonce_i, g^x, cert chain_I
2. ``response``: R → I : nonce_r, g^y, cert chain_R, Sig_R(transcript)
3. ``finish``:   I → R : Sig_I(transcript)

Both sides verify the peer chain against the trusted root (and the CA's
revocation list when available), verify the transcript signature, and derive
directional record keys with HKDF from ``g^xy`` salted by both nonces.

The record layer supports three profiles so the crypto-overhead ablation
(bench E-A2) can compare them:

* ``PLAINTEXT`` — no protection (the insecure baseline);
* ``INTEGRITY`` — HMAC over ``seq || aad || payload`` (authenticity only);
* ``AEAD``      — full encrypt-then-MAC with replay protection.

Replay protection is a sliding window over record sequence numbers.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comms.crypto.certificates import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    verify_chain,
)
from repro.comms.crypto.keys import KeyPair, SchnorrSignature, sign, verify
from repro.comms.crypto.numbers import DhGroup
from repro.comms.crypto.primitives import (
    AeadError,
    aead_decrypt_subkeys,
    aead_encrypt_subkeys,
    constant_time_equal,
    derive_aead_subkeys,
    hkdf,
    hmac_sha256,
    nonce_from_sequence,
)
from repro.perf import counters as perf


class HandshakeError(ValueError):
    """Raised when the handshake fails (bad cert, bad signature, replay)."""


class ChannelError(ValueError):
    """Raised by the record layer (tampering, replay, truncation)."""


class SecurityProfile(enum.Enum):
    """Protection level of the record layer."""

    PLAINTEXT = "plaintext"
    INTEGRITY = "integrity"
    AEAD = "aead"


@dataclass(frozen=True)
class Record:
    """A protected record on the wire."""

    seq: int
    body: bytes
    profile: str


@dataclass
class Identity:
    """One party's credentials for the handshake."""

    name: str
    keypair: KeyPair
    chain: Sequence[Certificate]
    trusted_root: Certificate
    ca: Optional[CertificateAuthority] = None


def _transcript(
    nonce_i: bytes, nonce_r: bytes, eph_i: int, eph_r: int, group: DhGroup
) -> bytes:
    return (
        b"handshake-v1"
        + nonce_i
        + nonce_r
        + group.encode(eph_i)
        + group.encode(eph_r)
    )


@dataclass
class HandshakeStats:
    """Accounting of one handshake (for the overhead benchmark)."""

    exponentiations: int = 0
    signatures: int = 0
    verifications: int = 0
    bytes_exchanged: int = 0


class SecureChannel:
    """One direction-aware endpoint of an established channel.

    Construct via :meth:`establish_pair` (in-memory handshake) or the
    step-wise handshake helpers below.
    """

    REPLAY_WINDOW = 64

    def __init__(
        self,
        local: str,
        peer: str,
        send_key: bytes,
        recv_key: bytes,
        profile: SecurityProfile,
    ) -> None:
        self.local = local
        self.peer = peer
        self._send_key = send_key
        self._recv_key = recv_key
        self.profile = profile
        # HKDF enc/MAC subkeys are a pure function of the directional keys;
        # derive them once per channel instead of twice per record.
        if profile is SecurityProfile.AEAD:
            self._send_subkeys = derive_aead_subkeys(send_key)
            self._recv_subkeys = derive_aead_subkeys(recv_key)
            if perf.ACTIVE:
                perf.incr("crypto.subkey_derivations", 2)
        else:
            self._send_subkeys = self._recv_subkeys = None
        self._send_seq = 0
        self._recv_max = -1
        self._recv_seen: set = set()
        self.records_sealed = 0
        self.records_opened = 0
        self.records_rejected = 0

    def stats(self) -> Dict[str, int]:
        """Record-layer counters (consumed by the telemetry hub)."""
        return {
            "sealed": self.records_sealed,
            "opened": self.records_opened,
            "rejected": self.records_rejected,
        }

    # -- record layer -------------------------------------------------------
    def seal(self, plaintext: bytes, aad: bytes = b"") -> Record:
        """Protect ``plaintext`` for the peer."""
        self._send_seq += 1
        seq = self._send_seq
        if self.profile is SecurityProfile.PLAINTEXT:
            body = plaintext
        elif self.profile is SecurityProfile.INTEGRITY:
            tag = hmac_sha256(
                self._send_key, nonce_from_sequence(seq) + _prefix(aad) + plaintext
            )
            body = plaintext + tag
        else:
            enc_key, mac_key = self._send_subkeys
            if perf.ACTIVE:
                perf.incr("crypto.subkey_cache_hits")
            body = aead_encrypt_subkeys(
                enc_key, mac_key, nonce_from_sequence(seq), plaintext, aad
            )
        self.records_sealed += 1
        return Record(seq=seq, body=body, profile=self.profile.value)

    def seal_batch(self, plaintexts: Sequence[bytes], aad: bytes = b"") -> List[Record]:
        """Sequential :meth:`seal` over ``plaintexts``, in order.

        Kept by name, like :meth:`open_batch` and ``CommNode.send_many``,
        because perfbench's layer table probes all three.
        """
        return [self.seal(plaintext, aad) for plaintext in plaintexts]

    def open_batch(self, records: Sequence[Record], aad: bytes = b"") -> List[bytes]:
        """Sequential :meth:`open` over ``records``; the first bad one raises."""
        return [self.open(record, aad) for record in records]

    def open(self, record: Record, aad: bytes = b"") -> bytes:
        """Verify and unprotect a record from the peer.

        Raises
        ------
        ChannelError
            On profile mismatch, replay, truncation or tag failure.
        """
        if record.profile != self.profile.value:
            self.records_rejected += 1
            raise ChannelError(
                f"profile mismatch: record {record.profile}, channel {self.profile.value}"
            )
        if self.profile is not SecurityProfile.PLAINTEXT:
            self._check_replay(record.seq)
        try:
            if self.profile is SecurityProfile.PLAINTEXT:
                plaintext = record.body
            elif self.profile is SecurityProfile.INTEGRITY:
                if len(record.body) < 32:
                    raise ChannelError("record shorter than the tag")
                plaintext, tag = record.body[:-32], record.body[-32:]
                expected = hmac_sha256(
                    self._recv_key,
                    nonce_from_sequence(record.seq) + _prefix(aad) + plaintext,
                )
                if not constant_time_equal(tag, expected):
                    raise ChannelError("integrity tag mismatch")
            else:
                try:
                    enc_key, mac_key = self._recv_subkeys
                    if perf.ACTIVE:
                        perf.incr("crypto.subkey_cache_hits")
                    plaintext = aead_decrypt_subkeys(
                        enc_key, mac_key, nonce_from_sequence(record.seq),
                        record.body, aad,
                    )
                except AeadError as exc:
                    raise ChannelError(str(exc)) from exc
        except ChannelError:
            self.records_rejected += 1
            raise
        if self.profile is not SecurityProfile.PLAINTEXT:
            self._mark_seen(record.seq)
        self.records_opened += 1
        return plaintext

    def _check_replay(self, seq: int) -> None:
        if seq in self._recv_seen:
            self.records_rejected += 1
            raise ChannelError(f"replayed record seq={seq}")
        if seq <= self._recv_max - self.REPLAY_WINDOW:
            self.records_rejected += 1
            raise ChannelError(f"record seq={seq} below the replay window")

    def _mark_seen(self, seq: int) -> None:
        self._recv_seen.add(seq)
        if seq > self._recv_max:
            self._recv_max = seq
        floor = self._recv_max - self.REPLAY_WINDOW
        self._recv_seen = {s for s in self._recv_seen if s > floor}

    # -- handshake ----------------------------------------------------------
    @staticmethod
    def establish_pair(
        initiator: Identity,
        responder: Identity,
        *,
        profile: SecurityProfile = SecurityProfile.AEAD,
        now: float = 0.0,
        rng_bytes=os.urandom,
    ) -> Tuple["SecureChannel", "SecureChannel", HandshakeStats]:
        """Run the full handshake in memory; returns both channel endpoints.

        Raises
        ------
        HandshakeError
            When either side rejects the other's certificate or signature.
        """
        group = initiator.keypair.group
        stats = HandshakeStats()

        nonce_i = rng_bytes(16)
        nonce_r = rng_bytes(16)
        eph_i = KeyPair.generate(group, seed=rng_bytes(32))
        eph_r = KeyPair.generate(group, seed=rng_bytes(32))
        stats.exponentiations += 2

        transcript = _transcript(nonce_i, nonce_r, eph_i.public, eph_r.public, group)

        # responder verifies initiator chain; initiator verifies responder's
        for me, other in ((responder, initiator), (initiator, responder)):
            try:
                leaf = verify_chain(
                    other.chain, me.trusted_root, group, now=now, revocation_check=me.ca
                )
            except CertificateError as exc:
                raise HandshakeError(f"{me.name} rejects {other.name}'s chain: {exc}") from exc
            if leaf.subject != other.name:
                raise HandshakeError(
                    f"{me.name}: peer presented certificate for {leaf.subject!r}, "
                    f"claimed {other.name!r}"
                )
            stats.verifications += len(other.chain)

        sig_r = sign(responder.keypair, transcript + b"|responder")
        sig_i = sign(initiator.keypair, transcript + b"|initiator")
        stats.signatures += 2

        if not verify(group, responder.chain[0].public_key, transcript + b"|responder", sig_r):
            raise HandshakeError("responder transcript signature invalid")
        if not verify(group, initiator.chain[0].public_key, transcript + b"|initiator", sig_i):
            raise HandshakeError("initiator transcript signature invalid")
        stats.verifications += 2

        shared_i = group.pow(eph_r.public, eph_i.secret)
        shared_r = group.pow(eph_i.public, eph_r.secret)
        stats.exponentiations += 2
        assert shared_i == shared_r
        master = hkdf(
            group.encode(shared_i), salt=nonce_i + nonce_r, info=b"master", length=32
        )
        key_i2r = hkdf(master, info=b"i2r", length=32)
        key_r2i = hkdf(master, info=b"r2i", length=32)
        stats.bytes_exchanged = (
            2 * 16
            + 2 * group.element_bytes
            + sum(len(c.tbs_bytes()) + 64 for c in list(initiator.chain) + list(responder.chain))
            + 2 * ((group.q.bit_length() + 7) // 8) * 2
        )
        chan_i = SecureChannel(initiator.name, responder.name, key_i2r, key_r2i, profile)
        chan_r = SecureChannel(responder.name, initiator.name, key_r2i, key_i2r, profile)
        return chan_i, chan_r, stats


def _prefix(aad: bytes) -> bytes:
    return len(aad).to_bytes(4, "big") + aad
