"""Application protocols on the worksite network.

* :class:`TelemetryPublisher` — periodic machine state to the control node;
* :class:`HeartbeatMonitor` — mutual liveness watchdog; sustained loss is the
  *safe-state trigger* connecting comms failures (or attacks) to safety;
* :class:`CommandChannel` — operator commands to the forwarder, with an
  acceptance hook where access control plugs in;
* :class:`DetectionRelay` — drone→forwarder people-detection reports, the
  data path of the collaborative safety function of Figure 2.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional

from repro.comms.messages import Command, DetectionReport, Heartbeat, Message, Telemetry
from repro.comms.network import CommNode
from repro.sim.engine import Simulator
from repro.sim.entities import Entity
from repro.sim.events import EventCategory, EventLog


def phase_offset(key: str, interval_s: float) -> float:
    """Deterministic per-instance phase in (0, interval).

    Periodic senders started at the same instant with the same interval
    would otherwise transmit in perfect collision forever — real networks
    desynchronise through clock skew and CSMA; this models that.
    """
    digest = hashlib.sha256(key.encode()).digest()
    fraction = int.from_bytes(digest[:4], "big") / 2**32
    return (0.05 + 0.9 * fraction) * interval_s


class TelemetryPublisher:
    """Publishes an entity's state to a destination node periodically."""

    def __init__(
        self,
        node: CommNode,
        entity: Entity,
        destination: str,
        sim: Simulator,
        *,
        interval_s: float = 1.0,
    ) -> None:
        self.node = node
        self.entity = entity
        self.destination = destination
        self.published = 0
        offset = phase_offset(f"telemetry:{node.name}->{destination}", interval_s)
        sim.every(interval_s, self._publish, start_at=sim.now + offset)

    def _publish(self) -> None:
        if not self.entity.alive:
            return
        state = self.entity.state
        self.node.send(
            Telemetry(
                sender=self.node.name,
                recipient=self.destination,
                payload={
                    "x": round(state.position.x, 2),
                    "y": round(state.position.y, 2),
                    "speed": round(state.speed, 2),
                    "heading": round(state.heading, 3),
                },
            ),
            reliable=False,
        )
        self.published += 1


class HeartbeatMonitor:
    """Mutual liveness watchdog between two nodes.

    Sends heartbeats every ``interval_s`` and watches for the peer's.  When
    no heartbeat arrives for ``timeout_s`` the ``on_loss`` callback fires
    (typically driving the forwarder into a safe state); ``on_recovery``
    fires when heartbeats resume.
    """

    def __init__(
        self,
        node: CommNode,
        peer: str,
        sim: Simulator,
        log: EventLog,
        *,
        interval_s: float = 1.0,
        timeout_s: float = 5.0,
        on_loss: Optional[Callable[[], None]] = None,
        on_recovery: Optional[Callable[[], None]] = None,
    ) -> None:
        self.node = node
        self.peer = peer
        self.sim = sim
        self.log = log
        self.interval_s = interval_s
        self.timeout_s = timeout_s
        self.on_loss = on_loss
        self.on_recovery = on_recovery
        self.last_heard: float = sim.now
        self.link_up = True
        self.losses = 0
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        node.on_message("heartbeat", self._on_heartbeat)
        offset = phase_offset(f"heartbeat:{node.name}->{peer}", interval_s)
        sim.every(interval_s, self._beat, start_at=sim.now + offset)
        sim.every(interval_s, self._check, start_at=sim.now + offset + 0.01)

    def _beat(self) -> None:
        self.node.send(
            Heartbeat(sender=self.node.name, recipient=self.peer), reliable=False
        )
        self.heartbeats_sent += 1

    def _on_heartbeat(self, message: Message) -> None:
        if message.sender != self.peer:
            return
        self.heartbeats_received += 1
        self.last_heard = self.sim.now
        if not self.link_up:
            self.link_up = True
            self.log.emit(
                self.sim.now, EventCategory.COMMS, "heartbeat_recovered",
                self.node.name, peer=self.peer,
            )
            if self.on_recovery is not None:
                self.on_recovery()

    def _check(self) -> None:
        silent_for = self.sim.now - self.last_heard
        if self.link_up and silent_for > self.timeout_s:
            self.link_up = False
            self.losses += 1
            self.log.emit(
                self.sim.now, EventCategory.COMMS, "heartbeat_lost",
                self.node.name, peer=self.peer, silent_s=round(silent_for, 1),
            )
            if self.on_loss is not None:
                self.on_loss()


class CommandChannel:
    """Operator command path with an acceptance hook.

    ``authorize`` is called with the received command message before
    execution; returning False drops the command (access control, IEC 62443
    "use control").  The executed/rejected counters feed the interplay
    experiments: an accepted forged command is a security→safety event.
    """

    def __init__(
        self,
        node: CommNode,
        executor: Callable[[str], bool],
        log: EventLog,
        sim: Simulator,
        *,
        authorize: Optional[Callable[[Message], bool]] = None,
    ) -> None:
        self.node = node
        self.executor = executor
        self.log = log
        self.sim = sim
        self.authorize = authorize
        self.executed = 0
        self.rejected = 0
        node.on_message("command", self._on_command)

    def _on_command(self, message: Message) -> None:
        if self.authorize is not None and not self.authorize(message):
            self.rejected += 1
            self.log.emit(
                self.sim.now, EventCategory.SECURITY, "command_rejected",
                self.node.name, sender=message.sender,
                command=message.payload.get("command"),
            )
            return
        command = str(message.payload.get("command", ""))
        params = {k: v for k, v in message.payload.items() if k != "command"}
        accepted = self.executor(command, **params) if params else self.executor(command)
        self.executed += 1
        self.log.emit(
            self.sim.now, EventCategory.SYSTEM, "command_executed",
            self.node.name, command=command, accepted=accepted,
        )

    def send_command(self, node: CommNode, recipient: str, command: str, **params) -> None:
        """Convenience: issue a command from ``node`` to ``recipient``."""
        payload = {"command": command}
        payload.update(params)
        node.send(Command(sender=node.name, recipient=recipient, payload=payload))


class DetectionRelay:
    """Relays people detections from the drone to the forwarder.

    The receiving side re-materialises detections for the fusion layer; the
    sequence number gap statistics feed the continuous risk assessment.
    """

    def __init__(
        self,
        sender_node: CommNode,
        receiver_node: CommNode,
        sim: Simulator,
        *,
        on_report: Optional[Callable[[Message], None]] = None,
    ) -> None:
        self.sender_node = sender_node
        self.receiver_node = receiver_node
        self.sim = sim
        self.reports_sent = 0
        self.reports_received = 0
        self._on_report = on_report
        receiver_node.on_message("detection_report", self._receive)

    def publish(self, detections: List[dict]) -> None:
        """Send a batch of detection dicts to the receiver."""
        self.sender_node.send(
            DetectionReport(
                sender=self.sender_node.name,
                recipient=self.receiver_node.name,
                payload={"detections": detections},
            ),
            reliable=False,
        )
        self.reports_sent += 1

    def _receive(self, message: Message) -> None:
        self.reports_received += 1
        if self._on_report is not None:
            self._on_report(message)
