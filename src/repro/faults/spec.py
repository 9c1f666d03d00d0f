"""Declarative fault specifications and schedules.

A :class:`FaultSpec` names one fault — its kind, target, activation window
and parameters — using only primitive values, mirroring
:class:`repro.runner.spec.RunSpec`: schedules pickle across process
boundaries, serialise to canonical JSON and survive the sweep cache
unchanged.  A :class:`FaultSchedule` is an ordered tuple of specs plus an
optional deterministic start jitter drawn from the scenario's own RNG
streams, so the *same seed always produces the same fault timeline*.

Schedules load from TOML files (``[[fault]]`` tables, see
``examples/faults_storm.toml``) or from primitive tuples embedded in a
:class:`~repro.runner.spec.RunSpec`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.sim.rng import RngStreams

#: the fault taxonomy (see docs/resilience.md for semantics per kind)
FAULT_KINDS: Tuple[str, ...] = (
    "node_crash",          # compute/radio outage of a whole node
    "radio_brownout",      # TX power sag on one endpoint
    "sensor_freeze",       # sensor repeats stale data
    "sensor_dropout",      # sensor produces nothing
    "sensor_bias",         # systematic output offset / quality loss
    "clock_drift",         # node-local clock offset and drift rate
    "packet_corruption",   # in-flight frame corruption bursts
)

#: named RNG stream that activation jitter is drawn from
JITTER_STREAM = "faults.schedule"


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    target:
        What the fault hits — a node name (``"drone"``), a sensor name
        (``"cam-forwarder"``), or ``"medium"`` for channel-wide faults.
    start_s:
        Activation time on the simulation clock.
    duration_s:
        How long the fault persists; ``None`` means it never clears.
    params:
        Kind-specific knobs as a sorted tuple of ``(key, value)`` pairs
        (kept primitive and hashable for the sweep cache).
    """

    kind: str
    target: str
    start_s: float
    duration_s: Optional[float] = None
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.start_s < 0.0:
            raise ValueError(f"fault start must be >= 0, got {self.start_s}")
        if self.duration_s is not None and self.duration_s <= 0.0:
            raise ValueError(
                f"fault duration must be positive, got {self.duration_s}"
            )

    @property
    def end_s(self) -> Optional[float]:
        if self.duration_s is None:
            return None
        return self.start_s + self.duration_s

    def param(self, name: str, default: object = None) -> object:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def param_dict(self) -> Dict[str, object]:
        return {k: v for k, v in self.params}

    @classmethod
    def make(
        cls,
        kind: str,
        target: str,
        start_s: float,
        duration_s: Optional[float] = None,
        params: Optional[Mapping[str, object]] = None,
    ) -> "FaultSpec":
        return cls(
            kind=str(kind),
            target=str(target),
            start_s=float(start_s),
            duration_s=None if duration_s is None else float(duration_s),
            params=_freeze_params(params),
        )

    def to_primitives(self) -> tuple:
        """``(kind, target, start, duration, params)`` for RunSpec embedding."""
        return (
            self.kind, self.target, self.start_s, self.duration_s,
            tuple((k, v) for k, v in self.params),
        )

    @classmethod
    def from_primitives(cls, data: Sequence) -> "FaultSpec":
        kind, target, start, duration, params = data
        return cls.make(kind, target, start, duration, dict(params))


def _freeze_params(params: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((str(k), v) for k, v in dict(params or {}).items()))


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of faults with optional deterministic start jitter.

    ``jitter_s`` > 0 offsets every fault's start by a uniform draw from the
    scenario RNG stream :data:`JITTER_STREAM` — one draw per fault, in
    schedule order, so the realised timeline is a pure function of the
    master seed.  A schedule with ``jitter_s == 0`` makes no draws at all.
    """

    faults: Tuple[FaultSpec, ...] = ()
    jitter_s: float = 0.0

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def resolve(self, streams: RngStreams) -> Tuple[FaultSpec, ...]:
        """The realised fault list, jitter applied from the scenario RNG."""
        if self.jitter_s <= 0.0 or not self.faults:
            return self.faults
        rng = streams.stream(JITTER_STREAM)
        return tuple(
            replace(fault, start_s=fault.start_s + rng.uniform(0.0, self.jitter_s))
            for fault in self.faults
        )

    @property
    def last_end_s(self) -> Optional[float]:
        """Latest fault end (jitter excluded); None if any fault is open-ended."""
        latest = 0.0
        for fault in self.faults:
            if fault.end_s is None:
                return None
            latest = max(latest, fault.end_s)
        return latest

    def to_primitives(self) -> tuple:
        return (
            tuple(fault.to_primitives() for fault in self.faults),
            self.jitter_s,
        )

    @property
    def key(self) -> str:
        """Stable content hash (used in run labels and result stores)."""
        import hashlib

        payload = json.dumps(
            [list(f.to_primitives()) for f in self.faults] + [self.jitter_s],
            sort_keys=True, separators=(",", ":"), default=list,
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:12]


def schedule_from_primitives(data: Sequence, jitter_s: float = 0.0) -> FaultSchedule:
    """Rebuild a schedule from ``FaultSpec.to_primitives`` tuples."""
    return FaultSchedule(
        faults=tuple(FaultSpec.from_primitives(item) for item in data),
        jitter_s=float(jitter_s),
    )


def schedule_from_mapping(data: Mapping) -> FaultSchedule:
    """Build a schedule from a parsed TOML/JSON mapping."""
    if not isinstance(data, Mapping):
        raise ValueError(f"fault schedule must be a table, got {type(data).__name__}")
    known = {"fault", "jitter_s"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown fault schedule keys {unknown}; known: {sorted(known)}"
        )
    entries = data.get("fault", ())
    if not isinstance(entries, (list, tuple)):
        raise ValueError("fault schedule key 'fault' must be an array of tables")
    faults = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ValueError(f"[[fault]] entry {index} is not a table")
        entry_known = {"kind", "target", "start", "duration", "params"}
        entry_unknown = sorted(set(entry) - entry_known)
        if entry_unknown:
            raise ValueError(
                f"unknown [[fault]] keys {entry_unknown}; "
                f"known: {sorted(entry_known)}"
            )
        for required in ("kind", "target"):
            if required not in entry:
                raise ValueError(
                    f"[[fault]] entry {index} is missing required key "
                    f"{required!r}"
                )
        faults.append(FaultSpec.make(
            entry["kind"],
            entry["target"],
            entry.get("start", 0.0),
            entry.get("duration"),
            entry.get("params"),
        ))
    return FaultSchedule(
        faults=tuple(faults), jitter_s=float(data.get("jitter_s", 0.0))
    )


def load_fault_schedule(path: str) -> FaultSchedule:
    """Load a fault schedule from a TOML (or JSON) file."""
    raw = Path(path).read_bytes()
    if str(path).endswith(".json"):
        data = json.loads(raw.decode("utf-8"))
    else:
        import tomllib

        data = tomllib.loads(raw.decode("utf-8"))
    return schedule_from_mapping(data)
