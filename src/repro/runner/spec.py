"""Declarative run and sweep specifications.

A :class:`RunSpec` describes exactly one worksite run — campaign timeline,
seed, horizon, defence profile, scenario overrides — using only primitive
values, so it pickles across process boundaries and serialises to JSON
byte-identically on every platform.  Its :attr:`RunSpec.key` is a SHA-256
hash of that canonical JSON; the result store caches completed runs under
this key, which is what makes ``--resume`` and delta execution sound: two
specs collide exactly when they describe the same simulation.

A :class:`SweepSpec` is the declarative grid — campaigns × seeds ×
profiles × scenario variants × horizon — that :meth:`SweepSpec.expand`
turns into the concrete list of run specs.  Grids can come from CLI flags
or from a TOML/JSON spec file (:func:`load_sweep_spec`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.rng import derive_seed

#: sentinel campaign name for the benign no-attack baseline
BASELINE = "baseline"

PlanStep = Tuple[str, float, Optional[float]]


def _freeze_plan(plan: Sequence[Sequence]) -> Tuple[PlanStep, ...]:
    steps: List[PlanStep] = []
    for step in plan:
        name, start, duration = step
        steps.append((
            str(name), float(start),
            None if duration is None else float(duration),
        ))
    return tuple(steps)


def _freeze_overrides(overrides: Optional[Mapping]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((str(k), v) for k, v in dict(overrides or {}).items()))


def _freeze_faults(faults: Sequence) -> Tuple[tuple, ...]:
    """Freeze ``FaultSpec.to_primitives`` items (lists after a JSON round
    trip) back into hashable nested tuples."""
    frozen = []
    for item in faults or ():
        kind, target, start, duration, params = item
        frozen.append((
            str(kind), str(target), float(start),
            None if duration is None else float(duration),
            tuple((str(k), v) for k, v in params),
        ))
    return tuple(frozen)


@dataclass(frozen=True)
class RunSpec:
    """One fully determined worksite run, in primitives only.

    ``campaign`` names the run for grouping and display; the executable
    attack timeline is ``plan``.  Use :meth:`single` to build the common
    one-campaign case, where the plan is derived from the name.
    """

    campaign: str = BASELINE
    seed: int = 42
    horizon_s: float = 900.0
    profile: str = "defended"
    plan: Tuple[PlanStep, ...] = ()
    ids_family: Optional[str] = None
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: fault timeline as FaultSpec.to_primitives() tuples (empty = no faults)
    faults: Tuple[tuple, ...] = ()

    @classmethod
    def single(
        cls,
        campaign: str,
        *,
        seed: int,
        horizon_s: float,
        profile: str = "defended",
        start: float = 600.0,
        duration: Optional[float] = None,
        ids_family: Optional[str] = None,
        overrides: Optional[Mapping[str, object]] = None,
        faults: Sequence = (),
    ) -> "RunSpec":
        """A run with one campaign (or the baseline when ``campaign`` is
        :data:`BASELINE` / empty)."""
        plan: Tuple[PlanStep, ...] = ()
        if campaign and campaign != BASELINE:
            plan = ((campaign, float(start),
                     None if duration is None else float(duration)),)
        return cls(
            campaign=campaign or BASELINE,
            seed=int(seed),
            horizon_s=float(horizon_s),
            profile=profile,
            plan=plan,
            ids_family=ids_family,
            overrides=_freeze_overrides(overrides),
            faults=_freeze_faults(faults),
        )

    @property
    def key(self) -> str:
        """Stable content hash of the spec (cache / store key)."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]

    @property
    def label(self) -> str:
        """Human-readable one-liner for progress output."""
        parts = [self.campaign, f"seed={self.seed}", self.profile]
        if self.ids_family:
            parts.append(f"ids={self.ids_family}")
        if self.overrides:
            parts.append("+" + ",".join(k for k, _ in self.overrides))
        if self.faults:
            parts.append(f"faults={len(self.faults)}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "profile": self.profile,
            "plan": [list(step) for step in self.plan],
            "ids_family": self.ids_family,
            "overrides": {k: v for k, v in self.overrides},
            "faults": [
                [kind, target, start, duration, [list(p) for p in params]]
                for kind, target, start, duration, params in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        return cls(
            campaign=str(data.get("campaign", BASELINE)),
            seed=int(data.get("seed", 42)),
            horizon_s=float(data.get("horizon_s", 900.0)),
            profile=str(data.get("profile", "defended")),
            plan=_freeze_plan(data.get("plan", ())),
            ids_family=data.get("ids_family"),
            overrides=_freeze_overrides(data.get("overrides")),
            faults=_freeze_faults(data.get("faults", ())),
        )


def derive_sweep_seeds(base_seed: int, n_seeds: int) -> List[int]:
    """Deterministic per-run seeds from one base seed.

    Uses the same SHA-256 derivation as the simulation's own
    :class:`~repro.sim.rng.RngStreams`, so the mapping is stable across
    Python versions and platforms; seeds are folded to 31 bits to stay
    friendly to every consumer.
    """
    return [
        derive_seed(base_seed, f"sweep-run:{i}") % (2 ** 31)
        for i in range(int(n_seeds))
    ]


@dataclass
class SweepSpec:
    """A declarative grid of runs: campaigns × seeds × profiles × variants.

    ``variants`` are named ScenarioConfig override sets, e.g.
    ``{"no_drone": {"drone_enabled": False}}``; the empty-name default
    variant (no overrides) is used when none are given.
    """

    campaigns: List[str] = field(default_factory=lambda: [BASELINE])
    seeds: List[int] = field(default_factory=list)
    base_seed: int = 42
    n_seeds: int = 1
    horizon_s: float = 900.0
    profiles: List[str] = field(default_factory=lambda: ["defended"])
    attack_start: float = 600.0
    attack_duration: Optional[float] = None
    variants: Dict[str, Dict[str, object]] = field(default_factory=dict)
    ids_families: List[Optional[str]] = field(default_factory=lambda: [None])
    #: named fault campaign applied to every run (None = fault-free sweep)
    fault_campaign: Optional[str] = None
    fault_start: float = 20.0
    fault_duration: float = 30.0

    def resolved_seeds(self) -> List[int]:
        if self.seeds:
            return [int(s) for s in self.seeds]
        return derive_sweep_seeds(self.base_seed, self.n_seeds)

    def resolved_faults(self) -> Tuple[tuple, ...]:
        """The fault timeline primitives every expanded run carries."""
        if not self.fault_campaign:
            return ()
        from repro.faults.campaigns import build_fault_campaign

        schedule = build_fault_campaign(
            self.fault_campaign,
            start=self.fault_start, duration=self.fault_duration,
        )
        return tuple(fault.to_primitives() for fault in schedule.faults)

    def expand(self) -> List[RunSpec]:
        """The concrete run list, in a stable deterministic order."""
        variants = self.variants or {"": {}}
        faults = self.resolved_faults()
        specs: List[RunSpec] = []
        for campaign in self.campaigns:
            for profile in self.profiles:
                for variant_name, overrides in variants.items():
                    for ids_family in self.ids_families:
                        for seed in self.resolved_seeds():
                            spec = RunSpec.single(
                                campaign,
                                seed=seed,
                                horizon_s=self.horizon_s,
                                profile=profile,
                                start=self.attack_start,
                                duration=self.attack_duration,
                                ids_family=ids_family,
                                overrides=overrides,
                                faults=faults,
                            )
                            if variant_name:
                                spec = replace(
                                    spec,
                                    campaign=f"{campaign}/{variant_name}",
                                )
                            specs.append(spec)
        return specs


def load_sweep_spec(path: str) -> SweepSpec:
    """Load a sweep grid from a TOML or JSON spec file.

    Recognised top-level keys mirror :class:`SweepSpec` fields, with
    ``horizon_minutes`` accepted as a convenience alias for ``horizon_s``.
    Variants are given as a table/object of named override sets::

        campaigns = ["rf_jamming", "gnss_spoofing"]
        base_seed = 42
        n_seeds = 3
        horizon_minutes = 20
        profiles = ["defended", "undefended"]

        [variants.no_drone]
        drone_enabled = false
    """
    raw = Path(path).read_bytes()
    if path.endswith(".json"):
        data = json.loads(raw.decode("utf-8"))
    else:
        import tomllib

        data = tomllib.loads(raw.decode("utf-8"))
    return sweep_spec_from_mapping(data)


def sweep_spec_from_mapping(data: Mapping) -> SweepSpec:
    """Build a :class:`SweepSpec` from a parsed spec-file mapping.

    A value of the wrong shape raises ValueError naming its key.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"sweep spec must be a table, got {type(data).__name__}")
    known = {
        "campaigns", "seeds", "base_seed", "n_seeds", "horizon_s",
        "horizon_minutes", "profiles", "attack_start", "attack_duration",
        "variants", "ids_families", "fault_campaign", "fault_start",
        "fault_duration",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown sweep spec keys {unknown}; known: {sorted(known)}"
        )
    for key in ("campaigns", "seeds", "profiles", "ids_families"):
        if not isinstance(data.get(key, []), (list, tuple)):
            raise ValueError(
                f"sweep spec key {key!r} must be a list, "
                f"got {type(data[key]).__name__}"
            )
    variants = data.get("variants", {})
    if not isinstance(variants, Mapping) or not all(
        isinstance(overrides, Mapping) for overrides in variants.values()
    ):
        raise ValueError("sweep spec key 'variants' must be a table of tables")
    spec = SweepSpec()
    if "campaigns" in data:
        spec.campaigns = [str(c) for c in data["campaigns"]]
    if "seeds" in data:
        spec.seeds = [int(s) for s in data["seeds"]]
    if "base_seed" in data:
        spec.base_seed = int(data["base_seed"])
    if "n_seeds" in data:
        spec.n_seeds = int(data["n_seeds"])
    if "horizon_minutes" in data:
        spec.horizon_s = float(data["horizon_minutes"]) * 60.0
    if "horizon_s" in data:
        spec.horizon_s = float(data["horizon_s"])
    if "profiles" in data:
        spec.profiles = [str(p) for p in data["profiles"]]
    if "attack_start" in data:
        spec.attack_start = float(data["attack_start"])
    if "attack_duration" in data:
        value = data["attack_duration"]
        spec.attack_duration = None if value is None else float(value)
    if "variants" in data:
        spec.variants = {
            str(name): dict(overrides)
            for name, overrides in dict(data["variants"]).items()
        }
    if "ids_families" in data:
        spec.ids_families = [
            None if f in (None, "", "none") else str(f)
            for f in data["ids_families"]
        ]
    if "fault_campaign" in data:
        value = data["fault_campaign"]
        spec.fault_campaign = (
            None if value in (None, "", "none") else str(value)
        )
    if "fault_start" in data:
        spec.fault_start = float(data["fault_start"])
    if "fault_duration" in data:
        spec.fault_duration = float(data["fault_duration"])
    return spec
