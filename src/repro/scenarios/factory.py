"""Primitive-valued run specs → composed, armed worksite scenarios.

The sweep runner fans runs out across processes, so everything it ships to
a worker must be picklable and platform-stable: plain strings, numbers and
tuples.  This module is the bridge — it turns such a primitive mapping into
a fully composed :class:`~repro.scenarios.worksite.WorksiteScenario` with
its attack campaigns armed and (optionally) a standalone IDS family
attached, without the caller ever touching enum or object types.

``compose_run(spec)`` plus :meth:`PreparedRun.run` is the one run path:
the CLI, the sweep worker, the fuzz evaluator, the replay oracle and the
invariant self-test all compose and drive their runs through it, so a
recorded stream and its replay can never be built two different ways.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.comms.crypto.secure_channel import SecurityProfile
from repro.defense.ids.anomaly import AnomalyIds
from repro.defense.ids.manager import IdsManager
from repro.defense.ids.signature import SignatureIds
from repro.defense.ids.spec import ProtocolSpec, SpecificationIds
from repro.faults.injector import FaultInjector
from repro.faults.spec import schedule_from_primitives
from repro.invariants import engine as checks
from repro.scenarios.campaigns import CAMPAIGN_BUILDERS, build_campaign
from repro.scenarios.worksite import (
    ScenarioConfig,
    WorksiteScenario,
    build_worksite,
)
from repro.sim.weather import WeatherState
from repro.telemetry import tracer as trace

if TYPE_CHECKING:
    from repro.runner.spec import RunSpec

#: names a run spec may use for its defence posture
PROFILES = ("defended", "undefended")

#: IDS families a run spec may attach on top of an undefended scenario
IDS_FAMILIES = ("signature", "anomaly", "spec", "ensemble")

#: ScenarioConfig fields a spec may override with primitive values
_OVERRIDABLE = {
    "width", "height", "tree_density", "n_ridges", "ridge_height",
    "drone_enabled", "n_workers", "worker_approach_rate_per_h",
    "weather_initial", "weather_frozen", "pile_volume_m3",
    "groundstation_enabled", "gs_attacks",
}


def scenario_config_from_primitives(
    seed: int,
    profile: str = "defended",
    overrides: Optional[Mapping[str, object]] = None,
) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from primitive values only.

    ``profile`` selects the defence posture: ``"defended"`` is the paper's
    nominal stack, ``"undefended"`` is plaintext links with every defence
    disabled (the ablation baseline the CLI calls ``--undefended``).
    ``overrides`` may set any field in ``_OVERRIDABLE``; ``weather_initial``
    is given by name (``"clear"``, ``"rain"``, ...).
    """
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {PROFILES}"
        )
    kwargs: Dict[str, object] = {"seed": int(seed)}
    if profile == "undefended":
        kwargs.update(
            profile=SecurityProfile.PLAINTEXT,
            protected_management=False,
            defenses_enabled=False,
            access_control_enabled=False,
        )
    valid = {f.name for f in fields(ScenarioConfig)}
    for name, value in dict(overrides or {}).items():
        if name not in _OVERRIDABLE:
            hint = "overridable" if name in valid else "known"
            raise ValueError(
                f"{name!r} is not an {hint} ScenarioConfig field; "
                f"overridable: {sorted(_OVERRIDABLE)}"
            )
        if name == "weather_initial" and isinstance(value, str):
            value = WeatherState[value.upper()]
        kwargs[name] = value
    return ScenarioConfig(**kwargs)


def standalone_ids_family(name: str, scenario: WorksiteScenario) -> IdsManager:
    """Attach one IDS family (or the ensemble) to a composed scenario.

    Used by ablation runs on an *undefended* network, where the scenario's
    own IDS suite is disabled and the family under study is wired up
    separately so channel-level protections do not mask its behaviour.
    """
    if name not in IDS_FAMILIES:
        raise ValueError(
            f"unknown IDS family {name!r}; expected one of {IDS_FAMILIES}"
        )
    manager = IdsManager()
    for detector in _family_detectors(name, scenario):
        manager.attach(detector)
    return manager


def _family_detectors(name: str, scenario: WorksiteScenario) -> List:
    node = scenario.network.nodes["forwarder"]
    medium = scenario.medium
    if name == "signature":
        return [SignatureIds("sig", scenario.sim, scenario.log)]
    if name == "anomaly":
        def rate(getter):
            last = {"v": getter()}

            def sample():
                current = getter()
                delta = current - last["v"]
                last["v"] = current
                return delta

            return sample

        return [AnomalyIds(
            "anom", scenario.sim, scenario.log,
            features={
                "frame_loss_rate": rate(lambda: float(medium.frames_lost)),
                "reject_rate": rate(lambda: float(node.records_rejected)),
                "deauth_rate": rate(
                    lambda: float(node.endpoint.deauths_received)
                ),
            },
        )]
    if name == "spec":
        return [SpecificationIds(
            "spec", scenario.sim, scenario.log, node,
            ProtocolSpec(command_senders={"control"}),
        )]
    return (_family_detectors("signature", scenario)
            + _family_detectors("anomaly", scenario)
            + _family_detectors("spec", scenario))


@dataclass
class PreparedRun:
    """A composed scenario with its attack timeline armed and ready to run."""

    spec: "RunSpec"
    scenario: WorksiteScenario
    windows: List[Tuple[str, float, float]]
    ids_manager: Optional[IdsManager]
    #: armed fault injector, present only when the spec carries faults
    fault_injector: Optional[FaultInjector] = None

    def score_manager(self) -> Optional[IdsManager]:
        """The manager whose alerts should be scored for this run."""
        return self.ids_manager or self.scenario.ids_manager

    def run(
        self,
        tracer: Optional[trace.Tracer] = None,
        checker: Optional[checks.InvariantEngine] = None,
        meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Run to the spec's horizon with the given observers installed.

        This is the one place observers are installed around a run, so
        every recorded stream shares one ordering: the ``checker`` is
        armed before ``meta`` is emitted as the header (it must observe
        the run span the header opens); the ground-station audit chain is
        closed inside the traced window (its close entry is part of the
        stream and of any audit file); the tracer is closed while the
        checker still observes (end-of-trace span ends are checked too);
        both are uninstalled however the run ends.
        """
        if checker is not None:
            checks.install(checker)
        try:
            if tracer is not None:
                if meta is not None:
                    tracer.meta(**meta)
                trace.install(tracer)
            self.scenario.run(self.spec.horizon_s)
            if self.scenario.groundstation is not None:
                self.scenario.groundstation.finalize()
            if tracer is not None:
                tracer.close()
        finally:
            if tracer is not None:
                trace.uninstall()
            if checker is not None:
                checks.uninstall()


def compose_run(
    spec: "RunSpec",
    *,
    gs_audit_path: Optional[str] = None,
    metrics_interval_s: Optional[float] = None,
) -> PreparedRun:
    """Compose and arm the worksite run ``spec`` describes.

    Every campaign in ``spec.plan`` is armed; a fault injector is built
    only when ``spec.faults`` is non-empty.  ``gs_audit_path`` and
    ``metrics_interval_s`` are run outputs, not simulation inputs, so they
    stay out of the spec.  Drive the result with :meth:`PreparedRun.run`.
    """
    for name, _, _ in spec.plan:
        if name not in CAMPAIGN_BUILDERS:
            raise ValueError(
                f"unknown campaign {name!r}; "
                f"available: {sorted(CAMPAIGN_BUILDERS)}"
            )
    config = scenario_config_from_primitives(
        spec.seed, spec.profile, dict(spec.overrides)
    )
    config.gs_audit_path = gs_audit_path
    config.metrics_interval_s = metrics_interval_s
    scenario = build_worksite(config)
    windows: List[Tuple[str, float, float]] = []
    for name, start, duration in spec.plan:
        kwargs = {"start": float(start)}
        if duration is not None:
            kwargs["duration"] = float(duration)
        try:
            campaign = build_campaign(name, scenario, **kwargs)
        except TypeError:
            # some builders (e.g. "combined") stage their own durations
            kwargs.pop("duration", None)
            campaign = build_campaign(name, scenario, **kwargs)
        campaign.arm()
        windows.extend(campaign.ground_truth_windows())
    manager = (
        standalone_ids_family(spec.ids_family, scenario)
        if spec.ids_family else None
    )
    injector = None
    if spec.faults:
        injector = FaultInjector(
            scenario, schedule_from_primitives(spec.faults)
        ).arm()
    return PreparedRun(
        spec=spec, scenario=scenario, windows=windows, ids_manager=manager,
        fault_injector=injector,
    )
