"""The three benchmark workloads, untimed set-up apart from timed work.

Every workload has the same shape:

* ``setup()`` does what a user pays before work can begin (imports, then
  building the first worksite, expanding the sweep and creating its
  campaign DB, or starting a fuzz corpus); ``run.py`` times it from its
  own first line;
* ``measure()`` runs the timed work with no observer installed and returns
  the end-to-end metrics;
* ``trace()`` reruns part of the work untraced, then once with probes
  installed, and returns the per-layer metrics.

Work sizes are fixed by ``--seconds`` through each workload's nominal
operation time on the reference host (2 vCPU, Python 3.11), never by the
clock, so both sides of a comparison run exactly the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

import layers
from tracing import Patched, Probe, SpanRecorder


def scenario_seeds(seed: int, n: int) -> List[int]:
    """``seed`` itself, then ``n - 1`` seeds derived from it by SHA-256."""
    derived = [
        int.from_bytes(
            hashlib.sha256(f"perfbench:{seed}:{i}".encode()).digest()[:4], "big"
        ) % (2 ** 31)
        for i in range(1, n)
    ]
    return [int(seed)] + derived


def n_ops(seconds: float, op_s: float) -> int:
    return max(1, round(seconds / op_s))


def digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Tally:
    """Attempted and failed operations; a failed output check is a failure."""

    def __init__(self, log: Callable[[str], None] = lambda line: None) -> None:
        self.attempted = 0
        self.failed = 0
        self.log = log

    def op(self, ok: bool, what: str) -> None:
        """One attempted operation (a run, a cell or an iteration)."""
        self.ops(1, 0 if ok else 1, what)

    def ops(self, n: int, failed: int, what: str) -> None:
        """``n`` attempted operations of which ``failed`` failed."""
        self.attempted += n
        if failed:
            self.failed += failed
            self.log(f"FAILED: {failed}/{n} {what}")

    def check(self, ok: bool, what: str) -> None:
        """An output check over operations already counted as attempted."""
        if not ok:
            self.failed += 1
            self.log(f"MISMATCH: {what}")

    @property
    def failed_frac(self) -> float:
        return min(self.failed, self.attempted) / self.attempted if self.attempted else 0.0


class Expected:
    """Outputs and exact work counts remembered across runs of a set.

    Stored in the checkout's work directory, keyed by workload, mode, seed
    and work size: the first run of a set records, every later run with the
    same key must match it exactly.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.data = {}

    def match(self, key: str, value) -> bool:
        known = self.data.get(key)
        if known is None:
            self.data[key] = value
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, sort_keys=True), encoding="utf-8")
            os.replace(tmp, self.path)
            return True
        return known == value


def perf_counters_on():
    """Enable ``repro.perf`` for a traced phase; ``None`` if it is gone."""
    try:
        from repro.perf import counters
    except ImportError:
        return None
    counters.reset()
    counters.enable(True)
    return counters


def perf_counters_off(counters) -> Optional[Dict[str, int]]:
    if counters is None:
        return None
    snapshot = dict(counters.snapshot()["counters"])
    counters.enable(False)
    counters.reset()
    return snapshot


def count_metrics(metrics: Mapping[str, float]) -> Dict[str, float]:
    """The exact work counts among the per-layer metrics."""
    return {
        name: value for name, value in metrics.items()
        if layers.PER_LAYER[name][0] == "count"
    }


class Workload:
    name = ""
    #: nominal seconds of one operation on the reference host
    op_s = 1.0

    def __init__(self, seed: int, seconds: float, tracing: bool, workdir: Path,
                 tally: Tally, expected: Expected) -> None:
        self.seed = int(seed)
        self.seconds = seconds
        self.tracing = tracing
        self.workdir = workdir
        self.tally = tally
        self.expected = expected
        self.import_s = 0.0

    def key(self, mode: str, size: int) -> str:
        return f"{self.name}:{mode}:seed={self.seed}:n={size}"

    def setup(self, t0: float) -> None:
        raise NotImplementedError

    def measure(self) -> Dict[str, float]:
        raise NotImplementedError

    def trace(self, span_path: Path) -> Dict[str, float]:
        raise NotImplementedError

    def _finish_trace(self, recorder: SpanRecorder, span_path: Path,
                      counters, extra: Dict[str, float],
                      size: int) -> Dict[str, float]:
        metrics = layers.per_layer_metrics(
            recorder, root="bench.work", extra=extra, perf_counters=counters,
        )
        recorder.write(span_path)
        self.tally.check(
            self.expected.match(self.key("counts", size), count_metrics(metrics)),
            f"{self.name}: exact work counts differ from an earlier run",
        )
        return metrics


# -- fig1_30min ------------------------------------------------------------

class Fig1(Workload):
    """The nominal, defended Figure 1 worksite run for 30 simulated minutes."""

    name = "fig1_30min"
    op_s = 6.0
    horizon_s = 1800.0

    def setup(self, t0: float) -> None:
        from repro.scenarios import worksite

        self.import_s = time.perf_counter() - t0
        self.worksite = worksite
        size = 1 if self.tracing else n_ops(self.seconds, self.op_s)
        self.seeds = scenario_seeds(self.seed, size)
        started = time.perf_counter()
        self.first = worksite.build_worksite(
            worksite.ScenarioConfig(seed=self.seeds[0]))
        self.first_build_s = time.perf_counter() - started

    def _run_one(self, scenario_seed: int):
        """Build (the first one was built in set-up) and run one scenario;
        returns its build and run wall times and an output digest."""
        scenario, self.first = self.first, None
        started = time.perf_counter()
        if scenario is None:
            # looked up at call time, so a traced phase sees its probe
            scenario = self.worksite.build_worksite(
                self.worksite.ScenarioConfig(seed=scenario_seed))
            build_s = time.perf_counter() - started
        else:
            build_s = self.first_build_s
        started = time.perf_counter()
        scenario.run(self.horizon_s)
        run_s = time.perf_counter() - started
        out = {
            "summary": scenario.summary(),
            "events": scenario.sim.events_processed,
            "frames": scenario.medium.frames_sent,
        }
        ok = scenario.sim.now == self.horizon_s and out["events"] > 0
        self.tally.op(ok, f"{self.name} seed {scenario_seed} stopped at "
                          f"t={scenario.sim.now}")
        return build_s, run_s, digest(out)

    def measure(self) -> Dict[str, float]:
        ops = [self._run_one(scenario_seed) for scenario_seed in self.seeds]
        self.tally.check(
            self.expected.match(self.key("digest", len(ops)), [d for _, _, d in ops]),
            f"{self.name}: run outputs differ from an earlier run",
        )
        # medians over the run's scenarios: one scenario that a burst of
        # host load slows down does not move the figure
        return {
            "sim_s_per_wall_s": statistics.median(self.horizon_s / r for _, r, _ in ops),
            "ops_per_s": statistics.median(1.0 / (b + r) for b, r, _ in ops),
        }

    def trace(self, span_path: Path) -> Dict[str, float]:
        scenario_seed = self.seeds[0]
        untraced = [self._run_one(scenario_seed) for _ in range(2)]
        recorder = SpanRecorder()
        counters = perf_counters_on()
        try:
            with Patched(layers.sim_probes(), recorder):
                with recorder.span("bench.work"):
                    traced = self._run_one(scenario_seed)
        finally:
            counters = perf_counters_off(counters)
        self.tally.check(
            len({d for _, _, d in untraced + [traced]}) == 1,
            f"{self.name}: traced run output differs from the untraced runs",
        )
        extra = {
            "setup.import_s": self.import_s,
            "bench.trace_overhead_pct": 100.0 * (
                recorder.wall("bench.work")
                / statistics.median(b + r for b, r, _ in untraced) - 1.0
            ),
        }
        return self._finish_trace(recorder, span_path, counters, extra, 1)


# -- attack_sweep ----------------------------------------------------------

#: every cell runs twice: the plain worksite, and with the signed
#: ground-station plane armed and all three of its attacks active
VARIANTS = {
    "plain": {},
    "gs": {
        "groundstation_enabled": True,
        "gs_attacks": "command_forgery+command_replay+alert_suppression",
    },
}


class AttackSweep(Workload):
    """All 12 attack campaigns x 2 variants of short cells on a pool."""

    name = "attack_sweep"
    #: one round = 24 cells at jobs=2
    op_s = 11.0
    horizon_s = 240.0
    attack_start_s = 60.0
    attack_duration_s = 120.0

    def setup(self, t0: float) -> None:
        from repro.runner import CampaignStore, SweepRunner, SweepSpec
        from repro.runner.worker import execute_run
        from repro.scenarios import CAMPAIGN_BUILDERS

        self.import_s = time.perf_counter() - t0
        self.runner_cls, self.execute_run = SweepRunner, execute_run
        rounds = 1 if self.tracing else n_ops(self.seconds, self.op_s)
        campaigns = sorted(CAMPAIGN_BUILDERS)
        seeds = scenario_seeds(self.seed, rounds * len(campaigns))
        # each campaign gets its own worksite seed per round, so a run
        # averages over many forests rather than over one
        self.specs = []
        for r in range(rounds):
            for c, campaign in enumerate(campaigns):
                self.specs += SweepSpec(
                    campaigns=[campaign],
                    seeds=[seeds[r * len(campaigns) + c]],
                    horizon_s=self.horizon_s,
                    attack_start=self.attack_start_s,
                    attack_duration=self.attack_duration_s,
                    variants=VARIANTS,
                ).expand()
        self.store = CampaignStore(self.workdir / "campaign.db")
        self.store.ensure_campaign("bench", self.specs)
        self.jobs = min(2, os.cpu_count() or 1)

    def _sweep(self):
        runner = self.runner_cls(jobs=self.jobs, store=self.store.bind("bench"))
        started = time.perf_counter()
        report = runner.run(self.specs)
        wall = time.perf_counter() - started
        for record in report.records:
            self.tally.op(
                record.get("status") == "ok" and record.get("attempts") == 1,
                f"{self.name} cell {record['key']}: {record.get('status')} "
                f"after {record.get('attempts')} attempt(s): {record.get('error')}",
            )
        results = {r["key"]: r.get("result") for r in report.records}
        self.tally.check(
            self.expected.match(self.key("digest", len(self.specs)), digest(results)),
            f"{self.name}: cell results differ from an earlier run",
        )
        return report, wall

    def measure(self) -> Dict[str, float]:
        report, wall = self._sweep()
        cells = len(report.records)
        return {
            "sim_s_per_wall_s": cells * self.horizon_s / wall,
            "ops_per_s": cells / wall,
        }

    def trace(self, span_path: Path) -> Dict[str, float]:
        # pool workers' spans cannot be collected from outside: the runner
        # layers come from the parent of a jobs=2 sweep, the layers below
        # from executing the same cells inline
        recorder = SpanRecorder()
        with Patched(layers.runner_probes(), recorder):
            with recorder.span("bench.sweep"):
                report, wall = self._sweep()
        by_key = {r["key"]: r for r in report.records}
        cell_s = sum(r["wall_s"] for r in report.records)
        counters = perf_counters_on()
        totals: Dict[str, int] = {}
        verdicts: Dict[str, int] = {}
        inline_s = 0.0
        try:
            with Patched(layers.sim_probes(), recorder):
                with recorder.span("bench.work"):
                    for spec in self.specs:
                        started = time.perf_counter()
                        record = self.execute_run(spec.to_dict())
                        inline_s += time.perf_counter() - started
                        self.tally.check(
                            record["result"] == by_key[spec.key]["result"],
                            f"{self.name}: inline cell {spec.key} differs "
                            "from the pool result",
                        )
                        # execute_run resets repro.perf per cell
                        for name, n in record.get("perf", {}).get("counters", {}).items():
                            totals[name] = totals.get(name, 0) + n
                        gs = (record["result"] or {}).get("summary", {}).get("groundstation")
                        for vehicle in (gs or {}).get("vehicles", {}).values():
                            for verdict, n in vehicle["verdicts"].items():
                                verdicts[verdict] = verdicts.get(verdict, 0) + n
        finally:
            perf_counters_off(counters)
        judged = sum(verdicts.values())
        rejected = judged - verdicts.get("executed", 0)
        extra = {
            "setup.import_s": self.import_s,
            "runner.cell_s": cell_s,
            "runner.dispatch_wait_s": self.jobs * wall - cell_s,
            "runner.attempts_per_cell":
                sum(r["attempts"] for r in report.records) / len(report.records),
            "groundstation.rejected_ratio": rejected / judged if judged else 0.0,
            "bench.trace_overhead_pct": 100.0 * (inline_s / cell_s - 1.0),
        }
        return self._finish_trace(
            recorder, span_path, totals if counters is not None else None,
            extra, len(self.specs),
        )


# -- fuzz_session ----------------------------------------------------------

class FuzzRun(Workload):
    """Coverage-guided fuzz sessions, each on a fresh corpus."""

    name = "fuzz_session"
    op_s = 0.45
    #: a timed run splits its iterations over this many sessions (master
    #: seeds ``scenario_seeds(seed, n)``): mutations inherit their parent's
    #: horizon and campaign, so one long session's cost is set by its first
    #: few corpus entries, while many short ones average over many
    sessions = 6
    #: iterations of the traced session (and of its untraced twins)
    trace_iterations = 20

    def setup(self, t0: float) -> None:
        from repro.fuzz import FuzzSession

        self.import_s = time.perf_counter() - t0
        self.session_cls = FuzzSession
        if self.tracing:
            self.master_seeds = [self.seed]
            self.iterations = self.trace_iterations
        else:
            self.master_seeds = scenario_seeds(self.seed, self.sessions)
            self.iterations = max(
                1, n_ops(self.seconds, self.op_s) // self.sessions)
        self.session = self._start("corpus-0", self.master_seeds[0])

    def _start(self, name: str, master_seed: int):
        session = self.session_cls(self.workdir / name, master_seed)
        session.start()
        return session

    def _run(self, session, recorder: SpanRecorder, probes: List[Probe]):
        started = time.perf_counter()
        with Patched(probes, recorder):
            with recorder.span("bench.work"):
                report = session.run(iterations=self.iterations)
        wall = time.perf_counter() - started
        totals = report["totals"]
        self.tally.ops(self.iterations, totals["failures"],
                       f"{self.name} iterations: {totals}")
        self.tally.check(
            totals["iterations"] == self.iterations
            and totals["unshrinkable"] == 0,
            f"{self.name}: {totals}",
        )
        return report, wall

    def measure(self) -> Dict[str, float]:
        # the only probe on a timed run: one tally per evaluated spec of
        # its simulated horizon
        horizon = Probe("repro.fuzz.search:evaluate_spec",
                        tally=("sim_s", lambda spec, **kw: spec.horizon_s))
        recorder = SpanRecorder()
        wall, totals = 0.0, []
        for i, master_seed in enumerate(self.master_seeds):
            session = self.session if i == 0 else self._start(f"corpus-{i}", master_seed)
            report, session_wall = self._run(session, recorder, [horizon])
            wall += session_wall
            totals.append(report["totals"])
        self.session = None
        self.tally.check(
            self.expected.match(self.key("totals", self.iterations), totals),
            f"{self.name}: report totals differ from an earlier run",
        )
        return {
            "sim_s_per_wall_s": recorder.counts["sim_s"] / wall,
            "ops_per_s": len(totals) * self.iterations / wall,
        }

    def trace(self, span_path: Path) -> Dict[str, float]:
        untraced, reports = [], []
        for session in (self.session, self._start("corpus-1", self.seed)):
            report, wall = self._run(session, SpanRecorder(), [])
            untraced.append(wall)
            reports.append(report)
        traced_session = self._start("corpus-traced", self.seed)
        recorder = SpanRecorder()
        counters = perf_counters_on()
        try:
            report, _ = self._run(
                traced_session, recorder, layers.sim_probes() + layers.fuzz_probes()
            )
        finally:
            counters = perf_counters_off(counters)
        self.tally.check(
            all(r == report for r in reports),
            f"{self.name}: traced session report differs from the untraced ones",
        )
        extra = {
            "setup.import_s": self.import_s,
            "fuzz.signatures_found": report["totals"]["signatures"],
            "bench.trace_overhead_pct":
                100.0 * (recorder.wall("bench.work") / statistics.median(untraced) - 1.0),
        }
        return self._finish_trace(recorder, span_path, counters, extra,
                                  self.iterations)


WORKLOADS = {cls.name: cls for cls in (Fig1, AttackSweep, FuzzRun)}


def clean(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
