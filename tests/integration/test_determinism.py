"""Determinism regression tests: the contract the sweep cache depends on.

The runner caches completed runs by a hash of the run *spec*, which is only
sound if the simulation result is a pure function of that spec.  These
tests pin the contract from both ends: the same spec executed twice — and
executed through different entry points (direct scenario composition vs the
runner's worker) — must produce byte-identical summary dicts.
"""

import json

from repro.runner import RunSpec, execute_run, run_sweep
from repro.scenarios.factory import compose_run

OVERRIDES = {
    "width": 180.0, "height": 180.0, "tree_density": 0.015,
    "n_workers": 2, "drone_enabled": False,
}
HORIZON = 150.0


def _spec(campaign="rf_jamming", seed=13):
    return RunSpec.single(
        campaign, seed=seed, horizon_s=HORIZON,
        start=30.0, duration=60.0, overrides=OVERRIDES,
    )


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _compose_and_run(spec: RunSpec) -> dict:
    prepared = compose_run(spec)
    prepared.run()
    return prepared.scenario.summary()


class TestRunDeterminism:
    def test_same_spec_twice_in_process_is_byte_identical(self):
        spec = _spec()
        first = _compose_and_run(spec)
        second = _compose_and_run(spec)
        assert _canonical(first) == _canonical(second)

    def test_worker_entry_point_matches_direct_composition(self):
        spec = _spec()
        direct = _compose_and_run(spec)
        record = execute_run(spec)
        assert record["status"] == "ok", record["error"]
        assert _canonical(record["result"]["summary"]) == _canonical(direct)

    def test_worker_entry_point_twice_is_byte_identical(self):
        spec = _spec(campaign="gnss_spoofing", seed=29)
        first = execute_run(spec)
        second = execute_run(spec)
        assert _canonical(first["result"]) == _canonical(second["result"])

    def test_subprocess_matches_in_process(self):
        # the cross-process half of the cache contract: a pool worker in a
        # fresh interpreter must reproduce the coordinator's result exactly
        spec = _spec(campaign="wifi_deauth", seed=5)
        in_process = execute_run(spec)
        (pooled,) = run_sweep([spec], jobs=2).records
        assert _canonical(in_process["result"]) == _canonical(pooled["result"])

    def test_different_seeds_actually_differ(self):
        # guards against the trivial way the above could pass: a simulation
        # that ignores its seed entirely
        a = _compose_and_run(_spec(seed=13))
        b = _compose_and_run(_spec(seed=14))
        assert _canonical(a) != _canonical(b)

    def test_baseline_campaign_differs_from_attack(self):
        benign = _compose_and_run(_spec(campaign="baseline"))
        attacked = _compose_and_run(_spec(campaign="rf_jamming"))
        assert _canonical(benign) != _canonical(attacked)
