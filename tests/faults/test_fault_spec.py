"""FaultSpec / FaultSchedule: validation, primitives round trip, jitter."""

import pytest

from repro.faults.spec import (
    FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
    load_fault_schedule,
    schedule_from_mapping,
    schedule_from_primitives,
)
from repro.sim.rng import RngStreams


class TestFaultSpec:
    def test_make_normalises_primitives(self):
        spec = FaultSpec.make("node_crash", "drone", 10, 5, {"b": 2, "a": 1})
        assert spec.start_s == 10.0 and spec.duration_s == 5.0
        assert spec.params == (("a", 1), ("b", 2))
        assert spec.end_s == 15.0

    def test_open_ended_fault_has_no_end(self):
        spec = FaultSpec.make("sensor_freeze", "cam-forwarder", 3.0)
        assert spec.duration_s is None and spec.end_s is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.make("meteor_strike", "drone", 0.0)

    def test_negative_start_and_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="start"):
            FaultSpec.make("node_crash", "drone", -1.0)
        with pytest.raises(ValueError, match="duration"):
            FaultSpec.make("node_crash", "drone", 0.0, 0.0)

    def test_param_lookup(self):
        spec = FaultSpec.make("radio_brownout", "forwarder", 1.0,
                              params={"sag_db": 9.0})
        assert spec.param("sag_db") == 9.0
        assert spec.param("missing", 42) == 42
        assert spec.param_dict() == {"sag_db": 9.0}

    def test_primitives_round_trip(self):
        spec = FaultSpec.make("clock_drift", "drone", 7.5, 20.0,
                              {"offset_s": 0.5, "rate": 0.001})
        assert FaultSpec.from_primitives(spec.to_primitives()) == spec

    def test_every_kind_constructs(self):
        for kind in FAULT_KINDS:
            assert FaultSpec.make(kind, "x", 0.0).kind == kind


class TestFaultSchedule:
    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert len(FaultSchedule()) == 0

    def test_resolve_without_jitter_makes_no_rng_draws(self):
        streams = RngStreams(1)
        schedule = FaultSchedule(
            faults=(FaultSpec.make("node_crash", "drone", 10.0, 5.0),)
        )
        resolved = schedule.resolve(streams)
        assert resolved == schedule.faults
        # the jitter stream was never created, so a fresh consumer of the
        # same name starts from its seed-derived state
        assert "faults.schedule" not in streams.names

    def test_resolve_jitter_is_deterministic_per_seed(self):
        schedule = FaultSchedule(
            faults=(
                FaultSpec.make("node_crash", "drone", 10.0, 5.0),
                FaultSpec.make("radio_brownout", "forwarder", 20.0, 5.0),
            ),
            jitter_s=3.0,
        )
        a = schedule.resolve(RngStreams(7))
        b = schedule.resolve(RngStreams(7))
        c = schedule.resolve(RngStreams(8))
        assert a == b
        assert a != c
        for original, jittered in zip(schedule.faults, a):
            assert original.start_s <= jittered.start_s <= original.start_s + 3.0

    def test_last_end_covers_all_faults(self):
        schedule = FaultSchedule(faults=(
            FaultSpec.make("node_crash", "drone", 10.0, 5.0),
            FaultSpec.make("radio_brownout", "forwarder", 20.0, 30.0),
        ))
        assert schedule.last_end_s == 50.0

    def test_last_end_none_when_any_open_ended(self):
        schedule = FaultSchedule(faults=(
            FaultSpec.make("sensor_dropout", "us-forwarder", 5.0),
        ))
        assert schedule.last_end_s is None

    def test_key_is_stable_and_content_sensitive(self):
        base = FaultSchedule(faults=(
            FaultSpec.make("node_crash", "drone", 10.0, 5.0),
        ))
        same = schedule_from_primitives(base.to_primitives()[0])
        other = FaultSchedule(faults=(
            FaultSpec.make("node_crash", "drone", 11.0, 5.0),
        ))
        assert base.key == same.key
        assert base.key != other.key


class TestScheduleLoading:
    def test_mapping_round_trip(self):
        schedule = schedule_from_mapping({
            "jitter_s": 1.5,
            "fault": [
                {"kind": "node_crash", "target": "drone", "start": 10,
                 "duration": 5},
                {"kind": "packet_corruption", "target": "medium",
                 "start": 20, "params": {"probability": 0.3}},
            ],
        })
        assert schedule.jitter_s == 1.5
        assert len(schedule) == 2
        assert schedule.faults[1].param("probability") == 0.3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault schedule keys"):
            schedule_from_mapping({"faults": []})
        with pytest.raises(ValueError, match=r"unknown \[\[fault\]\] keys"):
            schedule_from_mapping({
                "fault": [{"kind": "node_crash", "target": "d", "begin": 1}],
            })

    @pytest.mark.parametrize("missing", ["kind", "target"])
    def test_missing_required_key_names_entry_and_key(self, missing):
        entries = [
            {"kind": "node_crash", "target": "drone", "start": 10},
            {"kind": "node_crash", "target": "drone", "start": 20},
        ]
        del entries[1][missing]
        with pytest.raises(
            ValueError, match=rf"\[\[fault\]\] entry 1 .*'{missing}'"
        ):
            schedule_from_mapping({"fault": entries})

    def test_non_table_entry_rejected(self):
        with pytest.raises(ValueError, match=r"entry 0 is not a table"):
            schedule_from_mapping({"fault": ["node_crash"]})

    @pytest.mark.parametrize("value", [5, "node_crash", {"kind": "x"}])
    def test_non_array_fault_rejected(self, value):
        with pytest.raises(ValueError, match=r"'fault' must be an array"):
            schedule_from_mapping({"fault": value})

    def test_non_table_schedule_rejected(self):
        with pytest.raises(ValueError, match="must be a table"):
            schedule_from_mapping([{"fault": []}])

    def test_example_storm_file_loads(self):
        schedule = load_fault_schedule("examples/faults_storm.toml")
        assert len(schedule) == 7
        assert schedule.jitter_s == 2.0
        kinds = {fault.kind for fault in schedule.faults}
        assert "node_crash" in kinds and "packet_corruption" in kinds
