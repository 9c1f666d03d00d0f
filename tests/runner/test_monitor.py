"""The sweep/fuzz progress plane: SweepMonitor folds, status.json,
stall detection and the render helpers.

The monitor never reads a clock — every event carries its timestamp —
so these tests drive synthetic event sequences and assert exact
snapshots, including that a recorded sequence replays to an identical
``status.json``.
"""

import json

import pytest

from repro.runner import SweepMonitor, progress_line, read_status, render_status
from repro.runner.monitor import (
    MIN_COMPLETED_FOR_STALL,
    STALL_FLOOR_S,
)


def _events(n_cells=4, cell_s=10.0, jobs=2):
    """A synthetic campaign: n cells, each taking cell_s seconds."""
    events = [{"event": "sweep_started", "total": n_cells, "jobs": jobs,
               "t": 0.0}]
    for i in range(n_cells):
        start = i * cell_s
        events.append({"event": "cell_started", "key": f"c{i}",
                       "label": f"cell {i}", "t": start})
        events.append({"event": "cell_finished", "key": f"c{i}",
                       "status": "ok", "cached": False, "wall_s": cell_s,
                       "pid": 100 + (i % jobs), "t": start + cell_s})
    return events


def _fold(events):
    monitor = SweepMonitor()
    for event in events:
        monitor.on_event(event)
    return monitor


class TestFold:
    def test_counts(self):
        monitor = _fold(_events(n_cells=4))
        snapshot = monitor.snapshot()
        assert snapshot["total"] == 4
        assert snapshot["done"] == 4
        assert snapshot["failed"] == 0
        assert snapshot["pending"] == 0
        assert snapshot["running"] == []

    def test_running_and_pending(self):
        events = _events(n_cells=4)[:4]  # started, c0 done, c1 started
        monitor = _fold(events)
        snapshot = monitor.snapshot(now=12.0)
        assert snapshot["done"] == 1
        assert [c["key"] for c in snapshot["running"]] == ["c1"]
        assert snapshot["running"][0]["age_s"] == 2.0
        assert snapshot["pending"] == 2

    def test_failed_and_cached_classification(self):
        monitor = _fold([
            {"event": "sweep_started", "total": 3, "jobs": 1, "t": 0.0},
            {"event": "cell_finished", "key": "a", "status": "ok",
             "cached": True, "t": 1.0},
            {"event": "cell_finished", "key": "b", "status": "failed",
             "cached": False, "wall_s": 1.0, "t": 2.0},
            {"event": "cell_finished", "key": "c", "status": "ok",
             "cached": False, "wall_s": 1.0, "t": 3.0},
        ])
        snapshot = monitor.snapshot()
        assert snapshot["done"] == 3
        assert snapshot["cached"] == 1
        assert snapshot["failed"] == 1

    def test_cached_cells_do_not_skew_durations(self):
        monitor = _fold([
            {"event": "sweep_started", "total": 2, "jobs": 1, "t": 0.0},
            {"event": "cell_finished", "key": "a", "status": "ok",
             "cached": True, "wall_s": 0.0001, "t": 0.1},
            {"event": "cell_finished", "key": "b", "status": "ok",
             "cached": False, "wall_s": 10.0, "t": 10.0},
        ])
        assert monitor.snapshot()["durations"]["count"] == 1

    def test_eta_extrapolates_from_mean_duration(self):
        events = _events(n_cells=4, cell_s=10.0, jobs=2)[:5]  # 2 done
        snapshot = _fold(events).snapshot(now=20.0)
        # 2 remaining x 10 s mean / 2 jobs
        assert snapshot["eta_s"] == 10.0

    def test_worker_liveness(self):
        monitor = _fold(_events(n_cells=4, jobs=2))
        workers = monitor.snapshot(now=45.0)["workers"]
        assert set(workers) == {"100", "101"}
        assert workers["101"]["idle_s"] == 5.0  # pid 101 finished c3 at 40

    def test_heartbeat_refreshes_liveness_only(self):
        monitor = _fold(_events(n_cells=2)[:3])
        before = monitor.snapshot(now=30.0)
        monitor.on_event({"event": "heartbeat", "t": 30.0, "pid": 100})
        after = monitor.snapshot(now=30.0)
        assert after["done"] == before["done"]
        assert after["workers"]["100"]["idle_s"] == 0.0


class TestSelfHealingFolds:
    def test_cell_retry_requeues_and_counts(self):
        monitor = _fold([
            {"event": "sweep_started", "total": 2, "jobs": 2, "t": 0.0},
            {"event": "cell_started", "key": "a", "label": "cell a",
             "t": 1.0},
            {"event": "cell_retry", "key": "a", "attempt": 1,
             "kind": "lost", "t": 2.0},
        ])
        snapshot = monitor.snapshot(now=2.0)
        # the attempt ended: the cell is back in the queue, not running
        assert snapshot["running"] == []
        assert snapshot["retries"] == 1
        assert snapshot["done"] == 0

    def test_restarted_cell_carries_its_attempt_number(self):
        monitor = _fold([
            {"event": "sweep_started", "total": 1, "jobs": 1, "t": 0.0},
            {"event": "cell_started", "key": "a", "label": "cell a",
             "t": 1.0, "attempt": 1},
            {"event": "cell_retry", "key": "a", "attempt": 1,
             "kind": "timeout", "t": 2.0},
            {"event": "cell_started", "key": "a", "label": "cell a",
             "t": 3.0, "attempt": 2},
        ])
        (running,) = monitor.snapshot(now=3.0)["running"]
        assert running["attempt"] == 2

    def test_workers_degraded_updates_jobs_and_remembers_origin(self):
        monitor = _fold([
            {"event": "sweep_started", "total": 4, "jobs": 8, "t": 0.0},
            {"event": "workers_degraded", "old": 8, "new": 4, "t": 5.0},
            {"event": "workers_degraded", "old": 4, "new": 2, "t": 9.0},
        ])
        snapshot = monitor.snapshot(now=9.0)
        # degraded_from pins the *original* budget across repeated shrinks
        assert snapshot["degraded_from"] == 8
        assert snapshot["jobs"] == 2

    def test_stall_events_counter_survives_cell_completion(self):
        events = _events(n_cells=4, cell_s=10.0)
        threshold = _fold(events).stall_threshold_s()
        events.append({"event": "cell_started", "key": "slow",
                       "label": "slow", "t": 40.0})
        # a heartbeat past the threshold fires the durable counter
        events.append({"event": "heartbeat",
                       "t": 41.0 + threshold + 40.0})
        events.append({"event": "cell_finished", "key": "slow",
                       "status": "ok", "cached": False, "wall_s": 60.0,
                       "t": 42.0 + threshold + 40.0})
        monitor = _fold(events)
        assert monitor.stall_events == 1
        assert monitor.snapshot()["stall_events"] == 1
        # flagged once, not once per subsequent event
        assert monitor.snapshot()["running"] == []

    def test_progress_line_and_render_surface_healing(self):
        monitor = _fold([
            {"event": "sweep_started", "total": 2, "jobs": 4, "t": 0.0},
            {"event": "cell_retry", "key": "a", "attempt": 1,
             "kind": "lost", "t": 1.0},
            {"event": "workers_degraded", "old": 4, "new": 2, "t": 2.0},
        ])
        line = progress_line(monitor.snapshot(now=2.0))
        assert "1 retries" in line
        assert "DEGRADED 4->2" in line
        text = render_status(monitor.snapshot(now=2.0))
        assert "1 retried attempt(s)" in text
        assert "DEGRADED 4 -> 2" in text

    def test_render_status_shows_retry_attempts(self):
        monitor = _fold([
            {"event": "sweep_started", "total": 1, "jobs": 1, "t": 0.0},
            {"event": "cell_started", "key": "a", "label": "cell a",
             "t": 1.0, "attempt": 3},
        ])
        assert ", attempt 3" in render_status(monitor.snapshot(now=2.0))


class TestStallDetection:
    def test_no_threshold_until_enough_completions(self):
        events = _events(n_cells=MIN_COMPLETED_FOR_STALL)[
            : 1 + 2 * (MIN_COMPLETED_FOR_STALL - 1)
        ]
        monitor = _fold(events)
        assert monitor.stall_threshold_s() is None
        # even an ancient running cell is not flagged without a threshold
        snapshot = monitor.snapshot(now=10_000.0)
        assert all(not c["stalled"] for c in snapshot["running"])

    def test_floor_applies_to_fast_cells(self):
        monitor = _fold(_events(n_cells=4, cell_s=1.0))
        assert monitor.stall_threshold_s() == STALL_FLOOR_S

    def test_slow_cell_is_flagged(self):
        events = _events(n_cells=4, cell_s=10.0)
        events.append({"event": "cell_started", "key": "slow",
                       "label": "slow cell", "t": 40.0})
        monitor = _fold(events)
        threshold = monitor.stall_threshold_s()
        ok = monitor.snapshot(now=40.0 + threshold)
        assert ok["running"][0]["stalled"] is False
        stalled = monitor.snapshot(now=41.0 + threshold)
        assert stalled["running"][0]["stalled"] is True


class TestStatusFile:
    def test_write_read_round_trip(self, tmp_path):
        monitor = _fold(_events())
        target = tmp_path / "deep" / "status.json"
        written = monitor.write_status(target, now=45.0)
        assert written == target
        assert read_status(target) == monitor.snapshot(now=45.0)
        assert not target.with_name("status.json.tmp").exists()

    @pytest.mark.parametrize("payload", [
        '{"total": 3, "done": 3}', '[1, 2]', '{"schema": 1}',
    ])
    def test_read_rejects_json_that_is_not_a_snapshot(self, tmp_path,
                                                      payload):
        target = tmp_path / "status.json"
        target.write_text(payload)
        with pytest.raises(ValueError, match="not a status snapshot"):
            read_status(target)

    def test_snapshot_reproducible_from_recorded_events(self, tmp_path):
        """The acceptance property: replaying a recorded heartbeat/event
        sequence yields a byte-identical status.json."""
        events = _events(n_cells=6, cell_s=3.0)[:9]
        first = _fold(events).write_status(tmp_path / "a.json", now=13.0)
        second = _fold(events).write_status(tmp_path / "b.json", now=13.0)
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes()) > 0

    def test_status_is_sorted_json(self, tmp_path):
        monitor = _fold(_events())
        target = monitor.write_status(tmp_path / "status.json", now=45.0)
        text = target.read_text(encoding="utf-8")
        assert text == json.dumps(
            json.loads(text), indent=2, sort_keys=True
        ) + "\n"


class TestRendering:
    def test_progress_line_mentions_counts(self):
        line = progress_line(_fold(_events()).snapshot(now=41.0))
        assert "4/4 done" in line
        assert "[sweep]" in line

    def test_progress_line_flags_stalls(self):
        events = _events(n_cells=4, cell_s=10.0)
        events.append({"event": "cell_started", "key": "slow",
                       "label": "slow", "t": 40.0})
        monitor = _fold(events)
        line = progress_line(monitor.snapshot(now=1000.0))
        assert "1 STALLED" in line

    def test_render_status_lists_running_cells(self):
        events = _events(n_cells=4)[:4]
        text = render_status(_fold(events).snapshot(now=12.0))
        assert "cell 1" in text
        assert "1/4 done" in text

    def test_render_status_marks_stalled_cells(self):
        events = _events(n_cells=4, cell_s=10.0)
        events.append({"event": "cell_started", "key": "slow",
                       "label": "slow", "t": 40.0})
        text = render_status(_fold(events).snapshot(now=1000.0))
        assert "** STALLED **" in text
