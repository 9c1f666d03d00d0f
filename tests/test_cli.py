"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 42
        assert args.minutes == 15.0
        assert not args.undefended

    def test_attack_arguments(self):
        args = build_parser().parse_args(
            ["attack", "rf_jamming", "--seed", "7", "--undefended"]
        )
        assert args.campaign == "rf_jamming"
        assert args.seed == 7
        assert args.undefended

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert not args.resume
        assert args.out == "out/sweep.jsonl"

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.sort == "cumulative"
        assert args.limit == 25
        assert not args.perf

    def test_run_metrics_flags(self):
        args = build_parser().parse_args(
            ["run", "--metrics-json", "out/m.json", "--metrics-interval", "2"]
        )
        assert args.metrics_json == "out/m.json"
        assert args.metrics_interval == 2.0
        assert build_parser().parse_args(["run"]).metrics_json is None

    def test_run_metrics_prom_and_interval_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.metrics_prom is None
        # None (not a number) so cmd_run can tell "not passed" apart
        # from an explicit interval and reject the dead-flag combination
        assert args.metrics_interval is None

    def test_trace_span_flags(self):
        args = build_parser().parse_args(["trace"])
        assert not args.spans
        assert args.flamegraph is None
        args = build_parser().parse_args(
            ["trace", "--spans", "--analyze", "t.jsonl",
             "--flamegraph", "t.folded"]
        )
        assert args.spans
        assert args.flamegraph == "t.folded"

    def test_status_parser(self):
        args = build_parser().parse_args(["status", "out/sweep"])
        assert args.path == "out/sweep"

    def test_progress_flags(self):
        assert not build_parser().parse_args(["sweep"]).progress
        assert build_parser().parse_args(["sweep", "--progress"]).progress
        assert not build_parser().parse_args(["fuzz"]).progress
        assert build_parser().parse_args(["fuzz", "--progress"]).progress

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.out == "out/trace.jsonl"
        assert args.campaign is None
        assert args.start == 120.0
        assert not args.check
        assert args.analyze is None
        assert not args.no_report


class TestCommands:
    def test_campaigns_lists_registry(self, capsys):
        assert main(["campaigns"]) == 0
        out = capsys.readouterr().out
        assert "rf_jamming" in out
        assert "gnss_spoofing" in out
        assert "eavesdropping" in out

    def test_run_short(self, capsys):
        assert main(["run", "--seed", "3", "--minutes", "3"]) == 0
        out = capsys.readouterr().out
        assert "delivery ratio" in out
        assert "violations" in out

    def test_attack_unknown_campaign(self, capsys):
        assert main(["attack", "zero_day"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_run_fault_entry_without_target_exits_2(self, tmp_path, capsys):
        faults = tmp_path / "faults.toml"
        faults.write_text('[[fault]]\nkind = "node_crash"\nstart = 5.0\n')
        assert main(["run", "--seed", "3", "--minutes", "1",
                     "--faults", str(faults)]) == 2
        err = capsys.readouterr().err
        assert "fault schedule error" in err
        assert "entry 0" in err and "'target'" in err

    def test_run_fault_scalar_exits_2(self, tmp_path, capsys):
        faults = tmp_path / "faults.json"
        faults.write_text('{"fault": 5}')
        assert main(["run", "--seed", "3", "--minutes", "1",
                     "--faults", str(faults)]) == 2
        err = capsys.readouterr().err
        assert "fault schedule error" in err
        assert "'fault' must be an array" in err
        assert "Traceback" not in err

    def test_attack_short(self, capsys):
        assert main([
            "attack", "message_injection", "--seed", "3", "--minutes", "4",
            "--start", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "detection:" in out

    def test_assess(self, capsys):
        assert main(["assess"]) == 0
        out = capsys.readouterr().out
        assert "risk profile" in out
        assert "interplay findings" in out

    def test_assess_with_measures(self, capsys):
        assert main(["assess", "--measures", "secure_channel_aead",
                     "pki_mutual_auth"]) == 0
        assert "mean risk" in capsys.readouterr().out

    def test_sac_writes_exports(self, tmp_path, capsys):
        assert main(["sac", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "worksite_sac.md").exists()
        assert (tmp_path / "worksite_sac.dot").exists()
        assert "SAC:" in capsys.readouterr().out

    def test_profile_short(self, capsys):
        from repro.perf import counters

        was_active = counters.ACTIVE
        try:
            assert main(["profile", "--seed", "3", "--minutes", "1",
                         "--sort", "tottime", "--limit", "5", "--perf"]) == 0
        finally:
            counters.enable(was_active)
            counters.reset()
        out = capsys.readouterr().out
        assert "function calls" in out          # cProfile table
        assert "perf counters:" in out
        assert "medium.frames_tx" in out


class TestTraceCommand:
    def test_trace_records_checks_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "11", "--minutes", "2",
            "--campaign", "rf_jamming", "--start", "20", "--duration", "60",
            "--out", out, "--check",
        ]) == 0
        text = capsys.readouterr().out
        assert "records valid" in text
        assert "per-link delivery" in text
        assert "detection latency" in text
        assert "attack-vs-defense timeline" in text

    def test_trace_leaves_guards_uninstalled(self, tmp_path):
        from repro.telemetry import tracer as trace

        assert main([
            "trace", "--seed", "3", "--minutes", "1",
            "--out", str(tmp_path / "t.jsonl"), "--no-report",
        ]) == 0
        assert trace.ACTIVE is False
        assert trace.TRACER is None

    def test_trace_unknown_campaign(self, tmp_path, capsys):
        assert main([
            "trace", "--campaign", "zero_day",
            "--out", str(tmp_path / "t.jsonl"),
        ]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_trace_analyze_existing_file(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "3", "--minutes", "1", "--out", out,
            "--no-report",
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "--analyze", out, "--check"]) == 0
        text = capsys.readouterr().out
        assert "records valid" in text
        assert "per-link delivery" in text

    def test_trace_check_fails_on_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v":1,"i":0,"t":0.0,"type":"frame.bogus"}\n')
        assert main(["trace", "--analyze", str(bad), "--check"]) == 1
        assert "schema:" in capsys.readouterr().err

    def test_trace_analyze_torn_trace_is_a_usage_error(self, tmp_path,
                                                       capsys):
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"v":1,"i":0,"t":0.0,"type":"run.start"}\n'
                        '{"v":1,"i":1,"t":0.5,"ty\n')
        assert main(["trace", "--analyze", str(torn)]) == 2
        err = capsys.readouterr().err
        assert f"{torn}:2: not a JSON record" in err
        assert len(err.strip().splitlines()) == 1
        # check reports the same file and line
        assert main(["check", "--trace", str(torn)]) == 2
        assert f"{torn}:2: not a JSON record" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_trace_is_a_usage_error(self, tmp_path, capsys, text):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(text)
        for argv in (["trace", "--analyze", str(empty)],
                     ["trace", "--analyze", str(empty), "--check"],
                     ["check", "--trace", str(empty)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert f"{empty}: trace is empty" in captured.err
            assert "verdict" not in captured.out

    def test_trace_spans_records_and_analyzes(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "11", "--minutes", "2",
            "--campaign", "rf_jamming", "--start", "20", "--duration", "60",
            "--out", out, "--spans", "--check",
        ]) == 0
        text = capsys.readouterr().out
        assert "span records" in text
        assert "records valid" in text       # span records pass the schema
        assert "span analysis" in text
        assert "critical path:" in text
        folded = tmp_path / "trace.folded"
        assert main(["trace", "--analyze", out,
                     "--flamegraph", str(folded)]) == 0
        capsys.readouterr()
        lines = folded.read_text().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_flamegraph_requires_analyze(self, tmp_path, capsys):
        assert main(["trace", "--flamegraph",
                     str(tmp_path / "t.folded")]) == 2
        assert "--flamegraph requires --analyze" in capsys.readouterr().err

    def test_flamegraph_rejects_spanless_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "3", "--minutes", "1", "--out", out,
            "--no-report",
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "--analyze", out,
                     "--flamegraph", str(tmp_path / "t.folded")]) == 2
        assert "no span records" in capsys.readouterr().err


class TestRunMetricsJson:
    def test_run_writes_metrics_snapshot(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        assert main([
            "run", "--seed", "3", "--minutes", "2",
            "--metrics-json", str(out), "--metrics-interval", "5",
        ]) == 0
        assert "metrics:" in capsys.readouterr().out
        snapshot = json.loads(out.read_text())
        worksite = snapshot["metrics"]["worksite"]
        assert worksite["counters"]["comms.frames_sent"] > 0
        assert "comms.delivery_ratio" in worksite["gauges"]
        series = worksite["series"]["comms.delivery_ratio"]
        assert series["count"] > 0
        assert {"p50", "p95"} <= set(series)

    def test_run_writes_prometheus_exposition(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        assert main([
            "run", "--seed", "3", "--minutes", "2",
            "--metrics-prom", str(out),
        ]) == 0
        assert "metrics (prom):" in capsys.readouterr().out
        text = out.read_text()
        assert "# TYPE repro_worksite_comms_frames_sent_total counter" in text
        assert 'quantile="0.95"' in text

    def test_metrics_interval_without_output_is_an_error(self, capsys):
        assert main(["run", "--minutes", "1",
                     "--metrics-interval", "2"]) == 2
        err = capsys.readouterr().err
        assert "--metrics-interval has no effect" in err


class TestSweepCommand:
    SMALL = ["--campaigns", "baseline,rf_jamming", "--seeds", "11",
             "--minutes", "1", "--start", "10", "--duration", "30"]

    def test_sweep_runs_and_caches(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.jsonl")
        assert main(["sweep", *self.SMALL, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "2 runs" in text
        assert "2 executed, 0 cached" in text
        assert "sweep aggregate" in text
        # re-running with --resume serves everything from the store
        assert main(["sweep", *self.SMALL, "--out", out, "--resume",
                     "--quiet", "--no-table"]) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out

    def test_sweep_unknown_campaign_is_a_spec_error(self, tmp_path, capsys):
        assert main(["sweep", "--campaigns", "zero_day",
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "unknown campaigns" in capsys.readouterr().err

    def test_sweep_rejects_nonpositive_jobs(self, tmp_path, capsys):
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "1",
                     "--jobs", "0",
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["campaigns", "seeds", "profiles",
                                     "ids_families", "variants"])
    def test_sweep_spec_scalar_is_a_spec_error(self, tmp_path, capsys, key):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({key: 5}))
        assert main(["sweep", "--spec", str(spec),
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"sweep spec key '{key}' must be a" in err
        assert not (tmp_path / "s.jsonl").exists()

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "grid.toml"
        spec.write_text(
            'campaigns = ["baseline"]\nseeds = [3]\nhorizon_s = 60.0\n'
        )
        assert main(["sweep", "--spec", str(spec),
                     "--out", str(tmp_path / "s.jsonl"), "--quiet",
                     "--no-table"]) == 0
        assert "1 runs" in capsys.readouterr().out

    def test_sweep_writes_status_json(self, tmp_path, capsys):
        import json

        assert main(["sweep", *self.SMALL, "--quiet", "--no-table",
                     "--out", str(tmp_path / "sweep.jsonl")]) == 0
        capsys.readouterr()
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["total"] == 2
        assert status["done"] == 2
        assert status["pending"] == 0
        assert status["kind"] == "sweep"

    def test_sweep_progress_prints_summary_lines(self, tmp_path, capsys):
        assert main(["sweep", *self.SMALL, "--no-table", "--progress",
                     "--out", str(tmp_path / "sweep.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "[sweep] 2/2 done" in out

    def test_sweep_prints_healing_summary(self, tmp_path, capsys):
        assert main(["sweep", *self.SMALL, "--quiet", "--no-table",
                     "--out", str(tmp_path / "sweep.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "2 over 2 executed cell(s)" in out
        assert "0 stall warning(s)" in out

    def test_sweep_rejects_nonpositive_max_attempts(self, tmp_path, capsys):
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "1",
                     "--max-attempts", "0",
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "--max-attempts must be >= 1" in capsys.readouterr().err

    def test_sweep_into_campaign_db(self, tmp_path, capsys):
        from repro.runner import CampaignStore

        db = str(tmp_path / "campaigns.db")
        assert main(["sweep", *self.SMALL, "--quiet", "--no-table",
                     "--campaign-db", db]) == 0
        assert "2 executed" in capsys.readouterr().out
        # resume against the DB serves everything from the campaign
        assert main(["sweep", *self.SMALL, "--quiet", "--no-table",
                     "--campaign-db", db, "--resume"]) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out
        (summary,) = CampaignStore(db).list_campaigns()
        assert summary["name"] == "sweep"
        assert summary["ok"] == 2
        # status.json lands next to the DB, not next to --out
        assert (tmp_path / "status.json").exists()


class TestCampaignCommand:
    GRID = ["--campaigns", "baseline", "--seeds", "11,12",
            "--minutes", "1", "--start", "10", "--duration", "30"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["campaign", "start", "night"])
        assert args.name == "night"
        assert args.db == "out/campaigns.db"
        assert args.jobs == 1
        assert args.max_attempts is None
        assert args.cell_timeout is None
        assert args.from_jsonl is None
        args = build_parser().parse_args(["campaign", "show", "night",
                                          "--attempts"])
        assert args.attempts

    def test_start_run_and_show(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(["campaign", "start", "night", "--db", db,
                     *self.GRID, "--quiet", "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "campaign 'night': 2 cell(s)" in out
        assert "2 executed" in out
        assert main(["campaign", "show", "night", "--db", db,
                     "--attempts"]) == 0
        out = capsys.readouterr().out
        assert "2 total, 2 ok" in out
        assert "attempt history:" in out
        assert "#1 ok" in out

    def test_start_requires_a_grid_or_import(self, tmp_path, capsys):
        assert main(["campaign", "start", "empty",
                     "--db", str(tmp_path / "c.db")]) == 2
        assert "give a sweep grid" in capsys.readouterr().err

    def test_start_scalar_campaigns_is_a_spec_error(self, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text('{"campaigns": 5}')
        db = str(tmp_path / "c.db")
        assert main(["campaign", "start", "night", "--db", db,
                     "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "campaign error" in err
        assert "'campaigns' must be a list" in err
        assert main(["campaign", "show", "night", "--db", db]) == 2

    def test_start_refuses_an_existing_name(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(["campaign", "start", "night", "--db", db,
                     *self.GRID, "--quiet", "--no-table"]) == 0
        capsys.readouterr()
        assert main(["campaign", "start", "night", "--db", db,
                     *self.GRID]) == 2
        assert "use 'campaign resume'" in capsys.readouterr().err

    def test_resume_completes_the_remainder(self, tmp_path, capsys):
        from repro.runner import CampaignStore

        db = str(tmp_path / "c.db")
        assert main(["campaign", "start", "night", "--db", db,
                     *self.GRID, "--quiet", "--no-table"]) == 0
        capsys.readouterr()
        # a completed campaign resumes to all-cached, not re-execution
        assert main(["campaign", "resume", "night", "--db", db,
                     "--quiet", "--no-table"]) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out
        (summary,) = CampaignStore(db).list_campaigns()
        assert summary["attempts"] == 2

    def test_resume_unknown_campaign_errors(self, tmp_path, capsys):
        assert main(["campaign", "resume", "ghost",
                     "--db", str(tmp_path / "c.db")]) == 2
        assert "no campaign named" in capsys.readouterr().err

    def test_list_campaigns(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(["campaign", "list", "--db", db]) == 0
        assert "no campaigns" in capsys.readouterr().out
        assert main(["campaign", "start", "night", "--db", db,
                     *self.GRID, "--quiet", "--no-table"]) == 0
        capsys.readouterr()
        assert main(["campaign", "list", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "night" in out
        assert "attempts" in out

    def test_list_on_a_non_sqlite_file_is_a_usage_error(self, tmp_path,
                                                        capsys):
        # a one-byte file is one SQLite would silently adopt and overwrite
        for text in ("this is not a database\n" * 20, "x"):
            db = tmp_path / "notes.db"
            db.write_text(text)
            assert main(["campaign", "list", "--db", str(db)]) == 2
            err = capsys.readouterr().err
            assert f"campaign error: {db}: not a campaign database" in err
            assert len(err.strip().splitlines()) == 1
            assert db.read_text() == text

    def test_start_from_jsonl_import(self, tmp_path, capsys):
        jsonl = str(tmp_path / "legacy.jsonl")
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "11",
                     "--minutes", "1", "--quiet", "--no-table",
                     "--out", jsonl]) == 0
        capsys.readouterr()
        db = str(tmp_path / "c.db")
        assert main(["campaign", "start", "migrated", "--db", db,
                     "--from-jsonl", jsonl, "--quiet", "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "imported 1 cell(s)" in out
        # the imported cell is already ok: nothing re-executes
        assert "0 executed, 1 cached" in out


class TestFuzzResumeDamagedCorpus:
    """``fuzz --resume`` on a damaged corpus: one error line, exit 2."""

    @staticmethod
    def corpus(tmp_path):
        from repro.fuzz.corpus import Corpus

        corpus = Corpus(tmp_path / "corpus")
        corpus.state["seed"] = 5
        corpus.save()
        return corpus

    def resume(self, corpus, capsys):
        code = main(["fuzz", "--seed", "5", "--iterations", "1",
                     "--corpus", str(corpus.root), "--resume", "--quiet"])
        return code, capsys.readouterr().err

    def test_state_that_is_a_list(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        corpus.state_path.write_text("[]\n")
        code, err = self.resume(corpus, capsys)
        assert code == 2
        assert f"fuzz error: {corpus.state_path}: not a JSON object" in err

    def test_torn_corpus_line_names_file_and_line(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        corpus.corpus_path.write_text('{"spec": {}}\n{"spec": {"seed"\n')
        code, err = self.resume(corpus, capsys)
        assert code == 2
        assert f"fuzz error: {corpus.corpus_path}:2: not a JSON record" in err


class TestStatusCommand:
    def test_status_of_finished_sweep(self, tmp_path, capsys):
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "11",
                     "--minutes", "1", "--quiet", "--no-table",
                     "--out", str(tmp_path / "sweep.jsonl")]) == 0
        capsys.readouterr()
        assert main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign: sweep" in out
        assert "1/1 done" in out

    def test_status_accepts_the_file_itself(self, tmp_path, capsys):
        assert main(["sweep", "--campaigns", "baseline", "--seeds", "11",
                     "--minutes", "1", "--quiet", "--no-table",
                     "--out", str(tmp_path / "sweep.jsonl")]) == 0
        capsys.readouterr()
        assert main(["status", str(tmp_path / "status.json")]) == 0
        assert "1/1 done" in capsys.readouterr().out

    def test_status_rejects_json_that_is_not_a_snapshot(self, tmp_path,
                                                        capsys):
        (tmp_path / "status.json").write_text('{"total": 5}\n')
        assert main(["status", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "not a status snapshot" in captured.err
        assert "done" not in captured.out

    def test_status_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["status", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err


class TestCheckCommand:
    def _record(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "11", "--minutes", "1",
            "--campaign", "rf_jamming", "--start", "15", "--duration", "30",
            "--out", out, "--no-report",
        ]) == 0
        capsys.readouterr()
        return out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["check", "--trace", "t.jsonl"])
        assert args.trace == "t.jsonl"
        assert args.report is None
        assert not args.no_replay
        assert not args.selftest

    def test_check_requires_a_target(self, capsys):
        assert main(["check"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_clean_trace_passes_and_writes_report(self, tmp_path, capsys):
        import json

        out = self._record(tmp_path, capsys)
        report_path = tmp_path / "report.json"
        assert main(["check", "--trace", out,
                     "--report", str(report_path)]) == 0
        text = capsys.readouterr().out
        assert "verdict" in text
        report = json.loads(report_path.read_text())
        assert report["ok"]
        assert report["invariants"]["violations"] == 0
        assert report["replay"]["performed"] is True
        assert report["replay"]["divergences"] == 0

    def test_tampered_trace_fails(self, tmp_path, capsys):
        import json

        out = self._record(tmp_path, capsys)
        lines = open(out).read().splitlines()
        record = json.loads(lines[10])
        record["t"] = record["t"] - 100.0
        lines[10] = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )
        open(out, "w").write("\n".join(lines) + "\n")
        assert main(["check", "--trace", out]) == 1
        assert "clock.monotonic" in capsys.readouterr().out

    def test_no_replay_skips_the_differential_pass(self, tmp_path, capsys):
        out = self._record(tmp_path, capsys)
        assert main(["check", "--trace", out, "--no-replay"]) == 0
        assert "replay" in capsys.readouterr().out.lower()

    def test_missing_trace_is_a_usage_error(self, tmp_path, capsys):
        assert main(["check", "--trace",
                     str(tmp_path / "missing.jsonl")]) == 2
        assert "check error" in capsys.readouterr().err

    def test_selftest_detects_every_seeded_violation(self, capsys):
        from repro.invariants.selftest import MUTATIONS

        assert main(["check", "--selftest"]) == 0
        text = capsys.readouterr().out
        n = len(MUTATIONS)
        assert f"{n}/{n} seeded violations detected" in text
        assert "MISSED" not in text

    def test_check_leaves_guards_uninstalled(self, tmp_path, capsys):
        from repro.invariants import engine as checks
        from repro.telemetry import tracer as trace

        out = self._record(tmp_path, capsys)
        assert main(["check", "--trace", out]) == 0
        assert trace.ACTIVE is False and trace.TRACER is None
        assert checks.ACTIVE is False and checks.CHECKER is None


class TestRunWithChecking:
    def test_run_under_repro_check_reports_clean(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert main(["run", "--seed", "11", "--minutes", "1"]) == 0
        assert "invariants:" in capsys.readouterr().out

    def test_trace_under_repro_check_embeds_spec(
        self, monkeypatch, tmp_path, capsys
    ):
        import json

        monkeypatch.setenv("REPRO_CHECK", "1")
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "11", "--minutes", "1",
            "--campaign", "rf_jamming", "--start", "15", "--duration", "30",
            "--out", out, "--no-report",
        ]) == 0
        assert "invariants:" in capsys.readouterr().out
        meta = json.loads(open(out).readline())
        assert meta["type"] == "trace.meta"
        assert meta["spec"]["seed"] == 11
        assert meta["spec"]["campaign"] == "rf_jamming"

    def test_spanned_trace_under_repro_check_is_clean(
        self, monkeypatch, tmp_path, capsys
    ):
        # the online engine must observe the header (run span) and the
        # close (end-of-trace span ends), or span discipline false-fires
        monkeypatch.setenv("REPRO_CHECK", "1")
        out = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--seed", "11", "--minutes", "1", "--spans",
            "--out", out, "--no-report",
        ]) == 0
        assert "12 checked, 0 violation(s)" in capsys.readouterr().out
