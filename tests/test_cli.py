"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_deadlock_defaults(self):
        args = build_parser().parse_args(["deadlock"])
        assert args.assignment == "v5" and not args.closure

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--workload", "fig4", "--assignment", "v5",
             "--coverage"]
        )
        assert args.workload == "fig4" and args.coverage

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["codegen", "ZZZ"])


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "controller tables" in out and "ours" in out

    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        assert "0 failing" in capsys.readouterr().out

    def test_deadlock_v5_reports_cycles(self, capsys):
        assert main(["deadlock", "--assignment", "v5"]) == 1
        out = capsys.readouterr().out
        assert "VC2" in out and "VC4" in out and "waits on" in out

    def test_deadlock_v5d_clean(self, capsys):
        assert main(["deadlock", "--assignment", "v5d"]) == 0
        assert "deadlock-free" in capsys.readouterr().out

    def test_simulate_fig2(self, capsys):
        assert main(["simulate", "--workload", "fig2", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "quiescent" in out and "readex" in out

    def test_simulate_fig4_deadlocks(self, capsys):
        assert main(["simulate", "--workload", "fig4",
                     "--assignment", "v5"]) == 1
        assert "wait cycle" in capsys.readouterr().out

    def test_simulate_random_with_coverage(self, capsys):
        assert main(["simulate", "--workload", "random", "--ops", "40",
                     "--coverage"]) == 0
        assert "transition coverage" in capsys.readouterr().out

    def test_explore_finds_figure4(self, capsys):
        assert main(["explore", "--assignment", "v5", "--lines", "2",
                     "--depth", "13"]) == 1
        out = capsys.readouterr().out
        assert "explored 8543 states / 17704 transitions" in out
        assert "[deadlock] depth 12:" in out
        assert "VC2@q0" in out and "VC4@q0:mread" in out

    def test_map(self, capsys):
        assert main(["map"]) == 0
        out = capsys.readouterr().out
        assert "ED:" in out and "Request_remmsg" in out

    def test_codegen_python(self, capsys):
        assert main(["codegen", "PE"]) == 0
        assert "def PE_next(" in capsys.readouterr().out

    def test_codegen_verilog(self, capsys):
        assert main(["codegen", "PE", "--verilog"]) == 0
        assert "module PE" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_flags_accepted_after_any_subcommand(self):
        args = build_parser().parse_args(
            ["check", "--profile", "--report-out", "r.json", "--quiet"]
        )
        assert args.profile and args.report_out == "r.json" and args.quiet
        args = build_parser().parse_args(
            ["simulate", "--workload", "fig4", "--trace-out", "e.jsonl"]
        )
        assert args.trace_out == "e.jsonl"

    def test_unwritable_output_path_fails_fast(self, capsys):
        assert main(["stats", "--report-out", "/nonexistent/r.json"]) == 2
        assert "repro: error:" in capsys.readouterr().err
        assert main(["stats", "--trace-out", "/nonexistent/t.jsonl"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_trace_buffered_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--trace-buffered"])
        assert exc.value.code == 2
        assert "--trace-buffered" in capsys.readouterr().err

    def test_check_report_out_emits_valid_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["check", "--report-out", str(path), "--quiet"]) == 0
        report = json.loads(path.read_text())
        assert report["schema"] == "repro.telemetry.report/v1"
        assert report["command"] == "check"
        # per-phase span durations
        assert report["spans"]["generate.table"]["count"] == 8
        # the default sweep is batched: a handful of UNION ALL queries
        assert report["spans"]["invariant.check_batch"]["total_seconds"] >= 0
        # SQL counts / rows / latency percentiles
        assert report["sql"]["queries"] > 0
        assert report["sql"]["rows_returned"] > 0
        assert report["sql"]["seconds"]["p99"] >= report["sql"]["seconds"]["p50"]
        # invariant pass/fail tallies
        inv = report["invariants"]
        assert inv["checks"] == inv["passed"] + inv["failed"]
        assert inv["checks"] > 0 and inv["failed"] == 0

    def test_profile_prints_summary(self, capsys):
        assert main(["stats", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out and "system.build" in out

    def test_quiet_suppresses_command_output(self, capsys):
        assert main(["stats", "--quiet"]) == 0
        assert "controller tables" not in capsys.readouterr().out

    def test_trace_out_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        assert main(["simulate", "--workload", "fig2", "--quiet",
                     "--trace-out", str(path)]) == 0
        from repro.telemetry import read_jsonl
        events = read_jsonl(str(path))
        assert any(e["type"] == "sim.message" for e in events)
        assert any(e["type"] == "span" for e in events)

    def test_telemetry_disabled_after_run(self, tmp_path):
        from repro.telemetry import NULL_TRACER, get_tracer
        main(["stats", "--report-out", str(tmp_path / "r.json"), "--quiet"])
        assert get_tracer() is NULL_TRACER


class TestRepairCommand:
    def test_repair_v5(self, capsys):
        assert main(["repair", "--assignment", "v5"]) == 0
        out = capsys.readouterr().out
        assert "repair search" in out and "deadlock-free" in out

    def test_repair_v5d_no_op(self, capsys):
        assert main(["repair", "--assignment", "v5d"]) == 0
        assert "deadlock-free" in capsys.readouterr().out

    def test_journal_resumes_and_rejects_another_member(
            self, tmp_path, capsys, monkeypatch):
        """A second run replays the journaled fixes without evaluating a
        candidate.  MESIF shares MESI's v5 digest, so only the header's
        variant stops it from taking MESI's fixes — and the check must
        come before any fix is replayed."""
        from repro.core.repair import DeadlockRepairer

        journal = str(tmp_path / "repair.jsonl")
        assert main(["repair", "--journal", journal]) == 0
        first = capsys.readouterr().out
        assert main(["repair", "--journal", journal]) == 0
        second = capsys.readouterr().out
        assert "0 candidate evaluations" in second
        steps = [line for line in first.splitlines() if "step" in line]
        assert steps
        assert steps == [line for line in second.splitlines()
                         if "step" in line]

        def no_replay(*_):
            raise AssertionError("replayed a foreign journal")

        monkeypatch.setattr(DeadlockRepairer, "_replay_fix", no_replay)
        assert main(["repair", "--variant", "mesif",
                     "--journal", journal]) == 2
        err = capsys.readouterr().err
        assert "written by a different run" in err and "variant" in err

        monkeypatch.undo()
        member = str(tmp_path / "mesif.jsonl")
        assert main(["repair", "--variant", "mesif",
                     "--journal", member]) == 0
        capsys.readouterr()
        monkeypatch.setattr(DeadlockRepairer, "_replay_fix", no_replay)
        assert main(["repair", "--journal", member]) == 2
        assert "variant='mesif' there" in capsys.readouterr().err


class TestErrorPaths:
    """Every bad invocation must exit non-zero with a one-line message,
    never a traceback."""

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err

    def test_bad_engine_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["deadlock", "--engine", "python"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err

    def test_no_batch_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--no-batch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err

    def test_missing_database_file_exits_2(self, capsys):
        assert main(["stats", "--db", "/nonexistent/asura.sqlite"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "--save-db" in err
        assert "Traceback" not in err

    def test_corrupt_database_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.sqlite"
        path.write_text("this is not a sqlite database")
        assert main(["stats", "--db", str(path)]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "Traceback" not in err

    def test_db_and_save_db_are_mutually_exclusive(self, tmp_path, capsys):
        assert main(["stats", "--db", str(tmp_path / "a.sqlite"),
                     "--save-db", str(tmp_path / "b.sqlite")]) == 2
        assert "repro: error:" in capsys.readouterr().err


class TestDatabaseFlags:
    def test_save_then_attach_round_trip(self, tmp_path, capsys):
        path = tmp_path / "asura.sqlite"
        assert main(["stats", "--save-db", str(path), "--quiet"]) == 0
        assert path.exists()
        assert main(["check", "--db", str(path)]) == 0
        assert "0 failing" in capsys.readouterr().out


class TestMutateCommand:
    def test_small_campaign_prints_matrix(self, capsys):
        assert main(["mutate", "--seed", "0", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "mutation campaign" in out
        assert "caught before simulation" in out

    def test_matrix_out_then_self_baseline_passes(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        assert main(["mutate", "--count", "2",
                     "--matrix-out", str(path), "--quiet"]) == 0
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.faults.matrix/v1"
        assert data["count"] == 2
        assert main(["mutate", "--count", "2",
                     "--baseline", str(path)]) == 0
        assert "no detection regressions" in capsys.readouterr().out

    def test_diverged_baseline_fails_the_gate(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        assert main(["mutate", "--count", "2",
                     "--matrix-out", str(path), "--quiet"]) == 0
        data = json.loads(path.read_text())
        data["mutants"][0]["description"] = "a mutant from another seed"
        path.write_text(json.dumps(data))
        assert main(["mutate", "--count", "2",
                     "--baseline", str(path)]) == 1
        out = capsys.readouterr().out
        assert "detection regressions vs baseline" in out
        assert "regenerate the baseline" in out

    def test_unknown_fault_class_exits_2(self, capsys):
        assert main(["mutate", "--classes", "flip-bits"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "Traceback" not in err

    def test_unwritable_matrix_out_fails_fast(self, capsys):
        assert main(["mutate", "--count", "1",
                     "--matrix-out", "/nonexistent/m.json"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mutate", "--count", "1",
                     "--baseline", str(bad)]) == 2
        assert "repro: error:" in capsys.readouterr().err


class TestMutateResilienceFlags:
    def test_resilience_flags_parse(self):
        args = build_parser().parse_args(
            ["mutate", "--journal", "j.jsonl", "--resume", "j.jsonl"])
        assert args.journal == "j.jsonl" and args.resume == "j.jsonl"

    def test_resilience_flags_default_off(self):
        args = build_parser().parse_args(["mutate"])
        assert args.journal is None and args.resume is None

    def test_isolation_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", "--isolation", "process"])
        assert exc.value.code == 2
        assert "--isolation" in capsys.readouterr().err

    def test_journal_then_resume_round_trip(self, tmp_path, capsys):
        journal = tmp_path / "campaign.jsonl"
        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        assert main(["mutate", "--count", "3",
                     "--matrix-out", str(full), "--quiet"]) == 0
        assert main(["mutate", "--count", "2",
                     "--journal", str(journal), "--quiet"]) == 0
        assert main(["mutate", "--count", "3",
                     "--resume", str(journal),
                     "--matrix-out", str(resumed)]) == 0
        assert "resumed from journal: 2 mutants" in capsys.readouterr().out
        assert json.loads(full.read_text()) == \
            json.loads(resumed.read_text())

    def test_resume_with_conflicting_journal_exits_2(self, capsys):
        assert main(["mutate", "--resume", "a.jsonl",
                     "--journal", "b.jsonl"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_resume_from_missing_journal_exits_2(self, tmp_path, capsys):
        assert main(["mutate", "--count", "1",
                     "--resume", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", [("--workers", "2"),
                                      ("--timeout", "5")],
                             ids=["workers", "timeout"])
    def test_process_pool_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", "--count", "1", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestExploreCommand:
    def test_defaults_parse(self):
        args = build_parser().parse_args(["explore"])
        assert args.nodes == 2 and args.depth == 10 and args.lines == 1
        assert args.assignment == "v5d" and args.workers == 1
        assert args.capacity == 1 and args.symmetry is None
        assert args.journal is None and args.resume is None
        assert args.out is None

    def test_clean_exploration_exits_0(self, capsys):
        assert main(["explore", "--depth", "6"]) == 0
        out = capsys.readouterr().out
        assert "explored 101 states / 156 transitions" in out
        assert "no violations" in out

    def test_coherence_claimed_only_for_an_exhausted_space(self, capsys):
        assert main(["explore", "--nodes", "1", "--depth", "20"]) == 0
        out = capsys.readouterr().out
        assert "explored 46 states" in out
        assert "no violations: every reachable state is coherent" in out
        assert main(["explore"]) == 0
        out = capsys.readouterr().out
        assert "every reachable state is coherent" not in out
        assert "no violations to depth 10 (state space not exhausted)" in out

    def test_v4_deadlock_exits_1_with_counterexample(self, capsys):
        assert main(["explore", "--assignment", "v4", "--depth", "3"]) == 1
        out = capsys.readouterr().out
        assert "deadlock" in out and "counterexample" in out

    def test_out_writes_schema_tagged_json(self, tmp_path, capsys):
        path = tmp_path / "explore.json"
        assert main(["explore", "--depth", "4", "--out", str(path),
                     "--quiet"]) == 0
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.explore.result/v1"
        assert data["depth_bound"] == 4

    def test_journal_then_resume_matches_straight_run(self, tmp_path,
                                                      capsys):
        journal = tmp_path / "explore.jsonl"
        straight = tmp_path / "straight.json"
        resumed = tmp_path / "resumed.json"
        assert main(["explore", "--depth", "6", "--out", str(straight),
                     "--quiet"]) == 0
        assert main(["explore", "--depth", "4",
                     "--journal", str(journal), "--quiet"]) == 0
        assert main(["explore", "--depth", "6", "--resume", str(journal),
                     "--out", str(resumed)]) == 0
        assert "resumed from journal" in capsys.readouterr().out
        assert json.loads(straight.read_text()) == \
            json.loads(resumed.read_text())

    def test_no_symmetry_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--no-symmetry"])
        assert exc.value.code == 2
        assert "--no-symmetry" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["explore", "--frontier-dir", "d"],
        ["simulate", "--guided", "--frontier-dir", "d"],
    ])
    def test_frontier_dir_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--frontier-dir" in capsys.readouterr().err

    def test_resume_with_conflicting_journal_exits_2(self, capsys):
        assert main(["explore", "--resume", "a.jsonl",
                     "--journal", "b.jsonl"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_unwritable_out_fails_fast(self, capsys):
        assert main(["explore", "--out", "/nonexistent/e.json"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_invalid_bounds_exit_2(self, capsys):
        assert main(["explore", "--nodes", "0"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "Traceback" not in err

    def test_interpreted_workers_exit_2(self, capsys):
        assert main(["explore", "--kernel", "interpreted",
                     "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "compiled kernel" in err and "Traceback" not in err

    def test_save_db_carries_exploration_certificate(self, tmp_path,
                                                     capsys):
        """--save-db after an exploration persists the per-depth summary
        table, so the database is its own certificate."""
        from repro.core.database import ProtocolDatabase
        from repro.explore import SUMMARY_TABLE
        path = tmp_path / "explored.sqlite"
        assert main(["explore", "--depth", "4", "--save-db", str(path),
                     "--quiet"]) == 0
        db = ProtocolDatabase(str(path))
        try:
            assert db.table_exists(SUMMARY_TABLE)
            assert len(db.rows(SUMMARY_TABLE)) == 5  # depths 0..4
        finally:
            db.close()


class TestMutateOracleFlags:
    def test_oracle_flags_parse(self):
        args = build_parser().parse_args(
            ["mutate", "--oracle", "explore", "--oracle-depth", "14",
             "--oracle-nodes", "3"])
        assert args.oracle == "explore"
        assert args.oracle_depth == 14 and args.oracle_nodes == 3

    def test_oracle_defaults_to_off(self):
        args = build_parser().parse_args(["mutate"])
        assert args.oracle is None
        assert args.oracle_depth == 8 and args.oracle_nodes == 2

    def test_unknown_oracle_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mutate", "--oracle", "bdd"])

    def test_oracle_kernel_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", "--oracle-kernel", "compiled"])
        assert exc.value.code == 2
        assert "--oracle-kernel" in capsys.readouterr().err

    def test_oracle_campaign_prints_false_negatives(self, capsys):
        assert main(["mutate", "--count", "2",
                     "--oracle", "explore", "--oracle-depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "oracle (bounded exploration, depth=4 nodes=2)" in out

    def test_oracle_save_db_round_trips_summary(self, tmp_path, capsys):
        """Satellite: --oracle explore --save-db persists the clean
        exploration certificate through snapshot/deserialize."""
        from repro.core.database import ProtocolDatabase
        from repro.explore import SUMMARY_TABLE
        path = tmp_path / "oracle.sqlite"
        assert main(["mutate", "--count", "2",
                     "--oracle", "explore", "--oracle-depth", "4",
                     "--save-db", str(path), "--quiet"]) == 0
        db = ProtocolDatabase(str(path))
        try:
            assert db.table_exists(SUMMARY_TABLE)
            assert [int(r["new_states"]) for r in db.rows(
                SUMMARY_TABLE, order_by="CAST(depth AS INT)")] == \
                [1, 4, 4, 12, 20]
        finally:
            db.close()


class TestVariantFlag:
    def test_variant_accepted_on_every_system_subcommand(self):
        for cmd in ("stats", "check", "deadlock", "simulate", "mutate",
                    "explore"):
            args = build_parser().parse_args([cmd, "--variant", "moesi"])
            assert args.variant == "moesi"

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--variant", "dragon"])

    def test_check_moesi(self, capsys):
        assert main(["check", "--variant", "moesi"]) == 0
        out = capsys.readouterr().out
        assert "MOESI protocol invariants" in out and "0 failing" in out

    def test_variant_save_then_attach_recovers_member(self, tmp_path,
                                                      capsys):
        path = str(tmp_path / "moesi.db")
        assert main(["check", "--variant", "moesi", "--save-db", path,
                     "--quiet"]) == 0
        capsys.readouterr()
        # No --variant on attach: the marker table names the member.
        assert main(["stats", "--db", path]) == 0
        assert " 344 rows" in capsys.readouterr().out  # MOESI's D

    def test_conflicting_variant_on_attach_exits_2(self, tmp_path,
                                                   capsys):
        path = str(tmp_path / "moesi.db")
        assert main(["check", "--variant", "moesi", "--save-db", path,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["stats", "--db", path, "--variant", "mesif"]) == 2
        err = capsys.readouterr().err
        assert "conflicts with the 'moesi' member" in err


class TestFamilyCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["family"])
        assert not args.all and args.nodes == 2 and args.count == 12
        assert args.explore_depth == 6 and args.oracle_depth == 5

    def test_skip_campaign_pipeline_is_clean(self, capsys):
        assert main(["family", "--variant", "mesif",
                     "--skip-campaign"]) == 0
        out = capsys.readouterr().out
        assert "deadlock v4: 5 cycle(s)" in out
        assert "deadlock v5d: free" in out
        assert "simulate fig2: quiescent" in out
        assert "all 1 member(s) clean" in out

    def test_vc6_differential_shows_v5_free(self, capsys):
        assert main(["family", "--variant", "mesi-vc6",
                     "--skip-campaign"]) == 0
        out = capsys.readouterr().out
        assert "deadlock v5: free" in out
        assert "deadlock v4: 4 cycle(s)" in out

    def test_matrix_out_then_self_baseline_passes(self, tmp_path, capsys):
        matrix = str(tmp_path / "fam.json")
        assert main(["family", "--count", "4", "--explore-depth", "5",
                     "--oracle-depth", "4", "--matrix-out", matrix]) == 0
        capsys.readouterr()
        bench = json.load(open(matrix))
        assert bench["schema"] == "repro.family.bench/v1"
        assert bench["members"]["mesi"]["campaign"]["totals"]["count"] == 4
        assert main(["family", "--count", "4", "--explore-depth", "5",
                     "--oracle-depth", "4", "--baseline", matrix]) == 0
        assert "no detection regressions" in capsys.readouterr().out

    def test_db_flag_rejected(self, capsys):
        assert main(["family", "--db", "x.db"]) == 2
        assert "--db/--save-db do not apply" in capsys.readouterr().err
