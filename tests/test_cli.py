"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.clusters == 3
        assert "offline" in args.schedulers

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--schedulers", "definitely-not-a-scheduler"])

    def test_campaign_arguments(self):
        args = build_parser().parse_args(
            ["campaign", "--replicates", "2", "--sites", "3", "--densities", "1.0", "2.0"]
        )
        assert args.replicates == 2
        assert args.sites == [3]
        assert args.densities == [1.0, 2.0]

    @pytest.mark.parametrize(
        "argv",
        [
            *([sub, "--solver-backend", "scipy"]
              for sub in ("simulate", "campaign", "serve", "overhead")),
            ["campaign", "--ab-backends"],
            ["campaign", "--ab-tolerance", "1e-6"],
            ["campaign", "--ab-tie-tolerance", "0.1"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_backend_flags_are_gone(self, argv, capsys):
        # Every LP runs on HiGHS: there is no backend to choose or compare.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["on", "off"])
    def test_state_bank_flag_is_gone(self, value, capsys):
        # Every campaign banks each (config, replicate) group.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--state-bank", value])
        assert "unrecognized arguments: --state-bank" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["simulate", "campaign", "serve", "overhead"])
    def test_speculate_flag_is_gone(self, sub, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([sub, "--speculate", "off"])
        assert "unrecognized arguments: --speculate" in capsys.readouterr().err

    def test_campaign_engine_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--checkpoint", "ck.jsonl", "--resume", "--workers", "4"]
        )
        assert args.checkpoint == "ck.jsonl"
        assert args.resume
        assert args.workers == 4

    def test_campaign_max_jobs_cap(self):
        # 0 is the documented "uncapped" spelling; negatives are typos and
        # must not silently become the paper-scale uncapped workload.
        assert build_parser().parse_args(["campaign", "--max-jobs", "0"]).max_jobs == 0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--max-jobs", "-1"])

    def test_campaign_shard_flag(self):
        args = build_parser().parse_args(["campaign", "--shard", "2/5"])
        assert args.shard == "2/5"
        for bad in ("0/3", "4/3", "x/y", "3"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["campaign", "--shard", bad])

    def test_merge_and_report_arguments(self):
        args = build_parser().parse_args(
            ["merge", "a.jsonl", "b.jsonl", "--output", "m.jsonl", "--allow-gaps"]
        )
        assert args.journals == ["a.jsonl", "b.jsonl"]
        assert args.output == "m.jsonl"
        assert args.allow_gaps
        args = build_parser().parse_args(["report", "m.jsonl", "--output-dir", "d"])
        assert args.journal == "m.jsonl"
        assert args.output_dir == "d"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["merge"])  # at least one journal


class TestCommands:
    def test_simulate_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--clusters", "2",
                "--databanks", "2",
                "--processors", "3",
                "--window", "15",
                "--max-jobs", "6",
                "--schedulers", "swrpt", "mct",
                "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "SWRPT" in out and "MCT" in out
        assert "max-stretch" in out

    def test_simulate_lp_schedulers(self, capsys):
        code = main(
            [
                "simulate",
                "--clusters", "2",
                "--databanks", "2",
                "--processors", "3",
                "--window", "12",
                "--max-jobs", "5",
                "--schedulers", "online", "offline",
                "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Online" in out and "Offline" in out

    def test_simulate_with_trace_and_gantt(self, capsys):
        code = main(
            [
                "simulate",
                "--clusters", "1",
                "--databanks", "1",
                "--processors", "2",
                "--window", "10",
                "--max-jobs", "3",
                "--schedulers", "srpt",
                "--trace",
                "--gantt",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "arrival" in out
        assert "Gantt" in out

    def test_campaign_runs_tiny(self, capsys, tmp_path):
        csv_path = tmp_path / "records.csv"
        code = main(
            [
                "campaign",
                "--replicates", "1",
                "--sites", "2",
                "--databanks", "2",
                "--availabilities", "0.6",
                "--densities", "1.0",
                "--window", "12",
                "--max-jobs", "5",
                "--schedulers", "swrpt", "srpt", "mct",
                "--save-csv", str(csv_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert csv_path.exists()

    def test_campaign_checkpoint_resume(self, capsys, tmp_path):
        ck = tmp_path / "ck.jsonl"
        args = [
            "campaign",
            "--replicates", "1",
            "--sites", "2",
            "--databanks", "2",
            "--availabilities", "0.6",
            "--densities", "1.0",
            "--window", "12",
            "--max-jobs", "5",
            "--schedulers", "swrpt", "mct",
            "--checkpoint", str(ck),
        ]
        assert main(args) == 0
        assert ck.exists()
        # Rerunning without --resume refuses to touch the existing journal
        # (clean operator error, not a traceback).
        assert main(args) == 2
        assert "--resume" in capsys.readouterr().err
        # With --resume everything is restored; Table 1 is still printed.
        assert main(args + ["--resume"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_campaign_resume_requires_checkpoint(self, capsys):
        code = main(["campaign", "--resume", "--max-jobs", "3"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_campaign_resume_of_complete_journal_is_nothing_to_do(
        self, capsys, tmp_path
    ):
        ck = tmp_path / "ck.jsonl"
        args = [
            "campaign",
            "--replicates", "1",
            "--sites", "2",
            "--databanks", "2",
            "--availabilities", "0.6",
            "--densities", "1.0",
            "--window", "12",
            "--max-jobs", "5",
            "--schedulers", "swrpt", "mct",
            "--checkpoint", str(ck),
        ]
        assert main(args) == 0
        before = ck.read_text()
        capsys.readouterr()
        # The journal is complete: the resume exits 0, says so, and leaves
        # the file byte-identical (nothing re-validated, nothing re-run).
        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "nothing to do" in captured.out
        assert "  [" not in captured.err  # no per-task progress lines
        assert ck.read_text() == before

    def test_campaign_shard_merge_report_flow(self, capsys, tmp_path):
        # The acceptance flow at test scale: three shard legs -> merge with
        # exactly-once validation -> report regenerating Table 1.
        base = [
            "campaign",
            # Three replicates of one configuration: exactly one instance
            # group per shard, so dropping a leg leaves a genuine gap.
            "--replicates", "3",
            "--sites", "2",
            "--databanks", "2",
            "--availabilities", "0.6",
            "--densities", "1.0",
            "--window", "12",
            "--max-jobs", "5",
            "--schedulers", "swrpt", "mct",
        ]
        journals = []
        for i in (1, 2, 3):
            path = tmp_path / f"shard-{i}.jsonl"
            code = main(base + ["--shard", f"{i}/3", "--checkpoint", str(path)])
            out = capsys.readouterr().out
            assert code == 0
            assert f"shard {i}/3:" in out
            assert "Table 1" not in out  # partial records never get tables
            journals.append(str(path))

        merged = tmp_path / "merged.jsonl"
        code = main(["merge", *journals, "--output", str(merged)])
        out = capsys.readouterr().out
        assert code == 0
        assert "coverage: complete" in out
        assert merged.exists()

        code = main(
            ["report", str(merged), "--output-dir", str(tmp_path / "report")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert (tmp_path / "report" / "CAMPAIGN_summary.json").exists()

        # A merge missing one leg exits 1 (gap) unless gaps are allowed...
        assert main(["merge", *journals[:2]]) == 1
        err = capsys.readouterr().err
        assert "incomplete" in err
        assert main(["merge", *journals[:2], "--allow-gaps"]) == 0
        capsys.readouterr()
        # ...and 'report' refuses a partial journal outright.
        assert main(["report", journals[0]]) == 1
        assert "full design" in capsys.readouterr().err

    def test_campaign_shard_rejects_table_sinks(self, capsys):
        code = main(["campaign", "--shard", "1/2", "--breakdowns", "--max-jobs", "3"])
        assert code == 2
        assert "incompatible" in capsys.readouterr().err

    def test_merge_of_missing_journal_is_clean_error(self, capsys, tmp_path):
        code = main(["merge", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_theorem1_command(self, capsys):
        code = main(["theorem1", "--delta", "4", "--unit-jobs", "12",
                     "--schedulers", "srpt", "fcfs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Theorem 1" in out
        assert "srpt" in out

    def test_theorem2_command(self, capsys):
        code = main(["theorem2", "--epsilon", "0.5", "--unit-jobs", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ratio" in out

    def test_overhead_command(self, capsys):
        code = main(["overhead", "--replicates", "1", "--window", "10", "--max-jobs", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Scheduler" in out

    def test_figure3_command(self, capsys, monkeypatch):
        # Shrink the density grid through the config helper to keep it fast.
        import repro.cli as cli_mod

        original = cli_mod.figure3_configurations

        def small_grid(**kwargs):
            kwargs["densities"] = (0.5, 1.5)
            kwargs.setdefault("n_clusters", 2)
            kwargs.setdefault("n_databanks", 2)
            return original(**kwargs)

        monkeypatch.setattr(cli_mod, "figure3_configurations", small_grid)
        code = main(["figure3", "--replicates", "1", "--window", "10", "--max-jobs", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "density" in out
