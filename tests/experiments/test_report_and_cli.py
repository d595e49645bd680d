"""Tests for the report generator and the CLI plumbing."""

import argparse

import pytest

from repro.cli import build_parser
from repro.experiments.report import generate_report, write_report


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(trace_length=2500, benchmarks=["ora"])

    def test_all_artifacts_present(self, report):
        assert len(report.table2.rows) == 1
        assert len(report.scenarios) == 5
        assert report.figure6.matches_paper
        assert report.cycle_time.rows

    def test_markdown_sections(self, report):
        md = report.markdown
        assert "# Multicluster Architecture" in md
        assert "Table 2" in md
        assert "Figure 6" in md
        assert "Cycle-time analysis" in md

    def test_write_report(self, tmp_path):
        path = tmp_path / "REPORT.md"
        report = write_report(str(path), trace_length=2000, benchmarks=["ora"])
        assert path.exists()
        assert path.read_text() == report.markdown


#: The fan-out flags only the Table 2 sweeps read, each with a valid value.
EXECUTOR_FLAGS = {
    "--task-timeout": "30",
    "--redispatch-budget": "3",
}
#: (command, flag, value) for every flag a command used to accept and ignore.
IGNORED_FLAGS = [
    *((command, flag, value)
      for command in ("ablations", "reassignment", "explore")
      for flag, value in EXECUTOR_FLAGS.items()),
    ("explore", "--retries", "3"),
]

#: A minimal argument vector each subcommand accepts.
VALID_ARGV = {
    "table2": ["table2"],
    "scenarios": ["scenarios"],
    "figure6": ["figure6"],
    "cycle-time": ["cycle-time"],
    "ablations": ["ablations"],
    "reassignment": ["reassignment"],
    "explore": ["explore"],
    "report": ["report"],
    "replay": ["replay", "bundle.pkl"],
    "chaos": ["chaos"],
    "trace": ["trace", "ora"],
    "stats": ["stats", "ora"],
    "journal": ["journal", "merge", "run", "--output", "merged"],
    "spans": ["spans", "summarize", "run"],
    "top": ["top", "run"],
}


class TestCli:
    @pytest.mark.parametrize("command, flag, value", IGNORED_FLAGS)
    def test_commands_reject_flags_they_would_ignore(
        self, command, flag, value, capsys
    ):
        parser = build_parser()
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([command, flag, value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        # The Table 2 sweep still reads every one of them.
        assert parser.parse_args(["table2", flag, value]).command == "table2"

    def test_every_command_has_a_valid_argv(self):
        parser = build_parser()
        (commands,) = (
            action.choices
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(VALID_ARGV) == set(commands)

    @pytest.mark.parametrize("command", sorted(VALID_ARGV))
    def test_no_command_selects_a_model(self, command, capsys):
        # Every run simulates the batched model; the reference model is
        # a test oracle only.
        argv = VALID_ARGV[command]
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*argv, "--engine", "reference"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "--executor", "supervised"],
            ["table2", "--dist-bind", "0.0.0.0"],
            ["table2", "--dist-port", "9100"],
            ["table2", "--dist-min-hosts", "2"],
            ["table2", "--dist-wait", "5"],
            ["chaos", "--host-faults"],
            ["chaos", "--hosts", "2"],
            ["worker", "serve", "--connect", "127.0.0.1:9100"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_sweep_has_one_transport(self, argv, capsys):
        # Multi-host sweeps are --shard plus 'repro journal merge'; no
        # option or command selects another sweep transport.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err

    def test_parser_subcommands(self):
        parser = build_parser()
        for command in ("table2", "scenarios", "figure6", "cycle-time", "ablations", "report"):
            args = parser.parse_args([command] if command != "ablations" else [command])
            assert args.command == command

    def test_table2_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["table2", "--trace-length", "5000", "--benchmarks", "ora", "gcc1"]
        )
        assert args.trace_length == 5000
        assert args.benchmarks == ["ora", "gcc1"]

    def test_ablation_sweep_choices_validated(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["ablations", "--sweeps", "bogus"])

    def test_width_sweep_prints_the_4way_companion(self, capsys):
        from repro.cli import main

        main(["ablations", "--benchmark", "su2cor", "--trace-length", "1000",
              "--sweeps", "width"])
        out = capsys.readouterr().out
        assert "8-way vs 2x4-way" in out and "4-way vs 2x2-way" in out

    def test_figure6_command_runs(self, capsys):
        from repro.cli import main

        main(["figure6"])
        out = capsys.readouterr().out
        assert "matches paper         : True" in out

    def test_scenarios_command_runs(self, capsys):
        from repro.cli import main

        main(["scenarios"])
        out = capsys.readouterr().out
        assert "Scenario 5" in out
