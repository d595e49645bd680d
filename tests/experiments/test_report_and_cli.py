"""Tests for the report generator and the CLI plumbing."""

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
    "--executor": "distributed",
    "--dist-bind": "0.0.0.0",
    "--dist-port": "9100",
    "--dist-min-hosts": "2",
    "--dist-wait": "5",
    "--task-timeout": "30",
    "--redispatch-budget": "3",
}
#: (command, flag, value) for every flag a command used to accept and ignore.
IGNORED_FLAGS = [
    *((command, flag, value)
      for command in ("ablations", "reassignment", "explore")
      for flag, value in EXECUTOR_FLAGS.items()),
    ("ablations", "--engine", "reference"),
    ("reassignment", "--engine", "reference"),
    ("explore", "--retries", "3"),
]


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
