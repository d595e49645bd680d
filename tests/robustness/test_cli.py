"""CLI hardening: one-line diagnostics, distinct exit codes, new flags."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigError, SimulationError


class TestErrorHandling:
    def test_config_error_exit_code_and_one_line_stderr(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table2", "--benchmarks", "compresss", "--trace-length", "1000"])
        assert info.value.code == ConfigError.exit_code
        captured = capsys.readouterr()
        stderr = captured.err.strip()
        # One line, no traceback, names the close match.
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: ConfigError:")
        assert "did you mean 'compress'?" in stderr

    def test_ablations_unknown_benchmark_is_a_config_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ablations", "--benchmark", "compres"])
        assert info.value.code == ConfigError.exit_code
        stderr = capsys.readouterr().err.strip()
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: ConfigError: unknown benchmark 'compres'")
        assert "did you mean 'compress'?" in stderr

    def test_simulation_error_exit_code_distinct(self, capsys, monkeypatch):
        from repro.experiments import table2 as table2_module

        def explode(*_args, **_kwargs):
            raise SimulationError("model wedged", cycle=99)

        monkeypatch.setattr(table2_module, "run_table2", explode)
        with pytest.raises(SystemExit) as info:
            main(["table2", "--benchmarks", "ora", "--trace-length", "1000"])
        assert info.value.code == SimulationError.exit_code
        assert info.value.code != ConfigError.exit_code
        assert "cycle=99" in capsys.readouterr().err

    def test_successful_run_prints_table(self, capsys):
        main(["table2", "--benchmarks", "ora", "--trace-length", "1000"])
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "ora" in out


class TestRobustnessFlags:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["table2", "--self-check", "--cycle-budget", "12345"]
        )
        assert args.self_check is True
        assert args.cycle_budget == 12345

    def test_flags_default_off(self):
        args = build_parser().parse_args(["table2"])
        assert args.self_check is False
        assert args.cycle_budget == 0

    def test_cycle_time_accepts_flags_too(self):
        args = build_parser().parse_args(["cycle-time", "--self-check"])
        assert args.self_check is True

    def test_self_check_run_matches_plain_run(self, capsys):
        main(["table2", "--benchmarks", "ora", "--trace-length", "1000"])
        plain = capsys.readouterr().out
        main(
            [
                "table2",
                "--benchmarks",
                "ora",
                "--trace-length",
                "1000",
                "--self-check",
            ]
        )
        checked = capsys.readouterr().out
        # Bit-identical cycle counts: the whole table renders identically.
        assert checked == plain

    def test_tiny_cycle_budget_degrades_gracefully(self, capsys):
        # The per-benchmark WatchdogTimeout is caught by the sweep's
        # graceful-degradation path: the run completes and reports the
        # failure table instead of aborting.
        main(
            [
                "table2",
                "--benchmarks",
                "ora",
                "--trace-length",
                "1000",
                "--cycle-budget",
                "3",
            ]
        )
        captured = capsys.readouterr()
        assert "failed benchmarks (1):" in captured.out
        assert "WatchdogTimeout" in captured.out
        assert "1 benchmark(s) failed" in captured.err
