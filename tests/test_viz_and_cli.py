"""Tests for the ASCII visualisation helpers and the CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, config_from_args, main
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentResult
from repro.viz.ascii import ascii_bar_chart, ascii_line_plot, sparkline
from repro.viz.report import render_report


# ----------------------------------------------------------------------
# ascii helpers
# ----------------------------------------------------------------------
def test_sparkline_length_matches_input():
    assert len(sparkline([1, 2, 3, 4])) == 4
    assert sparkline([]) == ""


def test_sparkline_constant_series():
    line = sparkline([5, 5, 5])
    assert len(set(line)) == 1


def test_sparkline_monotone_series_uses_increasing_levels():
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line[0] != line[-1]


def test_bar_chart_contains_labels_and_values():
    chart = ascii_bar_chart(["a", "bb"], [1.0, 2.0])
    assert "a" in chart and "bb" in chart
    assert "2" in chart
    lines = chart.splitlines()
    assert len(lines) == 2
    # The larger value gets the longer bar.
    assert lines[1].count("#") > lines[0].count("#")


def test_bar_chart_validation():
    with pytest.raises(ConfigurationError):
        ascii_bar_chart(["a"], [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        ascii_bar_chart(["a"], [1.0], width=0)
    assert ascii_bar_chart([], []) == "(empty chart)"


def test_line_plot_draws_points():
    plot = ascii_line_plot([(1, 1), (2, 4), (3, 9)], width=20, height=8)
    assert plot.count("*") == 3
    assert "x" in plot


def test_line_plot_log_axis_and_validation():
    plot = ascii_line_plot([(256, 10), (1024, 20)], logx=True, x_label="n")
    assert "log2 scale" in plot
    with pytest.raises(ConfigurationError):
        ascii_line_plot([(1, 1)], width=2, height=2)
    assert ascii_line_plot([]) == "(no data)"


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
def test_render_report_includes_tables_and_charts():
    result = ExperimentResult(experiment="demo", description="desc")
    table = result.add_table("values", ["size", "metric"])
    for size, value in [(128, 3.0), (256, 5.0), (512, 8.0)]:
        table.add_row(size, value)
    text = render_report(result)
    assert "Experiment: demo" in text
    assert "chart: values" in text
    plain = render_report(result, charts=False)
    assert "chart:" not in plain


def test_render_report_skips_uncharted_tables():
    result = ExperimentResult(experiment="demo", description="desc")
    table = result.add_table("words", ["a", "b"])
    table.add_row("x", "y")
    table.add_row("z", "w")
    table.add_row("q", "r")
    assert "chart:" not in render_report(result)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list_command(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "table1" in output and "figure3" in output


def test_cli_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "bogus"])


def test_cli_config_from_args_overrides():
    parser = build_parser()
    args = parser.parse_args(
        ["run", "lemma73", "--preset", "smoke", "--sizes", "64", "128", "--repetitions", "4", "--budget", "123"]
    )
    config = config_from_args(args)
    assert config.population_sizes == (64, 128)
    assert config.repetitions == 4
    assert config.max_parallel_time == 123


def test_cli_engine_flag_reaches_config():
    parser = build_parser()
    args = parser.parse_args(["run", "lemma41", "--preset", "smoke", "--engine", "auto"])
    assert config_from_args(args).engine == "auto"
    args = parser.parse_args(
        ["run", "lemma41", "--preset", "smoke", "--engine", "countbatch"]
    )
    assert config_from_args(args).engine == "countbatch"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "lemma41", "--engine", "warp-drive"])


def test_cli_countbatch_runs_in_process(capsys):
    """The configuration-space engine is wired through the experiment runner
    (not just accepted by the parser)."""
    exit_code = main(
        [
            "run",
            "lemma41",
            "--preset",
            "smoke",
            "--sizes",
            "64",
            "--repetitions",
            "1",
            "--engine",
            "countbatch",
            "--no-charts",
        ]
    )
    assert exit_code == 0
    assert "lemma41" in capsys.readouterr().out


def _run_cli(*argv: str):
    """``python -m repro.cli *argv`` as a real subprocess, on this checkout."""
    import os
    import subprocess
    import sys

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    src = os.path.join(repo_root, "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env=env,
        timeout=300,
    )


def test_cli_engine_auto_runs_end_to_end():
    """Smoke test: ``python -m repro.cli run ... --engine auto`` as a real
    subprocess, covering module entry point, auto-dispatch and reporting."""
    completed = _run_cli(
        "run",
        "lemma41",
        "--preset",
        "smoke",
        "--sizes",
        "64",
        "--repetitions",
        "1",
        "--engine",
        "auto",
        "--no-charts",
    )
    assert completed.returncode == 0, completed.stderr
    assert "lemma41" in completed.stdout


def test_cli_refuses_retired_flags_and_experiment_by_name():
    """The flags and the experiment of the retired scenario layer are gone
    from the parser: each exits with argparse's usage error (code 2),
    naming what it refused."""
    for argv, named in [
        (("--topology", "cycle"), "--topology"),
        (("--churn", "0.01"), "--churn"),
        (("--faults", "crash:1e-4"), "--faults"),
    ]:
        completed = _run_cli("run", "lemma73", *argv)
        assert completed.returncode == 2, completed.stderr
        assert named in completed.stderr
    completed = _run_cli("run", "matrix")
    assert completed.returncode == 2, completed.stderr
    assert "'matrix'" in completed.stderr


def test_cli_run_fast_experiment(capsys, tmp_path):
    exit_code = main(
        [
            "run",
            "lemma73",
            "--preset",
            "smoke",
            "--sizes",
            "128",
            "--repetitions",
            "1",
            "--no-charts",
            "--output",
            str(tmp_path),
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "lemma73" in output
    assert (tmp_path / "lemma73" / "result.json").exists()
