"""Tests for the experiments package: registry, rendering, CLI, and a
couple of fast end-to-end experiment runs."""

import importlib

import pytest

from repro.experiments import (
    ExperimentResult,
    ExperimentTable,
    REGISTRY,
    all_names,
    load,
    run,
)
from repro.experiments.__main__ import main as cli_main


class TestRegistry:
    def test_every_figure_and_table_registered(self):
        for name in (
            "fig1", "fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13a", "fig13b", "fig14", "fig15", "fig16",
            "table1", "table2", "table4",
            "ablation-slots", "ablation-buffers", "ext-sensitivity", "ext-scaling",
        ):
            assert name in REGISTRY

    def test_all_modules_importable_with_metadata(self):
        for name in all_names():
            module = load(name)
            assert module.NAME == name
            assert module.TITLE
            assert callable(module.run)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load("fig99")


class TestRendering:
    def test_table_render_aligns_columns(self):
        table = ExperimentTable("T", ["a", "long-header"], [(1, 2), (333, 4)])
        lines = table.render().splitlines()
        assert lines[0] == "=== T ==="
        assert "long-header" in lines[1]
        assert len(lines) == 4

    def test_result_render_joins_tables(self):
        result = ExperimentResult("x")
        result.add_table("One", ["h"], [("v",)])
        result.add_table("Two", ["h"], [("w",)])
        rendered = result.render()
        assert "=== One ===" in rendered and "=== Two ===" in rendered


class TestFastExperiments:
    def test_table2_runs(self):
        result = run("table2")
        assert result.data["total"] >= 300
        assert len(result.tables) == 2

    def test_table4_runs(self):
        result = run("table4")
        assert result.data["cmp-swap"] > result.data["load"]

    def test_fig1_runs(self):
        result = run("fig1")
        assert result.data["speedup"] > 1.5
        assert result.data["genesys_launches"] == 1

    def test_ablation_buffers_runs(self):
        result = run("ablation-buffers")
        assert result.data["flush_ns"] < result.data["atomics_ns"]


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table2" in out

    def test_no_args_lists(self, capsys):
        assert cli_main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_run_one(self, capsys):
        assert cli_main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out and "cmp-swap" in out

    def test_unknown_experiment_errors(self, capsys):
        assert cli_main(["not-an-experiment"]) == 2


@pytest.mark.parametrize(
    "module, argv",
    [
        ("repro.experiments.__main__", ["table4", "nope"]),
        ("repro.probes.cli", ["run", "nope"]),
        ("repro.tracing.cli", ["report", "nope"]),
        ("repro.tracing.cli", ["record", "nope"]),
        ("repro.metrics.cli", ["run", "nope"]),
        ("repro.metrics.cli", ["report", "nope"]),
        ("repro.metrics.cli", ["gtop", "nope"]),
        ("repro.sanitizers.cli", ["check", "--experiments", "table4,nope"]),
    ],
)
def test_unknown_experiment_exits_2_before_anything_runs(module, argv, capsys):
    """Every CLI that takes experiment names validates all of them first:
    one message on stderr, exit 2, and no experiment output."""
    main = importlib.import_module(module).main
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"unknown experiment 'nope'; available: {', '.join(sorted(REGISTRY))}\n"
    )
