"""Smoke tests for the benchmark harness's table machinery.

The experiment functions themselves run minutes and are exercised by
``python -m benchmarks.harness``; here we pin the cheap, logic-bearing
parts: rendering, cell formatting, the experiment registry, and the
one experiment that runs in about a second (PROFILE).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.harness import EXPERIMENTS, Table, _cell, main  # noqa: E402


class TestTableRendering:
    def test_render_aligns_columns(self):
        table = Table(
            "EX",
            "demo",
            ("name", "value"),
            (("alpha", 1.5), ("b", 23456),),
            note="a note",
        )
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "== EX: demo =="
        assert lines[-1] == "note: a note"
        # Column positions line up between header and rows.
        header, first_row = lines[1], lines[2]
        assert header.index("value") + len("value") == len(header)
        assert len(first_row) == len(header)

    def test_render_empty_rows(self):
        table = Table("EX", "empty", ("a", "b"), ())
        assert "EX: empty" in table.render()

    def test_render_markdown_shape(self):
        table = Table("EX", "demo", ("a", "b"), ((1, 2.5),), note="hi")
        text = table.render_markdown()
        lines = text.splitlines()
        assert lines[0] == "### EX: demo"
        assert lines[2] == "| a | b |"
        assert lines[3] == "|---|---|"
        assert lines[4] == "| 1 | 2.50 |"
        assert lines[-1] == "*hi*"

    def test_cell_formats_floats_to_two_places(self):
        assert _cell(1.23456) == "1.23"
        assert _cell(7) == "7"
        assert _cell("x") == "x"


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {f"E{n}" for n in range(1, 9)} | {"E7B", "PROFILE"}
        assert set(EXPERIMENTS) == expected

    def test_every_entry_is_callable(self):
        for experiment in EXPERIMENTS.values():
            assert callable(experiment)

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["E99"]) == 1
        assert "unknown experiment" in capsys.readouterr().out


class TestProfile:
    def test_profile_writes_metrics_snapshot(self, tmp_path, monkeypatch):
        """PROFILE tabulates the base workload's phase percentiles and
        writes the registry as the ``repro.metrics/v1`` JSON snapshot
        ``repro search --metrics-out`` writes."""
        import json

        from benchmarks import workload_setup

        monkeypatch.chdir(tmp_path)
        table = EXPERIMENTS["PROFILE"]()
        queries = 2 * len(workload_setup.base_queries())
        rows = dict(table.rows)
        assert rows["queries"] == queries
        assert (
            rows["partitioned.coarse_seconds p50 ms"]
            <= rows["partitioned.coarse_seconds p99 ms"]
        )
        document = json.loads((tmp_path / "BENCH_profile.json").read_text())
        assert document["schema"] == "repro.metrics/v1"
        assert document["meta"]["queries"] == queries
        assert document["counters"]["partitioned.queries"] == queries
        assert (
            document["histograms"]["partitioned.coarse_seconds"]["count"]
            == queries
        )
