"""Canonical benchmark documents and the regression gate.

The end-to-end property the CI job depends on: an artificially slowed
run of the quick suite must trip ``repro bench --compare`` and exit
nonzero, while comparing a run against itself must pass.
"""

from types import SimpleNamespace

import pytest

from repro.bench import (
    BenchDocument,
    compare_documents,
    metric,
    run_quick,
)
from repro.bench.compare import parse_threshold_overrides, threshold_for
from repro.bench.runner import column_direction, flatten_table
from repro.cli import main
from repro.errors import ReproError


def _document(suite="t", **values):
    document = BenchDocument(suite)
    for name, (value, direction) in values.items():
        document.add(name, value, direction=direction)
    return document


class TestSchema:
    def test_metric_rejects_unknown_direction(self):
        with pytest.raises(ReproError):
            metric(1.0, direction="sideways")

    def test_round_trip(self, tmp_path):
        document = _document(
            "roundtrip", a=(1.5, "lower"), b=(2.0, "higher")
        )
        document.meta["note"] = "x"
        target = document.write(tmp_path / "b.json")
        loaded = BenchDocument.load(target)
        assert loaded.suite == "roundtrip"
        assert loaded.meta["note"] == "x"
        assert loaded.value("a") == 1.5
        assert loaded.metrics["b"]["direction"] == "higher"

    def test_load_rejects_wrong_schema(self, tmp_path):
        target = tmp_path / "wrong.json"
        target.write_text('{"schema": "repro.profile/v1"}')
        with pytest.raises(ReproError):
            BenchDocument.load(target)

    def test_load_rejects_garbage(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text("not json")
        with pytest.raises(ReproError):
            BenchDocument.load(target)


class TestCompare:
    def test_lower_direction_regression(self):
        baseline = _document("t", ms=(10.0, "lower"))
        current = _document("t", ms=(20.0, "lower"))
        report = compare_documents(baseline, current)
        assert not report.ok
        assert report.regressions[0].name == "ms"

    def test_lower_direction_within_threshold(self):
        baseline = _document("t", ms=(10.0, "lower"))
        current = _document("t", ms=(14.0, "lower"))
        assert compare_documents(baseline, current).ok

    def test_higher_direction_regression(self):
        baseline = _document("t", qps=(100.0, "higher"))
        current = _document("t", qps=(40.0, "higher"))
        assert not compare_documents(baseline, current).ok

    def test_improvement_never_flags(self):
        baseline = _document(
            "t", ms=(10.0, "lower"), qps=(100.0, "higher")
        )
        current = _document(
            "t", ms=(1.0, "lower"), qps=(900.0, "higher")
        )
        assert compare_documents(baseline, current).ok

    def test_info_metrics_are_not_gated(self):
        baseline = _document("t", seqs=(100.0, "info"))
        current = _document("t", seqs=(999.0, "info"))
        report = compare_documents(baseline, current)
        assert report.ok
        assert report.comparisons == []

    def test_noise_floor_skips_tiny_values(self):
        baseline = _document("t", ms=(0.01, "lower"))
        current = _document("t", ms=(0.04, "lower"))
        report = compare_documents(baseline, current)
        assert report.ok
        assert report.skipped_noise == ["ms"]

    def test_missing_metrics_reported_not_gated(self):
        baseline = _document("t", gone=(1.0, "lower"))
        current = _document("t", new=(1.0, "lower"))
        report = compare_documents(baseline, current)
        assert report.ok
        assert report.missing_in_current == ["gone"]
        assert report.missing_in_baseline == ["new"]

    def test_missing_metric_warnings(self):
        baseline = _document("t", gone=(1.0, "lower"), kept=(1.0, "lower"))
        current = _document("t", new=(1.0, "lower"), kept=(1.0, "lower"))
        report = compare_documents(baseline, current)
        lines = report.warnings()
        assert len(lines) == 2
        assert any("gone" in line and "dropped or renamed" in line
                   for line in lines)
        assert any("new" in line and "not the baseline" in line
                   for line in lines)
        assert "1 missing from current" in report.summary()
        assert "1 missing from baseline" in report.summary()

    def test_no_warnings_when_documents_align(self):
        baseline = _document("t", ms=(10.0, "lower"))
        current = _document("t", ms=(11.0, "lower"))
        assert compare_documents(baseline, current).warnings() == []

    def test_per_metric_threshold_override(self):
        baseline = _document("t", ms=(10.0, "lower"))
        current = _document("t", ms=(25.0, "lower"))
        report = compare_documents(
            baseline, current, thresholds={"ms": 3.0}
        )
        assert report.ok

    def test_prefix_threshold_longest_match_wins(self):
        thresholds = {"quick.": 2.0, "quick.build": 5.0}
        assert threshold_for("quick.query_ms", thresholds, 1.5) == 2.0
        assert threshold_for("quick.build_seconds", thresholds, 1.5) == 5.0
        assert threshold_for("other", thresholds, 1.5) == 1.5

    def test_parse_threshold_overrides(self):
        assert parse_threshold_overrides(["a=2", "b.=3.5"]) == {
            "a": 2.0,
            "b.": 3.5,
        }
        with pytest.raises(ValueError):
            parse_threshold_overrides(["nonsense"])


class TestFlattenTable:
    def test_directions_units_and_names(self):
        table = SimpleNamespace(
            experiment="E9",
            columns=("engine", "ms/query", "recall@10", "speedup", "mode"),
            rows=(("partitioned c=50", 4.2, 0.9, 11.0, "full"),),
        )
        document = BenchDocument("experiments")
        added = flatten_table(table, document)
        assert added == 3  # the string cell is skipped
        entry = document.metrics["e9.partitioned_c_50.ms_query"]
        assert entry == {"value": 4.2, "unit": "ms", "direction": "lower"}
        assert (
            document.metrics["e9.partitioned_c_50.recall_10"]["direction"]
            == "higher"
        )
        assert (
            document.metrics["e9.partitioned_c_50.speedup"]["direction"]
            == "higher"
        )

    def test_duplicate_row_keys_widen_to_two_columns(self):
        table = SimpleNamespace(
            experiment="E5",
            columns=("scorer", "cutoff", "ms/query"),
            rows=(("count", 5, 1.0), ("count", 10, 2.0)),
        )
        document = BenchDocument("experiments")
        flatten_table(table, document)
        assert "e5.count_5.ms_query" in document.metrics
        assert "e5.count_10.ms_query" in document.metrics

    def test_numeric_strings_are_parsed(self):
        table = SimpleNamespace(
            experiment="E8",
            columns=("repr", "query ms"),
            rows=(("store:raw", "4.5"), ("ascii", "-")),
        )
        document = BenchDocument("experiments")
        assert flatten_table(table, document) == 1
        assert document.value("e8.store_raw.query_ms") == 4.5

    def test_column_direction_heuristics(self):
        assert column_direction("part ms/q") == "lower"
        assert column_direction("bits/ptr") == "lower"
        assert column_direction("enc Mgaps/s") == "higher"
        assert column_direction("part AP") == "higher"
        assert column_direction("cutoff") == "info"


class TestQuickSuiteGate:
    """The acceptance path: injected sleep must trip the gate."""

    QUICK = dict(
        families=2,
        family_size=2,
        background=8,
        mean_length=200,
        num_queries=3,
        query_length=80,
        repeat=1,
    )

    def test_injected_slowdown_is_detected(self):
        baseline = run_quick(**self.QUICK)
        slowed = run_quick(**self.QUICK, inject_sleep_seconds=0.05)
        report = compare_documents(baseline, slowed)
        assert not report.ok
        assert any(
            entry.name == "quick.query_ms_mean"
            for entry in report.regressions
        )
        # Throughput is gated in the other direction and must also trip.
        assert any(
            entry.name == "quick.throughput_qps"
            for entry in report.regressions
        )

    def test_quick_document_shape(self):
        document = run_quick(**self.QUICK)
        assert document.suite == "quick"
        assert document.schema == "repro.bench/v1"
        assert document.value("quick.queries") == 3
        assert document.metrics["quick.queries"]["direction"] == "info"
        assert "workload" in document.meta
        assert document.value("quick.build_seconds") > 0

    def test_cli_compare_exit_codes(self, tmp_path):
        baseline = run_quick(**self.QUICK)
        slowed = run_quick(**self.QUICK, inject_sleep_seconds=0.05)
        base_path = baseline.write(tmp_path / "base.json")
        slow_path = slowed.write(tmp_path / "slow.json")
        assert (
            main(
                ["bench", "--compare", str(base_path), str(base_path)]
            )
            == 0
        )
        assert (
            main(
                ["bench", "--compare", str(base_path), str(slow_path)]
            )
            == 1
        )
        # A huge threshold waves the slowdown through.
        assert (
            main(
                [
                    "bench",
                    "--compare",
                    str(base_path),
                    str(slow_path),
                    "--threshold",
                    "1000",
                ]
            )
            == 0
        )

    def test_cli_bench_run_writes_document(self, tmp_path, capsys):
        target = tmp_path / "BENCH_quick.json"
        status = main(
            [
                "bench",
                "--num-queries",
                "2",
                "--repeat",
                "1",
                "-o",
                str(target),
            ]
        )
        assert status == 0
        document = BenchDocument.load(target)
        assert document.suite == "quick"
        assert "wrote benchmark document" in capsys.readouterr().out


class TestKernelSuite:
    def test_kernel_document_shape_and_identity(self):
        pytest.importorskip("benchmarks.workload_setup")
        from repro.bench.runner import run_kernel_bench

        document = run_kernel_bench(num_sequences=150, rounds=1)
        assert document.suite == "kernel"
        metrics = document.metrics
        assert metrics["kernel.coarse_python_ms"]["direction"] == "info"
        assert metrics["kernel.coarse_active_ms"]["direction"] == "info"
        assert metrics["kernel.speedup"]["direction"] == "higher"
        assert metrics["kernel.rank_identical"]["direction"] == "higher"
        # The hard gate: the vector tier may only be faster, never
        # different — every scorer, every query, bit for bit.
        assert document.value("kernel.rank_identical") == 1.0
        assert document.value("kernel.speedup") > 0.0
        assert document.meta["active_tier"] == "numpy"
        assert document.meta["kernel_tier"] in ("python", "numpy")
