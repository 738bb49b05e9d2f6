"""Query event log: sampling, slow-query gating, engine wiring.

The audit property that matters most: a query that skipped corrupted
intervals must leave a JSONL record carrying the skip counts, so the
damage is visible after the fact without re-running the query.
"""

import io
import json

import numpy as np
import pytest

from repro.database import Database
from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.instrumentation import (
    Instruments,
    QueryEventLog,
    options_digest,
    read_events,
)
from repro.search.engine import PartitionedSearchEngine
from repro.sequences.record import Sequence
from tests.test_corruption_scorers import FaultyIndex

PARAMS = IndexParameters(interval_length=6)


def _records(count=24, length=200, seed=41):
    rng = np.random.default_rng(seed)
    return [
        Sequence(f"e{slot:03d}", rng.integers(0, 4, length, dtype=np.uint8))
        for slot in range(count)
    ]


def _query(records, number=0, span=90):
    return Sequence(
        f"q{number}", records[number].codes[20 : 20 + span].copy()
    )


class TestOptionsDigest:
    def test_stable_across_key_order(self):
        assert options_digest({"a": 1, "b": 2}) == options_digest(
            {"b": 2, "a": 1}
        )

    def test_differs_when_an_option_changes(self):
        assert options_digest({"cutoff": 50}) != options_digest(
            {"cutoff": 100}
        )

    def test_short_hex(self):
        digest = options_digest({"engine": "partitioned"})
        assert len(digest) == 12
        int(digest, 16)


class TestQueryEventLog:
    def test_every_event_logged_by_default(self):
        sink = io.StringIO()
        log = QueryEventLog(sink)
        for number in range(4):
            log.emit({"query_id": f"q{number}", "total_seconds": 0.01})
        assert log.seen == 4
        assert log.written == 4
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [line["seq"] for line in lines] == [1, 2, 3, 4]
        assert all(line["schema"] == "repro.event/v1" for line in lines)

    def test_sampling_keeps_every_nth(self):
        sink = io.StringIO()
        log = QueryEventLog(sink, sample_every=3)
        for number in range(10):
            log.emit({"query_id": f"q{number}", "total_seconds": 0.001})
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [line["seq"] for line in lines] == [3, 6, 9]
        assert log.written == 3

    def test_slow_queries_bypass_sampling(self):
        sink = io.StringIO()
        log = QueryEventLog(sink, sample_every=1000, slow_seconds=0.5)
        log.emit({"query_id": "fast", "total_seconds": 0.01})
        log.emit({"query_id": "slow", "total_seconds": 0.9})
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [line["query_id"] for line in lines] == ["slow"]
        assert lines[0]["slow"] is True

    def test_sampling_zero_logs_only_slow(self):
        sink = io.StringIO()
        log = QueryEventLog(sink, sample_every=0, slow_seconds=0.5)
        log.emit({"query_id": "fast", "total_seconds": 0.01})
        log.emit({"query_id": "slow", "total_seconds": 1.0})
        assert log.written == 1

    def test_path_sink_and_read_events(self, tmp_path):
        target = tmp_path / "events.jsonl"
        with QueryEventLog(target) as log:
            log.emit({"query_id": "a", "total_seconds": 0.1})
            log.emit({"query_id": "b", "total_seconds": 0.2})
        events = read_events(target)
        assert [event["query_id"] for event in events] == ["a", "b"]
        assert all("ts" in event for event in events)


class TestEngineEventWiring:
    def test_partitioned_ok_event_fields(self):
        records = _records()
        sink = io.StringIO()
        instruments = Instruments(eventlog=QueryEventLog(sink))
        engine = PartitionedSearchEngine(
            build_index(records, PARAMS),
            MemorySequenceSource(records),
            coarse_cutoff=10,
            instruments=instruments,
        )
        engine.search(_query(records), top_k=5)
        (event,) = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert event["engine"] == "partitioned"
        assert event["outcome"] == "ok"
        assert event["query_id"] == "q0"
        assert event["options"] == engine.options_digest
        assert event["candidates"] > 0
        assert event["hits"] > 0
        assert event["coarse_seconds"] > 0
        assert event["fine_seconds"] > 0
        assert event["total_seconds"] >= event["coarse_seconds"]

    def test_corrupted_intervals_recorded_in_event(self):
        records = _records(count=30, length=400, seed=907)
        sink = io.StringIO()
        instruments = Instruments(eventlog=QueryEventLog(sink))
        engine = PartitionedSearchEngine(
            FaultyIndex(build_index(records, IndexParameters(8))),
            MemorySequenceSource(records),
            on_corruption="skip",
            instruments=instruments,
        )
        report = engine.search(records[4].slice(100, 260), top_k=5)
        assert report.quarantined_intervals > 0
        (event,) = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert event["outcome"] == "ok"
        assert (
            event["quarantined_intervals"] == report.quarantined_intervals
        )

    def test_error_outcome_logged_before_raise(self):
        records = _records(count=30, length=400, seed=907)
        sink = io.StringIO()
        instruments = Instruments(eventlog=QueryEventLog(sink))
        engine = PartitionedSearchEngine(
            FaultyIndex(build_index(records, IndexParameters(8))),
            MemorySequenceSource(records),
            on_corruption="raise",
            instruments=instruments,
        )
        from repro.errors import CorruptionError

        with pytest.raises(CorruptionError):
            engine.search(records[4].slice(100, 260), top_k=5)
        (event,) = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert event["outcome"] == "error"
        assert "error" in event

    @pytest.mark.parametrize("shards", [1, 3])
    def test_event_carries_per_shard_detail(self, tmp_path, shards):
        records = _records()
        sink = io.StringIO()
        instruments = Instruments(eventlog=QueryEventLog(sink))
        with Database.create(
            records, tmp_path / "db", params=PARAMS, shards=shards
        ) as db:
            db.set_instruments(instruments)
            db.search(_query(records), top_k=5)
        (event,) = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert event["engine"] == "partitioned"
        assert event["num_shards"] == shards
        assert [shard["shard"] for shard in event["shards"]] == list(
            range(shards)
        )
        for shard in event["shards"]:
            assert set(shard) >= {
                "coarse_seconds",
                "fine_seconds",
                "coarse_candidates",
                "fine_candidates",
            }

    def test_no_eventlog_means_no_event_building(self):
        records = _records()
        instruments = Instruments()
        assert not instruments.wants_events
        engine = PartitionedSearchEngine(
            build_index(records, PARAMS),
            MemorySequenceSource(records),
            coarse_cutoff=10,
            instruments=instruments,
        )
        # Must not raise, and nothing to flush anywhere.
        engine.search(_query(records), top_k=5)


class TestCliEventLog:
    @staticmethod
    def _database(tmp_path):
        from repro.sequences.fasta import write_fasta

        records = _records()
        Database.create(records, tmp_path / "db", params=PARAMS).close()
        write_fasta([_query(records)], tmp_path / "q.fa")
        return tmp_path / "db", tmp_path / "q.fa"

    def test_search_eventlog_flag(self, tmp_path):
        from repro.cli import main

        database, queries = self._database(tmp_path)
        target = tmp_path / "events.jsonl"
        status = main(
            [
                "search",
                str(database),
                str(queries),
                "--eventlog",
                str(target),
            ]
        )
        assert status == 0
        events = read_events(target)
        assert len(events) == 1
        assert events[0]["outcome"] == "ok"

    def test_negative_sample_is_a_usage_error(self, tmp_path, capsys):
        """``--eventlog-sample -1`` exits 2 with an argparse message and
        writes no log (it used to escape ``main`` as a ``ValueError``
        traceback from ``QueryEventLog``)."""
        from repro.cli import main

        database, queries = self._database(tmp_path)
        target = tmp_path / "events.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "search", str(database), str(queries),
                    "--eventlog", str(target), "--eventlog-sample", "-1",
                ]
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --eventlog-sample: must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_non_positive_slow_ms_is_a_usage_error(
        self, tmp_path, capsys, value
    ):
        """``--slow-ms`` of 0 or less exits 2 with an argparse message
        and writes no log (it used to mark every query slow, so
        ``--eventlog-sample 0 --slow-ms -5`` logged every query)."""
        from repro.cli import main

        database, queries = self._database(tmp_path)
        target = tmp_path / "events.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "search", str(database), str(queries),
                    "--eventlog", str(target), "--eventlog-sample", "0",
                    f"--slow-ms={value}",
                ]
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --slow-ms: must be > 0, got {value}" in err
        assert "Traceback" not in err
        assert not target.exists()

    def test_positive_slow_ms_gates_the_log(self, tmp_path):
        """With sampling off, a tiny ``--slow-ms`` logs the query and a
        huge one does not."""
        from repro.cli import main

        database, queries = self._database(tmp_path)
        for slow_ms, logged in (("0.000001", 1), ("100000", 0)):
            target = tmp_path / f"events-{logged}.jsonl"
            status = main(
                [
                    "search", str(database), str(queries),
                    "--eventlog", str(target), "--eventlog-sample", "0",
                    "--slow-ms", slow_ms,
                ]
            )
            assert status == 0
            assert len(read_events(target)) == logged

    def test_missing_database_leaves_no_log(self, tmp_path, capsys):
        """A path that holds no database fails with exit 1 before the
        event log is opened, so no empty log file is left behind."""
        from repro.cli import main

        _, queries = self._database(tmp_path)
        target = tmp_path / "events.jsonl"
        status = main(
            [
                "search", str(tmp_path / "nope.db"), str(queries),
                "--eventlog", str(target),
            ]
        )
        assert status == 1
        assert "no database manifest" in capsys.readouterr().err
        assert not target.exists()


class TestSinkFailureDrops:
    """A failing sink must never fail the query: the event is dropped
    and counted, nothing propagates."""

    class _BrokenFile:
        def __init__(self, fail_after=0):
            self.fail_after = fail_after
            self.writes = 0
            self.closed = False

        def write(self, text):
            self.writes += 1
            if self.writes > self.fail_after:
                raise OSError(28, "No space left on device")
            return len(text)

        def flush(self):
            pass

    def test_oserror_dropped_and_counted(self):
        sink = self._BrokenFile()
        log = QueryEventLog(sink)
        assert log.emit({"query": "q0"}) is False
        assert log.emit({"query": "q1"}) is False
        assert log.dropped == 2
        assert log.written == 0
        assert log.seen == 2

    def test_recovery_after_transient_failure(self):
        import io

        sink = io.StringIO()
        log = QueryEventLog(sink)
        assert log.emit({"query": "ok"}) is True

        broken = self._BrokenFile(fail_after=0)
        log_broken = QueryEventLog(broken)
        log_broken.emit({"query": "lost"})
        assert log_broken.dropped == 1

    def test_closed_sink_write_is_dropped_not_raised(self, tmp_path):
        log = QueryEventLog(tmp_path / "events.jsonl")
        log.close()
        assert log.emit({"query": "after-close"}) is False
        assert log.dropped == 1

    def test_dropped_counter_mirrored_as_gauge(self):
        from repro.instrumentation.instruments import Instruments

        instruments = Instruments(eventlog=QueryEventLog(self._BrokenFile()))
        instruments.emit_event({"query": "q"})
        snapshot = instruments.metrics.snapshot()
        assert snapshot["gauges"]["eventlog.dropped"] == 1
