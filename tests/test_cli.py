"""Unit tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import EXIT_BROKEN_PIPE, build_parser, main
from repro.database import Database
from repro.eval.metrics import ranking_overlap
from repro.instrumentation.eventlog import read_events
from repro.instrumentation.export import METRICS_SCHEMA, parse_prometheus_text
from repro.search.exhaustive import ExhaustiveSearcher
from repro.sequences.fasta import read_fasta, write_fasta


def _generate(directory, seed=5):
    """Write a generated collection + queries under ``directory``."""
    collection = directory / "coll.fasta"
    queries = directory / "q.fasta"
    status = main(
        [
            "generate",
            "--families", "3",
            "--family-size", "3",
            "--background", "20",
            "--mean-length", "300",
            "--seed", str(seed),
            "-o", str(collection),
            "--queries", str(queries),
            "--num-queries", "2",
            "--query-length", "120",
        ]
    )
    assert status == 0
    return collection, queries


@pytest.fixture()
def workspace(tmp_path):
    """A generated collection + queries on disk."""
    collection, queries = _generate(tmp_path)
    return tmp_path, collection, queries


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """The workspace collection built through the CLI as a classic, a
    3-shard and a live database (one base shard, two delta shards,
    three tombstones): ``{layout: (database, queries, shards)}``."""
    root = tmp_path_factory.mktemp("layouts")
    collection, queries = _generate(root)
    records = list(read_fasta(collection))
    write_fasta(records[:19], root / "base.fasta")
    write_fasta(records[19:24], root / "delta1.fasta")
    write_fasta(records[24:], root / "delta2.fasta")
    built = {}
    for layout, source, shards in (
        ("classic", collection, 1),
        ("sharded", collection, 3),
        ("live", root / "base.fasta", 1),
    ):
        database = root / f"{layout}.db"
        assert main(
            ["build", str(source), "-o", str(database),
             "--shards", str(shards)]
        ) == 0
        built[layout] = (database, queries, shards)
    live = root / "live.db"
    assert main(["ingest", str(live), str(root / "delta1.fasta")]) == 0
    assert main(["ingest", str(live), str(root / "delta2.fasta")]) == 0
    doomed = [records[slot].identifier for slot in (2, 11, 21)]
    assert main(["delete", str(live), *doomed]) == 0
    built["live"] = (live, queries, 3)
    with Database.open(live) as database:
        assert (database.delta_shards, database.tombstone_count) == (2, 3)
    return built


LAYOUTS = ("classic", "sharded", "live")

SUBCOMMANDS = {
    "generate", "build", "db-info", "search", "oracle", "serve",
    "verify", "repair", "ingest", "delete", "compact", "align",
}

SEARCH_FLAGS = {
    "--cutoff", "--top", "--scorer", "--fine-mode", "--both-strands",
    "--evalues", "--stats", "--metrics-out", "--trace-out", "--eventlog",
    "--eventlog-sample", "--slow-ms",
}


def _subparsers(parser):
    (action,) = [
        action for action in parser._actions
        if action.dest == "command"
    ]
    return action.choices


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "-o", "x.fasta"])
        assert args.families == 20
        assert args.handler is not None

    def test_subcommands(self):
        assert set(_subparsers(build_parser())) == SUBCOMMANDS

    def test_search_takes_a_database_and_every_search_flag(self):
        search = _subparsers(build_parser())["search"]
        flags = {
            option
            for action in search._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        assert flags == SEARCH_FLAGS
        positionals = [
            action.dest for action in search._actions
            if not action.option_strings
        ]
        assert positionals == ["database", "queries"]

    @pytest.mark.parametrize(
        "command", ["index", "stats", "profile", "db-search", "db-create"]
    )
    def test_removed_commands_are_invalid_choices(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "x"])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


class TestGenerate(object):
    def test_writes_collection_and_queries(self, workspace, capsys):
        _, collection, queries = workspace
        assert collection.exists()
        assert queries.exists()
        text = collection.read_text()
        assert text.startswith(">")
        assert sum(1 for line in text.splitlines() if line.startswith(">")) == 29


class TestIndexAndStats:
    def test_index_then_stats(self, workspace, capsys):
        tmp_path, collection, _ = workspace
        db_path = tmp_path / "c.db"
        assert main(["build", str(collection), "-o", str(db_path), "-k", "8"]) == 0
        capsys.readouterr()
        assert main(["db-info", str(db_path)]) == 0
        output = capsys.readouterr().out
        assert "vocabulary size" in output
        assert "bits per pointer" in output

    def test_missing_collection_fails_cleanly(self, tmp_path, capsys):
        status = main(
            ["build", str(tmp_path / "nope.fasta"), "-o", str(tmp_path / "x")]
        )
        assert status == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_db_info_prints_bits_per_pointer_per_shard(
        self, layouts, layout, capsys
    ):
        database, _, shards = layouts[layout]
        capsys.readouterr()
        assert main(["db-info", str(database)]) == 0
        output = capsys.readouterr().out
        assert output.count("bits per pointer") == shards
        assert output.count("--- shard ") == shards

    def test_db_info_skips_signature_shards(self, workspace, capsys):
        tmp_path, collection, _ = workspace
        db_path = tmp_path / "sig.db"
        assert main(
            ["build", str(collection), "-o", str(db_path),
             "--coarse-backend", "signature"]
        ) == 0
        capsys.readouterr()
        assert main(["db-info", str(db_path)]) == 0
        output = capsys.readouterr().out
        assert "signature coarse backend" in output
        assert "bits per pointer" not in output


class TestSearch:
    def test_search_prints_ranked_answers(self, workspace, capsys):
        tmp_path, collection, queries = workspace
        db_path = tmp_path / "c.db"
        main(["build", str(collection), "-o", str(db_path)])
        capsys.readouterr()
        status = main(
            ["search", str(db_path), str(queries),
             "--cutoff", "10", "--top", "3"]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "query q0000" in output
        assert "score=" in output
        # The top answer of a family query is a family member.
        first_answer = output.splitlines()[1]
        assert "fam" in first_answer

    def test_closed_stdout_ends_quietly(self, layouts):
        """A reader that closes after one line of a two-query search
        (``repro search DB Q | head -1``) ends the command with
        ``EXIT_BROKEN_PIPE`` and nothing on stderr.

        The queries arrive on the child's stdin, and the second one is
        sent only after the reader has closed, so the child's next print
        meets the closed pipe every time.
        """
        database, queries, _ = layouts["classic"]
        text = queries.read_text()
        second = text.index(">", 1)
        header_end = text.index("\n", second) + 1
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).parents[1]),
            PYTHONUNBUFFERED="1",
        )
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "search", str(database),
             "/dev/stdin"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env,
        )
        try:
            # The first record is parsed once the second header arrives.
            child.stdin.write(text[:header_end].encode())
            child.stdin.flush()
            first = child.stdout.readline()
            child.stdout.close()
            try:
                child.stdin.write(text[header_end:].encode())
                child.stdin.close()
            except BrokenPipeError:  # the child already stopped
                pass
            status = child.wait(timeout=120)
            err = child.stderr.read().decode()
        finally:
            child.kill()
            child.wait()
            child.stderr.close()
        assert first.startswith(b"query ")
        assert (status, err) == (EXIT_BROKEN_PIPE, "")

    def test_search_rejects_corrupt_index(self, workspace, capsys):
        tmp_path, collection, queries = workspace
        db_path = tmp_path / "c.db"
        main(["build", str(collection), "-o", str(db_path)])
        (db_path / "intervals.rpix").write_bytes(b"not an index at all")
        capsys.readouterr()
        status = main(["search", str(db_path), str(queries)])
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_every_layout_answers_alike(self, layouts, capsys):
        """Classic and 3-shard builds of one collection print the same
        bytes: score identity is the sharding invariant."""
        printed = []
        for layout in ("classic", "sharded"):
            database, queries, _ = layouts[layout]
            capsys.readouterr()
            assert main(["search", str(database), str(queries), "--top", "5"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "candidates" in printed[0]


class TestObservabilityFlags:
    """Every observability flag of ``search`` works on every layout."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_stats_metrics_trace_and_eventlog(
        self, layouts, layout, tmp_path, capsys
    ):
        database, queries, shards = layouts[layout]
        expected = len(list(read_fasta(queries)))
        metrics_json = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        events = tmp_path / "e.jsonl"
        capsys.readouterr()
        assert main(
            [
                "search", str(database), str(queries), "--top", "3",
                "--stats",
                "--metrics-out", str(metrics_json),
                "--trace-out", str(trace),
                "--eventlog", str(events),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "--- instrumentation ---" in output
        assert "coarse backend: inverted" in output
        assert f"throughput: {expected} queries" in output
        assert "partitioned.total_seconds" in output
        assert "p50=" in output
        assert "counter partitioned.queries" in output
        assert "--- spans ---" in output

        document = json.loads(metrics_json.read_text())
        assert document["schema"] == METRICS_SCHEMA
        assert document["meta"] == {"queries": expected}
        assert document["counters"]["partitioned.queries"] == expected
        assert (
            document["histograms"]["partitioned.total_seconds"]["count"]
            == expected
        )

        spans = json.loads(trace.read_text())["traceEvents"]
        assert sum(event["name"] == "search" for event in spans) == expected
        assert {f"shard[{slot}].coarse" for slot in range(shards)} <= {
            event["name"] for event in spans
        }

        logged = read_events(events)
        assert len(logged) == expected
        assert {event["outcome"] for event in logged} == {"ok"}
        assert {event["num_shards"] for event in logged} == {shards}

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_prometheus_metrics(self, layouts, layout, tmp_path, capsys):
        database, queries, _ = layouts[layout]
        expected = len(list(read_fasta(queries)))
        target = tmp_path / "m.prom"
        assert main(
            ["search", str(database), str(queries), "--metrics-out", str(target)]
        ) == 0
        assert f"wrote metrics -> {target}" in capsys.readouterr().out
        families = parse_prometheus_text(target.read_text())
        assert families["repro_partitioned_queries_total"] == {(): expected}
        assert (
            families["repro_partitioned_total_seconds_count"][()] == expected
        )


class TestDatabaseCommands:
    def test_create_info_search(self, workspace, capsys):
        tmp_path, collection, queries = workspace
        db_path = tmp_path / "demo.db"
        assert main(
            ["build", str(collection), "-o", str(db_path), "-k", "8"]
        ) == 0
        created = capsys.readouterr().out
        assert "29 sequences" in created
        assert main(["db-info", str(db_path)]) == 0
        capsys.readouterr()
        assert main(
            ["search", str(db_path), str(queries), "--top", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "query q0000" in output
        assert "fam" in output

    def test_db_create_refuses_overwrite(self, workspace, capsys):
        tmp_path, collection, _ = workspace
        db_path = tmp_path / "dup.db"
        assert main(["build", str(collection), "-o", str(db_path)]) == 0
        capsys.readouterr()
        assert main(["build", str(collection), "-o", str(db_path)]) == 1
        assert "already holds" in capsys.readouterr().err

    def test_db_info_missing(self, tmp_path, capsys):
        assert main(["db-info", str(tmp_path / "nope.db")]) == 1
        assert "error" in capsys.readouterr().err


class TestOracle:
    def test_oracle_reports_overlap_and_speedup(self, workspace, capsys):
        tmp_path, collection, queries = workspace
        db_path = tmp_path / "c.db"
        main(["build", str(collection), "-o", str(db_path)])
        capsys.readouterr()
        status = main(
            ["oracle", str(db_path), str(queries), "--cutoff", "10", "--top", "3"]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "mean overlap@3" in output
        assert "mean speedup" in output

    def test_oracle_with_empty_queries(self, workspace, tmp_path, capsys):
        workdir, collection, _ = workspace
        db_path = workdir / "c2.db"
        main(["build", str(collection), "-o", str(db_path)])
        empty = tmp_path / "empty.fasta"
        empty.write_text("")
        capsys.readouterr()
        status = main(["oracle", str(db_path), str(empty)])
        assert status == 1

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_oracle_overlap_is_database_against_exhaustive(
        self, layouts, layout, capsys
    ):
        """The printed overlap is ``database.search`` against an
        exhaustive scan of ``database.records()``, both in logical
        ordinals."""
        database_path, queries, _ = layouts[layout]
        capsys.readouterr()
        assert main(
            ["oracle", str(database_path), str(queries),
             "--cutoff", "5", "--top", "5"]
        ) == 0
        rows = capsys.readouterr().out.splitlines()[1:-2]
        printed = {row.split()[0]: float(row.split()[-1]) for row in rows}
        with Database.open(database_path) as database:
            exhaustive = ExhaustiveSearcher(list(database.records()))
            expected = {
                query.identifier: round(
                    ranking_overlap(
                        database.search(
                            query, top_k=5, coarse_cutoff=5
                        ).ordinals(),
                        exhaustive.search(query, top_k=5).ordinals(),
                        5,
                    ),
                    2,
                )
                for query in read_fasta(queries)
            }
        assert printed == expected


class TestAlign:
    def test_pretty_alignment(self, tmp_path, capsys):
        first = tmp_path / "a.fasta"
        second = tmp_path / "b.fasta"
        first.write_text(">a\nACGTACGTAC\n")
        second.write_text(">b\nTTACGTACGTACTT\n")
        assert main(["align", str(first), str(second)]) == 0
        output = capsys.readouterr().out
        assert "a vs b" in output
        assert "score=10" in output


class TestServingCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "some.db"])
        assert args.deadline_ms == 2000.0
        assert args.max_in_flight == 4
        assert args.shard_attempts == 3
        assert args.handler is not None
