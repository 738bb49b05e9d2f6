"""Unit tests for the command-line front end."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def workspace(tmp_path):
    """A generated collection + queries on disk."""
    collection = tmp_path / "coll.fasta"
    queries = tmp_path / "q.fasta"
    status = main(
        [
            "generate",
            "--families", "3",
            "--family-size", "3",
            "--background", "20",
            "--mean-length", "300",
            "--seed", "5",
            "-o", str(collection),
            "--queries", str(queries),
            "--num-queries", "2",
            "--query-length", "120",
        ]
    )
    assert status == 0
    return tmp_path, collection, queries


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "-o", "x.fasta"])
        assert args.families == 20
        assert args.handler is not None


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
        index_path = tmp_path / "c.rpix"
        store_path = tmp_path / "c.rpsq"
        assert main(
            [
                "index", str(collection),
                "-o", str(index_path),
                "--store", str(store_path),
                "-k", "8",
            ]
        ) == 0
        assert index_path.exists()
        assert store_path.exists()
        capsys.readouterr()
        assert main(["stats", str(index_path)]) == 0
        output = capsys.readouterr().out
        assert "vocabulary size" in output
        assert "bits per pointer" in output

    def test_missing_collection_fails_cleanly(self, tmp_path, capsys):
        status = main(
            ["index", str(tmp_path / "nope.fasta"), "-o", str(tmp_path / "x")]
        )
        assert status == 1
        assert "error" in capsys.readouterr().err


class TestSearch:
    def test_search_prints_ranked_answers(self, workspace, capsys):
        tmp_path, collection, queries = workspace
        index_path = tmp_path / "c.rpix"
        store_path = tmp_path / "c.rpsq"
        main(["index", str(collection), "-o", str(index_path),
              "--store", str(store_path)])
        capsys.readouterr()
        status = main(
            ["search", str(index_path), str(store_path), str(queries),
             "--cutoff", "10", "--top", "3"]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "query q0000" in output
        assert "score=" in output
        # The top answer of a family query is a family member.
        first_answer = output.splitlines()[1]
        assert "fam" in first_answer

    def test_search_rejects_corrupt_index(self, workspace, capsys):
        tmp_path, _, queries = workspace
        bogus = tmp_path / "bogus.rpix"
        bogus.write_bytes(b"not an index at all")
        status = main(["search", str(bogus), str(bogus), str(queries)])
        assert status == 1
        assert "error" in capsys.readouterr().err


class TestDatabaseCommands:
    def test_create_info_search(self, workspace, capsys):
        tmp_path, collection, queries = workspace
        db_path = tmp_path / "demo.db"
        assert main(
            ["db-create", str(collection), "-o", str(db_path), "-k", "8"]
        ) == 0
        created = capsys.readouterr().out
        assert "29 sequences" in created
        assert main(["db-info", str(db_path)]) == 0
        capsys.readouterr()
        assert main(
            ["db-search", str(db_path), str(queries), "--top", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "query q0000" in output
        assert "fam" in output

    def test_db_create_refuses_overwrite(self, workspace, capsys):
        tmp_path, collection, _ = workspace
        db_path = tmp_path / "dup.db"
        assert main(["db-create", str(collection), "-o", str(db_path)]) == 0
        capsys.readouterr()
        assert main(["db-create", str(collection), "-o", str(db_path)]) == 1
        assert "already holds" in capsys.readouterr().err

    def test_db_info_missing(self, tmp_path, capsys):
        assert main(["db-info", str(tmp_path / "nope.db")]) == 1
        assert "error" in capsys.readouterr().err


class TestOracle:
    def test_oracle_reports_overlap_and_speedup(self, workspace, capsys):
        tmp_path, collection, queries = workspace
        index_path = tmp_path / "c.rpix"
        store_path = tmp_path / "c.rpsq"
        main(["index", str(collection), "-o", str(index_path),
              "--store", str(store_path)])
        capsys.readouterr()
        status = main(
            ["oracle", str(index_path), str(store_path), str(queries),
             "--cutoff", "10", "--top", "3"]
        )
        assert status == 0
        output = capsys.readouterr().out
        assert "mean overlap@3" in output
        assert "mean speedup" in output

    def test_oracle_with_empty_queries(self, workspace, tmp_path, capsys):
        workdir, collection, _ = workspace
        index_path = workdir / "c2.rpix"
        store_path = workdir / "c2.rpsq"
        main(["index", str(collection), "-o", str(index_path),
              "--store", str(store_path)])
        empty = tmp_path / "empty.fasta"
        empty.write_text("")
        capsys.readouterr()
        status = main(
            ["oracle", str(index_path), str(store_path), str(empty)]
        )
        assert status == 1


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
