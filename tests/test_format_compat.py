"""Older index files still open and answer.

``tests/data/v2_with_offsets.db`` is a classic format-v2 database whose
posting lists carry the offset section (section B) after their entries,
as every index did before the offsets were dropped: 16 records (three
families of three, seven background records) at interval length 8.
The reader ignores the offsets, so it must answer hit for hit like a
fresh build of the same records, and a compaction rewrites it without
them.  ``tests/data/build_golden/classic.db`` is a format-v2 database
written just before the columnar (v3) vocabulary; it must answer
like a fresh v3 build too.
"""

import json
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.database import Database
from repro.errors import IndexFormatError
from repro.index.postings import PostingEntry
from repro.index.storage import DiskIndex
from repro.sequences.record import Sequence

OLD = Path(__file__).parent / "data" / "v2_with_offsets.db"
V2_GOLDEN = Path(__file__).parent / "data" / "build_golden" / "classic.db"

#: Engine options the comparison runs under: every scorer, both
#: strands and E-values.
OPTIONS = [
    {},
    {"coarse_scorer": "idf"},
    {"both_strands": True, "with_evalues": True},
    {"fine_mode": "frames"},
]


@pytest.fixture()
def old_path(tmp_path):
    path = tmp_path / "old.db"
    shutil.copytree(OLD, path)
    return path


def hits_key(report):
    return [
        (hit.ordinal, hit.identifier, hit.score, hit.coarse_score,
         hit.strand, hit.evalue)
        for hit in report.hits
    ]


def queries_of(records):
    picks = [records[0], records[4], records[8], records[12]]
    return [record.slice(10, 130) for record in picks] + [
        records[5].slice(20, 140).reverse_complement()
    ]


def assert_answers_alike(old, fresh, queries):
    """Every engine option ranks hit for hit, and the coarse ranking
    score for score, alike on both databases."""
    for options in OPTIONS:
        for query in queries:
            assert hits_key(
                old.search(query, top_k=16, **options)
            ) == hits_key(fresh.search(query, top_k=16, **options)), options
        for query in queries:
            assert [
                (c.ordinal, c.coarse_score)
                for c in old.engine().coarse_rank(query.codes)
            ] == [
                (c.ordinal, c.coarse_score)
                for c in fresh.engine().coarse_rank(query.codes)
            ]


def entry_section(index, interval):
    """A list's bytes as written today: its entries re-encoded."""
    _, docs, counts = index.read_lists([interval])
    return index.codec.encode(
        [
            PostingEntry(doc, count)
            for doc, count in zip(docs.tolist(), counts.tolist())
        ],
        index.context,
    )


class TestOldFiles:
    def test_header_records_offsets(self):
        manifest = json.loads((OLD / "manifest.json").read_text())
        assert manifest["params"]["include_positions"] is True
        with DiskIndex(OLD / "intervals.rpix") as index:
            assert index.params.interval_length == 8
            longer = [
                interval
                for interval in index.interval_ids()
                if len(index.lookup_entry(interval).data)
                > len(entry_section(index, interval))
            ]
        # Nearly every list carries offsets past its entries.
        assert len(longer) > index.vocabulary_size // 2

    def test_opens_verifies_and_answers_like_a_fresh_build(
        self, old_path, tmp_path
    ):
        assert Database.verify(old_path).ok
        with Database.open(old_path) as old:
            records = list(old.records())
            fresh = Database.create(records, tmp_path / "fresh.db")
            try:
                assert old.index.compressed_bytes > (
                    fresh.index.compressed_bytes
                )
                assert_answers_alike(old, fresh, queries_of(records))
            finally:
                fresh.close()

    def test_v2_build_golden_answers_like_a_fresh_build(self, tmp_path):
        path = tmp_path / "v2.db"
        shutil.copytree(V2_GOLDEN, path)
        assert Database.verify(path).ok
        with Database.open(path) as old:
            records = list(old.records())
            fresh = Database.create(records, tmp_path / "fresh.db")
            try:
                assert old.index.compressed_bytes == (
                    fresh.index.compressed_bytes
                )
                long_enough = [record for record in records if len(record) > 140]
                assert_answers_alike(old, fresh, queries_of(long_enough))
            finally:
                fresh.close()

    def test_compaction_drops_the_offsets(self, old_path):
        rng = np.random.default_rng(7)
        added = [
            Sequence(f"new{slot}", rng.integers(0, 4, 150, dtype=np.uint8))
            for slot in range(3)
        ]
        with Database.open(old_path) as db:
            query = db.record(4).slice(10, 130)
            db.add_records(added)
            db.delete([2])
            before = hits_key(db.search(query, top_k=16))
            db.compact()
            assert hits_key(db.search(query, top_k=16)) == before
            for shard in db.shards:
                index = shard.index
                for interval in index.interval_ids():
                    assert index.lookup_entry(interval).data == (
                        entry_section(index, interval)
                    )
            manifest = json.loads((old_path / "manifest.json").read_text())
            assert manifest["params"]["include_positions"] is False
        assert Database.verify(old_path).ok

    def test_other_codec_header_refused(self, tmp_path):
        raw = (OLD / "intervals.rpix").read_bytes()
        prefix = struct.Struct("<4sHI")
        magic, version, length = prefix.unpack_from(raw, 0)
        start = prefix.size + 4
        header = json.loads(raw[start : start + length])
        header["params"]["doc_codec"] = "vbyte"
        body = json.dumps(header).encode("utf-8")
        path = tmp_path / "vbyte.rpix"
        path.write_bytes(
            prefix.pack(magic, version, len(body))
            + struct.pack("<I", zlib.crc32(body))
            + body
            + raw[start + length :]
        )
        with pytest.raises(IndexFormatError, match="doc_codec='vbyte'"):
            DiskIndex(path)
