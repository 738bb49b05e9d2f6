"""Build-format golden: a fresh build writes the committed bytes.

``tests/data/build_golden/records.fasta`` holds 40 records, some with
wildcards and one shorter than the interval length; ``classic_v3.db``
is the classic database built from it with default parameters by the
per-record builder (one ``extract`` and one ``encode_sequence`` call
per record, scatter-OR packing).  Every file a fresh build writes must
match it byte for byte.

``classic.db`` is the same database as it was written before the
columnar vocabulary (index format v2: 36-byte rows with offsets, the
identifiers in the header).  It is kept to pin the v2 read path: it
resolves column for column like the v3 build, and the two files hold
the same postings blob.
"""

import json
from pathlib import Path

import numpy as np

from repro.database import Database
from repro.index.builder import build_index
from repro.index.storage import _V2_ROW, _WIDTHS, DiskIndex
from repro.instrumentation import faults
from repro.sequences.fasta import read_fasta
from tests.conftest import write_v2_index

GOLDEN = Path(__file__).parent / "data" / "build_golden"
V2 = GOLDEN / "classic.db" / "intervals.rpix"
V3 = GOLDEN / "classic_v3.db" / "intervals.rpix"


def test_create_reproduces_every_file(tmp_path):
    records = list(read_fasta(GOLDEN / "records.fasta"))
    assert any(len(record) < 8 for record in records)
    assert any((record.codes >= 4).any() for record in records)
    Database.create(records, tmp_path / "db").close()
    golden = GOLDEN / "classic_v3.db"
    expected = sorted(path.name for path in golden.iterdir())
    assert sorted(path.name for path in (tmp_path / "db").iterdir()) == expected
    for name in expected:
        assert (tmp_path / "db" / name).read_bytes() == (
            golden / name
        ).read_bytes(), name


def _section(path, name):
    start, end = faults.index_sections(path)[name]
    return path.read_bytes()[start:end]


def test_v3_golden_narrows_the_v2_golden():
    """Same blob byte for byte; each v3 column is the v2 table's column
    in its narrowest dtype, and the offsets are what the lengths imply."""
    assert _section(V3, "blob") == _section(V2, "blob")
    rows = np.frombuffer(_section(V2, "table"), dtype=_V2_ROW)
    widths = json.loads(_section(V3, "header"))["columns"]
    assert widths == {
        "interval_id": "u2", "df": "u1", "cf": "u1", "length": "u1",
        "crc": "u4",
    }
    for name, width in widths.items():
        column = np.frombuffer(
            _section(V3, f"{name}_column"), dtype=_WIDTHS[width]
        )
        assert np.array_equal(column, rows[name]), name
    lengths = rows["length"].astype(np.int64)
    assert np.array_equal(rows["offset"], np.cumsum(lengths) - lengths)


def test_v2_golden_resolves_like_a_fresh_build(tmp_path):
    """``DiskIndex.resolve`` over every interval of the v2 golden equals
    a fresh v3 build of ``records.fasta``, column for column, and the
    lists decode to the same docs and counts."""
    records = list(read_fasta(GOLDEN / "records.fasta"))
    Database.create(records, tmp_path / "db").close()
    with DiskIndex(V2) as old, DiskIndex(tmp_path / "db" / "intervals.rpix") as new:
        ids = list(old.interval_ids())
        assert ids == list(new.interval_ids())
        assert np.array_equal(old.collection.lengths, new.collection.lengths)
        got, want = old.resolve(ids), new.resolve(ids)
        for column in ("interval_ids", "dfs", "cfs", "lengths"):
            assert np.array_equal(getattr(got, column), getattr(want, column))
        old_start = faults.index_sections(V2)["blob"][0]
        new_start = faults.index_sections(tmp_path / "db" / "intervals.rpix")[
            "blob"
        ][0]
        assert np.array_equal(got.offsets - old_start, want.offsets - new_start)
        for old_field, new_field in zip(
            old.decode_lists(got), new.decode_lists(want)
        ):
            assert np.array_equal(old_field, new_field)
        assert old.verify() == [] and new.verify() == []


def test_v2_helper_writes_the_v2_golden(tmp_path):
    """The test helper that writes v2 files reproduces the committed v2
    index byte for byte, so files it makes stand for real v2 files."""
    records = list(read_fasta(GOLDEN / "records.fasta"))
    path = tmp_path / "v2.rpix"
    write_v2_index(
        build_index(records), path, [record.identifier for record in records]
    )
    assert path.read_bytes() == V2.read_bytes()
