"""Build-format golden: a fresh build writes the committed bytes.

``tests/data/build_golden/records.fasta`` holds 40 records, some with
wildcards and one shorter than the interval length; ``classic.db`` is
the classic database built from it with default parameters by the
per-record builder (one ``extract`` and one ``encode_sequence`` call
per record, scatter-OR packing).  Every file a fresh build writes must
match it byte for byte.
"""

from pathlib import Path

from repro.database import Database
from repro.sequences.fasta import read_fasta

GOLDEN = Path(__file__).parent / "data" / "build_golden"


def test_create_reproduces_every_file(tmp_path):
    records = list(read_fasta(GOLDEN / "records.fasta"))
    assert any(len(record) < 8 for record in records)
    assert any((record.codes >= 4).any() for record in records)
    Database.create(records, tmp_path / "db").close()
    expected = sorted(path.name for path in (GOLDEN / "classic.db").iterdir())
    assert sorted(path.name for path in (tmp_path / "db").iterdir()) == expected
    for name in expected:
        assert (tmp_path / "db" / name).read_bytes() == (
            GOLDEN / "classic.db" / name
        ).read_bytes(), name
