"""Shared fixtures: small deterministic collections and engines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.errors import ReproError
from repro.index.builder import IndexParameters, build_index

# One profile for the whole suite: wall-clock deadlines are flaky on
# shared machines and several codecs/DP kernels have legitimately
# value-dependent cost.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
from repro.index.store import MemorySequenceSource
from repro.sequences.record import Sequence
from repro.workloads.queries import make_family_queries
from repro.workloads.synthetic import WorkloadSpec, generate_collection


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260705)


def random_sequence(
    rng: np.random.Generator, identifier: str, length: int
) -> Sequence:
    """A uniform-random base sequence record."""
    return Sequence(
        identifier, rng.integers(0, 4, size=length, dtype=np.uint8)
    )


@pytest.fixture(scope="session")
def tiny_collection(rng) -> list[Sequence]:
    """Ten random 120-base sequences (fast unit-test material)."""
    return [random_sequence(rng, f"tiny{i}", 120) for i in range(10)]


@pytest.fixture(scope="session")
def small_workload():
    """A planted-family collection with queries: the integration substrate."""
    spec = WorkloadSpec(
        num_families=6,
        family_size=4,
        num_background=76,
        mean_length=400,
        seed=17,
    )
    collection = generate_collection(spec)
    queries = make_family_queries(collection, 6, query_length=150, seed=23)
    return collection, queries


@pytest.fixture(scope="session")
def small_index(small_workload):
    """A length-8 interval index over the small workload collection."""
    collection, _ = small_workload
    return build_index(
        list(collection.sequences), IndexParameters(interval_length=8)
    )


@pytest.fixture(scope="session")
def small_source(small_workload) -> MemorySequenceSource:
    collection, _ = small_workload
    return MemorySequenceSource(list(collection.sequences))


# -- recall against an exhaustive oracle ---------------------------------


def scalar_read_lists(index, interval_ids):
    """The ``read_lists`` layout built by the scalar per-list decoder:
    each id looked up on its own and decoded with
    ``PostingsCodec.decode_docs_counts``.  This is the oracle the flat
    block decoder must match exactly."""
    codec, context = index.codec, index.context
    lens, docs, counts = [], [], []
    for interval in interval_ids:
        entry = index.lookup_entry(int(interval))
        if entry is None:
            lens.append(0)
            continue
        lens.append(entry.df)
        got_docs, got_counts = codec.decode_docs_counts(
            entry.data, entry.df, context
        )
        docs.extend(got_docs.tolist())
        counts.extend(got_counts.tolist())
    return (
        np.array(lens, dtype=np.int64),
        np.array(docs, dtype=np.int64),
        np.array(counts, dtype=np.int64),
    )


def write_v2_index(index, path, identifiers=None):
    """Write ``index`` as a format-v2 ``.rpix`` file, the layout written
    before the columnar vocabulary: one packed 36-byte row per interval
    with an explicit blob offset, and the collection's identifiers in
    the header (``seq<ordinal>`` unless given).  Such files are read,
    never written, by the library."""
    import json
    import struct
    import zlib

    from repro.index.storage import _V2_ROW

    lists = index.lists
    blob = lists.buffer.tobytes()
    table = np.empty(index.vocabulary_size, dtype=_V2_ROW)
    table["interval_id"] = lists.interval_ids
    table["df"] = lists.dfs
    table["cf"] = lists.cfs
    table["offset"] = lists.offsets
    table["length"] = lists.lengths
    table["crc"] = [
        zlib.crc32(blob[offset : offset + length])
        for offset, length in zip(lists.offsets.tolist(), lists.lengths.tolist())
    ]
    lengths = index.collection.lengths.tolist()
    if identifiers is None:
        identifiers = [f"seq{ordinal}" for ordinal in range(len(lengths))]
    header = json.dumps(
        {
            "params": index.params.describe(),
            "identifiers": list(identifiers),
            "lengths": lengths,
        }
    ).encode("utf-8")
    rows = table.tobytes()
    path.write_bytes(
        struct.pack("<4sHI", b"RPIX", 2, len(header))
        + struct.pack("<I", zlib.crc32(header))
        + header
        + struct.pack("<QI", len(table), zlib.crc32(rows))
        + rows
        + blob
    )


def read_postings(index, interval):
    """One posting list through ``read_lists``: ``(sequence, count)``
    per entry, empty when the interval is absent."""
    _, docs, counts = index.read_lists([interval])
    return list(zip(docs.tolist(), counts.tolist()))


def encode_with_offsets(spec, context) -> bytes:
    """One ``(sequence, offsets)`` list as index files written with
    occurrence offsets hold it: the entries, then every entry's offset
    gaps under the Golomb parameter derived from the mean occurrences
    per entry and the mean sequence length."""
    from repro.compression.bitio import BitWriter
    from repro.compression.elias import EliasGammaCodec
    from repro.compression.golomb import GolombCodec, optimal_golomb_parameter

    df = len(spec)
    cf = sum(len(positions) for _, positions in spec)
    gaps = GolombCodec(optimal_golomb_parameter(df, context.num_sequences))
    # The mean sequence length, floored at 1 as those writers did.
    mean_length = max(1.0, context.total_length / max(1, context.num_sequences))
    offsets = GolombCodec(
        optimal_golomb_parameter(max(1, round(cf / df)), round(mean_length))
    )
    gamma = EliasGammaCodec()
    writer = BitWriter()
    previous = -1
    for doc, positions in spec:
        gaps.encode_value(writer, doc - previous - 1)
        gamma.encode_value(writer, len(positions) - 1)
        previous = doc
    for _, positions in spec:
        previous = -1
        for position in positions:
            offsets.encode_value(writer, position - previous - 1)
            previous = position
    return writer.getvalue()


def oracle_recall_at(
    ranking_scores: list[float], oracle_scores: list[float], cutoff: int
) -> float:
    """Recall against an exhaustive oracle, tolerant of boundary ties.

    When the oracle's ``cutoff``-th answer sits inside a group of
    equal-scoring documents, *which* group members make the top
    ``cutoff`` is arbitrary — any of them is an equally good answer.
    So instead of set membership, an answer counts as found when its
    score reaches the oracle's ``cutoff``-th score: the fraction of the
    first ``cutoff`` ranked answers scoring at least that threshold.
    An engine returning fewer than ``cutoff`` answers is penalised for
    the empty slots.

    Raises:
        ReproError: if ``cutoff`` < 1 or the oracle supplied fewer than
            ``cutoff`` scores.
    """
    if cutoff < 1:
        raise ReproError(f"cutoff must be >= 1, got {cutoff}")
    if len(oracle_scores) < cutoff:
        raise ReproError(
            f"oracle supplied {len(oracle_scores)} scores but the cutoff "
            f"is {cutoff}"
        )
    threshold = sorted(oracle_scores, reverse=True)[cutoff - 1]
    found = sum(
        1 for score in ranking_scores[:cutoff] if score >= threshold
    )
    return found / cutoff


def mean_oracle_recall(searcher, oracle, queries, top_k=4, **search_kwargs):
    """Mean tie-aware recall of ``searcher`` against an exhaustive oracle.

    For each query the oracle's top-``top_k`` scores set the bar and
    :func:`oracle_recall_at` measures how many of the
    searcher's top-``top_k`` answers reach it — tolerant of equal-score
    groups straddling the cutoff, which any coarse backend may order
    differently from the oracle without being wrong.  Extra keyword
    arguments (``coarse_cutoff`` etc.) go to ``searcher.search``.
    """
    recalls = []
    for query in queries:
        oracle_scores = [
            hit.score for hit in oracle.search(query, top_k=top_k).hits
        ]
        report = searcher.search(query, top_k=top_k, **search_kwargs)
        recalls.append(
            oracle_recall_at(
                [hit.score for hit in report.hits], oracle_scores, top_k
            )
        )
    return sum(recalls) / len(recalls)


# -- differential parity: one logical collection, three layouts ---------

PARITY_PARAMS = IndexParameters(interval_length=6)


def parity_report_key(report):
    """Everything about a report that must be layout-independent."""
    return (
        [
            (hit.ordinal, hit.identifier, hit.score, hit.coarse_score,
             hit.strand, hit.evalue)
            for hit in report.hits
        ],
        report.candidates_examined,
    )


class ParityWorlds:
    """The same logical collection served from three on-disk layouts.

    ``single`` is a classic one-directory index of the survivors;
    ``sharded`` is a 3-shard build of the same survivors; ``live`` grew
    into the identical logical collection incrementally — a 2-shard
    base, two delta-shard ingests, then tombstones for every doomed
    record (interleaved through base *and* deltas, so logical ordinals
    shift across shard boundaries).  ``queries`` includes one cut from
    a doomed record: the deleted document must not appear in any hit
    list, only its surviving relatives.
    """

    def __init__(self, survivors, doomed, queries, single, sharded, live):
        self.survivors = survivors
        self.doomed = doomed
        self.queries = queries
        self.single = single
        self.sharded = sharded
        self.live = live

    def check(self, top_k=10, **engine_kwargs):
        """Assert hit-for-hit identical reports across the layouts.

        Returns the single-index reports, one per fixture query.
        """
        doomed_names = {record.identifier for record in self.doomed}
        reports = []
        for query in self.queries:
            expected = self.single.search(query, top_k=top_k, **engine_kwargs)
            key = parity_report_key(expected)
            for name, database in (
                ("sharded", self.sharded), ("live", self.live)
            ):
                got = database.search(query, top_k=top_k, **engine_kwargs)
                assert parity_report_key(got) == key, (
                    f"{name} layout diverged from the single index on "
                    f"query {query.identifier!r} with {engine_kwargs!r}"
                )
            assert not doomed_names & {h.identifier for h in expected.hits}
            reports.append(expected)
        return reports


@pytest.fixture(scope="session")
def parity_worlds(tmp_path_factory):
    from repro.database import Database

    root = tmp_path_factory.mktemp("parity")
    generator = np.random.default_rng(41)
    full: list[Sequence] = []
    for slot in range(45):
        codes = generator.integers(0, 4, 220, dtype=np.uint8)
        # Plant a shared fragment so queries have multi-shard answers.
        if slot % 3 == 0 and slot:
            codes[30:90] = full[0].codes[30:90]
        full.append(Sequence(f"par{slot:03d}", codes))
    doomed = [record for index, record in enumerate(full) if index % 5 == 0]
    survivors = [record for index, record in enumerate(full) if index % 5]

    queries = []
    for number, stored in enumerate((7, 12, 23, 31, 44)):
        queries.append(
            Sequence(f"q{number}", full[stored].codes[40:140].copy())
        )
    queries.append(Sequence("qdead", full[10].codes[40:140].copy()))

    single = Database.create(
        survivors, root / "single", params=PARITY_PARAMS, shards=1
    )
    sharded = Database.create(
        survivors, root / "sharded", params=PARITY_PARAMS, shards=3
    )
    live = Database.create(
        full[:27], root / "live", params=PARITY_PARAMS, shards=2
    )
    live.add_records(full[27:36])
    live.add_records(full[36:45])
    # Mixed targets: two by identifier, the rest by logical ordinal
    # (equal to stored ordinals here — no tombstones exist yet).
    live.delete(
        [doomed[0].identifier, doomed[1].identifier]
        + [index for index in range(10, 45, 5)]
    )
    worlds = ParityWorlds(survivors, doomed, queries, single, sharded, live)
    yield worlds
    for database in (single, sharded, live):
        database.close()


@pytest.fixture(scope="session")
def degraded_worlds(parity_worlds, tmp_path_factory):
    """The parity layouts copied and damaged in one shard's index, each
    opened with ``on_corruption="fallback"``:
    ``{(layout, how): Database}`` for layout ``single`` / ``sharded`` /
    ``live`` and ``how``:

    - ``"open"``: the index header fails its checksum, so the shard
      opens without an index and the database is degraded;
    - ``"query"``: the posting blob is zeroed, so the database opens
      healthy and a query's first posting read raises the
      ``CorruptionError`` that makes ``"fallback"`` re-run it.
    """
    import shutil

    from repro.database import Database
    from repro.instrumentation import faults

    root = tmp_path_factory.mktemp("degraded")
    worlds = {}
    for layout in ("single", "sharded", "live"):
        healthy = getattr(parity_worlds, layout)
        damaged = healthy.shards[healthy.num_shards // 2].path
        for how in ("open", "query"):
            path = root / f"{layout}-{how}"
            shutil.copytree(healthy.path, path)
            shard = path / damaged.relative_to(healthy.path)
            target = shard / "intervals.rpix"
            sections = faults.index_sections(target)
            if how == "open":
                faults.flip_byte(target, sections["header_crc"][0], mask=0x80)
            else:
                start, end = sections["blob"]
                faults.zero_page(target, start, end - start)
            database = Database.open(path, on_corruption="fallback")
            assert database.degraded == (how == "open")
            worlds[layout, how] = database
    yield worlds
    for database in worlds.values():
        database.close()
