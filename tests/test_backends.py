"""Pluggable coarse backends: signature format, dispatch, recall.

The inverted backend's behaviour is pinned elsewhere (the parity
fixtures and the coarse/engine suites); this module covers the backend
*interface* — registry, manifest round-trip, bit-identical inverted
artifacts through the backend path — and the signature backend end to
end: on-disk format, corruption handling, engine integration on every
layout (single, sharded, LSM), auto-compaction, and recall against the
exhaustive oracle on the corpora the backends bench uses.
"""

import json
import struct
import tempfile
import zlib
from itertools import islice
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import mean_oracle_recall, oracle_recall_at
from repro.coarse_backends import get_backend, signature
from repro.coarse_backends.base import (
    ARTIFACT_NAMES,
    DEFAULT_BACKEND,
    artifact_name,
    coarse_section,
)
from repro.coarse_backends.signature import (
    DEFAULT_SIGNATURE_PARAMS,
    SignatureIndex,
    SignatureRanker,
    signature_probes,
    signature_rows,
    slice_rows_for,
    write_signature,
)
from repro.database import AutoCompactPolicy, Database
from repro.errors import (
    CorruptionError,
    IndexFormatError,
    IndexParameterError,
    ReproError,
    SearchError,
)
from repro.index.builder import IndexParameters, build_index
from repro.index.intervals import IntervalExtractor
from repro.index.storage import write_index
from repro.index.store import MemorySequenceSource
from repro.instrumentation.instruments import Instruments
from repro.search.exhaustive import ExhaustiveSearcher
from repro.search.results import top_candidates
from repro.sequences.record import Sequence
from repro.workloads.queries import make_family_queries
from repro.workloads.synthetic import (
    MutationModel,
    WorkloadSpec,
    generate_collection,
)

PARAMS = IndexParameters(interval_length=8)


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(73)
    made = [
        Sequence(f"sig{slot:02d}", rng.integers(0, 4, 260, dtype=np.uint8))
        for slot in range(24)
    ]
    # Plant a relative so queries have a two-document answer set.
    relative = made[17].codes.copy()
    relative[40:180] = made[3].codes[40:180]
    made[17] = Sequence("sig17", relative)
    return made


@pytest.fixture(scope="module")
def signature_file(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("rpsg") / "signatures.rpsg"
    write_signature(
        records, path, PARAMS, {"docs_per_block": 7, "hashes": 2}
    )
    return path


# -- registry and manifest plumbing --------------------------------------


class TestRegistry:
    def test_known_backends(self):
        assert get_backend("inverted").name == "inverted"
        assert get_backend("signature").name == "signature"
        assert get_backend("inverted") is get_backend("inverted")

    def test_unknown_backend_rejected(self):
        # A bad name reaches us through a manifest, so it is a format
        # error, not a parameter error.
        with pytest.raises(IndexFormatError, match="unknown coarse"):
            get_backend("holographic")

    def test_artifact_names(self):
        assert artifact_name("inverted") == "intervals.rpix"
        assert artifact_name("signature") == "signatures.rpsg"
        with pytest.raises(IndexFormatError):
            artifact_name("holographic")

    def test_coarse_section_normalises(self):
        section = coarse_section("signature", {"hashes": 3})
        assert section["backend"] == "signature"
        assert section["params"]["hashes"] == 3
        assert section["params"]["docs_per_block"] == 64

    def test_manifest_without_section_defaults_to_inverted(
        self, records, tmp_path
    ):
        from repro.sharding.manifest import read_layout

        Database.create(records, tmp_path / "db", params=PARAMS).close()
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        del manifest["coarse"]
        assert read_layout(manifest).coarse == {
            "backend": DEFAULT_BACKEND,
            "params": {},
        }

    def test_inverted_rejects_params(self):
        with pytest.raises(IndexParameterError, match="no backend parameters"):
            get_backend("inverted").normalise_params({"hashes": 2})


class TestSignatureParams:
    def test_defaults(self):
        assert get_backend("signature").normalise_params(None) == (
            DEFAULT_SIGNATURE_PARAMS
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"false_positive_rate": 0.0},
            {"false_positive_rate": 1.0},
            {"hashes": 0},
            {"docs_per_block": 0},
            {"mystery_knob": 1},
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(IndexParameterError):
            get_backend("signature").normalise_params(bad)


class TestInvertedThroughBackend:
    def test_artifact_is_bit_identical_to_direct_write(
        self, records, tmp_path
    ):
        """The re-homed inverted builder must not change a single byte."""
        direct = tmp_path / "direct.rpix"
        write_index(build_index(records, PARAMS), direct)
        via_backend = tmp_path / "backend"
        via_backend.mkdir()
        get_backend("inverted").build_artifact(
            via_backend, records, PARAMS, {}
        )
        assert (
            via_backend / "intervals.rpix"
        ).read_bytes() == direct.read_bytes()


# -- the signature file itself -------------------------------------------


def _per_record_blocks(records, params, docs_per_block, hashes, fpr):
    """Each block's packed matrix, signing one record at a time: the
    oracle :func:`write_signature`'s batch passes are held to."""
    extractor = IntervalExtractor(params.interval_length, params.stride)
    distinct = [extractor.extract_distinct(record.codes) for record in records]
    payloads = []
    for start in range(0, len(records), docs_per_block):
        chunk = distinct[start : start + docs_per_block]
        rows = slice_rows_for(max(ids.shape[0] for ids in chunk), hashes, fpr)
        matrix = np.zeros((rows, len(chunk)), dtype=bool)
        for column, ids in enumerate(chunk):
            matrix[signature_rows(ids, hashes, rows).ravel(), column] = True
        payloads.append(np.packbits(matrix, axis=1).tobytes())
    return payloads


def _written_blocks(path):
    """A signature file's header and each block's payload bytes."""
    data = Path(path).read_bytes()
    _, _, header_length = struct.unpack_from("<4sHI", data, 0)
    start = struct.calcsize("<4sHI") + 4
    header = json.loads(data[start : start + header_length])
    payload = data[start + header_length :]
    return header, [
        payload[block["offset"] : block["offset"] + block["length"]]
        for block in header["blocks"]
    ]


def _oracle_scores(path, query_codes, quarantined=()):
    """Containment counts one block at a time, read from the file's
    bytes and unpacked bit by bit: the reference the one-gather scan is
    held to.  Quarantined blocks score zero."""
    header, payloads = _written_blocks(path)
    hashes = header["signature"]["hashes"]
    ids = IntervalExtractor(
        header["params"]["interval_length"], stride=1
    ).extract_distinct(query_codes)
    scores = np.zeros(len(header["lengths"]))
    if not ids.shape[0]:
        return scores
    for slot, (block, payload) in enumerate(zip(header["blocks"], payloads)):
        if slot in quarantined:
            continue
        packed = np.frombuffer(payload, dtype=np.uint8).reshape(
            block["rows"], -1
        )
        rows = signature_rows(ids, hashes, block["rows"])
        masks = np.bitwise_and.reduce(packed[rows], axis=1)
        bits = np.unpackbits(masks, axis=1, count=block["docs"])
        scores[block["base"] : block["base"] + block["docs"]] = bits.sum(
            axis=0, dtype=np.int64
        )
    return scores


record_codes = st.lists(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=6),
        st.lists(st.integers(0, 3), max_size=90),
        st.lists(st.integers(0, 14), max_size=60),
    ),
    max_size=20,
)


class TestBatchSignatureBuild:
    """Extraction passes over whole blocks sign each record exactly as
    signing it on its own does."""

    @settings(max_examples=60, deadline=None)
    @given(
        record_codes,
        st.sampled_from([(4, 1), (8, 1), (8, 3), (12, 2)]),
        st.integers(1, 9),
        st.integers(1, 3),
        st.integers(1, 400),
    )
    @example(
        codes=[[0, 1, 2, 3, 0, 1, 2, 3, 0], [1] * 6, [], [0, 2],
               [14, 0, 1, 2, 3, 3, 12, 2, 1, 0, 1]],
        shape=(4, 1), docs_per_block=2, hashes=2, chunk=1,
    )
    def test_equals_per_record_signing(
        self, codes, shape, docs_per_block, hashes, chunk
    ):
        """Small passes put pass edges between blocks; records shorter
        than k and records with wildcards sign what they hold."""
        records = [
            Sequence(f"h{slot}", np.array(values, dtype=np.uint8))
            for slot, values in enumerate(codes)
        ]
        params = IndexParameters(interval_length=shape[0], stride=shape[1])
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "signatures.rpsg"
            with patch.object(signature, "SIGN_CHUNK", chunk):
                write_signature(
                    records, path, params,
                    {"docs_per_block": docs_per_block, "hashes": hashes},
                )
            header, payloads = _written_blocks(path)
        assert payloads == _per_record_blocks(
            records, params, docs_per_block, hashes,
            DEFAULT_SIGNATURE_PARAMS["false_positive_rate"],
        )
        assert [block["base"] for block in header["blocks"]] == list(
            range(0, len(records), docs_per_block)
        )


class TestSignatureFormat:
    def test_round_trip(self, signature_file, records):
        with SignatureIndex(signature_file) as index:
            assert index.coarse_backend == "signature"
            assert index.collection.lengths.tolist() == [
                len(record) for record in records
            ]
            assert index.params.interval_length == 8
            assert index.signature_params["docs_per_block"] == 7
            assert index.num_blocks == 4  # 24 docs in blocks of 7
            assert index.signature_bytes > 0
            assert index.verify() == []

    def test_version_1_file_opens_and_scores_identically(
        self, signature_file, records, tmp_path
    ):
        """Version 2 drops the header's identifiers (the store carries
        them); a version-1 file, identifiers and all, still opens and
        scores bit for bit the same."""
        header, _ = _written_blocks(signature_file)
        assert "identifiers" not in header
        raw = signature_file.read_bytes()
        _, version, length = struct.unpack_from("<4sHI", raw, 0)
        assert version == 2
        start = struct.calcsize("<4sHI") + 4
        header["identifiers"] = [record.identifier for record in records]
        body = json.dumps(header).encode("utf-8")
        old = tmp_path / "v1.rpsg"
        old.write_bytes(
            struct.pack("<4sHI", b"RPSG", 1, len(body))
            + struct.pack("<I", zlib.crc32(body))
            + body
            + raw[start + length :]
        )
        probes = signature_probes(
            IntervalExtractor(8, stride=1).extract_distinct(records[3].codes), 2
        )
        with SignatureIndex(old) as v1, SignatureIndex(signature_file) as v2:
            assert np.array_equal(
                v1.collection.lengths, v2.collection.lengths
            )
            assert v1.verify() == []
            assert np.array_equal(
                v1.membership_counts(probes, 0, 4),
                v2.membership_counts(probes, 0, 4),
            )

    def test_membership_counts_find_own_kmers(self, signature_file, records):
        extractor = IntervalExtractor(8, stride=1)
        with SignatureIndex(signature_file) as index:
            ids = extractor.extract_distinct(records[9].codes)
            probes = signature_probes(ids, 2)
            counts = index.membership_counts(probes, 1, 2)  # docs 7..13
            assert counts.shape == (7,)
            # Bloom filters never produce false negatives: document 9
            # must contain every one of its own k-mers.
            assert counts[2] == ids.shape[0]
            assert np.array_equal(
                index.membership_counts(probes, 0, 4),
                _oracle_scores(signature_file, records[9].codes),
            )

    def test_slice_rows_floor(self):
        assert slice_rows_for(0, 1, 0.3) == 8
        assert slice_rows_for(100, 1, 0.3) > 8

    def test_signature_rows_deterministic_and_bounded(self):
        ids = np.arange(50, dtype=np.uint64)
        first = signature_rows(ids, 3, 97)
        again = signature_rows(ids, 3, 97)
        assert first.shape == (50, 3)
        assert np.array_equal(first, again)
        assert first.min() >= 0 and first.max() < 97

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "signatures.rpsg"
        bad.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(IndexFormatError, match="magic"):
            SignatureIndex(bad)

    def test_header_corruption_is_corruption_error(
        self, signature_file, tmp_path
    ):
        raw = bytearray(signature_file.read_bytes())
        raw[16] ^= 0xFF  # inside the header JSON
        target = tmp_path / "signatures.rpsg"
        target.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="header checksum"):
            SignatureIndex(target)

    def test_block_corruption_caught_lazily(self, signature_file, tmp_path):
        target = tmp_path / "signatures.rpsg"
        target.write_bytes(_with_flipped_block(signature_file, 2))
        query = np.arange(40, dtype=np.uint8) % 4
        with SignatureIndex(target) as index:  # opening reads no payload
            index.verify_block(0)  # intact block fine
            assert index.unverified_blocks(0, 4).tolist() == [1, 2, 3]
            with pytest.raises(CorruptionError, match="block 2"):
                SignatureRanker(index).scores(query)
            # The scan verified the blocks before the damaged one.
            assert index.unverified_blocks(0, 4).tolist() == [2, 3]
            with pytest.raises(CorruptionError, match="block 2"):
                index.verify_block(2)
            assert any("block 2" in issue for issue in index.verify())


def _de_bruijn(k):
    """The order-``k`` de Bruijn sequence over the four bases, lazily:
    every k-window of the cyclic sequence is a distinct k-mer."""
    digits = [0] * (k + 1)

    def extend(t, p):
        if t > k:
            if k % p == 0:
                yield from digits[1 : p + 1]
            return
        digits[t] = digits[t - p]
        yield from extend(t + 1, p)
        for code in range(digits[t - p] + 1, 4):
            digits[t] = code
            yield from extend(t + 1, t)

    return extend(1, 1)


def _query_with_distinct_kmers(k, distinct, relabel):
    """Codes holding exactly ``distinct`` distinct k-mers (clamped to
    4^k): a window of the de Bruijn sequence, bases relabelled."""
    distinct = min(distinct, 4**k)
    if not distinct:
        return np.zeros(0, dtype=np.uint8)
    cycle = list(islice(_de_bruijn(k), min(4**k, distinct + k - 1)))
    codes = (cycle + cycle)[: distinct + k - 1]
    return np.array(relabel, dtype=np.uint8)[codes]


class TestOneGatherScan:
    """The scan gathers every block's rows at once and counts bits in
    byte lanes; the per-block unpacking oracle must agree bit for bit
    on every row width, lane-chunk edge and quarantine."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        docs=st.integers(1, 160),
        docs_per_block=st.integers(1, 70),
        hashes=st.integers(1, 3),
        k=st.sampled_from([4, 8, 12]),
        distinct=st.one_of(
            st.sampled_from([0, 1, 255, 256]), st.integers(601, 700)
        ),
        relabel=st.permutations([0, 1, 2, 3]),
        wildcards=st.lists(st.integers(0, 800), max_size=3),
        scan_words=st.sampled_from([1, 2, 3, signature.SCAN_WORDS]),
        quarantine=st.booleans(),
    )
    @example(
        seed=0, docs=140, docs_per_block=70, hashes=2, k=4, distinct=256,
        relabel=[0, 1, 2, 3], wildcards=[], scan_words=1, quarantine=True,
    )
    def test_scores_and_rank_equal_the_oracle(
        self, seed, docs, docs_per_block, hashes, k, distinct, relabel,
        wildcards, scan_words, quarantine,
    ):
        query = _query_with_distinct_kmers(k, distinct, relabel)
        for position in wildcards:
            if position < query.shape[0]:
                query[position] = 14
        rng = np.random.default_rng(seed)
        records = []
        for slot in range(docs):
            length = int(rng.integers(0, 120))
            codes = rng.integers(0, 4, length, dtype=np.uint8)
            if slot % 3 == 0:
                # Holds every query k-mer: its lanes count the most ids.
                codes = np.concatenate([codes, query])
            elif slot % 3 == 1 and query.shape[0]:
                start = int(rng.integers(0, query.shape[0]))
                codes = np.concatenate([codes, query[start : start + 90]])
            records.append(Sequence(f"p{slot}", codes))
        damaged = set()
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "signatures.rpsg"
            write_signature(
                records, path, IndexParameters(interval_length=k),
                {"docs_per_block": docs_per_block, "hashes": hashes},
            )
            if quarantine:
                damaged = {int(rng.integers(0, -(-docs // docs_per_block)))}
                path.write_bytes(_with_flipped_block(path, *damaged))
            expected = _oracle_scores(path, query, quarantined=damaged)
            with patch.object(signature, "SCAN_WORDS", scan_words):
                index = SignatureIndex(path)
            with index:
                ranker = SignatureRanker(index, on_corruption="skip")
                scores = ranker.scores(query)
                assert scores.dtype == np.float64
                assert np.array_equal(scores, expected)
                scanned = IntervalExtractor(k, stride=1).extract_distinct(query)
                assert ranker.quarantined == (
                    damaged if scanned.shape[0] else set()
                )
                for cutoff in (1, 5, docs + 3):
                    assert ranker.rank(query, cutoff) == top_candidates(
                        expected, cutoff
                    )


def _with_flipped_block(path, slot):
    """The signature file's bytes with one payload byte of ``slot`` flipped."""
    raw = bytearray(path.read_bytes())
    magic_size = 4 + 2 + 4 + 4  # prefix + crc
    (header_length,) = np.frombuffer(raw[6:10], dtype=np.uint32)
    header = json.loads(bytes(raw[magic_size : magic_size + header_length]))
    block = header["blocks"][slot]
    position = magic_size + int(header_length) + block["offset"]
    raw[position] ^= 0xFF
    assert (
        zlib.crc32(raw[position : position + block["length"]]) != block["crc"]
    )
    return bytes(raw)


# -- the ranker -----------------------------------------------------------


class TestSignatureRanker:
    def test_self_retrieval_and_contract(self, signature_file, records):
        with SignatureIndex(signature_file) as index:
            ranker = SignatureRanker(index)
            candidates = ranker.rank(records[3].codes[40:180], cutoff=10)
            assert candidates[0].ordinal in (3, 17)
            assert {c.ordinal for c in candidates[:2]} == {3, 17}
            scores = [c.coarse_score for c in candidates]
            assert scores == sorted(scores, reverse=True)
            assert all(score > 0 for score in scores)
            ordinals = [c.ordinal for c in candidates]
            for left, right in zip(candidates, candidates[1:]):
                if left.coarse_score == right.coarse_score:
                    assert left.ordinal < right.ordinal
            assert len(ordinals) == len(set(ordinals))

    def test_rejects_non_count_scorer(self, signature_file):
        with SignatureIndex(signature_file) as index:
            with pytest.raises(SearchError, match="'count'"):
                SignatureRanker(index, scorer="weighted")

    def test_rejects_bad_cutoff(self, signature_file):
        with SignatureIndex(signature_file) as index:
            with pytest.raises(SearchError, match="cutoff"):
                SignatureRanker(index).rank(
                    np.zeros(40, dtype=np.uint8), cutoff=0
                )

    def test_short_query_returns_nothing(self, signature_file):
        with SignatureIndex(signature_file) as index:
            assert SignatureRanker(index).rank(
                np.zeros(4, dtype=np.uint8), cutoff=5
            ) == []

    def test_skip_quarantines_block(self, signature_file, tmp_path, records):
        target = tmp_path / "signatures.rpsg"
        target.write_bytes(_with_flipped_block(signature_file, 1))
        instruments = Instruments()
        with SignatureIndex(target) as index:
            ranker = SignatureRanker(index, on_corruption="skip")
            ranker.set_instruments(instruments)
            query = records[9].codes[30:170]  # lives in block 1
            first = ranker.rank(query, cutoff=30)
            assert all(c.ordinal not in range(7, 14) for c in first)
            # Quarantine is sticky: the second scan skips the block
            # without re-reading it, and the counter stays at one.
            ranker.rank(query, cutoff=30)
            counters = instruments.metrics.snapshot()["counters"]
            assert counters["signature.quarantined_blocks"] == 1
            assert counters["signature.blocks_scanned"] == 6  # 3 + 3

    def test_raise_propagates(self, signature_file, tmp_path, records):
        target = tmp_path / "signatures.rpsg"
        target.write_bytes(_with_flipped_block(signature_file, 1))
        with SignatureIndex(target) as index:
            with pytest.raises(CorruptionError):
                SignatureRanker(index).rank(records[9].codes, cutoff=5)

    def test_engine_reports_quarantined_blocks(
        self, signature_file, tmp_path, records
    ):
        """A quarantined signature block counts in the engine's and the
        report's ``quarantined_intervals``, as a posting list does."""
        from repro.search.engine import PartitionedSearchEngine

        target = tmp_path / "signatures.rpsg"
        target.write_bytes(_with_flipped_block(signature_file, 1))
        with SignatureIndex(target) as index:
            engine = PartitionedSearchEngine(
                index, MemorySequenceSource(records), on_corruption="skip"
            )
            report = engine.search(records[9].slice(30, 170), top_k=30)
            assert all(hit.ordinal not in range(7, 14) for hit in report.hits)
            assert report.quarantined_intervals == 1
            assert engine.quarantined_intervals == 1
            # Sticky: a second search skips the block without recounting.
            engine.search(records[9].slice(30, 170), top_k=30)
            assert engine.quarantined_intervals == 1


# -- Database integration, every layout ----------------------------------


class TestScoresAndCut:
    """Every ranker returns dense scores, and its ranking is the one
    shared cut applied to them."""

    @pytest.mark.parametrize(
        "backend, scorer",
        [
            ("inverted", "count"),
            ("inverted", "idf"),
            ("signature", "count"),
        ],
    )
    def test_rank_is_the_cut_of_dense_scores(
        self, backend, scorer, signature_file, records
    ):
        if backend == "inverted":
            index = build_index(records, PARAMS)
        else:
            index = SignatureIndex(signature_file)
        ranker = get_backend(backend).make_ranker(index, scorer)
        queries = [
            records[3].codes[40:180],
            records[9].codes,
            np.full(40, 14, dtype=np.uint8),  # wildcards: no intervals
        ]
        for query in queries:
            scores = ranker.scores(query)
            assert scores.dtype == np.float64
            assert scores.shape == (len(records),)
            for cutoff in (1, 5, len(records) + 10):
                assert ranker.rank(query, cutoff) == top_candidates(
                    scores, cutoff
                )
        assert top_candidates(ranker.scores(queries[0]), 5)[0].ordinal in (
            3, 17
        )
        with pytest.raises(SearchError, match="cutoff"):
            top_candidates(ranker.scores(queries[0]), 0)


def _lexsort_cut(scores, cutoff):
    """The coarse cut as a full sort of every positive score by (score
    desc, ordinal asc): the order :func:`top_candidates` must keep."""
    positive = np.flatnonzero(scores > 0)
    order = np.lexsort((positive, -scores[positive]))[:cutoff]
    return [
        (int(ordinal), float(scores[ordinal])) for ordinal in positive[order]
    ]


class TestTopCandidates:
    """The partitioned cut sorts only the scores reaching the
    cutoff-th best, and returns exactly what sorting them all does."""

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(
            st.sampled_from([0.0, 0.0, 1.0, 2.0, 2.5, 3.0, 7.0]),
            max_size=60,
        ),
        cutoff=st.integers(1, 70),
    )
    @example(scores=[3.0, 2.0, 2.0, 2.0, 2.0, 1.0], cutoff=3)  # tie straddles
    @example(scores=[2.0, 0.0, 2.0, 0.0, 2.0, 2.0], cutoff=2)
    @example(scores=[0.0] * 9, cutoff=4)  # nothing positive
    @example(scores=[0.0, 1.0, 0.0, 2.0], cutoff=5)  # cutoff >= positives
    @example(scores=[1.0, 2.0, 0.0, 2.0], cutoff=2)  # cutoff == positives
    @example(scores=[5.0, 7.0, 7.0, 1.0], cutoff=1)
    def test_equals_the_full_lexsort(self, scores, cutoff):
        scores = np.array(scores, dtype=np.float64)
        got = top_candidates(scores, cutoff)
        assert [
            (candidate.ordinal, candidate.coarse_score) for candidate in got
        ] == _lexsort_cut(scores, cutoff)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(0, 3000),
        cutoff=st.integers(1, 40),
    )
    def test_equals_the_full_lexsort_on_dense_scores(self, seed, size, cutoff):
        """Mostly-positive scores with many ties, as Bloom false
        positives leave a signature ranking."""
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 12, size).astype(np.float64)
        got = top_candidates(scores, cutoff)
        assert [
            (candidate.ordinal, candidate.coarse_score) for candidate in got
        ] == _lexsort_cut(scores, cutoff)


class TestDatabaseSignature:
    @pytest.fixture(scope="class")
    def single(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("dbsig") / "single.db"
        database = Database.create(
            records,
            path,
            params=PARAMS,
            coarse_backend="signature",
            coarse_params={"docs_per_block": 7},
        )
        yield database
        database.close()

    def test_layout_and_manifest(self, single):
        assert (single.path / "signatures.rpsg").exists()
        assert not (single.path / "intervals.rpix").exists()
        assert single.manifest["coarse"]["backend"] == "signature"
        assert single.manifest["coarse"]["params"]["docs_per_block"] == 7
        assert single.coarse_backend == "signature"
        assert "signatures.rpsg" in single.manifest["checksums"]
        assert "signature coarse backend" in single.describe()

    def test_search_and_engine_surface(self, single, records):
        report = single.search(records[3].slice(40, 180), top_k=4)
        assert {hit.ordinal for hit in report.hits[:2]} == {3, 17}
        assert single.engine().coarse_backend == "signature"

    def test_reopen(self, single, records):
        with Database.open(single.path) as reopened:
            assert reopened.coarse_backend == "signature"
            best = reopened.search(records[3].slice(40, 180), top_k=1)
            assert best.best().ordinal in (3, 17)

    def test_frames_mode_answered(self, single, records):
        """Frames localise from the fetched records, so the signature
        backend's candidates are cut to frames like the inverted ones."""
        query = records[3].slice(40, 180)
        full = single.search(query, top_k=4)
        framed = single.search(query, top_k=4, fine_mode="frames")
        assert {hit.ordinal for hit in framed.hits[:2]} == {3, 17}
        assert framed.best().score == full.best().score
        whole = {hit.ordinal: hit.score for hit in full.hits}
        for hit in framed.hits:
            assert hit.score <= whole.get(hit.ordinal, hit.score)

    def test_non_count_scorer_rejected(self, single):
        for scorer in ("weighted", "idf"):
            with pytest.raises(SearchError, match="'count'"):
                single.engine(coarse_scorer=scorer)

    def test_verify_intact(self, single):
        report = Database.verify(single.path)
        assert report.ok, report.issues

    def test_sharded(self, records, tmp_path):
        database = Database.create(
            records,
            tmp_path / "sharded.db",
            params=PARAMS,
            shards=3,
            coarse_backend="signature",
        )
        try:
            assert database.coarse_backend == "signature"
            for entry in database.manifest["shards"]["layout"]:
                shard_dir = database.path / entry["name"]
                assert (shard_dir / "signatures.rpsg").exists()
            assert database.engine().coarse_backend == "signature"
            report = database.search(records[3].slice(40, 180), top_k=4)
            assert {hit.ordinal for hit in report.hits[:2]} == {3, 17}
            assert Database.verify(database.path).ok
        finally:
            database.close()

    def test_sharded_matches_single(self, single, records, tmp_path):
        sharded = Database.create(
            records,
            tmp_path / "parity.db",
            params=PARAMS,
            shards=3,
            coarse_backend="signature",
        )
        try:
            for slot in (0, 3, 9, 17):
                query = records[slot].slice(30, 200)
                expected = [
                    (h.ordinal, h.score, h.coarse_score)
                    for h in single.search(query, top_k=8).hits
                ]
                got = [
                    (h.ordinal, h.score, h.coarse_score)
                    for h in sharded.search(query, top_k=8).hits
                ]
                assert got == expected
        finally:
            sharded.close()

    def test_repair_rebuilds_missing_artifact(self, records, tmp_path):
        path = tmp_path / "hurt.db"
        Database.create(
            records, path, params=PARAMS, coarse_backend="signature"
        ).close()
        (path / "signatures.rpsg").unlink()
        assert not Database.verify(path).ok
        repaired = Database.repair(path)
        try:
            assert repaired.coarse_backend == "signature"
            assert (path / "signatures.rpsg").exists()
            assert repaired.search(
                records[5].slice(40, 200), top_k=1
            ).best().ordinal == 5
        finally:
            repaired.close()
        assert Database.verify(path).ok

    def test_fallback_answers_through_block_corruption(
        self, records, tmp_path
    ):
        path = tmp_path / "flip.db"
        Database.create(
            records,
            path,
            params=PARAMS,
            coarse_backend="signature",
            coarse_params={"docs_per_block": 7},
        ).close()
        artifact = path / "signatures.rpsg"
        artifact.write_bytes(_with_flipped_block(artifact, 1))
        with Database.open(path, on_corruption="fallback") as database:
            query = records[9].slice(30, 170)  # answer lives in block 1
            report = database.search(query, top_k=3)
            assert report.best().ordinal == 9
        with Database.open(path, on_corruption="raise") as database:
            with pytest.raises(CorruptionError):
                database.search(records[9].slice(30, 170), top_k=3)


class TestLsmSignature:
    def test_ingest_delete_compact(self, records, tmp_path):
        database = Database.create(
            records[:16],
            tmp_path / "live.db",
            params=PARAMS,
            shards=2,
            coarse_backend="signature",
        )
        try:
            database.add_records(records[16:20])
            database.add_records(records[20:])
            delta_dirs = [
                database.path / entry["name"]
                for entry in database.manifest["lsm"]["deltas"]["layout"]
            ]
            assert len(delta_dirs) == 2
            for delta in delta_dirs:
                assert (delta / "signatures.rpsg").exists()
                assert not (delta / "intervals.rpix").exists()
            database.delete([records[1].identifier])
            assert database.coarse_backend == "signature"

            database.compact()
            assert database.delta_shards == 0
            assert database.coarse_backend == "signature"
            for entry in database.manifest["lsm"]["base"]["layout"]:
                assert (
                    database.path / entry["name"] / "signatures.rpsg"
                ).exists()

            # Post-compaction results must match a fresh signature build
            # over the same logical collection: the compactor rebuilt the
            # signatures rather than reusing the inverted fast-merge path.
            survivors = [
                record
                for record in records
                if record.identifier != records[1].identifier
            ]
            fresh = Database.create(
                survivors,
                tmp_path / "fresh.db",
                params=PARAMS,
                coarse_backend="signature",
            )
            try:
                for slot in (0, 3, 9, 17):
                    query = records[slot].slice(30, 200)
                    expected = [
                        (h.identifier, h.score)
                        for h in fresh.search(query, top_k=6).hits
                    ]
                    got = [
                        (h.identifier, h.score)
                        for h in database.search(query, top_k=6).hits
                    ]
                    assert got == expected
            finally:
                fresh.close()
        finally:
            database.close()


class TestSignatureLifecycle:
    """The scan's gather view pins the mapping; closing drops it first."""

    def test_close_after_searches(self, signature_file, records):
        index = SignatureIndex(signature_file)
        ranker = SignatureRanker(index)
        for slot in (3, 9, 17):
            ranker.rank(records[slot].codes, cutoff=5)
        mapping = index._map
        index.close()
        assert mapping.closed
        index.close()  # idempotent

    def test_ingest_compact_search(self, records, tmp_path):
        """``add_records`` and ``compact`` swap in fresh readers; the
        superseded ones, which have scanned, still close cleanly, and
        the database answers as a fresh build afterwards."""
        database = Database.create(
            records[:16], tmp_path / "cycle.db", params=PARAMS,
            coarse_backend="signature",
        )
        query = records[18].slice(20, 200)
        try:
            database.search(records[3].slice(40, 180), top_k=3)
            superseded = [shard.index for shard in database.shards]
            database.add_records(records[16:])
            database.search(query, top_k=3)
            superseded += [shard.index for shard in database.shards]
            database.compact()
            got = database.search(query, top_k=5)
            for index in superseded:
                mapping = index._map
                index.close()
                assert mapping.closed
            with Database.create(
                records, tmp_path / "fresh.db", params=PARAMS,
                coarse_backend="signature",
            ) as fresh:
                want = fresh.search(query, top_k=5)
            assert got.best().ordinal == 18
            assert [
                (h.identifier, h.score, h.coarse_score) for h in got.hits
            ] == [(h.identifier, h.score, h.coarse_score) for h in want.hits]
        finally:
            database.close()


class TestAutoCompact:
    def test_policy_validation(self):
        with pytest.raises(IndexParameterError, match="max_delta_shards"):
            AutoCompactPolicy(max_delta_shards=0)
        with pytest.raises(IndexParameterError, match="max_tombstone_ratio"):
            AutoCompactPolicy(max_tombstone_ratio=0.0)
        with pytest.raises(IndexParameterError, match="max_tombstone_ratio"):
            AutoCompactPolicy(max_tombstone_ratio=1.5)

    def test_should_compact(self):
        policy = AutoCompactPolicy(
            max_delta_shards=2, max_tombstone_ratio=0.25
        )
        assert not policy.should_compact(2, 0, 100)
        assert policy.should_compact(3, 0, 100)
        assert not policy.should_compact(0, 25, 100)
        assert policy.should_compact(0, 26, 100)
        assert not policy.should_compact(0, 0, 0)

    def test_delta_threshold_triggers(self, records, tmp_path):
        policy = AutoCompactPolicy(max_delta_shards=1)
        database = Database.create(
            records[:12], tmp_path / "auto.db", params=PARAMS, shards=2
        )
        instruments = Instruments()
        database.set_instruments(instruments)
        try:
            database.add_records(records[12:16], auto_compact=policy)
            assert database.delta_shards == 1  # under the limit: no fire
            database.add_records(records[16:20], auto_compact=policy)
            assert database.delta_shards == 0  # fired after the commit
            counters = instruments.metrics.snapshot()["counters"]
            assert counters["lsm.auto_compactions"] == 1
            assert counters["lsm.compactions"] == 1
            assert len(database) == 20
        finally:
            database.close()

    def test_tombstone_ratio_triggers(self, records, tmp_path):
        policy = AutoCompactPolicy(
            max_delta_shards=50, max_tombstone_ratio=0.2
        )
        database = Database.create(
            records[:10], tmp_path / "autodel.db", params=PARAMS, shards=2
        )
        instruments = Instruments()
        database.set_instruments(instruments)
        try:
            database.delete([records[0].identifier], auto_compact=policy)
            assert database.tombstone_count == 1  # 0.1 <= 0.2: no fire
            database.delete(
                [records[1].identifier, records[2].identifier],
                auto_compact=policy,
            )
            assert database.tombstone_count == 0  # compacted away
            assert len(database) == 7
            counters = instruments.metrics.snapshot()["counters"]
            assert counters["lsm.auto_compactions"] == 1
        finally:
            database.close()

    def test_none_policy_never_fires(self, records, tmp_path):
        database = Database.create(
            records[:10], tmp_path / "manual.db", params=PARAMS, shards=2
        )
        try:
            for start in (10, 14, 18):
                database.add_records(records[start : start + 4])
            assert database.delta_shards == 3
        finally:
            database.close()


# -- recall against the exhaustive oracle --------------------------------


def _recall_world(tmp_path_factory, name, spec, seed):
    collection = generate_collection(spec)
    records = list(collection.sequences)
    queries = [
        case.query
        for case in make_family_queries(
            collection, 6, query_length=120, seed=seed
        )
    ]
    oracle = ExhaustiveSearcher(MemorySequenceSource(records))
    root = tmp_path_factory.mktemp(name)
    databases = {
        backend: Database.create(
            records, root / f"{backend}.db", coarse_backend=backend
        )
        for backend in ("inverted", "signature")
    }
    return oracle, queries, databases


@pytest.fixture(scope="module")
def standard_world(tmp_path_factory):
    spec = WorkloadSpec(
        num_families=8,
        family_size=4,
        num_background=80,
        mean_length=300,
        mutation=MutationModel(0.1, 0.02, 0.02),
        seed=9,
    )
    oracle, queries, databases = _recall_world(
        tmp_path_factory, "recall-std", spec, seed=11
    )
    yield oracle, queries, databases
    for database in databases.values():
        database.close()


@pytest.fixture(scope="module")
def repetitive_world(tmp_path_factory):
    spec = WorkloadSpec(
        num_families=10,
        family_size=10,
        num_background=12,
        mean_length=300,
        mutation=MutationModel(0.02, 0.005, 0.005),
        seed=10,
    )
    oracle, queries, databases = _recall_world(
        tmp_path_factory, "recall-rep", spec, seed=12
    )
    yield oracle, queries, databases
    for database in databases.values():
        database.close()


class TestRecall:
    @pytest.mark.parametrize("corpus", ["standard_world", "repetitive_world"])
    def test_inverted_recall_is_perfect(self, corpus, request):
        oracle, queries, databases = request.getfixturevalue(corpus)
        recall = mean_oracle_recall(
            databases["inverted"], oracle, queries, top_k=4, coarse_cutoff=200
        )
        assert recall == 1.0

    @pytest.mark.parametrize("corpus", ["standard_world", "repetitive_world"])
    def test_signature_recall_above_floor(self, corpus, request):
        oracle, queries, databases = request.getfixturevalue(corpus)
        recall = mean_oracle_recall(
            databases["signature"],
            oracle,
            queries,
            top_k=4,
            coarse_cutoff=200,
        )
        assert recall >= 0.95

    def test_signature_is_smaller(self, standard_world):
        _, _, databases = standard_world
        assert (
            databases["signature"].manifest["index_bytes"]
            < databases["inverted"].manifest["index_bytes"]
        )


class TestOracleRecallMetric:
    def test_perfect_and_partial(self):
        assert mean_oracle_recall is not None  # the conftest helper exists
        assert oracle_recall_at([9, 8, 7], [9, 8, 7, 1], 3) == 1.0
        assert oracle_recall_at([9, 1, 1], [9, 8, 7, 1], 3) == pytest.approx(
            1 / 3
        )
        # Boundary tie: any of the score-7 documents satisfies rank 3.
        assert oracle_recall_at([9, 8, 7], [9, 8, 7, 7], 3) == 1.0
        # Short rankings are penalised for the empty slots.
        assert oracle_recall_at([9], [9, 8, 7], 3) == pytest.approx(1 / 3)
        with pytest.raises(ReproError, match="cutoff"):
            oracle_recall_at([1], [1], 0)
        with pytest.raises(ReproError, match="oracle supplied"):
            oracle_recall_at([1, 1, 1], [1, 1], 3)
