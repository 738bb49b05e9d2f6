"""Unit tests for index stopping."""

import numpy as np
import pytest

from repro.errors import IndexParameterError
from repro.index.builder import IndexParameters, build_index
from repro.index.stopping import stop_most_frequent
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def skewed_index():
    """An index where poly-A intervals dominate (a frequency skew)."""
    rng = np.random.default_rng(13)
    records = []
    for slot in range(15):
        codes = rng.integers(0, 4, 200, dtype=np.uint8)
        codes[:40] = 0  # a poly-A run in every sequence
        records.append(Sequence(f"s{slot}", codes))
    return build_index(records, IndexParameters(interval_length=4))


class TestStopMostFrequent:
    def test_zero_fraction_drops_nothing(self, skewed_index):
        stopped, report = stop_most_frequent(skewed_index, 0.0)
        assert report.dropped_intervals == 0
        assert stopped.vocabulary_size == skewed_index.vocabulary_size

    def test_fraction_bounds(self, skewed_index):
        with pytest.raises(IndexParameterError):
            stop_most_frequent(skewed_index, 1.0)
        with pytest.raises(IndexParameterError):
            stop_most_frequent(skewed_index, -0.1)

    def test_drops_the_most_frequent_first(self, skewed_index):
        stopped, report = stop_most_frequent(skewed_index, 0.01)
        assert report.dropped_intervals >= 1
        # The poly-A interval is by construction the most frequent.
        assert skewed_index.lookup_entry(0) is not None
        assert stopped.lookup_entry(0) is None

    def test_surviving_postings_unchanged(self, skewed_index):
        stopped, _ = stop_most_frequent(skewed_index, 0.05)
        for interval in stopped.interval_ids():
            assert (
                stopped.lookup_entry(interval).data
                == skewed_index.lookup_entry(interval).data
            )

    def test_never_adds_intervals(self, skewed_index):
        stopped, _ = stop_most_frequent(skewed_index, 0.10)
        original = set(skewed_index.interval_ids())
        assert set(stopped.interval_ids()) <= original

    def test_report_accounts_for_all_drops(self, skewed_index):
        stopped, report = stop_most_frequent(skewed_index, 0.20)
        assert (
            stopped.vocabulary_size + report.dropped_intervals
            == skewed_index.vocabulary_size
        )
        assert (
            stopped.pointer_count + report.dropped_pointers
            == skewed_index.pointer_count
        )
        assert (
            stopped.compressed_bytes + report.dropped_bytes
            == skewed_index.compressed_bytes
        )

    def test_threshold_is_boundary_cf(self, skewed_index):
        stopped, report = stop_most_frequent(skewed_index, 0.10)
        kept_max = max(entry.cf for entry in stopped.entries())
        assert report.threshold_cf >= kept_max

    def test_original_untouched(self, skewed_index):
        before = skewed_index.vocabulary_size
        stop_most_frequent(skewed_index, 0.5)
        assert skewed_index.vocabulary_size == before

