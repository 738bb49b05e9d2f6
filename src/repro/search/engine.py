"""The partitioned search engine — the paper's primary contribution.

Query evaluation is split into two phases:

1. **coarse** — the interval index ranks the whole collection by
   accumulated hit evidence, selecting at most ``coarse_cutoff``
   candidate sequences;
2. **fine** — only those candidates are fetched and locally aligned,
   and the alignment score produces the final ranking.

With ``coarse_cutoff`` >= the collection size and the ``count`` scorer,
partitioned search aligns everything the index can see and is
score-identical to the exhaustive scanner for any answer a coarse hit
can reach — the invariant the integration tests pin down.  Smaller
cutoffs trade a little recall for a large constant-factor speedup
(experiments E4/E5).

Two refinements beyond the basic pipeline:

* ``fine_mode="frames"`` aligns only the *region* of each fetched
  candidate that its shared intervals with the query localise (CAFE's
  fine search; :mod:`repro.search.frames`) instead of whole candidates;
* ``both_strands=True`` also evaluates the query's reverse complement
  and merges the two orientations, as nucleotide search tools must.

**Shards.**  One engine evaluates N >= 1 ``(index, source)`` shards
(:meth:`PartitionedSearchEngine.over_shards`; the plain constructor is
the one-shard spelling):

1. **fan out** — every shard scores its own slice with its local index
   (``count`` accumulates per-sequence evidence only, and ``idf`` takes
   its rarity over the live collection of every shard — see
   :class:`~repro.search.coarse.LiveCollection` — so a shard's coarse
   scores are exactly the scores a global index would give its
   sequences);
2. **cut once** — the shards' scores fill one array indexed by stored
   ordinal, and :func:`~repro.search.results.top_candidates` cuts it at
   ``coarse_cutoff`` on the global ordering (coarse score desc, stored
   ordinal asc);
3. **fetch, scan once, rank** — each contributing shard fetches its
   share of the selection under its own breaker (a failed fetch drops
   only that shard); one image over every fetched target, in merged
   order, is scanned once; hits carry logical ordinals and sort once
   on the fine ordering (score desc, coarse score desc, ordinal asc).
   Sentinel runs make each segment's score independent of its
   neighbours, so one image scores exactly what per-shard images would.

The answer is hit-for-hit identical at every N — the invariant
``tests/test_sharding.py`` pins down.

**Tombstones** (the live/LSM layer): a sorted list of deleted *stored*
ordinals.  Deleted sequences still sit in their shard's index, so
parity with a rebuild over the survivors takes three adjustments:

- their coarse scores are zeroed in the stored-ordinal array before the
  one cut, so a dead sequence can never take a live one's place;
- hit ordinals are presented *logical* (stored order with tombstones
  elided — exactly what a rebuild would assign); the remap is
  monotonic, so it preserves the merged order;
- the E-value search space counts live residues only.

**Degraded mode.**  When a shard has no usable index (``index=None``),
or a :class:`~repro.errors.CorruptionError` escapes under
``on_corruption="fallback"`` (the query is then run again, one strand
or both), no ranker runs: every live ordinal becomes a candidate with
coarse score 0 and skips the cut.  The fetch under each shard's
breaker, the chunked deadline scan, tombstone elision, the strand merge
and the E-values run unchanged, so :func:`fine_order` reduces to the
exhaustive scan's (score desc, ordinal asc) and the report is flagged
``degraded``.  Frames localise from the fetched records, so
``fine_mode="frames"`` runs degraded too.
"""

from __future__ import annotations

import logging
import random
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field, replace
from functools import partial
from threading import Lock
from typing import Callable, Sequence as TypingSequence

import numpy as np

from repro.align.scoring import ScoringScheme
from repro.align.statistics import GumbelParameters
from repro.errors import CorruptionError, SearchError, StorageError
from repro.index.builder import IndexParameters, IndexReader
from repro.index.store import SequenceSource
from repro.instrumentation.eventlog import options_digest
from repro.instrumentation.instruments import (
    NULL_INSTRUMENTS,
    Instruments,
    coalesce,
)
from repro.search.coarse import SCORERS, LiveCollection
from repro.search.deadline import Deadline, ensure_deadline
from repro.search.fine import fetch_targets, scan_targets
from repro.search.frames import FrameLocaliser
from repro.search.resilience import (
    CircuitBreaker,
    ShardResilience,
    ShardTimeout,
    ShardUnavailable,
)
from repro.search.results import (
    CoarseCandidate,
    SearchHit,
    SearchReport,
    fine_order,
    hits_from_scores,
    top_candidates,
)
from repro.sequences.alphabet import reverse_complement
from repro.sequences.record import Sequence

#: Supported fine-phase modes.
FINE_MODES = ("full", "frames")

#: Supported corruption policies.
CORRUPTION_POLICIES = ("raise", "skip", "fallback")

#: Exceptions a resilient engine treats as one shard failing (instead
#: of the whole query): storage/index damage, OS-level I/O trouble,
#: and a per-shard attempt timeout.  ``CorruptionError`` is a
#: ``StorageError`` subclass, so a corrupt shard retries and then trips
#: its breaker rather than aborting the fan-out.
SHARD_FAILURE_EXCEPTIONS = (StorageError, OSError, ShardTimeout)

#: Merged candidates per fine-phase image when a bounded deadline is in
#: force.  The kernel scans a whole image at once, so deadline checks
#: can only happen *between* images: small enough to bound overshoot,
#: large enough to keep the kernel efficient.
DEADLINE_FINE_CHUNK = 32

_LOG = logging.getLogger(__name__)


@dataclass
class _Shard:
    """One shard's evaluation state; its ordinals are shard-local."""

    slot: int
    #: Stored ordinal of this shard's local ordinal 0.
    base: int
    #: The shard's coarse index; ``None`` when it is unusable.
    index: IndexReader | None
    #: The backend's ranker: ``scores(codes, deadline=)``; its
    #: ``quarantined`` set holds what ``"skip"`` quarantined.  ``None``
    #: when the shard has no index.
    ranker: object | None
    #: The shard's records, fetched by the fine phase.
    source: SequenceSource
    breaker: CircuitBreaker | None
    quarantined_sequences: set[int] = field(default_factory=set)


class PartitionedSearchEngine:
    """Index-accelerated similarity search over a nucleotide collection.

    ``PartitionedSearchEngine(index, source, **options)`` searches one
    shard; :meth:`over_shards` takes a list of them with the same
    options.

    Args:
        index: the interval index of the collection, or ``None`` when
            it is unusable: every query then runs degraded (see the
            module docstring).
        source: residue access for the same collection, in the same
            ordinal order.
        scheme: fine-phase scoring (defaults to match 1 / mismatch -1 /
            gap -2).
        coarse_scorer: a name in :data:`~repro.search.coarse.SCORERS`.
        coarse_cutoff: candidates the coarse phase hands to the fine
            phase; it bounds the merged candidate list, not each
            shard's.
        min_fine_score: alignments below this never become answers.
        fine_mode: ``"full"`` aligns whole candidates; ``"frames"``
            aligns only each candidate's frame (see
            :mod:`repro.search.frames`).
        both_strands: also search the reverse complement of every
            query and merge results (a hit's ``strand`` is ``"-"`` when
            the reverse complement matched better).
        significance: Gumbel parameters (see
            :func:`repro.align.statistics.calibrate_gapped`); when
            given, every hit carries a collection-wide E-value.
        on_corruption: what to do when an on-disk artefact fails an
            integrity check mid-query.  ``"raise"`` propagates the
            :class:`~repro.errors.CorruptionError`; ``"skip"``
            quarantines the damaged posting list, signature block or
            candidate sequence (logged, treated as empty, counted in the report's
            quarantine statistics) and keeps searching; ``"fallback"``
            runs a query whose index proves unusable again in degraded
            mode, scanning every live sequence.
        instruments: observability sink (metrics + spans); when given
            it is wired through every index reader, sequence source
            and coarse ranker so the whole query path reports (see
            ``docs/OBSERVABILITY.md``).  Defaults to a shared no-op
            with zero per-query cost.
        tombstones: sorted, unique *stored* ordinals of deleted
            sequences (the live/LSM layer); results present logical
            ordinals with these elided, hit-for-hit identical to a
            rebuild over the survivors.
        resilience: per-shard fault tolerance (see
            :class:`~repro.search.resilience.ShardResilience`).  When
            given, a shard failure (storage damage, I/O error, attempt
            timeout) is retried with jittered backoff and counted
            against that shard's circuit breaker; a shard that stays
            broken is *dropped* for the query — the report's
            ``shards_degraded`` names it — instead of failing the
            query.  ``None`` (the default) lets shard exceptions
            propagate per ``on_corruption``.

    Raises:
        SearchError: if a shard's index and source disagree about the
            collection, shard parameters disagree, the coarse scorer is
            unknown, or a parameter is out of range.
    """

    #: The stamp :meth:`repro.database.Database.engine` puts on the
    #: engines it builds — the generation searched, its delta shards
    #: and tombstones — served as ``/stats``' ``lsm``; ``None`` for an
    #: engine built directly.
    lsm_info: dict | None = None

    def __init__(
        self, index: IndexReader, source: SequenceSource, **options
    ) -> None:
        self._configure([(index, source)], **options)

    @classmethod
    def over_shards(
        cls,
        shards: TypingSequence[tuple[IndexReader, SequenceSource]],
        **options,
    ) -> "PartitionedSearchEngine":
        """An engine over ``(index, source)`` pairs in shard order.

        Shard ``i``'s local ordinal 0 is stored ordinal
        ``sum(len(source_j) for j < i)``; every index must share
        parameters.  ``options`` are the constructor's.
        """
        engine = cls.__new__(cls)
        engine._configure(list(shards), **options)
        return engine

    def _configure(
        self,
        shards: list[tuple[IndexReader, SequenceSource]],
        scheme: ScoringScheme | None = None,
        coarse_scorer: str = "count",
        coarse_cutoff: int = 100,
        min_fine_score: int = 1,
        fine_mode: str = "full",
        both_strands: bool = False,
        significance: GumbelParameters | None = None,
        on_corruption: str = "raise",
        instruments: Instruments | None = None,
        tombstones: TypingSequence[int] | None = None,
        resilience: ShardResilience | None = None,
    ) -> None:
        if not shards:
            raise SearchError("an engine needs at least one shard")
        if coarse_cutoff < 1:
            raise SearchError(
                f"coarse_cutoff must be >= 1, got {coarse_cutoff}"
            )
        if fine_mode not in FINE_MODES:
            raise SearchError(
                f"unknown fine_mode {fine_mode!r}; expected one of {FINE_MODES}"
            )
        if on_corruption not in CORRUPTION_POLICIES:
            raise SearchError(
                f"unknown on_corruption {on_corruption!r}; expected one of "
                f"{CORRUPTION_POLICIES}"
            )
        indexes = [index for index, _ in shards if index is not None]
        #: True when some shard has no index: every query runs degraded.
        self.degraded = len(indexes) < len(shards)
        self.params = indexes[0].params if indexes else None
        bases = [0]
        for index, source in shards:
            if index is not None:
                if index.params != self.params:
                    raise SearchError(
                        "shard indexes disagree about parameters: "
                        f"{index.params} vs {self.params}"
                    )
                if len(source) != index.collection.num_sequences:
                    raise SearchError(
                        f"index covers {index.collection.num_sequences} "
                        f"sequences but the source holds {len(source)}"
                    )
            bases.append(bases[-1] + len(source))
        dead = np.asarray(
            () if tombstones is None else tombstones, dtype=np.int64
        )
        if dead.size:
            if np.any(np.diff(dead) <= 0):
                raise SearchError("tombstones must be sorted and unique")
            if dead[0] < 0 or dead[-1] >= bases[-1]:
                raise SearchError(
                    "tombstone outside stored ordinal range "
                    f"0..{bases[-1] - 1}"
                )
        if coarse_scorer not in SCORERS:
            raise SearchError(
                f"unknown coarse scorer {coarse_scorer!r}; known: "
                f"{list(SCORERS)}"
            )
        self.shards = shards
        self.scheme = scheme or ScoringScheme()
        self.coarse_cutoff = coarse_cutoff
        self.min_fine_score = min_fine_score
        self.fine_mode = fine_mode
        self.both_strands = both_strands
        self.significance = significance
        self.on_corruption = on_corruption
        self.resilience = resilience
        self.tombstones = dead
        #: Stored ordinal of each shard's local ordinal 0, and the end.
        self._bases = np.asarray(bases, dtype=np.int64)
        cuts = np.searchsorted(dead, bases, side="left")
        # Each shard's tombstones as local ordinals.
        gone = [
            dead[cuts[slot] : cuts[slot + 1]] - bases[slot]
            for slot in range(len(shards))
        ]
        self._shards: list[_Shard] = []
        live_bases = 0
        for slot, (index, source) in enumerate(shards):
            lengths = (
                index.collection.lengths
                if index is not None
                else np.array(
                    [len(source.codes(i)) for i in range(len(source))],
                    dtype=np.int64,
                )
            )
            live_bases += int(lengths.sum()) - int(lengths[gone[slot]].sum())
            self._shards.append(
                self._make_shard(
                    slot, bases[slot], index, source, coarse_scorer
                )
            )
        #: Live residues across every shard: the E-value search space
        #: (tombstoned sequences no longer count as searched).
        self.total_bases = live_bases
        if coarse_scorer == "idf" and not self.degraded:
            # idf's rarity is the live collection's, not one shard's.
            collection = LiveCollection(
                [(shard.ranker, shard.source, local.tolist())
                 for shard, local in zip(self._shards, gone)]
            )
            for shard in self._shards:
                shard.ranker.collection = collection
        # Each shard ranks with whatever backend its index declares; the
        # merge is backend-agnostic.  The engine-level label is the
        # single shared name, "mixed" when shards disagree, or None when
        # no shard has an index.
        backends = {
            getattr(index, "coarse_backend", "inverted") for index in indexes
        } or {None}
        self.coarse_backend = (
            backends.pop() if len(backends) == 1 else "mixed"
        )
        self._rng = (
            random.Random(resilience.seed) if resilience is not None else None
        )
        # Lazily created: only queries under a per-shard attempt timeout
        # need the executor (the future's result() carries the budget).
        self._pool: ThreadPoolExecutor | None = None
        self._lock = Lock()  # the executor and the quarantine sets
        self.options_digest = options_digest(
            {
                "engine": "partitioned",
                "shards": len(shards),
                "scheme": self.scheme,
                "coarse_backend": self.coarse_backend,
                "coarse_scorer": coarse_scorer,
                "coarse_cutoff": coarse_cutoff,
                "min_fine_score": min_fine_score,
                "fine_mode": fine_mode,
                "both_strands": both_strands,
                "on_corruption": on_corruption,
                "tombstones": int(dead.size),
            }
        )
        self.instruments = NULL_INSTRUMENTS
        if instruments is not None:
            self.set_instruments(instruments)

    def _make_shard(
        self,
        slot: int,
        base: int,
        index: IndexReader | None,
        source: SequenceSource,
        coarse_scorer: str,
    ) -> _Shard:
        # Rankers quarantine under "skip" only: under "fallback" any
        # corruption aborts the partitioned pipeline and the query is
        # re-answered in degraded mode, preserving full recall.
        if index is None:
            ranker = None
        else:
            from repro.coarse_backends import get_backend

            ranker = get_backend(
                getattr(index, "coarse_backend", "inverted")
            ).make_ranker(
                index, coarse_scorer, on_corruption=self.on_corruption
            )
        breaker = (
            self.resilience.make_breaker()
            if self.resilience is not None
            else None
        )
        return _Shard(slot, base, index, ranker, source, breaker)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def generation(self) -> int:
        """The database generation this engine searches (0 for an
        engine built directly)."""
        return self.lsm_info["generation"] if self.lsm_info else 0

    @property
    def quarantined_intervals(self) -> int:
        """Coarse units quarantined as corrupt so far, over all shards:
        posting lists (inverted backend) and signature blocks."""
        return sum(
            len(shard.ranker.quarantined)
            for shard in self._shards
            if shard.ranker is not None
        )

    @property
    def quarantined_sequences(self) -> int:
        """Store records quarantined as corrupt so far, over all shards."""
        return sum(
            len(shard.quarantined_sequences) for shard in self._shards
        )

    def set_instruments(self, instruments: Instruments | None) -> None:
        """Wire observability through the engine and its collaborators.

        Attaches the sink to every shard's index reader (decode and
        quarantine metrics), ranker and sequence source (store fetch
        metrics) — so one registry sees the whole query path.  Passing
        ``None`` detaches everything.
        """
        self.instruments = coalesce(instruments)
        for shard in self._shards:
            if hasattr(shard.index, "set_instruments"):
                shard.index.set_instruments(instruments)
            if shard.ranker is not None:
                shard.ranker.set_instruments(instruments)
            shard.source.set_instruments(instruments)

    def breaker_states(self) -> dict[int, str]:
        """Current circuit-breaker state per shard slot (empty when the
        engine has no resilience configured)."""
        return {
            shard.slot: shard.breaker.state
            for shard in self._shards
            if shard.breaker is not None
        }

    def close(self) -> None:
        """Release the per-shard timeout executor, if one was created.

        A timed-out attempt's thread may still be running (the future
        is abandoned, not interrupted); shutdown does not wait for it.
        Safe to call more than once, and a closed engine recreates the
        executor on demand if searched again.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- one shard's phases ------------------------------------------------

    def _only_shard(self) -> _Shard:
        if len(self._shards) != 1:
            raise SearchError(
                "coarse_rank/fine_align are one shard's phases in its "
                f"local ordinals; this engine spans {len(self._shards)} "
                "shards (build one engine per shard to compose them)"
            )
        return self._shards[0]

    def coarse_rank(
        self,
        codes: np.ndarray,
        cutoff: int | None = None,
        deadline: Deadline | None = None,
    ) -> list:
        """Run only a one-shard engine's coarse phase: its ranker's
        ``rank`` — :func:`~repro.search.results.top_candidates` of its
        scores, best first, tombstoned ones included.

        :meth:`search` instead writes every shard's scores into one
        stored-ordinal array, zeroes tombstones and cuts once; a caller
        composing the fan-out by hand over one-shard engines gets the
        same selection by ranking each shard ``cutoff`` plus its
        tombstones deep, dropping the dead and cutting the merge.

        Raises:
            SearchError: if the engine spans more than one shard, or
                its shard has no index to rank with.
        """
        if cutoff is None:
            cutoff = self.coarse_cutoff
        ranker = self._only_shard().ranker
        if ranker is None:
            raise SearchError("this engine's shard has no usable index")
        return ranker.rank(codes, cutoff, deadline=deadline)

    def fine_align(
        self,
        codes: np.ndarray,
        candidates: list,
        deadline: Deadline | None = None,
    ) -> list[SearchHit]:
        """Run only a one-shard engine's fine phase over pre-selected
        candidates; hits keep the shard's stored ordinals.

        ``candidates`` are what :meth:`coarse_rank` produces; under
        ``"frames"`` each is aligned over its frame.  This is
        :meth:`search`'s fine stage: the corruption policy applies (corrupt store records are
        quarantined under ``"skip"``), a resilient engine retries a
        failing fetch under the shard's breaker, and a bounded
        ``deadline`` yields a correctly ordered partial result.

        Raises:
            SearchError: if the engine spans more than one shard.
            ShardUnavailable: a resilient engine's fetch gave up (the
                shard would be dropped from a :meth:`search`).
        """
        self._only_shard()
        rows = [(c.ordinal, 0, c) for c in candidates]
        deadline = ensure_deadline(deadline)
        return self._fine(codes, rows, deadline, None, elide=False)[0]

    # -- per-shard resilience ----------------------------------------------

    def _shard_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(2, len(self._shards)),
                    thread_name_prefix="shard-attempt",
                )
            return self._pool

    def _attempt_with_timeout(self, slot: int, fn: Callable, timeout):
        """One shard call, bounded by ``timeout`` seconds (None = no
        bound).

        Raises:
            ShardTimeout: when the attempt overran its budget.  The
                attempt's thread is abandoned, not interrupted — it
                keeps running on the executor until it finishes on its
                own, which is why the executor has more threads than
                shards.
        """
        if timeout is None:
            return fn()
        future = self._shard_pool().submit(fn)
        try:
            return future.result(timeout=timeout)
        except FuturesTimeout:
            future.cancel()
            raise ShardTimeout(
                f"shard {slot} attempt exceeded its {timeout:.3f}s budget"
            ) from None

    def _run_shard(self, shard: _Shard, fn: Callable, deadline: Deadline):
        """Run one shard call under the resilience policy.

        Without resilience this is a plain call (failures propagate).
        With it, the shard's breaker gates the call, each failed
        attempt (see :data:`SHARD_FAILURE_EXCEPTIONS`) is retried with
        jittered backoff, and exhaustion raises
        :class:`ShardUnavailable` so the caller can degrade.

        Raises:
            ShardUnavailable: breaker open, retries exhausted, or no
                deadline budget left to retry in.
        """
        resilience = self.resilience
        if resilience is None:
            return fn()
        instruments = self.instruments
        slot, breaker = shard.slot, shard.breaker
        if not breaker.allow():
            instruments.count(f"partitioned.shard.{slot}.breaker_skips")
            raise ShardUnavailable(
                slot, "breaker_open", f"shard {slot}: circuit breaker open"
            )
        retry = resilience.retry
        attempt = 0
        while True:
            attempt += 1
            try:
                result = self._attempt_with_timeout(
                    slot, fn, resilience.shard_timeout
                )
            except SHARD_FAILURE_EXCEPTIONS as exc:
                breaker.record_failure()
                instruments.count(f"partitioned.shard.{slot}.failures")
                _LOG.warning(
                    "shard %d attempt %d/%d failed: %s",
                    slot, attempt, retry.max_attempts, exc,
                )
                if attempt >= retry.max_attempts:
                    raise ShardUnavailable(
                        slot,
                        "retries_exhausted",
                        f"shard {slot}: {retry.max_attempts} attempts "
                        f"failed, last: {exc}",
                    ) from exc
                if not breaker.allow():
                    # Our own failures tripped it mid-retry: stop
                    # burning budget on a shard the breaker now rejects.
                    raise ShardUnavailable(
                        slot,
                        "breaker_open",
                        f"shard {slot}: breaker opened during retries",
                    ) from exc
                delay = retry.delay(attempt, self._rng)
                remaining = deadline.remaining()
                if remaining is not None and remaining <= delay:
                    raise ShardUnavailable(
                        slot,
                        "deadline",
                        f"shard {slot}: no deadline budget left to retry",
                    ) from exc
                if delay > 0:
                    time.sleep(delay)
                instruments.count(f"partitioned.shard.{slot}.retries")
            else:
                breaker.record_success()
                return result

    def _note_degraded(
        self, slot: int, exc: ShardUnavailable, degraded: set[int]
    ) -> None:
        if slot not in degraded:
            degraded.add(slot)
            self.instruments.count(f"partitioned.shard.{slot}.degraded")
            # A breaker-open skip recurs on every query until the reset
            # window elapses; warning once per query would flood a soak.
            level = (
                logging.DEBUG
                if exc.reason == "breaker_open"
                else logging.WARNING
            )
            _LOG.log(
                level,
                "dropping shard %d for this query (%s): %s",
                slot, exc.reason, exc,
            )

    # -- the query path ----------------------------------------------------

    def _evaluate_one_strand(
        self,
        codes: np.ndarray,
        deadline: Deadline,
        degraded: set[int],
        shard_detail: list[dict],
        exhaustive: bool,
    ) -> tuple[list[SearchHit], int, float, float]:
        """(ranked hits in logical ordinals, candidates scanned, coarse
        s, fine s); adds each shard's work to ``shard_detail``.
        ``exhaustive`` replaces the rankers and the cut with every live
        ordinal (degraded mode)."""
        instruments = self.instruments
        started = time.perf_counter()
        with instruments.span("coarse"):
            selected = (
                self._live_rows()
                if exhaustive
                else self._coarse_rows(codes, deadline, degraded, shard_detail)
            )
        coarse_done = time.perf_counter()
        with instruments.span("fine"):
            hits, scanned = self._fine(
                codes, selected, deadline, degraded, shard_detail
            )
        fine_done = time.perf_counter()
        return hits, scanned, coarse_done - started, fine_done - coarse_done

    def _coarse_rows(
        self,
        codes: np.ndarray,
        deadline: Deadline,
        degraded: set[int],
        shard_detail: list[dict],
    ) -> list[tuple]:
        """Fan out and cut once: every surviving shard's scores in one
        stored-ordinal array, tombstones zeroed, the global coarse top-C
        as rows (see :meth:`_rows`)."""
        instruments = self.instruments
        scores = np.zeros(int(self._bases[-1]), dtype=np.float64)
        for shard in self._shards:
            slot = shard.slot
            if slot in degraded:
                continue
            shard_started = time.perf_counter()
            with instruments.span(f"shard[{slot}].coarse") as span:
                try:
                    shard_scores = self._run_shard(
                        shard,
                        lambda shard=shard: shard.ranker.scores(
                            codes, deadline=deadline
                        ),
                        deadline,
                    )
                except ShardUnavailable as exc:
                    self._note_degraded(slot, exc, degraded)
                    continue
                scores[shard.base : shard.base + len(shard_scores)] = (
                    shard_scores
                )
                positive = int(np.count_nonzero(shard_scores > 0))
                if span is not None:
                    span.annotate("shard", slot)
                    span.annotate("candidates", positive)
            detail = shard_detail[slot]
            detail["coarse_seconds"] += time.perf_counter() - shard_started
            detail["coarse_candidates"] += positive
            instruments.count(
                f"partitioned.shard.{slot}.coarse_candidates", positive
            )
        with instruments.span("merge") as span:
            if self.tombstones.size:
                masked = int(np.count_nonzero(scores[self.tombstones] > 0))
                if masked:
                    instruments.count("lsm.tombstones_filtered", masked)
                scores[self.tombstones] = 0.0
            selected = self._rows(top_candidates(scores, self.coarse_cutoff))
            if span is not None:
                contributing = {slot for _, slot, _ in selected}
                span.annotate("selected", len(selected))
                span.annotate("shards_contributing", len(contributing))
        return selected

    def _live_rows(self) -> list[tuple]:
        """Every live ordinal as a row with coarse score 0, in ordinal
        order: the candidate list of a degraded query."""
        live = np.setdiff1d(np.arange(self._bases[-1]), self.tombstones)
        return self._rows([CoarseCandidate(o, 0.0) for o in live.tolist()])

    def _rows(self, candidates: list[CoarseCandidate]) -> list[tuple]:
        """Candidates numbered by stored ordinal as the fine phase's rows:
        (stored ordinal, shard slot, shard-local candidate)."""
        stored = [candidate.ordinal for candidate in candidates]
        slots = np.searchsorted(self._bases, stored, side="right") - 1
        return [
            (
                candidate.ordinal,
                slot,
                CoarseCandidate(
                    candidate.ordinal - self._shards[slot].base,
                    candidate.coarse_score,
                ),
            )
            for candidate, slot in zip(candidates, slots.tolist())
        ]

    def _fine(
        self,
        codes: np.ndarray,
        selected: list[tuple],
        deadline: Deadline,
        degraded: set[int] | None,
        shard_detail: list[dict] | None = None,
        elide: bool = True,
    ) -> tuple[list[SearchHit], int]:
        """Fetch and scan ``selected`` (rows of stored ordinal, shard
        slot, shard-local candidate): (hits best first, candidates
        scanned).

        Hit ordinals are logical — tombstones elided unless ``elide`` is
        false — which is monotonic in the stored ordinal, so the merged
        order survives.  Under a bounded ``deadline`` the rows are taken
        :data:`DEADLINE_FINE_CHUNK` at a time, one image per chunk, and
        chunks left when it expires are dropped: a partial fine phase is
        a correctly ordered ranking of the work done.  A shard whose
        fetch gives up joins ``degraded``, or raises
        :class:`ShardUnavailable` when ``degraded`` is None.
        """
        elided = self.tombstones if elide else self.tombstones[:0]
        localise = None
        if self.fine_mode == "frames":
            localise = FrameLocaliser(
                codes, (self.params or IndexParameters()).interval_length
            )
        step = DEADLINE_FINE_CHUNK if deadline.bounded else len(selected)
        hits: list[SearchHit] = []
        scanned = 0
        for start in range(0, len(selected), max(step, 1)):
            if deadline.expired():
                break
            kept, targets = self._fetch(
                selected[start : start + step], deadline, degraded,
                shard_detail,
            )
            if not kept:
                continue
            if localise is not None:
                targets = localise(targets)
            with self.instruments.span("scan") as span:
                scan = scan_targets(codes, targets, self.scheme)
                stored = np.array([row[0] for row in kept], dtype=np.int64)
                candidates = [row[2] for row in kept]
                found = hits_from_scores(
                    candidates, scan.scores.tolist(), self.min_fine_score,
                    lambda i: self._shards[kept[i][1]].source.identifier(
                        candidates[i].ordinal
                    ),
                    (stored - np.searchsorted(elided, stored)).tolist(),
                )
                if span is not None:
                    span.annotate("candidates", len(kept))
                    span.annotate("columns", scan.columns)
                    span.annotate("rescanned", scan.rescanned)
                    contributing = {slot for _, slot, _ in kept}
                    span.annotate("shards_contributing", len(contributing))
                    span.annotate("hits", len(found))
            self.instruments.count(
                "align.kernel.rescanned_segments", scan.rescanned
            )
            hits += found
            scanned += len(kept)
        if step < len(selected):  # each chunk is ranked; merge them
            hits.sort(key=fine_order)
        return hits, scanned

    def _fetch(
        self,
        chunk: list[tuple],
        deadline: Deadline,
        degraded: set[int] | None,
        shard_detail: list[dict] | None,
    ) -> tuple[list[tuple], list[np.ndarray]]:
        """Each contributing shard fetches its share of ``chunk`` under
        its own breaker: (rows, targets) in chunk order, less quarantined
        records and dropped shards."""
        dropped = degraded or ()
        shares: dict[int, list[int]] = {}
        for position, (_, slot, candidate) in enumerate(chunk):
            if slot not in dropped and candidate.ordinal not in (
                self._shards[slot].quarantined_sequences
            ):
                shares.setdefault(slot, []).append(position)
        targets: list[np.ndarray | None] = [None] * len(chunk)
        for slot, positions in shares.items():
            shard = self._shards[slot]
            candidates = [chunk[position][2] for position in positions]
            on_corrupt = (
                partial(self._quarantine, shard)
                if self.on_corruption == "skip"
                else None
            )
            shard_started = time.perf_counter()
            with self.instruments.span(f"shard[{slot}].fine") as span:
                try:
                    fetched = self._run_shard(
                        shard,
                        partial(
                            fetch_targets, shard.source, candidates, on_corrupt
                        ),
                        deadline,
                    )
                except ShardUnavailable as exc:
                    if degraded is None:
                        raise
                    self._note_degraded(slot, exc, degraded)
                    continue
                if span is not None:
                    span.annotate("shard", slot)
                    span.annotate("candidates", len(candidates))
                    span.annotate(
                        "bases", sum(len(t) for t in fetched if t is not None)
                    )
            if shard_detail is not None:
                detail = shard_detail[slot]
                detail["fine_seconds"] += time.perf_counter() - shard_started
                detail["fine_candidates"] += len(candidates)
            for position, target in zip(positions, fetched):
                targets[position] = target
        kept = [row for row, t in zip(chunk, targets) if t is not None]
        return kept, [t for t in targets if t is not None]

    def _quarantine(self, shard: _Shard, candidate, exc) -> None:
        """Under ``"skip"``: drop a candidate whose store record fails its
        checksum — logged and counted once, never fetched again."""
        quarantined = shard.quarantined_sequences
        with self._lock:  # concurrent queries may meet the same record
            if candidate.ordinal in quarantined:
                return
            quarantined.add(candidate.ordinal)
        _LOG.warning(
            "quarantining corrupt sequence record %d of shard %d: %s",
            candidate.ordinal, shard.slot, exc,
        )
        self.instruments.count("store.quarantined_sequences")

    def search(
        self,
        query: Sequence | np.ndarray,
        top_k: int = 10,
        deadline: Deadline | None = None,
    ) -> SearchReport:
        """Evaluate one query.

        Args:
            query: a :class:`Sequence` or a coded array.
            top_k: answers to return.
            deadline: optional per-query time budget.  Once expired the
                engine stops starting new work (coarse interval fetches,
                per-shard fan-out steps, fine alignment batches, the
                reverse strand) and returns whatever it ranked in time,
                with the report's ``deadline_expired`` flag set.  An
                expired deadline never raises.

        A resilient engine (``resilience`` given at construction) drops
        failing shards instead of raising: the report's
        ``shards_degraded`` lists every dropped shard slot, and even an
        all-shards-down query returns an (empty, flagged) report.

        A query in degraded mode (a shard without an index, or an index
        failing mid-query under ``"fallback"``) scans every live
        sequence through the same fetch, deadline, strand and E-value
        steps; its report has ``degraded`` set.

        Raises:
            SearchError: if ``top_k`` < 1, or the query is shorter than
                the interval length (it has no index terms) and the
                engine has an index for every shard.
        """
        if top_k < 1:
            raise SearchError(f"top_k must be >= 1, got {top_k}")
        deadline = ensure_deadline(deadline)
        if isinstance(query, Sequence):
            identifier, codes = query.identifier, query.codes
        else:
            identifier, codes = "query", np.asarray(query, dtype=np.uint8)
        if not self.degraded and (
            codes.shape[0] < self.params.interval_length
        ):
            raise SearchError(
                f"query {identifier!r} is shorter than the interval "
                f"length {self.params.interval_length}"
            )

        instruments = self.instruments
        exhaustive = self.degraded
        try:
            result = self._evaluate(codes, deadline, exhaustive)
        except CorruptionError as exc:
            if exhaustive or self.on_corruption != "fallback":
                if instruments.wants_events:
                    instruments.emit_event(
                        self._query_event(
                            identifier, "error", error=str(exc)
                        )
                    )
                raise
            _LOG.warning(
                "index unusable (%s); answering %r in degraded mode",
                exc,
                identifier,
            )
            exhaustive = True
            result = self._evaluate(codes, deadline, exhaustive)
        (hits, candidates, coarse_seconds, fine_seconds, degraded,
         shard_detail) = result
        if exhaustive:
            instruments.count("partitioned.fallback_queries")
        instruments.count("partitioned.queries")
        deadline_expired = deadline.expired()
        if deadline_expired:
            instruments.count("partitioned.deadline_expired")
        if degraded:
            instruments.count("partitioned.degraded_queries")
        instruments.count("partitioned.candidates", candidates)
        instruments.observe("partitioned.coarse_seconds", coarse_seconds)
        instruments.observe("partitioned.fine_seconds", fine_seconds)
        instruments.observe(
            "partitioned.total_seconds", coarse_seconds + fine_seconds
        )
        hits = hits[:top_k]
        if self.significance is not None:
            hits = [
                replace(
                    hit,
                    evalue=self.significance.evalue(
                        hit.score, int(codes.shape[0]), self.total_bases
                    ),
                )
                for hit in hits
            ]
        shards_degraded = tuple(sorted(degraded))
        if instruments.wants_events:
            if exhaustive:
                outcome = "fallback"
            elif deadline_expired or shards_degraded:
                outcome = "partial"
            else:
                outcome = "ok"
            instruments.emit_event(
                self._query_event(
                    identifier,
                    outcome,
                    candidates=candidates,
                    hits=len(hits),
                    coarse_seconds=coarse_seconds,
                    fine_seconds=fine_seconds,
                    shards=shard_detail,
                    deadline_expired=deadline_expired,
                    shards_degraded=list(shards_degraded),
                )
            )
        return SearchReport(
            query_identifier=identifier,
            hits=hits,
            candidates_examined=candidates,
            coarse_seconds=coarse_seconds,
            fine_seconds=fine_seconds,
            quarantined_intervals=self.quarantined_intervals,
            quarantined_sequences=self.quarantined_sequences,
            degraded=exhaustive,
            deadline_expired=deadline_expired,
            shards_degraded=shards_degraded,
            generation=self.generation,
        )

    def _evaluate(
        self, codes: np.ndarray, deadline: Deadline, exhaustive: bool
    ) -> tuple:
        """One query, one strand or both: (hits, candidates scanned,
        coarse s, fine s, dropped shard slots, per-shard detail)."""
        degraded: set[int] = set()
        # Per-shard timing/volume breakdown, summed over both strands.
        shard_detail = [
            dict(shard=shard.slot, coarse_seconds=0.0, fine_seconds=0.0,
                 coarse_candidates=0, fine_candidates=0)
            for shard in self._shards
        ]
        with self.instruments.span("search"):
            hits, candidates, coarse_seconds, fine_seconds = (
                self._evaluate_one_strand(
                    codes, deadline, degraded, shard_detail, exhaustive
                )
            )
            if self.both_strands and not deadline.expired():
                (reverse_hits, reverse_candidates, reverse_coarse,
                 reverse_fine) = self._evaluate_one_strand(
                    reverse_complement(codes), deadline, degraded,
                    shard_detail, exhaustive,
                )
                hits = _merge_strand_hits(hits, reverse_hits)
                # Fine-phase work is done for BOTH orientations, so
                # the examined count is their sum, not the max.
                candidates += reverse_candidates
                coarse_seconds += reverse_coarse
                fine_seconds += reverse_fine
        return (
            hits, candidates, coarse_seconds, fine_seconds, degraded,
            shard_detail,
        )

    def _query_event(
        self,
        query_id: str,
        outcome: str,
        candidates: int = 0,
        hits: int = 0,
        coarse_seconds: float = 0.0,
        fine_seconds: float = 0.0,
        **extra,
    ) -> dict:
        """One eventlog line's payload (see ``docs/OBSERVABILITY.md``)."""
        event = {
            "event": "query",
            "engine": "partitioned",
            "num_shards": self.num_shards,
            "query_id": query_id,
            "options": self.options_digest,
            "outcome": outcome,
            "candidates": candidates,
            "hits": hits,
            "coarse_seconds": coarse_seconds,
            "fine_seconds": fine_seconds,
            "total_seconds": coarse_seconds + fine_seconds,
            "quarantined_intervals": self.quarantined_intervals,
            "quarantined_sequences": self.quarantined_sequences,
            "generation": self.generation,
        }
        event.update(extra)
        return event

    def search_batch(
        self,
        queries: list[Sequence],
        top_k: int = 10,
        deadline: Deadline | None = None,
    ) -> list[SearchReport]:
        """Evaluate a list of queries in order, reports in query order.

        ``deadline`` is one time budget shared by the *whole* batch:
        queries evaluated after expiry return flagged empty partials.
        With instrumentation attached the batch reports
        ``batch.queries`` and a ``batch.wall_seconds`` histogram.
        """
        if not queries:
            return []
        started = time.perf_counter()
        reports = [
            self.search(query, top_k=top_k, deadline=deadline)
            for query in queries
        ]
        self.instruments.count("batch.queries", len(queries))
        self.instruments.observe(
            "batch.wall_seconds", time.perf_counter() - started
        )
        return reports


def _merge_strand_hits(
    forward: list[SearchHit], reverse: list[SearchHit]
) -> list[SearchHit]:
    """Keep each sequence's better orientation, re-ranked."""
    best: dict[int, SearchHit] = {}
    for hit in forward:
        best[hit.ordinal] = hit
    for hit in reverse:
        current = best.get(hit.ordinal)
        if current is None or hit.score > current.score:
            # replace() keeps every field (present and future) intact;
            # rebuilding field-by-field silently dropped new ones.
            best[hit.ordinal] = replace(hit, strand="-")
    return sorted(best.values(), key=fine_order)
