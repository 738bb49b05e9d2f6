"""Shard layer: split a collection into ordinal ranges and lay it out
on disk.

The paper's partitioned evaluation bounds *fine*-phase work, but a
single inverted index and sequence store still grow linearly with the
collection, so build time and coarse-phase cost eventually hit the E3
wall.  This package slices the collection into ``N`` contiguous
ordinal ranges ("shards" — COBS calls the same arrangement a
document-sliced index; an unpartitioned database is the one-shard
case, not a second format) and builds each shard's index and store
independently, optionally in parallel processes
(:mod:`repro.sharding.build`).  :mod:`repro.sharding.manifest` owns
the one layout every database has — classic, sharded or live — and
its only reader and writer.  Searching the shards as one is the job of
:class:`repro.search.engine.PartitionedSearchEngine`.
"""

from repro.sharding.planner import ShardSpec, plan_shards, shard_of

__all__ = ["ShardSpec", "plan_shards", "shard_of"]
