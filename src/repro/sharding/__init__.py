"""Shard layer: split a collection into ordinal ranges and search them
as one.

The paper's partitioned evaluation bounds *fine*-phase work, but a
single inverted index and sequence store still grow linearly with the
collection, so build time and coarse-phase cost eventually hit the E3
wall.  This subsystem slices the collection into ``N`` contiguous
ordinal ranges ("shards" — COBS calls the same arrangement a
document-sliced index), builds each shard's index and store
independently (optionally in parallel processes).  Searching them as
one is not this package's job: the one engine,
:class:`repro.search.engine.PartitionedSearchEngine`, fans a query out
over N >= 1 shards and merges coarse candidates and fine hits into one
globally ranked answer, and
:class:`repro.index.store.ShardedSequenceSource` gives global-ordinal
residue access over the per-shard stores.

Public surface:

* :func:`plan_shards` / :class:`ShardSpec` — split ``num_sequences``
  into balanced contiguous ranges;
* :func:`build_sharded_database` — write the sharded on-disk layout
  with a process pool;
* :class:`ShardLayoutEntry` / :func:`layout_from_manifest` — the
  top-level manifest's shard table.

:class:`repro.database.Database` is the facade that ties these
together: ``Database.create(..., shards=N, workers=M)`` builds the
layout and ``Database.open`` routes records, verification, repair and
search through it.
"""

from repro.sharding.build import build_shard_directory, build_sharded_database
from repro.sharding.manifest import (
    INDEX_NAME,
    MANIFEST_NAME,
    STORE_NAME,
    ShardLayoutEntry,
    layout_from_manifest,
)
from repro.sharding.planner import ShardSpec, plan_shards, shard_of

__all__ = [
    "INDEX_NAME",
    "MANIFEST_NAME",
    "STORE_NAME",
    "ShardLayoutEntry",
    "ShardSpec",
    "build_shard_directory",
    "build_sharded_database",
    "layout_from_manifest",
    "plan_shards",
    "shard_of",
]
