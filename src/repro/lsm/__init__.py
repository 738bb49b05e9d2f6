"""Incremental (LSM-style) layer: delta shards, tombstones, compaction.

Turns the batch-built database into a live one.  New records append as
small, complete delta shard databases; deletes tombstone stored
ordinals; compaction folds both back into fresh base shards.  Each
mutation (:mod:`repro.lsm.mutate`) reads the layout, writes its new
files, then commits one atomic manifest replace one generation higher,
so an interrupted mutation or compaction is invisible on reopen.  The
layout itself — a classic or sharded database is just generation 0 —
lives in :mod:`repro.sharding.manifest`.
"""
