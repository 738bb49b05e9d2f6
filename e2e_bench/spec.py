"""What the benchmark runs: corpora, workloads and the metric contract.

Metric names, units, directions and regression bounds live in
``BENCHMARK.json`` at the repository root (one source for the driver,
``compare`` and the tests); this module holds the inputs and
configuration of each workload, whose *names* must match that file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: ``WorkloadSpec`` shapes, by corpus name.
CORPORA = {
    # The E3 corpus of EXPERIMENTS.md: long sequences, so aligning the
    # coarse candidates is nearly all of a query.
    "e3": dict(
        num_families=30, family_size=4, num_background=1080, mean_length=800
    ),
    # Ten times the sequences at a third of the length: the index is
    # large, the candidates few and short, so the coarse phase matters.
    "short12k": dict(
        num_families=200, family_size=4, num_background=11200, mean_length=250
    ),
}

QUERY_LENGTH = 200

#: Open-loop arrival rate of ``serve_http``, requests/second, over two
#: keep-alive connections.  Each then idles ~70 ms between requests,
#: which keeps it out of the back-to-back transport stall (README); at
#: 50 req/s one run in ten fell into it and queued to 350 ms.
OPEN_LOOP_RATE = 25.0


@dataclass(frozen=True)
class Workload:
    """Inputs and configuration of one workload.

    ``kind`` picks the driver: ``"search"`` (closed loop, one in-process
    client), ``"live"`` (scripted reads beside writes) or ``"serve"``
    (HTTP against a child process).  ``setup_repeats`` is how many times
    an untraced run sets up (``setup_s`` is the median); the 12k-sequence
    inverted build takes ~7.5 s, so those workloads afford two.
    ``trace_queries`` bounds the traced pass, which times every layer
    separately and so costs about three searches per query.
    """

    name: str
    kind: str
    corpus: str
    family_queries: int
    background_queries: int
    coarse_cutoff: int
    top_k: int
    coarse_backend: str = "inverted"
    shards: int = 1
    setup_repeats: int = 3
    trace_queries: int = 60


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "align_heavy", "search", "e3",
            family_queries=60, background_queries=0,
            coarse_cutoff=100, top_k=10, trace_queries=30,
        ),
        Workload(
            "coarse_heavy", "search", "short12k",
            family_queries=100, background_queries=100,
            coarse_cutoff=10, top_k=5, setup_repeats=2, trace_queries=200,
        ),
        Workload(
            "coarse_heavy_sig", "search", "short12k",
            family_queries=100, background_queries=100,
            coarse_cutoff=10, top_k=5, coarse_backend="signature",
            trace_queries=200,
        ),
        Workload(
            "live_mixed", "live", "e3",
            family_queries=30, background_queries=0,
            coarse_cutoff=30, top_k=10, shards=4, trace_queries=30,
        ),
        Workload(
            "serve_http", "serve", "short12k",
            family_queries=100, background_queries=100,
            coarse_cutoff=10, top_k=5, setup_repeats=2, trace_queries=60,
        ),
    )
}


def scaled(workload: Workload, smoke: bool) -> tuple[Workload, dict]:
    """The workload and its corpus shape at full or ``--smoke`` scale.

    Smoke keeps every code path and divides the corpus by ten and the
    query counts by five, with one set-up.
    """
    shape = dict(CORPORA[workload.corpus])
    if not smoke:
        return workload, shape
    shape["num_families"] = max(2, shape["num_families"] // 10)
    shape["num_background"] = max(40, shape["num_background"] // 10)
    return (
        replace(
            workload,
            family_queries=max(4, workload.family_queries // 5),
            background_queries=(
                max(4, workload.background_queries // 5)
                if workload.background_queries
                else 0
            ),
            setup_repeats=1,
            trace_queries=max(4, workload.trace_queries // 5),
        ),
        shape,
    )


def load_contract() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(CONTRACT_PATH.read_text())
