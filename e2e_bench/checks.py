"""In-run answer checks.  Every operation the benchmark issues is counted
as attempted; one that raises, is refused, comes back partial or returns
a wrong answer is counted as failed, and any failure fails the run."""

from __future__ import annotations

from e2e_bench.inputs import Case

#: An answer as the checks see it: (identifier, alignment score).
Hit = tuple[str, int]


class Checker:
    """Counts operations and failures and keeps each query's recall.

    ``deleted`` holds every identifier ``live_mixed`` has tombstoned: no
    search may ever return one.  ``inject_failure`` makes the first
    search fail its check, so the tests can see a violation turn into a
    non-zero exit.
    """

    def __init__(self, inject_failure: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.deleted: set[str] = set()
        self._recall: dict[str, float] = {}
        self._inject = inject_failure

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.violations) < 20:
            self.violations.append(message)

    def operation(self, ok: bool, message: str) -> None:
        """Count one non-search operation (a write, an HTTP status)."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def search(
        self,
        case: Case,
        hits: list[Hit],
        top_k: int,
        problem: str | None = None,
    ) -> None:
        """Count one search and check its answer.  ``problem`` is what
        the caller already found wrong (a non-200 status, a partial or
        degraded flag)."""
        self.attempted += 1
        problem = problem or self._problem(case, hits)
        if self._inject:
            self._inject = False
            problem = "injected failure"
        if problem:
            self.fail(f"{case.query.identifier}: {problem}")
        name = case.query.identifier
        if case.scored and name not in self._recall:
            self._recall[name] = _recall(case, hits[:top_k])

    def _problem(self, case: Case, hits: list[Hit]) -> str | None:
        returned_deleted = [
            identifier for identifier, _ in hits if identifier in self.deleted
        ]
        if returned_deleted:
            return f"returned deleted record {returned_deleted[0]}"
        if case.source in self.deleted:
            return None
        if not hits:
            return "no hits"
        identifier, score = hits[0]
        if case.kind == "family":
            if identifier not in case.relevant:
                return f"top hit {identifier} is outside the query's family"
        elif identifier != case.source or score != len(case.query):
            return (
                f"expected {case.source} first with score "
                f"{len(case.query)}, got {identifier} with {score}"
            )
        return None

    @property
    def recall_at_k(self) -> float:
        """Mean over the distinct queries answered: family recall@k, or
        source-at-rank-1 for exact queries."""
        if not self._recall:
            return 0.0
        return sum(self._recall.values()) / len(self._recall)

    @property
    def queries_scored(self) -> int:
        return len(self._recall)


def _recall(case: Case, top: list[Hit]) -> float:
    if case.kind == "family":
        found = sum(1 for identifier, _ in top if identifier in case.relevant)
        return found / len(case.relevant)
    return 1.0 if top and top[0][0] == case.source else 0.0


def report_hits(report) -> list[Hit]:
    return [(hit.identifier, hit.score) for hit in report.hits]


def report_problem(report) -> str | None:
    """A healthy database never answers partially or by fallback."""
    if report.partial or report.degraded:
        return "partial or degraded report"
    return None
