"""Pure measurement helpers: percentiles, span self time, error tally.

Standard library only, so the helpers are testable without the
scheduler package on the path.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is only reported with at least this many samples
#: beyond it; fewer and the figure is one or two outliers, not a tail.
TAIL_SAMPLES = 10


def rank_value(ordered: Sequence[float], level: float) -> float:
    """Nearest-rank ``level``-th percentile of an ascending sample."""
    index = max(0, min(len(ordered) - 1, math.ceil(level / 100.0 * len(ordered)) - 1))
    return ordered[index]


def tail_percentile(
    values: Iterable[float], ceiling: float = 99.0
) -> Tuple[Optional[float], Optional[float], int]:
    """The highest percentile, at most ``ceiling``, that has at least
    :data:`TAIL_SAMPLES` samples beyond it.

    Returns ``(level, value, count)``.  With nearest rank, the
    ``level``-th percentile sits at rank ``ceil(level * n / 100)``, so
    ``n - rank`` samples lie beyond it; the rule caps ``level`` at
    ``100 * (n - 10) / n``.  Fewer than 11 samples have no such
    percentile: ``(None, None, n)``.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_SAMPLES:
        return None, None, count
    level = min(float(ceiling), 100.0 * (count - TAIL_SAMPLES) / count)
    # Round down to a readable level without crossing the cap.
    level = math.floor(level * 10.0) / 10.0
    return level, rank_value(ordered, level), count


def decision_metrics(samples_ms: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median and tail of a decision-latency sample, with its size."""
    p50 = tail_percentile(samples_ms, 50.0)
    p99 = tail_percentile(samples_ms, 99.0)
    return {
        "decision_p50_ms": p50[1],
        "decision_p99_ms": p99[1],
        "decision_p99_level": p99[0],
        "decision_samples": p99[2],
    }


def self_times(
    spans: Sequence[Tuple[object, object, float, float]],
) -> Dict[object, float]:
    """Self time of every span: duration minus the part covered by
    its children.

    ``spans`` holds ``(span_id, parent_id, start, end)``; a root's
    parent is ``None``.  Children may overlap (spans from several
    threads under one parent), so the covered part is the *union* of
    the children's intervals, clipped to the parent's own interval.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for _span_id, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result: Dict[object, float] = {}
    for span_id, _parent, start, end in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(c_end, end))
        result[span_id] = (end - start) - covered
    return result


def least_cpu_s(runs: Sequence[Sequence[float]]) -> float:
    """CPU seconds of the run, slice by slice the least any repeat
    spent on that slice.

    Every repeat cuts its timed run into the same slices of equal work
    (one list of CPU seconds per repeat).  A shared host slows a
    process in bursts of a few seconds; taking each slice from the
    repeat that ran it least disturbed drops the bursts that hit some
    repeats there, which a per-repeat total or median keeps.  Raises
    ``ValueError`` if the repeats did not cut the same number of slices.
    """
    if len({len(run) for run in runs}) != 1:
        raise ValueError(f"repeats cut different slice counts: {[len(r) for r in runs]}")
    return sum(min(column) for column in zip(*runs))


class Tally:
    """Attempted and failed operations, the two halves of ``error_rate``.

    A check that fails for a whole simulation fails every job it ran
    (:meth:`check`); a service reply that is not 2xx, or raises, fails
    one operation (:meth:`op`).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def check(self, ok: bool, jobs: int, problem: str = "") -> None:
        """Count ``jobs`` operations, all failed unless ``ok``."""
        self.attempted += jobs
        if not ok:
            self.failed += jobs
            if len(self.problems) < 20:
                self.problems.append(problem)

    def fail(self, count: int, problem: str) -> None:
        """Mark ``count`` already-attempted operations as failed."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

