"""The benchmark's reference work: a fixed piece of pure-Python code
the scheduler never runs, timed between the slices of every timed run.

The host's speed for interpreter code drifts by a quarter within
minutes (other tenants share the physical cores), and CPU time does not
remove that.  The reference chunk runs on the same core in the same
seconds as the slice it closes, so the ratio of the workload's CPU time
to the reference's follows the program, not the host.  Nothing here
may change with the program under test: the chunk is the yardstick.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Normalised rates are scaled to a host on which one reference chunk
#: takes this many CPU seconds (the 2-vCPU development host: 0.9 to
#: 1.3 ms, least per slice).
NOMINAL_CHUNK_S = 0.001


class _Item:
    __slots__ = ("key", "size")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size


def reference_chunk() -> float:
    """About a millisecond of the interpreter work a scheduler does:
    object construction, attribute and dict access, a small heap."""
    table = {}
    heap: list = []
    total = 0.0
    for i in range(600):
        item = _Item(i, (i * 7919) % 613)
        table[item.size] = item
        heapq.heappush(heap, (item.size, i))
        if len(heap) > 32:
            total += heapq.heappop(heap)[0]
        other = table.get((i * 31) % 613)
        if other is not None:
            total += other.key * 0.5
    return total


def timed_chunks(count: int = 1) -> float:
    """CPU seconds of ``count`` reference chunks in this process.  The
    cyclic collector is off meanwhile: a collection it starts would
    walk the caller's whole heap (the chunk itself makes no cycles)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(count):
            reference_chunk()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()
