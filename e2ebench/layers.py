"""Span tracer and the layer wrappers the traced run installs.

Every layer number comes from outside the program: :func:`install`
replaces public methods and functions of the scheduler package with
timing wrappers before any engine object is built, and
:func:`summarize` turns the recorded spans into the per-layer metrics.

A span records its name, start, end, parent span and run id.  Spans
live in per-thread in-memory buffers (no lock on the hot path) and are
written as JSONL when the run ends (:meth:`Tracer.write_jsonl`).
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Tuple

from stats import self_times, tail_percentile

_clock = time.perf_counter_ns


class _Buffer:
    """One thread's spans, in start order (so children follow parents)."""

    __slots__ = ("tid", "name", "start", "end", "parent", "stack")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: List[int] = []


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._buffers: List[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buffer = buf
            return buf

    def intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as a span called ``name``.

        A call made directly inside a span of the same name (a
        subclass method delegating to ``super()``) records nothing
        extra, so one logical call is one span.
        """
        ix = self.intern(name)
        buffer = self._buffer

        def traced(*args: Any, **kwargs: Any) -> Any:
            buf = buffer()
            stack = buf.stack
            if stack and buf.name[stack[-1]] == ix:
                return fn(*args, **kwargs)
            i = len(buf.start)
            buf.name.append(ix)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0)
            stack.append(i)
            buf.start.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = _clock()
                stack.pop()

        return traced

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside one span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap_iter(self, name: str, iterator: Iterator) -> Iterator:
        """Each ``next()`` on ``iterator`` that yields an item as one
        span (the final, exhausting call records nothing)."""
        ix = self.intern(name)
        buffer = self._buffer
        step = iterator.__next__

        def gen() -> Iterator:
            while True:
                start = _clock()
                try:
                    item = step()
                except StopIteration:
                    return
                end = _clock()
                buf = buffer()
                buf.name.append(ix)
                buf.parent.append(buf.stack[-1] if buf.stack else -1)
                buf.start.append(start)
                buf.end.append(end)
                yield item

        return gen()

    # ------------------------------------------------------------------
    def spans(self) -> List[Tuple[Tuple[int, int], Any, int, int, str]]:
        """``(id, parent_id, start_ns, end_ns, name)`` of every span."""
        out = []
        for buf in self._buffers:
            for i in range(len(buf.start)):
                parent = buf.parent[i]
                out.append((
                    (buf.tid, i),
                    None if parent < 0 else (buf.tid, parent),
                    buf.start[i],
                    buf.end[i],
                    self.names[buf.name[i]],
                ))
        return out

    def write_jsonl(self, path: str) -> int:
        count = 0
        with open(path, "w") as fh:
            for span_id, parent, start, end, name in self.spans():
                fh.write(json.dumps({
                    "id": f"{span_id[0]}:{span_id[1]}",
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": None if parent is None else f"{parent[0]}:{parent[1]}",
                    "run": self.run_id,
                }, separators=(",", ":")) + "\n")
                count += 1
        return count


# ----------------------------------------------------------------------
# wrapper installation
# ----------------------------------------------------------------------
def _patch_method(tracer: Tracer, cls: type, attr: str, name: str) -> None:
    """Wrap ``cls.attr`` and every subclass override of it."""
    seen = set()
    todo = [cls]
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.add(klass)
        todo.extend(klass.__subclasses__())
        fn = klass.__dict__.get(attr)
        if fn is not None and callable(fn):
            setattr(klass, attr, tracer.wrap(name, fn))


def _patch_function(tracer: Tracer, module: Any, attr: str, name: str) -> None:
    """Wrap a module-level function where it is defined and in every
    loaded ``repro`` module that imported it by name."""
    import sys

    original = getattr(module, attr)
    wrapped = tracer.wrap(name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def install(tracer: Tracer, *, service: bool = False) -> None:
    """Install every layer wrapper.  Call before building the engine.

    ``service=True`` adds the daemon-side journal wrappers.
    """
    import repro.config as config_mod
    import repro.runner.replay as replay_mod
    import repro.workload.reference as reference_mod
    from repro.cluster.cluster import Cluster
    from repro.memdis.allocator import PoolAllocator
    from repro.memdis.ledger import MemoryLedger
    from repro.sched.base import Scheduler
    from repro.sched.profile import AvailabilityProfile, SweepCursor
    from repro.sim.engine import Simulator

    _patch_method(tracer, Scheduler, "schedule", "sched.schedule")
    _patch_method(tracer, Scheduler, "notify_release", "sched.notify_release")
    _patch_method(tracer, Scheduler, "build_profile", "sched.build_profile")
    _patch_method(tracer, SweepCursor, "earliest_start", "profile.earliest_start")
    _patch_method(tracer, AvailabilityProfile, "earliest_start", "profile.earliest_start")
    _patch_method(tracer, AvailabilityProfile, "add_reservation", "profile.add_reservation")
    for attr in ("allocate_nodes", "allocate_pool"):
        _patch_method(tracer, Cluster, attr, "cluster.alloc")
    for attr in ("release_nodes", "release_pool"):
        _patch_method(tracer, Cluster, attr, "cluster.release")
    # PoolAllocator.plan is abstract; the scheduler resolves one of its
    # subclasses, and _patch_method wraps every override.
    _patch_method(tracer, PoolAllocator, "plan", "memdis.plan")
    _patch_method(tracer, MemoryLedger, "record_grant_batch", "memdis.ledger")
    _patch_method(tracer, MemoryLedger, "record_release", "memdis.ledger")
    for attr in ("schedule_at", "schedule_now", "schedule_batch"):
        _patch_method(tracer, Simulator, attr, "sim.calendar")
    _patch_function(tracer, reference_mod, "generate_reference_jobs", "workload.gen")
    _patch_function(tracer, replay_mod, "generate_trace", "workload.gen")
    _patch_method(tracer, config_mod.ExperimentConfig, "build_jobs", "workload.gen")

    original_stream = replay_mod.ReplaySpec.segment_stream

    def segment_stream(self: Any, seg: Any) -> Iterator:
        return tracer.wrap_iter("workload.ingest", original_stream(self, seg))

    replay_mod.ReplaySpec.segment_stream = segment_stream

    if service:
        from repro.service.journal import StateStore

        _patch_method(tracer, StateStore, "append", "journal.append")
        _patch_method(tracer, StateStore, "write_snapshot", "journal.snapshot")


# ----------------------------------------------------------------------
# spans -> per-layer metrics
# ----------------------------------------------------------------------
def summarize(tracer: Tracer) -> Dict[str, Any]:
    """Per span name: calls, self ms and inclusive ms; the scheduling
    pass latency percentiles; and, per root span name, the self time
    summed over the trees under such roots."""
    spans = tracer.spans()
    selfs = self_times([(s[0], s[1], s[2], s[3]) for s in spans])
    by_name: Dict[str, Dict[str, float]] = {}
    passes: List[float] = []
    root_of: Dict[Any, str] = {}
    tree_self_ms: Dict[str, float] = {}
    # A parent is recorded before its children, so one pass resolves
    # every span's root.
    for span_id, parent, start, end, name in spans:
        root = name if parent is None else root_of[parent]
        root_of[span_id] = root
        tree_self_ms[root] = tree_self_ms.get(root, 0.0) + selfs[span_id] / 1e6
        entry = by_name.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += selfs[span_id] / 1e6
        entry["total_ms"] += (end - start) / 1e6
        if name == "sched.schedule":
            passes.append((end - start) / 1e3)
    p50 = tail_percentile(passes, 50.0)
    p99 = tail_percentile(passes, 99.0)
    return {
        "spans": len(spans),
        "by_name": by_name,
        "pass_p50_us": p50[1] or 0.0,
        "pass_p99_us": p99[1] or 0.0,
        "pass_p99_level": p99[0],
        "tree_self_ms": tree_self_ms,
    }


def _calls(summary: Dict[str, Any], name: str) -> int:
    return int(summary["by_name"].get(name, {}).get("calls", 0))


def _self_ms(summary: Dict[str, Any], name: str) -> float:
    return float(summary["by_name"].get(name, {}).get("self_ms", 0.0))


def layer_metrics(
    summary: Dict[str, Any],
    jobs: int,
    strategy: Dict[str, Dict[str, int]],
    engine_root: str,
) -> Dict[str, float]:
    """The traced run's per-layer metrics (service and journal metrics
    are filled in by the service workload)."""
    replay = strategy.get("replay", {})
    shadow = strategy.get("shadow", {})
    retained, recompute = replay.get("retained", 0), replay.get("recompute", 0)
    reused, shadow_recompute = shadow.get("reused", 0), shadow.get("recompute", 0)
    scans = _calls(summary, "profile.earliest_start")
    return {
        "sched.passes": _calls(summary, "sched.schedule"),
        "sched.pass_ms": _self_ms(summary, "sched.schedule"),
        "sched.pass_p50_us": summary["pass_p50_us"],
        "sched.pass_p99_us": summary["pass_p99_us"],
        "sched.release_calls": _calls(summary, "sched.notify_release"),
        "sched.release_ms": _self_ms(summary, "sched.notify_release"),
        "sched.profile_builds": _calls(summary, "sched.build_profile"),
        "sched.profile_build_ms": _self_ms(summary, "sched.build_profile"),
        "profile.scans": scans,
        "profile.scan_ms": _self_ms(summary, "profile.earliest_start"),
        "profile.scans_per_job": scans / jobs if jobs else 0.0,
        "profile.reservations": _calls(summary, "profile.add_reservation"),
        "profile.reserve_ms": _self_ms(summary, "profile.add_reservation"),
        "backfill.plan_retained": retained,
        "backfill.plan_recompute": recompute,
        "backfill.plan_probe": replay.get("probe", 0),
        "backfill.plan_hit_ratio": (
            retained / (retained + recompute) if retained + recompute else 0.0
        ),
        "backfill.shadow_reused": reused,
        "backfill.shadow_recompute": shadow_recompute,
        "backfill.shadow_hit_ratio": (
            reused / (reused + shadow_recompute) if reused + shadow_recompute else 0.0
        ),
        "cluster.ops": _calls(summary, "cluster.alloc") + _calls(summary, "cluster.release"),
        "cluster.alloc_ms": _self_ms(summary, "cluster.alloc"),
        "cluster.release_ms": _self_ms(summary, "cluster.release"),
        "memdis.plan_calls": _calls(summary, "memdis.plan"),
        "memdis.plan_ms": _self_ms(summary, "memdis.plan"),
        "memdis.ledger_ms": _self_ms(summary, "memdis.ledger"),
        "sim.events": _calls(summary, "sim.calendar"),
        "sim.calendar_ms": _self_ms(summary, "sim.calendar"),
        "engine.self_ms": _self_ms(summary, engine_root),
        "workload.ingest_jobs": _calls(summary, "workload.ingest"),
        "workload.ingest_ms": _self_ms(summary, "workload.ingest"),
        "workload.gen_ms": float(
            summary["by_name"].get("workload.gen", {}).get("total_ms", 0.0)
        ),
    }


#: Layer metrics that count work; they must repeat exactly between two
#: traced runs of the same inputs.
WORK_COUNTS = (
    "sched.passes",
    "sched.release_calls",
    "sched.profile_builds",
    "profile.scans",
    "profile.reservations",
    "backfill.plan_retained",
    "backfill.plan_recompute",
    "backfill.plan_probe",
    "backfill.shadow_reused",
    "backfill.shadow_recompute",
    "cluster.ops",
    "memdis.plan_calls",
    "sim.events",
    "workload.ingest_jobs",
)
