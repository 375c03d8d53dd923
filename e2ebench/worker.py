"""One repeat of one workload, in a fresh interpreter.

    python3 e2ebench/worker.py --workload wmix-cons --seed 42 \
        --mode plain --work DIR --out result.json

``run.py`` starts one of these per repeat, so no repeat inherits a
warm heap, allocator state or caches from another.  ``--mode traced``
installs the layer wrappers (``layers.py``) before any engine object
is built.  The result document goes to ``--out``; the exit code is 0
whenever the document was written, even if a correctness check failed
(the document says so).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time includes importing the package

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from inputs import REFERENCE_SEED, jitter_jobs, jitter_swf  # noqa: E402
from refwork import timed_chunks  # noqa: E402
from layers import WORK_COUNTS, Tracer, install, layer_metrics, summarize  # noqa: E402
from stats import Tally, decision_metrics  # noqa: E402

#: Pinned decision digests at the default seed (42).  wmix-cons: the
#: sha256 of the canonical decision document (see ``decision_digest``);
#: kth-stream: ``run_segment``'s record-stream sha256 (both on the
#: perturbed reference traces of ``inputs.py``).
PINNED = {
    "wmix-cons": "7b56ae536eba70d6450a323aec8f3197e8f5a2122b2fdb07eed174ac739082ff",
    "kth-stream": "52faeb6b892d65ca3d6d0475072b7c05ca2800d8c5d7a6c7cd33cf5afe67aad6",
}
DEFAULT_SEED = 42
PENALTY = {"kind": "linear", "beta": 0.3}

WMIX_JOBS = 10_000
KTH_JOBS = 20_000
KTH_NODES = 1024
#: Scheduling passes per CPU-time slice: 30 to 60 ms of work on the
#: simulation workloads (18 000 to 27 000 passes a repeat).
SLICE_PASSES = 200


def decision_digest(result: Any) -> str:
    """sha256 of a run's decisions: the schedule record, every
    promise and the cycle count, as canonical JSON (the same document
    the repository's golden digests hash)."""
    record = [
        [
            job.job_id,
            job.state.value,
            job.start_time,
            job.end_time,
            list(job.assigned_nodes),
            sorted([pool_id, amount] for pool_id, amount in job.pool_grants.items()),
            job.dilation,
        ]
        for job in sorted(result.jobs, key=lambda j: j.job_id)
    ]
    promises = [
        [promise.job_id, promise.decided_at, promise.promised_start]
        for _, promise in sorted(result.promises.items())
    ]
    document = {"record": record, "promises": promises, "cycles": result.cycles}
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install_pass_timer(samples: array, marks: array, refs: array) -> None:
    """The untraced run's only hooks: the wall time of each scheduling
    pass, the simulation's decision latency (two clock reads a pass);
    and at the start of every :data:`SLICE_PASSES`-th pass, the
    process CPU clock, which cuts the run into slices of equal work,
    and one reference chunk (``refwork.py``), timed apart from them."""
    from repro.sched.base import Scheduler

    original = Scheduler.schedule
    clock = time.perf_counter_ns
    cpu_clock = time.process_time
    passes = [0]

    def schedule(self: Any, ctx: Any) -> Any:
        passes[0] += 1
        if passes[0] % SLICE_PASSES == 0:
            marks.append(cpu_clock())
            refs.append(timed_chunks())
            marks.append(cpu_clock())
        start = clock()
        try:
            return original(self, ctx)
        finally:
            samples.append(clock() - start)

    Scheduler.schedule = schedule


def cpu_slices(cpu_start: float, marks: array, cpu_end: float) -> list:
    """CPU seconds of each slice of the timed run.  ``marks`` holds
    pairs of clock reads around each reference chunk, whose time is
    left out.  Repeats that made the same decisions cut at the same
    points, so ``run.py`` can compare them slice by slice."""
    bounds = [cpu_start, *marks, cpu_end]
    return [b - a for a, b in zip(bounds[::2], bounds[1::2])]


def finish_traced(
    doc: Dict[str, Any],
    tracer: Tracer,
    jobs: int,
    strategy: Dict[str, Dict[str, int]],
    root: str,
    wall_s: float,
    trace_path: Path,
) -> None:
    summary = summarize(tracer)
    layers = layer_metrics(summary, jobs, strategy, root)
    accounted = summary["tree_self_ms"].get(root, 0.0)
    doc["layers"] = layers
    doc["counts"] = {key: layers[key] for key in WORK_COUNTS}
    doc["self_check"] = {"accounted_ms": accounted, "wall_ms": wall_s * 1e3}
    doc["spans"] = tracer.write_jsonl(str(trace_path))


def check_wmix(result: Any, seed: int, tally: Tally, audit: bool = True) -> str:
    """Pinned decision digest at the default seed and, with ``audit``,
    a clean deep audit; a failed check fails every job.  Returns the
    digest (``run.py`` also requires it to agree across repeats)."""
    from repro.audit import deep_audit

    jobs = len(result.jobs)
    digest = decision_digest(result)
    ok = seed != DEFAULT_SEED or digest == PINNED["wmix-cons"]
    tally.check(ok, jobs, f"decision digest {digest[:12]} != pinned {PINNED['wmix-cons'][:12]}")
    if ok and audit:
        report = deep_audit(result)
        if not report.ok:
            tally.fail(jobs, f"deep audit: {len(report.errors)} errors")
    return digest


def check_kth(marker: Dict[str, Any], seed: int, tally: Tally) -> None:
    """Every streamed job produced a record; at the default seed the
    record stream's sha256 is the pinned one."""
    records, streamed = marker["records"], marker["stream_jobs"]
    ok = records == streamed
    problem = f"records {records} != stream_jobs {streamed}"
    if ok and seed == DEFAULT_SEED and marker["sha256"] != PINNED["kth-stream"]:
        ok = False
        problem = f"record sha256 {marker['sha256'][:12]} != pinned"
    tally.check(ok, max(records, streamed), problem)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def run_wmix(args: argparse.Namespace, tracer: Any, doc: Dict[str, Any]) -> None:
    import repro.workload.reference as reference
    from repro.cluster.cluster import Cluster
    from repro.cluster.spec import ClusterSpec
    from repro.engine.simulation import SchedulerSimulation
    from repro.sched.base import build_scheduler
    from repro.units import GiB

    samples, marks, refs = array("q"), array("d"), array("d")
    if tracer is None:
        install_pass_timer(samples, marks, refs)
    jobs = reference.generate_reference_jobs(
        "W-MIX",
        seed=REFERENCE_SEED,
        num_jobs=WMIX_JOBS,
        cluster_nodes=64,
        max_mem_per_node=512 * GiB,
        target_load=0.9,
    )
    jitter_jobs(jobs, args.seed)
    spec = ClusterSpec.thin_node(
        num_nodes=64,
        nodes_per_rack=16,
        local_mem=128 * GiB,
        fat_local_mem=512 * GiB,
        pool_fraction=0.5,
        reach="global",
        name="BENCH-THIN-64",
    )
    scheduler = build_scheduler(backfill="conservative", penalty=dict(PENALTY))
    sim = SchedulerSimulation(Cluster(spec), scheduler, jobs)
    doc["setup_s"] = time.perf_counter() - _T0

    start, cpu_start = time.perf_counter(), time.process_time()
    result = tracer.span("engine.run", sim.run) if tracer else sim.run()
    wall = time.perf_counter() - start
    cpu_end = time.process_time()
    doc["cpu_slices"] = cpu_slices(cpu_start, marks, cpu_end)
    doc["ref_slices"] = list(refs)
    doc["ref_chunks"] = len(refs)
    doc["cpu_s"] = sum(doc["cpu_slices"])
    wall -= sum(refs)
    doc["peak_rss_mib"] = peak_rss_mib()
    doc["jobs"] = len(result.jobs)
    doc["wall_s"] = wall
    doc["jobs_per_s"] = len(result.jobs) / wall
    doc["jobs_per_cpu_s"] = len(result.jobs) / doc["cpu_s"]

    tally = Tally()
    doc["digest"] = check_wmix(result, args.seed, tally, audit=args.audit)
    doc["tally"] = tally
    if tracer is None:
        doc.update(decision_metrics([ns / 1e6 for ns in samples]))
    else:
        finish_traced(
            doc, tracer, len(result.jobs), scheduler.strategy_stats(),
            "engine.run", wall, Path(args.trace_out),
        )


def run_kth(args: argparse.Namespace, tracer: Any, doc: Dict[str, Any]) -> None:
    import repro.runner.replay as replay

    samples, marks, refs = array("q"), array("d"), array("d")
    if tracer is None:
        install_pass_timer(samples, marks, refs)
    # Keep the scheduler run_segment builds, for its strategy counters.
    built: Dict[str, Any] = {}
    build_parts = replay.ReplaySpec.build_engine_parts

    def capture(self: Any) -> Any:
        cluster, scheduler = build_parts(self)
        built["scheduler"] = scheduler
        return cluster, scheduler

    replay.ReplaySpec.build_engine_parts = capture

    work = Path(args.work)
    reference_trace = work / "wkth-reference.swf"
    trace = work / "wkth.swf"
    replay.generate_trace(
        reference_trace, KTH_JOBS, reference="W-KTH", seed=REFERENCE_SEED,
        cluster_nodes=KTH_NODES, target_load=0.9,
    )
    jitter_swf(reference_trace, trace, args.seed)
    spec = replay.ReplaySpec(
        trace=str(trace),
        cluster={
            "kind": "thin",
            "num_nodes": KTH_NODES,
            "nodes_per_rack": 16,
            "local_mem": "128GiB",
            "fat_local_mem": "512GiB",
            "pool_fraction": 0.5,
            "reach": "global",
            "name": f"BENCH-KTH-{KTH_NODES}",
        },
        scheduler={"backfill": "easy", "penalty": dict(PENALTY)},
        seed=args.seed,
    )
    (segment,) = replay.plan_segments(spec.trace, 1, spec.swf_fields())
    call_args = (spec.to_dict(), asdict(segment), None, str(work), "bench")
    doc["setup_s"] = time.perf_counter() - _T0

    start, cpu_start = time.perf_counter(), time.process_time()
    if tracer:
        marker = tracer.span("engine.run_segment", replay.run_segment, *call_args)
    else:
        marker = replay.run_segment(*call_args)
    wall = time.perf_counter() - start
    cpu_end = time.process_time()
    doc["cpu_slices"] = cpu_slices(cpu_start, marks, cpu_end)
    doc["ref_slices"] = list(refs)
    doc["ref_chunks"] = len(refs)
    doc["cpu_s"] = sum(doc["cpu_slices"])
    wall -= sum(refs)
    doc["peak_rss_mib"] = peak_rss_mib()
    records = marker["records"]
    doc["jobs"] = records
    doc["wall_s"] = wall
    doc["jobs_per_s"] = records / wall
    doc["jobs_per_cpu_s"] = records / doc["cpu_s"]

    doc["digest"] = marker["sha256"]
    tally = Tally()
    check_kth(marker, args.seed, tally)
    doc["tally"] = tally
    if tracer is None:
        doc.update(decision_metrics([ns / 1e6 for ns in samples]))
    else:
        finish_traced(
            doc, tracer, records, built["scheduler"].strategy_stats(),
            "engine.run_segment", wall, Path(args.trace_out),
        )


def run_svc(args: argparse.Namespace, tracer: Any, doc: Dict[str, Any]) -> None:
    from svcload import run_service_workload

    run_service_workload(args, tracer, doc, _T0)


WORKLOADS = {"wmix-cons": run_wmix, "kth-stream": run_kth, "svc-mixed": run_svc}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    parser.add_argument("--work", required=True, help="scratch directory of this repeat")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--trace-out", default=None, help="span JSONL path (traced mode)")
    parser.add_argument("--run-id", default="run")
    parser.add_argument(
        "--audit", action="store_true",
        help="also deep-audit the wmix-cons result (once per run suffices: "
        "every repeat of a run simulates the same inputs)",
    )
    args = parser.parse_args()
    Path(args.work).mkdir(parents=True, exist_ok=True)
    if args.trace_out is None:
        args.trace_out = str(Path(args.work) / "spans.jsonl")

    tracer = None
    if args.mode == "traced":
        tracer = Tracer(args.run_id)
        install(tracer)
    doc: Dict[str, Any] = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    WORKLOADS[args.workload](args, tracer, doc)
    tally = doc.pop("tally")
    doc["attempted"] = tally.attempted
    doc["failed"] = tally.failed
    doc["problems"] = tally.problems
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
