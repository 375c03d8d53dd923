"""End-to-end benchmark of the disaggregated-memory scheduler.

    python3 e2ebench/run.py --workload wmix-cons --seed 42 --seconds 35 --trace 0

Runs from the root of a checkout.  Each repeat is one fresh
interpreter (``worker.py``); a run makes ``--seconds`` worth of
repeats (a count fixed per workload, at least three), then prints a
table of every metric with its unit, sample counts and per-repeat
values, and, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``norm_jobs_per_cpu_s``
from the CPU time of the timed runs, slice by slice the least over the
repeats, ``peak_rss_mib`` and ``setup_s`` as medians over the repeats;
the two times are scaled to a host on which the benchmark's reference
chunk (``refwork.py``) takes its nominal time.
``--trace 1`` runs one untraced repeat and two traced ones, checks
that the layer self times add up to the traced wall time and that the
work counts repeat exactly, and reports the per-layer metrics.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from statistics import median  # noqa: E402

from refwork import NOMINAL_CHUNK_S  # noqa: E402
from stats import least_cpu_s  # noqa: E402

WORKLOADS = ("wmix-cons", "kth-stream", "svc-mixed")

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "norm_jobs_per_cpu_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

#: Per-layer metrics: name -> unit.  A layer a workload does not
#: exercise reports 0.
PER_LAYER = {
    "sched.passes": "count",
    "sched.pass_ms": "ms",
    "sched.pass_p50_us": "us",
    "sched.pass_p99_us": "us",
    "sched.release_calls": "count",
    "sched.release_ms": "ms",
    "sched.profile_builds": "count",
    "sched.profile_build_ms": "ms",
    "profile.scans": "count",
    "profile.scan_ms": "ms",
    "profile.scans_per_job": "scans/job",
    "profile.reservations": "count",
    "profile.reserve_ms": "ms",
    "backfill.plan_retained": "count",
    "backfill.plan_recompute": "count",
    "backfill.plan_probe": "count",
    "backfill.plan_hit_ratio": "ratio",
    "backfill.shadow_reused": "count",
    "backfill.shadow_recompute": "count",
    "backfill.shadow_hit_ratio": "ratio",
    "cluster.ops": "count",
    "cluster.alloc_ms": "ms",
    "cluster.release_ms": "ms",
    "memdis.plan_calls": "count",
    "memdis.plan_ms": "ms",
    "memdis.ledger_ms": "ms",
    "sim.events": "count",
    "sim.calendar_ms": "ms",
    "engine.self_ms": "ms",
    "workload.ingest_jobs": "count",
    "workload.ingest_ms": "ms",
    "workload.gen_ms": "ms",
    "svc.batches": "count",
    "svc.batch_mean": "jobs",
    "svc.server_submit_p99_ms": "ms",
    "svc.http_p50_ms": "ms",
    "svc.query_p99_ms": "ms",
    "svc.advise_p99_ms": "ms",
    "svc.metrics_p99_ms": "ms",
    "svc.advance_ms": "ms",
    "svc.rejected": "count",
    "svc.submit_p50_ms": "ms",
    "svc.submit_p99_ms": "ms",
    "svc.read_p50_ms": "ms",
    "svc.read_p99_ms": "ms",
    "journal.appends": "count",
    "journal.append_ms": "ms",
    "journal.snapshots": "count",
    "journal.snapshot_ms": "ms",
    "error_rate": "ratio",
    "jobs_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p99_ms": "ms",
    "trace.jobs_per_s": "1/s",
    "trace.overhead_pct": "%",
    "trace.unaccounted_pct": "%",
    "trace.spans": "count",
}

#: Nominal wall seconds of one untraced repeat on the 2-vCPU
#: development host.  A run makes ``--seconds`` divided by this many
#: repeats (at least MIN_REPEATS): the count depends on the arguments
#: only, never on the host's speed, because ``norm_jobs_per_cpu_s``
#: takes the least time per slice over the repeats and more repeats
#: would lower it.
REPEAT_S = {"wmix-cons": 7.0, "kth-stream": 7.0, "svc-mixed": 5.5}
MIN_REPEATS = 3
#: On a slow host the count gives way: no repeat starts that would
#: end after START_CUTOFF_S (the whole run must end within 180 seconds).
START_CUTOFF_S = 110.0
#: A repeat still running this long after the run began is killed and
#: the run fails.
RUN_DEADLINE_S = 170.0
#: Largest share of the traced wall time the span self times may miss.
SELF_CHECK_TOLERANCE = 0.01


def _worker(
    workload: str, seed: int, mode: str, work: Path, trace_out: Path, run_id: str,
    audit: bool, timeout: float,
) -> Dict[str, Any]:
    """One repeat in a fresh interpreter; its own process group, so a
    timeout also stops the daemon a service repeat started."""
    work.mkdir(parents=True)
    out = work / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--work", str(work), "--out", str(out),
        "--trace-out", str(trace_out), "--run-id", run_id,
    ] + (["--audit"] if audit else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload} {mode} repeat still running at the run deadline")
    if code != 0 or not out.is_file():
        raise RuntimeError(f"{workload} {mode} repeat failed with exit code {code}")
    return json.loads(out.read_text())


#: A traced run: one untraced repeat for the overhead, then two traced
#: ones whose work counts must agree exactly.
TRACED_PLAN = ("plain", "traced", "traced")


def run(args: argparse.Namespace) -> Dict[str, Any]:
    bench_dir = ROOT / ".bench_build" / "e2ebench"
    run_dir = bench_dir / f"run-{os.getpid()}"
    traces = bench_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    docs: List[Dict[str, Any]] = []
    repeats = max(MIN_REPEATS, int(args.seconds // REPEAT_S[args.workload]))
    start = time.perf_counter()
    try:
        while True:
            mode = TRACED_PLAN[len(docs)] if args.trace else "plain"
            run_id = f"{args.workload}-s{args.seed}-r{len(docs)}"
            trace_out = traces / f"{args.workload}-r{len(docs)}.jsonl"
            docs.append(_worker(
                args.workload, args.seed, mode, run_dir / f"rep{len(docs)}",
                trace_out, run_id, audit=not docs,
                timeout=RUN_DEADLINE_S - (time.perf_counter() - start),
            ))
            elapsed = time.perf_counter() - start
            per_repeat = elapsed / len(docs)
            if args.trace:
                if len(docs) == len(TRACED_PLAN):
                    break
                continue
            if len(docs) == repeats or elapsed + per_repeat > START_CUTOFF_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return summarize(args, docs)


def host_slowness(plain: List[Dict[str, Any]]) -> float:
    """How many times slower than nominal the host ran the reference
    chunk (``refwork.py``) during a run's untraced repeats: the least
    chunk time per slice over the repeats, per chunk, over
    ``NOMINAL_CHUNK_S``.  Raises ``ValueError`` if the repeats ran
    different numbers of chunks."""
    chunks = {d["ref_chunks"] for d in plain}
    if len(chunks) != 1 or not min(chunks):
        raise ValueError(f"repeats ran different reference chunk counts: {sorted(chunks)}")
    return least_cpu_s([d["ref_slices"] for d in plain]) / chunks.pop() / NOMINAL_CHUNK_S


def summarize(args: argparse.Namespace, docs: List[Dict[str, Any]]) -> Dict[str, Any]:
    plain = [d for d in docs if d["mode"] == "plain"]
    traced = [d for d in docs if d["mode"] == "traced"]
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    problems = [p for d in docs for p in d["problems"]]

    digests = {d["digest"] for d in docs if "digest" in d}
    if len(digests) > 1:
        failed = attempted
        problems.append(f"repeats of one seed made different decisions: {sorted(digests)}")

    print(f"# {args.workload}  seed {args.seed}  {len(plain)} untraced + "
          f"{len(traced)} traced repeats, each a fresh interpreter")
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace == 0:
        jobs = median([d["jobs"] for d in plain])
        try:
            least = least_cpu_s([d["cpu_slices"] for d in plain])
            slowness = host_slowness(plain)
        except ValueError as exc:
            failed = attempted
            problems.append(str(exc))
            least, slowness = median([d["cpu_s"] for d in plain]), 1.0
        print(f"host: reference chunk at {slowness:.4f} x nominal; least CPU of the timed "
              f"runs {least:.4f} s over {len(plain)} repeats in "
              f"{len(plain[0]['cpu_slices'])} slices")
        for name, unit in END_TO_END.items():
            if name == "norm_jobs_per_cpu_s":
                value = jobs / least * slowness
                values = [d["jobs_per_cpu_s"] for d in plain]
                detail = "unnormalised per repeat"
            elif name == "setup_s":
                values = [d[name] for d in plain]
                value = median(values) / slowness
                detail = "median / slowness; unnormalised"
            else:
                values = [d[name] for d in plain]
                value = median(values)
                detail = f"median of {len(values)}:"
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<20} {value:>12.4f} {unit:<4}  "
                  f"{detail} {', '.join(f'{v:.4g}' for v in values)}")
        walls = [d["jobs_per_s"] for d in plain]
        print(f"jobs_per_s (wall clock, per-layer list): median {median(walls):.4g}, "
              f"repeats {', '.join(f'{v:.4g}' for v in walls)}")
        samples = [d["decision_samples"] for d in plain]
        levels = sorted({d["decision_p99_level"] for d in plain})
        p50s = [d["decision_p50_ms"] for d in plain]
        tails = [d["decision_p99_ms"] for d in plain]
        print(f"decision latency (per-layer list), {samples} samples per repeat: "
              f"p50 {', '.join(f'{v:.4g}' for v in p50s)} ms; "
              f"p{'/'.join(f'{lv:g}' for lv in levels)} "
              f"{', '.join(f'{v:.4g}' for v in tails)} ms")
    else:
        for i, doc in enumerate(traced):
            check = doc["self_check"]
            gap = abs(check["accounted_ms"] - check["wall_ms"]) / check["wall_ms"]
            doc["unaccounted_pct"] = gap * 100.0
            if gap > SELF_CHECK_TOLERANCE:
                failed += doc["attempted"]
                problems.append(
                    f"traced repeat {i}: self times {check['accounted_ms']:.1f} ms "
                    f"vs traced wall {check['wall_ms']:.1f} ms"
                )
        if any(doc["counts"] != traced[0]["counts"] for doc in traced[1:]):
            failed += sum(doc["attempted"] for doc in traced[1:])
            problems.append(
                "work counts differ between traced repeats: "
                + "; ".join(json.dumps(doc["counts"], sort_keys=True) for doc in traced)
            )
        plain_rate = median([d["jobs_per_s"] for d in plain])
        traced_rate = median([d["jobs_per_s"] for d in traced])
        derived = {
            "error_rate": failed / attempted if attempted else 0.0,
            "jobs_per_s": plain_rate,
            "decision_p50_ms": median([d["decision_p50_ms"] for d in plain]),
            "decision_p99_ms": median([d["decision_p99_ms"] for d in plain]),
            "trace.jobs_per_s": traced_rate,
            "trace.overhead_pct": (1.0 - traced_rate / plain_rate) * 100.0,
            "trace.unaccounted_pct": median([d["unaccounted_pct"] for d in traced]),
            "trace.spans": median([d["spans"] for d in traced]),
        }
        for name, unit in PER_LAYER.items():
            if name in derived:
                value = derived[name]
            else:
                value = median([d["layers"].get(name, 0) for d in traced])
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<26} {value:>14.4f} {unit}")
        print(f"work counts (identical across {len(traced)} traced repeats): "
              f"{json.dumps(traced[0]['counts'], sort_keys=True)}")
        print(f"tracing overhead: traced {traced_rate:.1f} vs untraced "
              f"{plain_rate:.1f} jobs/s")
    for problem in problems[:20]:
        print(f"FAIL: {problem}")
    failed = min(failed, attempted)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no scheduler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
