"""The svc-mixed workload: a closed loop of two client connections
against a durable replay-mode daemon started in a subprocess.

The trace is cut into ``plan_windows`` admission windows of 32 jobs.
In each window both connections submit their half of the jobs one per
request and wait for every reply, as ``sbatch`` does; every fourth
submit is followed by a ``GET /v1/jobs/<id>`` of a job the connection
already submitted.  Connection 0 also scrapes ``/v1/metrics`` and,
after both halves are in, sends the window's ``/v1/advance``;
connection 1 sends one ``/v1/advise``.  After the drain, the live
records are compared field for field with an offline simulation of the
same configuration.
"""

from __future__ import annotations

import json
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from inputs import REFERENCE_SEED, jitter_jobs
from layers import Tracer, layer_metrics, summarize
from refwork import timed_chunks
from stats import Tally, decision_metrics, tail_percentile

HERE = Path(__file__).resolve().parent

SVC_JOBS = 2_000
WINDOW = 32
CONNECTIONS = 2
QUERY_EVERY = 4
#: Admission windows per daemon CPU-time slice (about 0.3 s of daemon
#: work at 32 jobs a window).
SLICE_WINDOWS = 4
#: Reference chunks (``refwork.py``) the client times at each slice
#: mark, while the daemon waits for the next window.
REF_CHUNKS = 8
ROUTES = ("submit", "query", "advise", "metrics", "advance")
#: Linux clock id of another process's CPU clock:
#: ``((~pid) << 3) | CPUCLOCK_SCHED`` (what ``clock_getcpuclockid`` returns).
_CPUCLOCK_SCHED = 2
_URL = re.compile(r"(http://[0-9.]+:\d+)")


class Daemon:
    """``repro serve`` through the benchmark's bootstrap, in its own
    process with a fresh state directory."""

    def __init__(self, work: Path, config_path: Path, trace_prefix: Optional[str]) -> None:
        state_dir = work / "state"
        cmd = [sys.executable, str(HERE / "daemon.py")]
        if trace_prefix:
            cmd += ["--trace-prefix", trace_prefix]
        cmd += [
            "--", "serve", "--config", str(config_path),
            "--state-dir", str(state_dir), "--port", "0",
        ]
        self._log = open(work / "daemon.log", "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, text=True
        )

    def wait_url(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _URL.search(line)
                if match:
                    return match.group(1)
            elif self.proc.poll() is not None:
                break
        raise RuntimeError("daemon did not report its address")

    def cpu_s(self) -> float:
        """CPU seconds of the daemon, all its threads (ended ones
        too), read from its process CPU clock to the nanosecond."""
        return time.clock_gettime(((~self.proc.pid) << 3) | _CPUCLOCK_SCHED)

    def vm_hwm_mib(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Connection:
    """One persistent client connection and what it observed."""

    def __init__(self, index: int, url: str, seed: int, tracer: Optional[Tracer]) -> None:
        from repro.service.client import ServiceClient

        self.index = index
        # No client-side retries: every failed request must show.
        self.client = ServiceClient(url, retries=0)
        self.tally = Tally()
        self.latency: Dict[str, List[float]] = {route: [] for route in ROUTES}
        self.rng = random.Random(seed * CONNECTIONS + index)
        self.acked: List[int] = []
        self.phase_s = 0.0
        self.root_s = 0.0
        methods = {
            "submit": self.client.submit,
            "query": self.client.query,
            "advise": self.client.advise,
            "metrics": self.client.metrics,
            "advance": self.client.advance,
        }
        if tracer is not None:
            methods = {r: tracer.wrap(f"svc.{r}", fn) for r, fn in methods.items()}
        self.methods = methods

    def call(self, route: str, *args: Any) -> Any:
        start = time.perf_counter()
        try:
            reply = self.methods[route](*args)
        except Exception as exc:  # non-2xx (ServiceError) or a client failure
            self.tally.op(False, f"{route}: {type(exc).__name__}: {exc}")
            return None
        self.latency[route].append(time.perf_counter() - start)
        self.tally.op(True)
        return reply


def _advise_spec(job: Any) -> Dict[str, Any]:
    return {"nodes": job.nodes, "walltime": job.walltime, "mem_per_node": job.mem_per_node}


def drive(
    conns: List[Connection],
    windows: List[List[Any]],
    tracer: Optional[Tracer],
    marks: List[float],
    refs: List[float],
    cpu_clock: Callable[[], float],
) -> None:
    """Run the closed loop over all windows; connection 0 drains.
    Before every :data:`SLICE_WINDOWS`-th window after the first,
    connection 0 reads the daemon's ``cpu_clock`` into ``marks`` and
    times :data:`REF_CHUNKS` reference chunks into ``refs``, while its
    peer waits at the barrier."""
    from repro.service.protocol import job_to_request_spec

    barrier = threading.Barrier(len(conns), timeout=120)

    def body(conn: Connection) -> None:
        k = conn.index
        for w, window in enumerate(windows):
            if k == 0 and w and w % SLICE_WINDOWS == 0:
                marks.append(cpu_clock())
                refs.append(timed_chunks(REF_CHUNKS))
            barrier.wait()
            start = time.perf_counter()
            for i, job in enumerate(window[k::len(conns)]):
                if conn.call("submit", [job_to_request_spec(job)]) is not None:
                    conn.acked.append(job.job_id)
                if i % QUERY_EVERY == QUERY_EVERY - 1:
                    conn.call("query", conn.rng.choice(conn.acked))
            if k == 0:
                conn.call("metrics")
            else:
                conn.call("advise", _advise_spec(window[0]))
            barrier.wait()
            if k == 0:
                conn.phase_s += time.perf_counter() - start
                conn.call("advance", window[-1].submit_time)
        if k == 0:
            conn.call("advance", None)  # drain

    def run(conn: Connection) -> None:
        start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.span("svc.conn", body, conn)
            else:
                body(conn)
        except threading.BrokenBarrierError as exc:
            conn.tally.fail(1, f"connection {conn.index} lost its peer: {exc}")
            barrier.abort()
        conn.root_s = time.perf_counter() - start

    threads = [threading.Thread(target=run, args=(conn,)) for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _ms(values: List[float]) -> List[float]:
    return [v * 1e3 for v in values]


def run_service_workload(args: Any, tracer: Optional[Tracer], doc: Dict[str, Any], t0: float) -> None:
    from repro.engine.simulation import SchedulerSimulation
    from repro.service import default_service_config
    from repro.service.client import ServiceClient
    from repro.service.load import compare_records, plan_windows
    from repro.service.protocol import job_to_record

    work = Path(args.work)
    config = default_service_config()
    config.workload = dict(config.workload, num_jobs=SVC_JOBS, seed=REFERENCE_SEED)
    config_path = work / "service.json"
    config_path.write_text(config.to_json())
    jobs = config.build_jobs()
    jitter_jobs(jobs, args.seed)
    windows = plan_windows(jobs, WINDOW)
    trace_prefix = None
    if tracer is not None:
        trace_prefix = str(Path(args.trace_out).with_suffix("")) + ".daemon"
    daemon = Daemon(work, config_path, trace_prefix)
    tally = Tally()
    try:
        url = daemon.wait_url()
        control = ServiceClient(url, retries=0)
        deadline = time.monotonic() + 60
        while True:
            try:
                control.health()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        doc["setup_s"] = time.perf_counter() - t0

        conns = [Connection(k, url, args.seed, tracer) for k in range(CONNECTIONS)]
        marks: List[float] = []
        refs: List[float] = []
        cpu_start = daemon.cpu_s()
        drive(conns, windows, tracer, marks, refs, daemon.cpu_s)
        cpu_end = daemon.cpu_s()
        doc["cpu_s"] = cpu_end - cpu_start
        bounds = [cpu_start, *marks, cpu_end]
        doc["cpu_slices"] = [b - a for a, b in zip(bounds, bounds[1:])]
        doc["ref_slices"] = refs
        doc["ref_chunks"] = len(refs) * REF_CHUNKS
        live = control.jobs()["jobs"]
        metrics = control.metrics()
        doc["peak_rss_mib"] = daemon.vm_hwm_mib()
        for conn in conns:
            conn.client.close()
        control.close()
    finally:
        exit_code = daemon.stop()
    tally.op(exit_code == 0, f"daemon exited with {exit_code}")

    latency: Dict[str, List[float]] = {route: [] for route in ROUTES}
    for conn in conns:
        tally.attempted += conn.tally.attempted
        tally.failed += conn.tally.failed
        tally.problems.extend(conn.tally.problems)
        for route in ROUTES:
            latency[route].extend(conn.latency[route])
    acked = sum(len(conn.acked) for conn in conns)
    phase = conns[0].phase_s
    doc["jobs"] = acked
    doc["wall_s"] = phase
    doc["jobs_per_s"] = acked / phase
    doc["jobs_per_cpu_s"] = acked / doc["cpu_s"]

    decisions = [
        record["service"]["decision_latency_ms"]
        for record in live
        if record.get("service", {}).get("decision_latency_ms") is not None
    ]
    doc.update(decision_metrics(decisions))

    # Decision identity against the offline engine, outside the timing.
    offline = SchedulerSimulation(
        config.build_cluster(),
        config.build_scheduler(),
        [job.copy_request() for job in jobs],
    ).run()
    offline_records = {
        job.job_id: job_to_record(job, offline.promises.get(job.job_id))
        for job in offline.jobs
    }
    diffs = compare_records({r["job_id"]: r for r in live}, offline_records)
    tally.attempted += len(offline_records)
    if diffs:
        tally.fail(len(diffs), f"{len(diffs)} identity diffs, first: {diffs[0]}")
    doc["tally"] = tally

    # Client-side service metrics (per-layer list).
    reads = latency["query"] + latency["advise"] + latency["metrics"]
    server_submit = metrics.get("submit_latency_ms") or {}
    batch = metrics.get("admission_batch") or {}
    counters = metrics.get("counters") or {}
    client_submit_p50 = tail_percentile(_ms(latency["submit"]), 50.0)[1]
    svc = {
        "svc.submit_p50_ms": client_submit_p50,
        "svc.submit_p99_ms": tail_percentile(_ms(latency["submit"]), 99.0)[1],
        "svc.read_p50_ms": tail_percentile(_ms(reads), 50.0)[1],
        "svc.read_p99_ms": tail_percentile(_ms(reads), 99.0)[1],
        "svc.batches": batch.get("count") or 0,
        "svc.batch_mean": batch.get("mean") or 0.0,
        "svc.server_submit_p99_ms": server_submit.get("p99") or 0.0,
        "svc.http_p50_ms": client_submit_p50 - (server_submit.get("p50") or 0.0),
        "svc.query_p99_ms": tail_percentile(_ms(latency["query"]), 99.0)[1],
        "svc.advise_p99_ms": tail_percentile(_ms(latency["advise"]), 99.0)[1],
        "svc.metrics_p99_ms": tail_percentile(_ms(latency["metrics"]), 99.0)[1],
        "svc.advance_ms": statistics.median(_ms(latency["advance"])),
        "svc.rejected": (
            counters.get("rejected_specs", 0)
            + counters.get("shed_overload", 0)
            + counters.get("shed_deadline", 0)
        ),
    }
    doc["svc"] = svc

    if tracer is None:
        return
    daemon_doc = json.loads(Path(trace_prefix + ".json").read_text())
    layers = layer_metrics(daemon_doc["summary"], len(jobs), daemon_doc["strategy"], "")
    client = summarize(tracer)
    layers["engine.self_ms"] = client["by_name"].get("svc.conn", {}).get("self_ms", 0.0)
    by_name = daemon_doc["summary"]["by_name"]
    for key, name in (("appends", "journal.append"), ("snapshots", "journal.snapshot")):
        entry = by_name.get(name, {})
        layers[f"journal.{key}"] = entry.get("calls", 0)
        layers[f"journal.{key[:-1]}_ms"] = entry.get("self_ms", 0.0)
    layers["workload.gen_ms"] = client["by_name"].get("workload.gen", {}).get("total_ms", 0.0)
    layers.update(svc)
    doc["layers"] = layers
    # Scheduler-side counts depend on how concurrent arrivals batch, so
    # only the client's own operations must repeat exactly.
    doc["counts"] = {
        f"svc.{route}_calls": client["by_name"].get(f"svc.{route}", {}).get("calls", 0)
        for route in ROUTES
    }
    accounted = client["tree_self_ms"].get("svc.conn", 0.0)
    doc["self_check"] = {
        "accounted_ms": accounted,
        "wall_ms": sum(conn.root_s for conn in conns) * 1e3,
    }
    doc["spans"] = tracer.write_jsonl(args.trace_out) + daemon_doc["spans"]
