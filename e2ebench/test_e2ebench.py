"""Tests of the benchmark's own helpers.

    python3 -m pytest e2ebench -q        (from the repository root)
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import Tracer, summarize  # noqa: E402
from stats import (  # noqa: E402
    TAIL_SAMPLES, Tally, least_cpu_s, rank_value, self_times, tail_percentile,
)


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, level",
    [(1000, 99.0), (8000, 99.0), (500, 98.0), (100, 90.0), (11, 9.0), (250, 96.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, level):
    values = list(range(count))
    got_level, value, n = tail_percentile(values, 99.0)
    assert n == count
    assert got_level == pytest.approx(level)
    beyond = sum(1 for v in values if v > value)
    assert beyond >= TAIL_SAMPLES
    # One notch higher would leave fewer than ten beyond (unless capped).
    if got_level < 99.0:
        higher = rank_value(values, got_level + 1.0)
        assert sum(1 for v in values if v > higher) < TAIL_SAMPLES


def test_tail_percentile_too_few_samples():
    assert tail_percentile([1.0] * TAIL_SAMPLES) == (None, None, TAIL_SAMPLES)
    assert tail_percentile([]) == (None, None, 0)


def test_median_level_is_not_capped_by_tail_rule():
    level, value, n = tail_percentile(range(1, 102), 50.0)
    assert (level, value, n) == (50.0, 51, 101)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_nested():
    spans = [("a", None, 0.0, 10.0), ("b", "a", 2.0, 5.0), ("c", "b", 3.0, 4.0)]
    assert self_times(spans) == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_self_time_disjoint_siblings():
    spans = [("a", None, 0.0, 10.0), ("b", "a", 1.0, 3.0), ("c", "a", 5.0, 8.0)]
    got = self_times(spans)
    assert got["a"] == 5.0
    assert sum(got.values()) == 10.0


def test_self_time_overlapping_siblings_count_the_union_once():
    spans = [("a", None, 0.0, 10.0), ("b", "a", 1.0, 6.0), ("c", "a", 4.0, 9.0)]
    assert self_times(spans)["a"] == 2.0  # covered: [1, 9]


def test_self_time_clips_children_to_the_parent():
    spans = [("a", None, 0.0, 10.0), ("b", "a", 8.0, 12.0)]
    assert self_times(spans)["a"] == 8.0


def test_tracer_spans_nest_and_sum_to_root():
    tracer = Tracer("t")

    def leaf():
        return 1

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    assert tracer.span("root", wrapped_middle) == 2
    spans = tracer.spans()
    names = [s[4] for s in spans]
    assert names == ["root", "middle", "leaf", "leaf"]
    parents = {s[0]: s[1] for s in spans}
    root_id, middle_id = spans[0][0], spans[1][0]
    assert parents[middle_id] == root_id
    assert parents[spans[2][0]] == middle_id == parents[spans[3][0]]
    summary = summarize(tracer)
    assert summary["by_name"]["leaf"]["calls"] == 2
    root_ms = (spans[0][3] - spans[0][2]) / 1e6
    assert math.isclose(summary["tree_self_ms"]["root"], root_ms, rel_tol=1e-9)


def test_same_name_reentry_is_one_span():
    tracer = Tracer("t")

    def base(n):
        return n

    inner = tracer.wrap("scan", base)
    outer = tracer.wrap("scan", lambda n: inner(n) + 1)  # an override calling super()
    assert outer(1) == 2
    assert [s[4] for s in tracer.spans()] == ["scan"]


def test_wrap_iter_counts_only_yielded_items():
    tracer = Tracer("t")
    assert list(tracer.wrap_iter("ingest", iter([1, 2, 3]))) == [1, 2, 3]
    assert summarize(tracer)["by_name"]["ingest"]["calls"] == 3


# ----------------------------------------------------------------------
# the throughput estimator
# ----------------------------------------------------------------------
def test_least_cpu_takes_each_slice_from_its_quietest_repeat():
    runs = [[1.0, 5.0, 1.0], [4.0, 1.0, 1.5], [1.2, 1.1, 9.0]]
    assert least_cpu_s(runs) == pytest.approx(3.0)
    assert least_cpu_s([[2.0, 3.0]]) == pytest.approx(5.0)


def test_least_cpu_refuses_repeats_cut_differently():
    with pytest.raises(ValueError, match="slice counts"):
        least_cpu_s([[1.0, 1.0], [1.0, 1.0, 1.0]])


def test_cpu_slices_leave_out_the_reference_chunks():
    from array import array

    import worker

    marks = array("d", [3.0, 3.5, 7.0, 7.25])
    assert worker.cpu_slices(1.0, marks, 8.25) == [2.0, 3.5, 1.0]
    assert worker.cpu_slices(1.0, array("d"), 4.0) == [3.0]


def test_host_slowness_takes_the_least_chunk_time_per_slice():
    import run
    from refwork import NOMINAL_CHUNK_S

    chunk = 2 * NOMINAL_CHUNK_S  # a host at half the nominal speed
    plain = [
        {"ref_slices": [chunk, 3 * chunk], "ref_chunks": 2},
        {"ref_slices": [2 * chunk, chunk], "ref_chunks": 2},
    ]
    assert run.host_slowness(plain) == pytest.approx(2.0)
    plain[1]["ref_chunks"] = 3
    with pytest.raises(ValueError, match="reference chunk counts"):
        run.host_slowness(plain)


def test_swf_jitter_shortens_run_times_only(tmp_path):
    from inputs import RUNTIME_JITTER, jitter_swf

    src = tmp_path / "in.swf"
    src.write_text(
        "; Computer: test\n"
        "1 3 -1 46 -1 -1 3432448 1 224 5276672 -1 22 0 -1 -1 -1 -1 -1\n"
        "2 5 -1 -1 -1 -1 -1 1 224 -1 -1 22 0 -1 -1 -1 -1 -1\n"
        "3 9 -1 100000 -1 -1 1 64 100000 1 -1 4 0 -1 -1 -1 -1 -1\n"
    )
    first, again = tmp_path / "a.swf", tmp_path / "b.swf"
    jitter_swf(src, first, seed=5)
    jitter_swf(src, again, seed=5)
    assert first.read_text() == again.read_text()
    head, one, two, three = first.read_text().splitlines()
    assert head == "; Computer: test"
    assert two.split()[3] == "-1"
    runtime = int(three.split()[3])
    assert 100000 * (1 - RUNTIME_JITTER) <= runtime <= 100000
    assert one.split()[:3] + one.split()[4:] == "1 3 -1 -1 -1 3432448 1 224 5276672 -1 22 0 -1 -1 -1 -1 -1".split()


# ----------------------------------------------------------------------
# error_rate accounting
# ----------------------------------------------------------------------
def test_forced_digest_mismatch_fails_every_job(monkeypatch):
    import worker
    from repro.cluster.cluster import Cluster
    from repro.cluster.spec import ClusterSpec
    from repro.engine.simulation import SchedulerSimulation
    from repro.sched.base import build_scheduler
    from repro.units import GiB
    from repro.workload.reference import generate_reference_jobs

    jobs = generate_reference_jobs(
        "W-MIX", seed=1, num_jobs=120, cluster_nodes=16,
        max_mem_per_node=512 * GiB, target_load=0.9,
    )
    spec = ClusterSpec.thin_node(
        num_nodes=16, nodes_per_rack=8, local_mem=128 * GiB,
        fat_local_mem=512 * GiB, pool_fraction=0.5, reach="global",
    )
    result = SchedulerSimulation(
        Cluster(spec), build_scheduler(backfill="conservative"), jobs
    ).run()

    clean = Tally()
    digest = worker.check_wmix(result, seed=7, tally=clean)
    assert (clean.attempted, clean.failed, clean.error_rate) == (120, 0, 0.0)

    monkeypatch.setitem(worker.PINNED, "wmix-cons", "0" * 64)
    forced = Tally()
    worker.check_wmix(result, seed=worker.DEFAULT_SEED, tally=forced)
    assert (forced.attempted, forced.failed, forced.error_rate) == (120, 120, 1.0)
    assert "decision digest" in forced.problems[0]

    monkeypatch.setitem(worker.PINNED, "wmix-cons", digest)
    pinned = Tally()
    worker.check_wmix(result, seed=worker.DEFAULT_SEED, tally=pinned)
    assert pinned.failed == 0


def test_kth_record_mismatch_fails_every_job():
    import worker

    tally = Tally()
    worker.check_kth({"records": 9, "stream_jobs": 10, "sha256": ""}, seed=3, tally=tally)
    assert (tally.attempted, tally.failed) == (10, 10)


def test_non_2xx_response_is_one_failed_operation():
    from repro.cluster.cluster import Cluster
    from repro.cluster.spec import ClusterSpec
    from repro.sched.base import build_scheduler
    from repro.service import SchedulerService
    from repro.service.server import ServiceDaemon
    from repro.units import GiB
    from svcload import Connection

    spec = ClusterSpec.thin_node(
        num_nodes=4, nodes_per_rack=4, local_mem=128 * GiB,
        fat_local_mem=512 * GiB, pool_fraction=0.5, reach="global",
    )
    service = SchedulerService(Cluster(spec), build_scheduler())
    with ServiceDaemon(service) as daemon:
        conn = Connection(0, daemon.url, seed=1, tracer=None)
        assert conn.call("metrics") is not None
        assert conn.call("query", 424242) is None  # 404: no such job
        conn.client.close()
    assert (conn.tally.attempted, conn.tally.failed) == (2, 1)
    assert conn.tally.error_rate == 0.5
    assert "404" in conn.tally.problems[0]
    assert len(conn.latency["metrics"]) == 1 and not conn.latency["query"]
