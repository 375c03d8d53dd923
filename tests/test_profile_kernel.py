"""Differential anchor for the vectorized sweep kernel.

The cursor's numpy kernel (``REPRO_PROFILE_KERNEL`` /
:func:`repro.sched.profile.set_kernel`) must be *pure acceleration*:
every ``earliest_start`` answer and every scan statistic bit-identical
to the retained scalar path, across both regimes (the no-reservation
full-grid walk and the reservation-regime skip-runs), across trial
overlays, resume anchors, caps, and interleaved folds.

The dtype guards get their own unit coverage: the breakpoint-time
array must stay float64 (an integer grid would re-round same-instant
grouping and cannot carry ``inf`` release times) and free-count
arrays must stay integer, with the mixed-dtype path forced
explicitly.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.memdis import GlobalPoolAllocator
from repro.sched import AvailabilityProfile, FirstFitPlacement, Reservation
from repro.sched.profile import get_kernel, set_kernel
from repro.units import GiB, HOUR
from repro.workload import Job, JobState

numpy = pytest.importorskip("numpy")


def _dur(job: Job) -> float:
    return job.walltime


def _cluster() -> Cluster:
    return Cluster(ClusterSpec(
        name="kernel", num_nodes=10, nodes_per_rack=5,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(rack_pool=24 * GiB, global_pool=48 * GiB),
    ))


def _start_job(rng, cluster, job_id, now):
    free = list(cluster.sorted_free_ids())
    if not free:
        return None
    take = rng.randint(1, min(3, len(free)))
    node_ids = free[:take]
    walltime = rng.choice((600.0, 1800.0, HOUR, 2 * HOUR, math.inf))
    job = Job(job_id=job_id, submit_time=0.0, nodes=take,
              walltime=walltime, runtime=walltime,
              mem_per_node=8 * GiB)
    grants = {}
    pools = cluster.all_pools()
    if pools and rng.random() < 0.5:
        pool = rng.choice(pools)
        amount = min(pool.free, rng.choice((1, 2, 4)) * GiB)
        if amount > 0:
            grants[pool.pool_id] = amount
    cluster.allocate_nodes(job.job_id, node_ids, 8 * GiB)
    if grants:
        cluster.allocate_pool(job.job_id, grants)
    job.state = JobState.RUNNING
    job.start_time = now - rng.uniform(0.0, 500.0)
    job.assigned_nodes = list(node_ids)
    job.pool_grants = grants
    job.dilation = 0.0
    return job


def _record(res):
    return None if res is None else (
        res.start, res.end, res.node_ids, res.pool_grants
    )


def _run_script(seed: int, kernel: str):
    """One deterministic interleaved scan/mutate/fold script, driven
    entirely by a seeded RNG so both kernels see identical worlds;
    returns every scan result and its statistics for comparison."""
    previous = set_kernel(kernel)
    try:
        rng = random.Random(seed)
        cluster = _cluster()
        now = rng.uniform(0.0, 300.0)
        running = []
        for i in range(rng.randint(1, 4)):
            job = _start_job(rng, cluster, 800 + i, now)
            if job is not None:
                running.append(job)
        profile = AvailabilityProfile(cluster, running, now, _dur)
        cursor = profile.sweep_cursor()
        placement = FirstFitPlacement()
        allocator = GlobalPoolAllocator()
        held = []
        out = []
        next_id = 900
        for step in range(14):
            roll = rng.random()
            if roll < 0.55:
                nodes = rng.randint(1, 10)
                duration = rng.choice((300.0, 900.0, HOUR))
                remote = rng.choice((0, 0, 2, 4)) * GiB
                job = Job(job_id=1, submit_time=0.0, nodes=nodes,
                          walltime=duration * 2, runtime=duration,
                          mem_per_node=16 * GiB + remote)
                kwargs = {}
                flavor = rng.random()
                if flavor < 0.25:
                    kwargs["not_after"] = now + rng.choice((0.0, 600.0, HOUR))
                elif flavor < 0.45:
                    kwargs["after"] = now + rng.uniform(0.0, HOUR)
                elif flavor < 0.7:
                    base = sorted(profile.free_at(now)[0])
                    if base:
                        take = base[: rng.randint(1, len(base))]
                        kwargs["trial"] = Reservation(
                            job_id=2, start=now,
                            end=now + rng.choice((600.0, HOUR)),
                            node_ids=tuple(take), pool_grants=(),
                        )
                        kwargs["not_after"] = now + rng.choice((600.0, HOUR))
                res = cursor.earliest_start(
                    job, duration, remote, placement, allocator, **kwargs)
                out.append((
                    "scan", _record(res),
                    cursor.last_scan_max_reject,
                    cursor.last_scan_count_reject,
                    cursor.last_scan_pool_rejects,
                ))
            elif roll < 0.7:
                start = now + rng.choice((0.0, 300.0, 600.0))
                res = Reservation(
                    job_id=100 + step, start=start,
                    end=start + rng.choice((0.0, 600.0, HOUR)),
                    node_ids=tuple(range(rng.randint(0, 6),
                                         rng.randint(7, 10))),
                    pool_grants=(),
                )
                profile.add_reservation(res)
                held.append(res)
            elif roll < 0.8 and held:
                profile.remove_reservation(
                    held.pop(rng.randrange(len(held))))
            elif roll < 0.9 and running:
                victim = running.pop(rng.randrange(len(running)))
                cluster.release_nodes(victim.job_id)
                cluster.release_pool(victim.job_id)
                assert profile.apply_release(
                    victim.assigned_nodes, victim.pool_grants,
                    victim.start_time + victim.walltime)
                out.append(("fold", "release"))
            else:
                job = _start_job(rng, cluster, next_id, now)
                next_id += 1
                if job is None:
                    continue
                job.start_time = now
                running.append(job)
                profile.apply_start(
                    job.assigned_nodes, job.pool_grants,
                    job.start_time + job.walltime)
                out.append(("fold", "start"))
        return out
    finally:
        set_kernel(previous)


class TestKernelParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_numpy_matches_scalar(self, seed):
        """Identical worlds, identical scripts: the numpy kernel must
        reproduce the scalar anchor's results *and* statistics."""
        scalar = _run_script(seed, "scalar")
        vector = _run_script(seed, "numpy")
        assert vector == scalar

    @pytest.mark.parametrize("seed", range(0, 40, 4))
    def test_auto_matches_scalar(self, seed):
        """``auto`` floor-gates the vector paths; on these deliberately
        tiny grids every scan must land on the scalar walk bit-for-bit."""
        assert _run_script(seed, "auto") == _run_script(seed, "scalar")

    def test_kernel_selection_roundtrip(self):
        previous = set_kernel("scalar")
        try:
            assert get_kernel() == "scalar"
            profile = AvailabilityProfile(_cluster(), [], 0.0, _dur)
            assert profile.sweep_cursor()._numpy is False
            set_kernel("numpy")
            profile = AvailabilityProfile(_cluster(), [], 0.0, _dur)
            assert profile.sweep_cursor()._numpy is True
        finally:
            set_kernel(previous)

    def test_auto_mode_floor_gates_vector_paths(self):
        from repro.sched.profile import _VEC_FLOOR
        previous = set_kernel("auto")
        try:
            assert get_kernel() == "auto"
            profile = AvailabilityProfile(_cluster(), [], 0.0, _dur)
            cursor = profile.sweep_cursor()
            assert cursor._numpy is True
            assert cursor._vec_floor == _VEC_FLOOR
            job = Job(job_id=1, submit_time=0.0, nodes=2, walltime=600.0,
                      runtime=300.0, mem_per_node=8 * GiB)
            cursor.earliest_start(job, 300.0, 0, FirstFitPlacement(),
                                  GlobalPoolAllocator())
            # Tiny grid: the scan ran on the scalar walk, so no
            # full-grid vectors were built.
            assert cursor._nores_cache is None
            # Forced mode drops the floor so parity suites reach the
            # vector code on grids this small.
            set_kernel("numpy")
            profile = AvailabilityProfile(_cluster(), [], 0.0, _dur)
            assert profile.sweep_cursor()._vec_floor == 0
        finally:
            set_kernel(previous)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            set_kernel("cupy")


class TestKernelDtypes:
    def test_integer_grid_forced_to_float64(self):
        """The mixed-dtype path: a grid whose times are all
        integer-valued (plus ``inf``) must still produce a float64
        breakpoint array and integer count vectors."""
        cluster = _cluster()
        forever = _start_job(random.Random(1), cluster, 800, 0.0)
        forever.start_time = 0.0
        forever.walltime = math.inf
        profile = AvailabilityProfile(cluster, [forever], 0.0, _dur)
        # Fold with *python int* release times: without the forced
        # dtype these would infer an integer (or object) array.
        profile.apply_start((8,), {}, 600)
        profile.apply_start((9,), {}, 1200)
        # Forced mode: ``auto`` would leave this tiny grid on the
        # scalar walk and never build the vectors under test.
        previous = set_kernel("numpy")
        try:
            cursor = profile.sweep_cursor()
            job = Job(job_id=1, submit_time=0.0, nodes=9, walltime=600.0,
                      runtime=300.0, mem_per_node=8 * GiB)
            cursor.earliest_start(job, 300.0, 0, FirstFitPlacement(),
                                  GlobalPoolAllocator())
        finally:
            set_kernel(previous)
        key, ks_all, counts_all = cursor._nores_cache
        assert numpy.issubdtype(ks_all.dtype, numpy.integer)
        assert numpy.issubdtype(counts_all.dtype, numpy.integer)
        assert math.inf in cursor._times

    def test_counts_mirror_stays_integer_after_folds(self):
        cluster = _cluster()
        rng = random.Random(2)
        running = [_start_job(rng, cluster, 800 + i, 0.0) for i in range(3)]
        running = [job for job in running if job is not None]
        profile = AvailabilityProfile(cluster, running, 0.0, _dur)
        cursor = profile.sweep_cursor()
        cursor._materialize_to(len(cursor._times) - 1)
        if cursor._numpy:
            assert cursor._sync_counts().dtype == numpy.int64
        victim = running.pop()
        cluster.release_nodes(victim.job_id)
        cluster.release_pool(victim.job_id)
        assert profile.apply_release(
            victim.assigned_nodes, victim.pool_grants,
            victim.start_time + victim.walltime)
        profile.apply_start((0, 1), {}, 900)
        if cursor._numpy:
            arr = cursor._sync_counts()
            assert arr.dtype == numpy.int64
            assert [int(v) for v in arr] == cursor._counts

    def test_guard_rejects_degraded_arrays(self):
        from repro.sched.profile import SweepCursor
        with pytest.raises(AssertionError, match="breakpoint grid"):
            SweepCursor._assert_kernel_dtypes(
                numpy.array([0, 60, 120]), None)
        with pytest.raises(AssertionError, match="free-count"):
            SweepCursor._assert_kernel_dtypes(
                None, numpy.array([10.0, 9.0]))
        # The healthy pair passes.
        SweepCursor._assert_kernel_dtypes(
            numpy.array([0.0, math.inf]), numpy.array([1, 2]))
