"""Scan-level pin for the sweep cursor's window-claim arithmetic.

:meth:`SweepCursor.earliest_start` folds out the nodes claimed by
reservations that *start* inside each candidate window, tracked by two
monotone pointers over the start-sorted reservation timeline.  The
randomized equivalence suites rarely stress that state: a handful of
small reservations seldom puts two claims in one window.  The scripts
here do, on a live cursor under add/remove patching:

* dense, overlapping standing reservations on a grid-aligned timeline,
  so one node is routinely claimed by two reservations that start
  inside the same candidate window;
* zero-length reservations (bounds on the grid, never active, but
  claiming their nodes from every window that contains their start);
* long gaps between evaluated candidates, so the left pointer
  overtakes the right one and the window snaps;
* ``after=`` resumes and ``not_after=`` caps.

Every answer must equal :meth:`OracleProfile.earliest_start` (capped
scans: "scan fully, then compare the start").  The sequence of answers
together with the scan statistics the conservative plan cache consumes
(``last_scan_max_reject``, ``last_scan_count_reject``,
``last_scan_pool_rejects``) is pinned by sha256, so a change to the
window arithmetic that keeps decisions but moves a rejection bound
fails here rather than as a drift in the plan-cache counters.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.memdis import GlobalPoolAllocator, HybridAllocator, RackLocalAllocator
from repro.sched import AvailabilityProfile, Reservation
from repro.sched.placement import placement_for
from repro.units import GiB
from repro.workload import Job, JobState

from ._oracles import OracleProfile

#: sha256 of the canonical JSON of every script's scan log, in seed
#: order.  Any rewrite of the window arithmetic must reproduce it.
PINNED_DIGEST = (
    "1ef2f63914f7449cadb5db92db44c05278ea72e61421e467a6477dfc0f470e2f"
)

SEEDS = range(12)
STEP = 300.0  # timeline grid: reservation starts and releases land on it
NUM_NODES = 16
PLACEMENTS = ("first_fit", "rack_pack", "min_remote", "spread")
ALLOCATORS = (GlobalPoolAllocator(), RackLocalAllocator(), HybridAllocator())


def _dur(job: Job) -> float:
    return job.walltime


def _cluster() -> Cluster:
    return Cluster(ClusterSpec(
        name="window-claims", num_nodes=NUM_NODES, nodes_per_rack=4,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(rack_pool=8 * GiB, global_pool=24 * GiB),
    ))


def _running(rng: random.Random, cluster: Cluster, now: float):
    """A few running jobs whose estimated ends land on the grid."""
    running = []
    free = list(cluster.sorted_free_ids())
    rng.shuffle(free)
    for job_id in range(800, 800 + rng.randint(1, 4)):
        take = rng.randint(1, 3)
        node_ids, free = sorted(free[:take]), free[take:]
        walltime = STEP * rng.randint(1, 10)
        job = Job(job_id=job_id, submit_time=0.0, nodes=take,
                  walltime=walltime, runtime=walltime,
                  mem_per_node=8 * GiB)
        grants = {}
        if rng.random() < 0.6:
            pool = rng.choice(cluster.all_pools())
            amount = min(pool.free, rng.choice((2, 4)) * GiB)
            if amount > 0:
                grants[pool.pool_id] = amount
        cluster.allocate_nodes(job_id, node_ids, 8 * GiB)
        if grants:
            cluster.allocate_pool(job_id, grants)
        job.state = JobState.RUNNING
        job.start_time = now - STEP * rng.randint(0, 1)
        job.assigned_nodes = list(node_ids)
        job.pool_grants = grants
        running.append(job)
    return running


def _reservation(rng: random.Random, cluster: Cluster, now: float,
                 job_id: int) -> Reservation:
    """A grid-aligned claim on a narrow hot node range, so claims
    pile up on the same nodes; a third are zero-length, and some
    starts sit inside the epsilon band of a grid instant."""
    start = now + STEP * rng.randint(0, 12) + rng.choice((0.0, 0.0, 5e-10))
    length = rng.choice((0.0, 0.0, STEP / 2, STEP, 2 * STEP, 5 * STEP))
    hot = rng.randint(0, NUM_NODES - 6)
    node_ids = tuple(sorted(rng.sample(range(hot, hot + 6),
                                       rng.randint(1, 4))))
    grants = ()
    if rng.random() < 0.5:
        pool = rng.choice(cluster.all_pools())
        grants = ((pool.pool_id, rng.choice((1, 2, 4)) * GiB),)
    return Reservation(job_id=job_id, start=start, end=start + length,
                       node_ids=node_ids, pool_grants=grants)


def _record(res):
    return None if res is None else [
        res.start, res.end, list(res.node_ids),
        [list(grant) for grant in res.pool_grants],
    ]


def _run_script(seed: int):
    """Seeded interleaving of scans and reservation adds/removes on one
    live cursor; asserts oracle equality and returns the scan log."""
    rng = random.Random(seed)
    cluster = _cluster()
    now = 100.0
    running = _running(rng, cluster, now)
    profile = AvailabilityProfile(cluster, running, now, _dur)
    oracle = OracleProfile(cluster, running, now, _dur)
    cursor = profile.sweep_cursor()
    held = []
    next_id = 1000
    for _ in range(rng.randint(14, 22)):
        res = _reservation(rng, cluster, now, next_id)
        next_id += 1
        profile.add_reservation(res)
        oracle.add_reservation(res)
        held.append(res)
    log = []
    for step in range(40):
        roll = rng.random()
        if roll < 0.15:
            res = _reservation(rng, cluster, now, next_id)
            next_id += 1
            profile.add_reservation(res)
            oracle.add_reservation(res)
            held.append(res)
            continue
        if roll < 0.25 and held:
            victim = held.pop(rng.randrange(len(held)))
            profile.remove_reservation(victim)
            oracle.remove_reservation(victim)
            continue
        nodes = rng.randint(1, NUM_NODES)
        duration = rng.choice((0.0, STEP / 3, STEP, 1.5 * STEP, 3 * STEP,
                               8 * STEP))
        remote = rng.choice((0, 0, 1, 2, 4)) * GiB
        memory_aware = rng.random() < 0.8
        placement = placement_for(rng.choice(PLACEMENTS))
        allocator = rng.choice(ALLOCATORS)
        job = Job(job_id=1 + step, submit_time=0.0, nodes=nodes,
                  walltime=8 * STEP, runtime=STEP,
                  mem_per_node=16 * GiB + remote)
        flavor = rng.random()
        after = not_after = None
        if flavor < 0.25:
            after = now + rng.choice((STEP * rng.randint(0, 6),
                                      rng.uniform(0.0, 6 * STEP)))
        elif flavor < 0.5:
            not_after = now + STEP * rng.randint(0, 8)
        got = cursor.earliest_start(
            job, duration, remote, placement, allocator, after=after,
            memory_aware=memory_aware, not_after=not_after)
        want = oracle.earliest_start(
            job, duration, remote, placement, allocator, after=after,
            memory_aware=memory_aware)
        if not_after is not None and want is not None and want.start > not_after:
            want = None
        assert got == want, (seed, step)
        log.append([
            _record(got),
            cursor.last_scan_max_reject,
            cursor.last_scan_count_reject,
            cursor.last_scan_pool_rejects,
        ])
    return log


@pytest.mark.parametrize("seed", SEEDS)
def test_cursor_matches_oracle_on_dense_claims(seed):
    _run_script(seed)


def test_scan_log_digest_pinned():
    logs = [_run_script(seed) for seed in SEEDS]
    blob = json.dumps(logs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_DIGEST
