"""Live-cursor oracle scripts on a wide machine.

The other oracle suites run on at most 20 nodes, so every node id fits
in the low bits of a machine word.  The scheduling core keeps node sets
as ``int`` bitmasks, where a mistake at a word boundary (bit 30, 60,
64, 128) would only show on high node ids.  These seeded scripts run a
208-node cluster with 16-node racks whose running jobs and
reservations draw node ids from ranges straddling those bits, and
drive one live :class:`SweepCursor` through:

* reservation adds, removes and truncates (including a full clear);
* ``apply_start`` and ``apply_release`` folds;
* ``rebase`` to a later instant;
* scans with ``after=``, ``not_after=`` and a trial overlay.

After each step every scan must agree with the rescan-everything
oracle (rebuilt from the current cluster state) and with the stock
:meth:`AvailabilityProfile.earliest_start`, and the cursor's three
``last_scan_*`` statistics must equal the ones derived from the oracle
by walking its breakpoints.  Only public results are compared.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, PoolSpec
from repro.memdis import GlobalPoolAllocator, HybridAllocator, RackLocalAllocator
from repro.sched import AvailabilityProfile, Reservation
from repro.sched.placement import placement_for
from repro.units import GiB
from repro.workload import Job, JobState

from ._oracles import OracleProfile

SEEDS = range(10)
STEP = 600.0
NUM_NODES = 208
RACK = 16
#: Node-id ranges straddling bits 30, 60 and 64, 128, and the top of
#: the machine; every running job and reservation draws from them.
HOT = ((24, 36), (54, 72), (120, 136), (188, NUM_NODES))
PLACEMENTS = ("first_fit", "rack_pack", "min_remote", "spread")
ALLOCATORS = (GlobalPoolAllocator(), RackLocalAllocator(), HybridAllocator())
_EPS = 1e-9


def _dur(job: Job) -> float:
    return job.walltime


def _cluster() -> Cluster:
    return Cluster(ClusterSpec(
        name="wide-oracle", num_nodes=NUM_NODES, nodes_per_rack=RACK,
        node=NodeSpec(cores=8, local_mem=16 * GiB),
        pool=PoolSpec(rack_pool=16 * GiB, global_pool=96 * GiB),
    ))


def _hot_ids(rng: random.Random, pool, count: int):
    """``count`` ids from ``pool``, mostly inside the hot ranges."""
    hot = [i for lo, hi in HOT for i in range(lo, hi) if i in pool]
    cold = [i for i in pool if i not in set(hot)]
    take_hot = min(len(hot), max(1, count * 3 // 4))
    picked = rng.sample(hot, take_hot) if hot else []
    rest = count - len(picked)
    if rest > 0 and cold:
        picked += rng.sample(cold, min(rest, len(cold)))
    return sorted(picked)


def _grants(rng: random.Random, cluster: Cluster):
    if rng.random() < 0.4:
        return {}
    pool = rng.choice(cluster.all_pools())
    amount = min(pool.free, rng.choice((1, 2, 4)) * GiB)
    return {pool.pool_id: amount} if amount > 0 else {}


def _start(cluster, job_id, node_ids, grants, start, walltime) -> Job:
    job = Job(job_id=job_id, submit_time=0.0, nodes=len(node_ids),
              walltime=walltime, runtime=walltime, mem_per_node=8 * GiB)
    cluster.allocate_nodes(job_id, node_ids, 8 * GiB)
    if grants:
        cluster.allocate_pool(job_id, grants)
    job.state = JobState.RUNNING
    job.start_time = start
    job.assigned_nodes = list(node_ids)
    job.pool_grants = dict(grants)
    return job


def _reservation(rng, cluster, now, job_id) -> Reservation:
    start = now + STEP * rng.randint(0, 10) + rng.choice((0.0, 0.0, 5e-10))
    length = rng.choice((0.0, STEP / 2, STEP, 2 * STEP, 4 * STEP, 9 * STEP))
    count = rng.choice((1, 3, 8, 20, 40))
    node_ids = tuple(_hot_ids(rng, range(NUM_NODES), count))
    grants = ()
    if rng.random() < 0.5:
        pool = rng.choice(cluster.all_pools())
        grants = ((pool.pool_id, rng.choice((1, 2, 4)) * GiB),)
    return Reservation(job_id=job_id, start=start, end=start + length,
                       node_ids=node_ids, pool_grants=grants)


def _oracle(cluster, running, now, held, trial=None) -> OracleProfile:
    oracle = OracleProfile(cluster, running, now, _dur)
    for res in held:
        oracle.add_reservation(res)
    if trial is not None:
        oracle.add_reservation(trial)
    return oracle


def _oracle_stats(oracle, job, duration, found, after, not_after):
    """The cursor's scan statistics, derived from the oracle: walk its
    candidates up to the accepted start (or the cap); a point count
    below the demand is a count rejection, then a windowed count below
    it, and any other rejected candidate is a pool rejection."""
    needed = job.nodes
    count_reject = 0
    pool_rejects = 0
    for t in oracle.breakpoints(after=after):
        if not_after is not None and t > not_after:
            break
        if found is not None and t == found.start:
            break
        point = len(oracle.free_at(t)[0])
        if point < needed:
            count_reject = max(count_reject, point)
            continue
        windowed = len(oracle.window_free(t, duration)[0])
        if windowed < needed:
            count_reject = max(count_reject, windowed)
            continue
        pool_rejects += 1
    max_reject = needed if pool_rejects else count_reject
    return max_reject, count_reject, pool_rejects


def _scan(rng, cluster, running, now, profile, held, step):
    needed = rng.choice((1, 2, 5, 16, 33, 64, 100, 150, NUM_NODES))
    duration = rng.choice((0.0, STEP / 3, STEP, 2.5 * STEP, 6 * STEP))
    remote = rng.choice((0, 0, 1, 2)) * GiB
    memory_aware = rng.random() < 0.8
    placement = placement_for(rng.choice(PLACEMENTS))
    allocator = rng.choice(ALLOCATORS)
    job = Job(job_id=1 + step, submit_time=0.0, nodes=needed,
              walltime=8 * STEP, runtime=STEP,
              mem_per_node=16 * GiB + remote)
    after = not_after = trial = None
    flavor = rng.random()
    if flavor < 0.25:
        after = now + rng.choice((STEP * rng.randint(0, 5),
                                  rng.uniform(0.0, 5 * STEP)))
    elif flavor < 0.5:
        not_after = now + STEP * rng.randint(0, 6)
    elif flavor < 0.75:
        # EASY's trial shape: a hypothetical start at the profile
        # instant on currently free nodes.
        free = cluster.sorted_free_ids()
        if free:
            nodes = _hot_ids(rng, free, rng.randint(1, min(48, len(free))))
            trial = Reservation(
                job_id=9999, start=now,
                end=now + STEP * rng.choice((0.5, 1, 3, 7)),
                node_ids=tuple(nodes), pool_grants=(),
            )
            not_after = rng.choice((None, now + STEP * rng.randint(1, 6)))
    args = (job, duration, remote, placement, allocator)
    cursor = profile.sweep_cursor()
    got = cursor.earliest_start(*args, after=after, memory_aware=memory_aware,
                                not_after=not_after, trial=trial)
    stats = (cursor.last_scan_max_reject, cursor.last_scan_count_reject,
             cursor.last_scan_pool_rejects)
    oracle = _oracle(cluster, running, now, held, trial)
    want = oracle.earliest_start(*args, after=after, memory_aware=memory_aware)
    if not_after is not None and want is not None and want.start > not_after:
        want = None
    assert got == want, (step, "oracle")
    assert stats == _oracle_stats(oracle, job, duration, want, after,
                                  not_after), (step, "stats")
    if trial is not None:
        profile.add_reservation(trial)
    stock = profile.earliest_start(*args, after=after,
                                   memory_aware=memory_aware,
                                   not_after=not_after)
    if trial is not None:
        profile.remove_reservation(trial)
    assert stock == got, (step, "stock")


def _run_script(seed: int) -> None:
    rng = random.Random(seed)
    cluster = _cluster()
    now = 1000.0
    running = []
    next_id = 500
    for _ in range(rng.randint(4, 8)):
        free = cluster.sorted_free_ids()
        node_ids = _hot_ids(rng, free, rng.choice((2, 6, 12, 24)))
        running.append(_start(
            cluster, next_id, node_ids, _grants(rng, cluster),
            now - STEP * rng.randint(0, 2), STEP * rng.randint(3, 12),
        ))
        next_id += 1
    profile = AvailabilityProfile(cluster, running, now, _dur)
    held = []
    next_res = 2000
    for _ in range(rng.randint(6, 14)):
        res = _reservation(rng, cluster, now, next_res)
        next_res += 1
        profile.add_reservation(res)
        held.append(res)
    profile.sweep_cursor()
    for step in range(36):
        roll = rng.random()
        if roll < 0.12:
            res = _reservation(rng, cluster, now, next_res)
            next_res += 1
            profile.add_reservation(res)
            held.append(res)
        elif roll < 0.2 and held:
            victim = held.pop(rng.randrange(len(held)))
            profile.remove_reservation(victim)
        elif roll < 0.26:
            keep = rng.randint(0, len(held))
            profile.truncate_reservations(keep)
            del held[keep:]
        elif roll < 0.34:
            free = cluster.sorted_free_ids()
            if free:
                node_ids = _hot_ids(rng, free, rng.choice((1, 4, 16)))
                grants = _grants(rng, cluster)
                job = _start(cluster, next_id, node_ids, grants, now,
                             STEP * rng.randint(1, 10))
                next_id += 1
                running.append(job)
                profile.apply_start(job.assigned_nodes, job.pool_grants,
                                    job.start_time + _dur(job))
        elif roll < 0.42 and running:
            job = running.pop(rng.randrange(len(running)))
            assert profile.apply_release(
                job.assigned_nodes, job.pool_grants,
                job.start_time + _dur(job),
            )
            cluster.release_nodes(job.job_id)
            cluster.release_pool(job.job_id)
        elif roll < 0.47:
            later = now + rng.choice((1.0, STEP / 4))
            if profile.rebase(later):
                now = later
        _scan(rng, cluster, running, now, profile, held, step)


@pytest.mark.parametrize("seed", SEEDS)
def test_wide_cursor_matches_oracle(seed):
    _run_script(seed)
