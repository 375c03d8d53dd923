"""Brute-force availability oracle for the differential suites.

:class:`OracleProfile` is the executable *specification* of what the
optimized :class:`repro.sched.profile.AvailabilityProfile` must
compute.  It holds no derived state at all — every query walks every
release and every reservation from scratch — so there is nothing to
get incrementally wrong: correctness is readable off the query bodies.

The semantics it pins (shared with the optimized implementation):

* **Overrun grace** — a running job whose estimated end is already in
  the past releases at ``now + _OVERRUN_GRACE``, never in the past.
* **Epsilon bands** — a release counts at ``t`` when its time is
  ``<= t + _EPS``; a reservation occupies ``t`` when
  ``start <= t + _EPS and t < end - _EPS``; window sweeps consider
  only events *strictly* inside ``(start + _EPS, end - _EPS)``.
* **Tie order** — same-instant pool events apply in a stable order
  (reservations in insertion order, start before end, then releases in
  time order), and the running minimum is updated after *each* event,
  so a +X/-X collision at one instant still dips the minimum.

The suites that anchor on it compare it query-for-query against the
optimized profile (``test_profile_equivalence.py``,
``test_profile_properties.py``, ``test_release_folding.py``).  The
end-to-end scheduler suites no longer run an oracle at all — they
compare against pinned golden digests (see ``tests/_golden.py``).

:class:`OracleOccupancy` is the reference model of the cluster's
occupancy ledger: node ownership kept node by node, each node a small
IDLE/BUSY/DOWN state machine (:class:`OracleNode`).
``test_cluster.py`` runs seeded random scripts against both.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.cluster.node import NodeState
from repro.cluster.nodeset import mask_of
from repro.cluster.pool import MemoryPool
from repro.errors import AllocationError
from repro.sched.profile import Reservation
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.memdis.allocator import PoolAllocator
    from repro.sched.placement import PlacementPolicy

_OVERRUN_GRACE = 1.0
_EPS = 1e-9


class _Release(NamedTuple):
    time: float
    node_ids: Tuple[int, ...]
    grants: Dict[str, int]


class OracleProfile:
    """Rescan-everything availability profile: the reference semantics."""

    def __init__(
        self,
        cluster: "Cluster",
        running: Iterable[Job],
        now: float,
        duration_of: Callable[[Job], float],
    ) -> None:
        self._cluster = cluster
        self._now = now
        self._free_now: FrozenSet[int] = frozenset(cluster.sorted_free_ids())
        self._pool_now: Dict[str, int] = {
            pool.pool_id: pool.free for pool in cluster.all_pools()
        }
        releases: List[_Release] = []
        for job in running:
            if job.start_time is None:
                continue
            est_end = job.start_time + duration_of(job)
            if est_end <= now:
                # Overran its estimate: grant it a grace period rather
                # than releasing in the past.
                est_end = now + _OVERRUN_GRACE
            releases.append(
                _Release(est_end, tuple(job.assigned_nodes), dict(job.pool_grants))
            )
        releases.sort(key=lambda release: release.time)
        self._releases: List[_Release] = releases
        # Insertion order is semantically significant: same-instant
        # pool events tie-break by it (see window_free).
        self._reservations: List[Reservation] = []

    # -- mutation ------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def reservations(self) -> List[Reservation]:
        return list(self._reservations)

    def add_reservation(self, reservation: Reservation) -> Reservation:
        self._reservations.append(reservation)
        return reservation

    def remove_reservation(self, reservation: Reservation) -> None:
        self._reservations.remove(reservation)

    # -- queries -------------------------------------------------------
    def breakpoints(self, after: Optional[float] = None) -> List[float]:
        """Every instant availability can change, from ``now`` (or
        ``after``) on: release times plus reservation edges."""
        horizon = self._now if after is None else max(after, self._now)
        times = {horizon}
        times.update(
            release.time for release in self._releases if release.time > horizon
        )
        for res in self._reservations:
            times.update(edge for edge in (res.start, res.end) if edge > horizon)
        return sorted(times)

    def free_at(self, time: float) -> Tuple[FrozenSet[int], Dict[str, int]]:
        free = set(self._free_now)
        pool = dict(self._pool_now)
        for release in self._releases:
            if release.time <= time + _EPS:
                free.update(release.node_ids)
                for pool_id, amount in release.grants.items():
                    pool[pool_id] = pool.get(pool_id, 0) + amount
        for res in self._reservations:
            if res.start <= time + _EPS and time < res.end - _EPS:
                free.difference_update(res.node_ids)
                for pool_id, amount in res.pool_grants:
                    pool[pool_id] = pool.get(pool_id, 0) - amount
        return frozenset(free), pool

    def window_free(
        self, start: float, duration: float
    ) -> Tuple[FrozenSet[int], Dict[str, int]]:
        """Nodes free for the whole window and the per-pool minimum
        level anywhere inside it."""
        end = start + duration
        free, pool_start = self.free_at(start)
        pool_min = dict(pool_start)
        if not self._reservations:
            return free, pool_min

        def inside(instant: float) -> bool:
            return start + _EPS < instant < end - _EPS

        # A reservation starting mid-window claims its nodes for part
        # of the window, so they are not free for the whole of it.
        claimed = set()
        events: List[Tuple[float, Dict[str, int], int]] = []
        for res in self._reservations:
            if inside(res.start):
                claimed.update(res.node_ids)
                events.append((res.start, dict(res.pool_grants), -1))
            if inside(res.end):
                events.append((res.end, dict(res.pool_grants), +1))
        for release in self._releases:
            if release.grants and inside(release.time):
                events.append((release.time, release.grants, +1))
        if claimed:
            free = frozenset(free - claimed)
        # Stable sort: same-instant events keep the order built above
        # (reservation insertion order, then releases), and the minimum
        # tracks every intermediate level — a -X before a +X at one
        # instant dips it on purpose.
        level = dict(pool_start)
        for _, grants, sign in sorted(events, key=lambda event: event[0]):
            for pool_id, amount in grants.items():
                level[pool_id] = level.get(pool_id, 0) + sign * amount
                if level[pool_id] < pool_min.get(pool_id, 0):
                    pool_min[pool_id] = level[pool_id]
        return free, pool_min

    def earliest_start(
        self,
        job: Job,
        duration: float,
        remote_per_node: int,
        placement: "PlacementPolicy",
        allocator: "PoolAllocator",
        after: Optional[float] = None,
        memory_aware: bool = True,
    ) -> Optional[Reservation]:
        """First breakpoint where the job fits for its whole window."""
        for t in self.breakpoints(after=after):
            free, pool_min = self.window_free(t, duration)
            if len(free) < job.nodes:
                continue
            node_ids = placement.select(
                self._cluster, mask_of(free), job.nodes, remote_per_node,
                pool_min,
            )
            if node_ids is None:
                continue
            if not memory_aware or remote_per_node == 0:
                plan: Optional[Dict[str, int]] = {}
            else:
                plan = allocator.plan(
                    self._cluster, node_ids, remote_per_node,
                    free_override=pool_min,
                )
                if plan is None:
                    continue
            return Reservation(
                job_id=job.job_id,
                start=t,
                end=t + duration,
                node_ids=tuple(node_ids),
                pool_grants=tuple(sorted((plan or {}).items())),
            )
        return None


class OracleNode:
    """One node's occupancy as a state machine: IDLE, BUSY (owned by
    ``job_id`` with ``local_grant`` MiB) or DOWN."""

    __slots__ = ("node_id", "local_mem", "state", "job_id", "local_grant")

    def __init__(self, node_id: int, local_mem: int) -> None:
        self.node_id = node_id
        self.local_mem = local_mem
        self.state = NodeState.IDLE
        self.job_id: Optional[int] = None
        self.local_grant = 0

    def allocate(self, job_id: int, local_grant: int) -> None:
        if self.state is not NodeState.IDLE:
            raise AllocationError(f"node {self.node_id} is {self.state.value}")
        if local_grant < 0 or local_grant > self.local_mem:
            raise AllocationError(f"local grant {local_grant} out of range")
        self.state = NodeState.BUSY
        self.job_id = job_id
        self.local_grant = local_grant

    def release(self, job_id: int) -> None:
        if self.state is not NodeState.BUSY or self.job_id != job_id:
            raise AllocationError(f"node {self.node_id} not held by {job_id}")
        self.state = NodeState.IDLE
        self.job_id = None
        self.local_grant = 0

    def mark_down(self) -> None:
        if self.state is NodeState.BUSY:
            raise AllocationError(f"node {self.node_id} is busy")
        self.state = NodeState.DOWN

    def mark_up(self) -> None:
        if self.state is NodeState.DOWN:
            self.state = NodeState.IDLE


class OracleOccupancy:
    """Node occupancy and one global pool, with the ``Cluster`` method
    contract: a call that raises changes nothing, and every successful
    mutation bumps ``version`` exactly as the cluster does."""

    def __init__(self, num_nodes: int, local_mem: int, pool_capacity: int) -> None:
        self.nodes = [OracleNode(node_id, local_mem) for node_id in range(num_nodes)]
        self.pool = MemoryPool("global", pool_capacity)
        self.version = 0

    def _node(self, node_id: int) -> OracleNode:
        if not isinstance(node_id, int) or not 0 <= node_id < len(self.nodes):
            raise AllocationError(f"unknown node id {node_id!r}")
        return self.nodes[node_id]

    def allocate_nodes(self, job_id: int, node_ids: Iterable[int], local_grant: int) -> None:
        nodes = [self._node(node_id) for node_id in node_ids]
        if len(set(map(id, nodes))) != len(nodes):
            raise AllocationError("repeated node id")
        if any(node.job_id == job_id for node in self.nodes):
            raise AllocationError(f"job {job_id} already holds nodes")
        taken: List[OracleNode] = []
        try:
            for node in nodes:
                node.allocate(job_id, local_grant)
                taken.append(node)
        except AllocationError:
            for node in taken:
                node.release(job_id)
            raise
        self.version += 1

    def release_nodes(self, job_id: int) -> None:
        held = [node for node in self.nodes if node.job_id == job_id]
        if not held:
            raise AllocationError(f"job {job_id} holds no nodes")
        for node in held:
            node.release(job_id)
        self.version += 1

    def take_down(self, node_id: int) -> None:
        self._node(node_id).mark_down()
        self.version += 1

    def bring_up(self, node_id: int) -> None:
        node = self._node(node_id)
        if node.state is NodeState.DOWN:
            node.mark_up()
            self.version += 1

    def allocate_pool(self, job_id: int, amount: int) -> None:
        if amount > 0:
            self.pool.allocate(job_id, amount)
        self.version += 1

    def release_pool(self, job_id: int) -> int:
        self.version += 1
        return self.pool.release_if_held(job_id)

    @property
    def free_mask(self) -> int:
        return mask_of(
            node.node_id for node in self.nodes if node.state is NodeState.IDLE
        )

    def snapshot(self) -> dict:
        states = [node.state for node in self.nodes]
        return {
            "free_nodes": states.count(NodeState.IDLE),
            "busy_nodes": states.count(NodeState.BUSY),
            "local_mem_granted": sum(node.local_grant for node in self.nodes),
            "pool_used": self.pool.used,
            "pool_capacity": self.pool.capacity,
        }
