"""The assembled machine: nodes, racks, pools, and capacity queries."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import AllocationError
from .fabric import Fabric
from .node import Node, NodeState
from .nodeset import ids_of, mask_of
from .pool import MemoryPool
from .rack import Rack
from .spec import ClusterSpec

__all__ = ["Cluster"]


class Cluster:
    """Instantiated hardware built from a :class:`ClusterSpec`.

    The cluster owns state (node occupancy, pool grants) and enforces
    capacity; it performs no policy.  Node selection and local/remote
    splitting are decided by the scheduler stack and handed in as
    explicit grant maps.

    Node occupancy is a ledger of node masks: the free set, the down
    set, and per running job ``job_id -> (node mask, per-node local
    grant)``.  Four methods change it (:meth:`allocate_nodes`,
    :meth:`release_nodes`, :meth:`take_down`, :meth:`bring_up`); each
    applies in full or raises ``AllocationError`` before any mutation.
    """

    def __init__(self, spec: ClusterSpec) -> None:
        spec.validate()
        self.spec = spec
        self.nodes: List[Node] = []
        self.racks: List[Rack] = []
        rack_count = spec.num_racks
        for rack_id in range(rack_count):
            lo = rack_id * spec.nodes_per_rack
            hi = min(lo + spec.nodes_per_rack, spec.num_nodes)
            rack_nodes = [
                Node(node_id, rack_id, spec.node.cores, spec.node.local_mem)
                for node_id in range(lo, hi)
            ]
            self.nodes.extend(rack_nodes)
            pool: Optional[MemoryPool] = None
            if spec.pool.rack_pool > 0:
                pool = MemoryPool(
                    f"rack{rack_id}", spec.pool.rack_pool, spec.pool.rack_bandwidth
                )
            self.racks.append(Rack(rack_id, rack_nodes, pool))
        self.global_pool: Optional[MemoryPool] = None
        if spec.pool.global_pool > 0:
            self.global_pool = MemoryPool(
                "global", spec.pool.global_pool, spec.pool.global_bandwidth
            )
        self.fabric = Fabric(self)
        # Maintained capacity indexes: the scheduler hot path asks
        # "which nodes are free?" thousands of times per simulated
        # second, so the free set is kept incrementally instead of
        # re-scanned (as a node-id bitmask, see :mod:`.nodeset`), and
        # pool lookups are prebuilt (pool identity never changes after
        # construction).
        self._all_mask: int = mask_of(node.node_id for node in self.nodes)
        self._free_mask: int = self._all_mask
        self._down_mask: int = 0
        self._holdings: Dict[int, Tuple[int, int]] = {}
        #: Monotone state-change counter: bumped by every mutation that
        #: can affect availability (node occupancy, node state, pool
        #: grants).  Consumers use it to validate availability caches;
        #: direct mutation of a ``MemoryPool`` bypasses it, so always go
        #: through the cluster methods.
        self.version: int = 0
        # Version-batch state: within a batch (one scheduling pass)
        # the first mutation bumps the counter once and the rest are
        # absorbed — consumers only compare stamps for equality, and
        # a pass is one atomic decision unit.
        self._version_hold = False
        self._version_bumped = False
        self._pools: List[MemoryPool] = [
            rack.pool for rack in self.racks if rack.pool is not None
        ]
        if self.global_pool is not None:
            self._pools.append(self.global_pool)
        self._pools_by_id: Dict[str, MemoryPool] = {
            pool.pool_id: pool for pool in self._pools
        }
        self._pool_capacities: Dict[str, int] = {
            pool.pool_id: pool.capacity for pool in self._pools
        }
        #: Any pool with finite bandwidth?  When False, bandwidth
        #: pressure is identically zero and hot paths skip the scan.
        self.has_metered_pools: bool = any(
            pool.bandwidth != float("inf") for pool in self._pools
        )
        #: Pool-activity change stamps: monotone counters bumped when
        #: pool memory is granted (:meth:`allocate_pool` with a
        #: non-empty grant map) or returned (:meth:`release_pool`
        #: freeing anything).  Consumers cache derived views of the
        #: pool-holding running set — e.g. the start gates' next-pool-
        #: release estimate — keyed on the pair: while neither stamp
        #: moved, the set of pool-holding jobs is provably unchanged.
        self.pool_grant_count: int = 0
        self.pool_release_count: int = 0

    # ------------------------------------------------------------------
    # version batching (one bump per scheduling pass)
    # ------------------------------------------------------------------
    def begin_version_batch(self) -> None:
        """Coalesce version bumps until :meth:`end_version_batch`.

        The engine brackets each scheduling pass with a batch: the
        pass is one atomic decision unit, so its k starts (2k+
        mutations) advance the availability version once.  Cache
        consumers only ever compare stamps for equality, and a
        strategy that stamps its cache at pass teardown observes the
        final (post-bump) value either way — the coalescing is
        invisible except through the counter's arithmetic.
        """
        self._version_hold = True
        self._version_bumped = False

    def end_version_batch(self) -> None:
        self._version_hold = False

    def _bump_version(self) -> None:
        if self._version_hold:
            if self._version_bumped:
                return
            self._version_bumped = True
        self.version += 1

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def rack(self, rack_id: int) -> Rack:
        return self.racks[rack_id]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_racks(self) -> int:
        return len(self.racks)

    @property
    def free_node_count(self) -> int:
        return self._free_mask.bit_count()

    @property
    def free_mask(self) -> int:
        """Maintained bitmask of idle node ids (no scan)."""
        return self._free_mask

    @property
    def all_mask(self) -> int:
        """Bitmask of every node id, regardless of state (empty-machine
        queries)."""
        return self._all_mask

    @property
    def down_mask(self) -> int:
        """Bitmask of node ids out of service."""
        return self._down_mask

    def node_state(self, node_id: int) -> NodeState:
        bit = self._mask([node_id])
        if self._free_mask & bit:
            return NodeState.IDLE
        return NodeState.DOWN if self._down_mask & bit else NodeState.BUSY

    def holder(self, node_id: int) -> Optional[int]:
        """The job holding ``node_id``, or None (scans the holdings)."""
        bit = self._mask([node_id])
        held = (job_id for job_id, (mask, _) in self._holdings.items() if mask & bit)
        return next(held, None)

    def owners(self) -> Dict[int, Tuple[int, int]]:
        """``{node_id: (job_id, local grant MiB)}`` for every busy node."""
        return {
            node_id: (job_id, grant)
            for job_id, (mask, grant) in self._holdings.items()
            for node_id in ids_of(mask)
        }

    def sorted_free_ids(self) -> List[int]:
        """Idle node ids ascending (a fresh list)."""
        return ids_of(self._free_mask)

    def all_pools(self) -> List[MemoryPool]:
        """Every pool, rack pools first then global (do not mutate)."""
        return self._pools

    def pool_capacities(self) -> Dict[str, int]:
        """``{pool_id: capacity MiB}`` — immutable after construction
        (do not mutate the returned dict)."""
        return self._pool_capacities

    def pool_by_id(self, pool_id: str) -> MemoryPool:
        try:
            return self._pools_by_id[pool_id]
        except KeyError:
            raise KeyError(pool_id) from None

    @property
    def total_pool_capacity(self) -> int:
        return sum(pool.capacity for pool in self.all_pools())

    @property
    def total_pool_used(self) -> int:
        return sum(pool.used for pool in self.all_pools())

    # ------------------------------------------------------------------
    # allocation (called by the engine with scheduler-chosen grants)
    # ------------------------------------------------------------------
    def _mask(self, node_ids: List[int]) -> int:
        """The mask of ``node_ids``, checked against ``0..N-1`` before
        any bit is built; raises on an unknown or repeated id."""
        try:
            if not node_ids or (min(node_ids) >= 0 and max(node_ids) < len(self.nodes)):
                mask = mask_of(node_ids)
                if mask.bit_count() == len(node_ids):
                    return mask
        except TypeError:
            pass
        raise AllocationError(f"unknown or repeated node id in {node_ids!r}")

    def allocate_nodes(
        self,
        job_id: int,
        node_ids: Iterable[int],
        local_grant: int,
    ) -> None:
        """Assign ``node_ids`` exclusively to ``job_id``.

        ``local_grant`` is the per-node local-memory grant.  The call is
        atomic: it raises :class:`AllocationError` before any mutation
        when an id is unknown or repeated, a node is busy or down, the
        job already holds nodes, or the grant falls outside
        ``[0, local_mem]``.
        """
        mask = self._mask(list(node_ids))
        if mask & ~self._free_mask:
            raise AllocationError(
                f"nodes {ids_of(mask & ~self._free_mask)} are busy or down, "
                f"cannot allocate to job {job_id}"
            )
        if job_id in self._holdings:
            raise AllocationError(f"job {job_id} already holds nodes")
        if not 0 <= local_grant <= self.spec.node.local_mem:
            raise AllocationError(
                f"local grant {local_grant} MiB outside "
                f"[0, {self.spec.node.local_mem}] for job {job_id}"
            )
        self._free_mask ^= mask
        self._holdings[job_id] = (mask, local_grant)
        self._bump_version()

    def release_nodes(self, job_id: int) -> None:
        """Return every node ``job_id`` holds to the free set."""
        try:
            mask, _ = self._holdings.pop(job_id)
        except KeyError:
            raise AllocationError(f"job {job_id} holds no nodes") from None
        self._free_mask |= mask
        self._bump_version()

    def take_down(self, node_id: int) -> None:
        """Remove an idle node from service (failure injection).

        The caller must release any running job first; taking down a
        busy node raises.  Taking down a node that is already down
        changes nothing but the version.
        """
        bit = self._mask([node_id])
        if not (self._free_mask | self._down_mask) & bit:
            raise AllocationError(f"node {node_id} is busy; release it first")
        self._free_mask &= ~bit
        self._down_mask |= bit
        self._bump_version()

    def bring_up(self, node_id: int) -> None:
        """Return a DOWN node to service."""
        bit = self._mask([node_id])
        if self._down_mask & bit:
            self._down_mask ^= bit
            self._free_mask |= bit
            self._bump_version()

    def allocate_pool(self, job_id: int, grants: Dict[str, int]) -> None:
        """Apply pool grants ``{pool_id: MiB}`` atomically for ``job_id``."""
        applied: List[MemoryPool] = []
        try:
            for pool_id, amount in grants.items():
                if amount <= 0:
                    continue
                pool = self.pool_by_id(pool_id)
                pool.allocate(job_id, amount)
                applied.append(pool)
        except AllocationError:
            for pool in applied:
                pool.release_if_held(job_id)
            raise
        if applied:
            self.pool_grant_count += 1
        self._bump_version()

    def release_pool(self, job_id: int) -> int:
        """Release every pool grant held by ``job_id``; returns MiB freed."""
        freed = 0
        for pool in self.all_pools():
            freed += pool.release_if_held(job_id)
        if freed:
            self.pool_release_count += 1
        self._bump_version()
        return freed

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Cheap state snapshot for metrics sampling."""
        free_count = self._free_mask.bit_count()
        return {
            "free_nodes": free_count,
            "busy_nodes": self.num_nodes - free_count
            - self._down_mask.bit_count(),
            "local_mem_granted": sum(
                mask.bit_count() * grant
                for mask, grant in self._holdings.values()
            ),
            "pool_used": self.total_pool_used,
            "pool_capacity": self.total_pool_capacity,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cluster({self.spec.name}: {self.num_nodes} nodes / "
            f"{self.num_racks} racks, pool={self.total_pool_capacity} MiB)"
        )
